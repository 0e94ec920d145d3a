#!/usr/bin/env python3
"""kill -9 crash-torture for cpclean_server's snapshot persistence.

Loops: start the server over one persistent --data-dir, advance a session
(clean_step + q2 + save_session), and SIGKILL the process at a random
(seeded, reproducible) moment while saves are in flight. After every kill
the server restarts over the same data dir and the session must rehydrate
to a state this script has seen and recorded -- bit-identical q2 answers,
compared as raw JSON bytes -- and never to a state older than the last
acknowledged save. Any torn snapshot surfaces as a loud structured error
from the server (rehydration verifies working-dataset bit-identity and the
task fingerprint), which fails the torture.

The atomic-write protocol (temp file + rename) may leave ``*.tmp`` litter
when killed mid-write -- that is expected and counted -- but the restarted
server's startup sweep must remove it: after every restart the data dir is
checked clean of temp files, and the committed ``*.cpsession`` must be the
last acknowledged state or newer.

The save-only-after-record discipline makes the check airtight: a save is
issued only for states whose q2 bits were recorded first, so whatever the
rename committed before the kill is always a state the script can verify.

``--mode`` picks which persistence machinery the kill lands in:

  save (default)  explicit save_session while cleaning -- under the
                  append-only log most saves are O(delta) log appends, so
                  kills land mid-append and mid-fsync.
  evict           the server runs with --max-sessions=1 and each cycle
                  creates a fresh decoy session, forcing the LRU eviction
                  sweep to persist the torture session; kills land inside
                  the sweep's serialize/commit/drop window, which runs
                  under the session's shared lock.
  compact         the server runs with --log-compact-bytes=64, so nearly
                  every save folds the log into a fresh base snapshot;
                  kills land between the base rename and the log unlink,
                  leaving stale logs whose records must replay as no-ops.

Stdlib only. Exit 0 with a summary, non-zero with a diagnosis.

  python3 scripts/crash_torture.py \\
      --server ./build/release/examples/cpclean_server --iterations 30 \\
      --mode evict
"""

import argparse
import glob
import json
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

LISTEN_RE = re.compile(r"listening on 127\.0\.0\.1:([0-9]+)")

CREATE = (
    '{"op":"create_session","session":"t","source":"synthetic",'
    '"dataset":"torture","train_rows":30,"val_size":4,"test_size":4,'
    '"seed":7,"numeric":4,"categorical":0,"noise_sigma":0.3,'
    '"missing_rate":0.4,"k":3}'
)


class Client:
    """A blocking line-protocol client; raises on any transport failure."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=20)
        self.buffer = b""

    def rpc(self, line):
        self.sock.sendall(line.encode() + b"\n")
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode()

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def start_server(server, data_dir, extra_args=()):
    """Starts the server on an ephemeral port; returns (proc, port)."""
    proc = subprocess.Popen(
        [server, "--port=0", "--threads=2", "--data-dir=%s" % data_dir]
        + list(extra_args),
        stderr=subprocess.PIPE,
    )
    port = None
    deadline = time.time() + 30
    while time.time() < deadline:
        line = proc.stderr.readline().decode()
        if not line:
            raise SystemExit("server exited before announcing its port")
        match = LISTEN_RE.search(line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        raise SystemExit("server never announced its port")
    # Drain stderr in the background so the server can't block on the pipe.
    threading.Thread(target=proc.stderr.read, daemon=True).start()
    return proc, port


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def tmp_litter(data_dir):
    return sorted(glob.glob(os.path.join(data_dir, "*.tmp")))


def q2_bits(client):
    """The session's q2 answers for every validation index, raw bytes."""
    bits = []
    for v in range(4):
        response = client.rpc(
            '{"op":"q2","session":"t","val_indices":[%d]}' % v
        )
        parsed = json.loads(response)
        if parsed.get("ok") is not True:
            raise SystemExit("q2 failed: %s" % response)
        bits.append(json.dumps(parsed["result"]["results"][0],
                               sort_keys=True))
    return "\n".join(bits)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--server", required=True,
                        help="cpclean_server binary")
    parser.add_argument("--iterations", type=int, default=30,
                        help="kill/restart cycles")
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds the kill-timing schedule")
    parser.add_argument("--data-dir", default=None,
                        help="persistent dir (default: a fresh tempdir)")
    parser.add_argument("--mode", choices=("save", "evict", "compact"),
                        default="save",
                        help="which persistence path the kills land in")
    args = parser.parse_args()

    extra_args = []
    if args.mode == "evict":
        extra_args = ["--max-sessions=1"]
    elif args.mode == "compact":
        extra_args = ["--log-compact-bytes=64"]

    data_dir = args.data_dir or tempfile.mkdtemp(prefix="cpclean_torture_")
    if args.data_dir is None:
        shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir, exist_ok=True)

    # Every state the session has ever been in: q2 bits -> step index. A
    # rehydrated session must land on one of these, at or past `acked`.
    known = {}
    acked = -1
    kills_with_litter = 0
    created = False

    decoys = 0
    for iteration in range(args.iterations):
        rng = random.Random(args.seed * 100003 + iteration)
        proc, port = start_server(args.server, data_dir, extra_args)
        try:
            litter = tmp_litter(data_dir)
            if litter:
                raise SystemExit(
                    "iteration %d: startup sweep left temp litter: %s"
                    % (iteration, litter))

            client = Client(port)
            if not created:
                response = client.rpc(CREATE)
                if json.loads(response).get("ok") is not True:
                    raise SystemExit("create failed: %s" % response)
                created = True
                known[q2_bits(client)] = 0
            else:
                # Rehydrates lazily off the snapshot the kill left behind.
                bits = q2_bits(client)
                if bits not in known:
                    raise SystemExit(
                        "iteration %d: rehydrated to an unknown state "
                        "(torn or fabricated snapshot):\n%s"
                        % (iteration, bits))
                if known[bits] < acked:
                    raise SystemExit(
                        "iteration %d: rehydrated to step %d but step %d "
                        "was acknowledged saved -- an acked save was lost"
                        % (iteration, known[bits], acked))
            bits = q2_bits(client)
            step = known[bits]

            # One guaranteed acknowledged save, so even an instant kill has
            # a floor to verify against.
            response = client.rpc('{"op":"save_session","session":"t"}')
            if json.loads(response).get("ok") is not True:
                raise SystemExit("save failed: %s" % response)
            acked = max(acked, known[bits])

            # Now advance-record-save as fast as possible, and pull the
            # plug mid-stream.
            timer = threading.Timer(rng.uniform(0.005, 0.12), proc.kill)
            timer.start()
            try:
                while True:
                    response = client.rpc(
                        '{"op":"clean_step","session":"t","steps":1}')
                    if json.loads(response).get("ok") is not True:
                        raise SystemExit("clean_step failed: %s" % response)
                    # Once cleaning is exhausted, further steps leave the
                    # state (and its bits) unchanged — the state index, not
                    # the step counter, is what acked must track.
                    step += 1
                    bits = q2_bits(client)
                    known.setdefault(bits, step)
                    if args.mode == "evict":
                        # Persist by eviction: a fresh decoy session pushes
                        # the torture session (the LRU) through the sweep's
                        # save. An ok decoy create means the sweep's save
                        # of the just-recorded state committed: no write
                        # can land between its serialization and commit.
                        decoys += 1
                        response = client.rpc(CREATE.replace(
                            '"session":"t"', '"session":"d%d"' % decoys))
                    else:
                        response = client.rpc(
                            '{"op":"save_session","session":"t"}')
                    if json.loads(response).get("ok") is not True:
                        raise SystemExit("save failed: %s" % response)
                    acked = max(acked, known[bits])
            except (ConnectionError, OSError):
                pass  # the kill landed
            finally:
                timer.cancel()
            client.close()
        finally:
            stop(proc)

        if tmp_litter(data_dir):
            kills_with_litter += 1

    # Final restart: the surviving snapshot must still rehydrate clean.
    proc, port = start_server(args.server, data_dir, extra_args)
    try:
        if tmp_litter(data_dir):
            raise SystemExit("final restart left temp litter")
        client = Client(port)
        bits = q2_bits(client)
        if bits not in known or known[bits] < acked:
            raise SystemExit("final rehydration check failed")
        client.close()
    finally:
        stop(proc)

    print(
        "crash torture OK (mode=%s): %d kill/restart cycles over %s, %d "
        "distinct session states verified bit-identical, %d kills left "
        "temp litter (all swept on restart), last acked step %d"
        % (args.mode, args.iterations, data_dir, len(known),
           kills_with_litter, acked)
    )
    if args.data_dir is None:
        shutil.rmtree(data_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
