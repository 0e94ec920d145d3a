#ifndef CPCLEAN_COMMON_FAULT_INJECTION_H_
#define CPCLEAN_COMMON_FAULT_INJECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace cpclean {

/// Deterministic, seed-driven fault injection.
///
/// Production code marks its failure-prone operations with named *sites*
/// (`FaultHit("store.rename")`); a test — or the `CPCLEAN_FAULTS`
/// environment variable, or the server's test-only `fault_inject` op —
/// installs *rules* deciding which hits of which site fail. With no rules
/// installed the hot path is a single relaxed atomic load, so shipping the
/// sites costs nothing.
///
/// Configuration syntax (the env var and `Configure` share it):
///
///   config  = clause (";" clause)*          (empty string = no rules)
///   clause  = "seed=" N | site "=" rule
///   rule    = "off" | "once" | "always"
///           | "nth:" K                      fire on exactly the Kth hit
///           | "every:" K                    fire on every Kth hit
///           | "after:" K                    fire on every hit past the Kth
///                                           (a disk that fails and stays
///                                           failed)
///           | "p:" X                        fire with probability X per
///                                           hit, deterministic in the
///                                           seed, the site name, and the
///                                           hit index — same config, same
///                                           fault schedule, every run
///           | "sleep:" MS                   never fails; stalls the hit MS
///                                           milliseconds (deadline and
///                                           backpressure tests)
///
/// Example: CPCLEAN_FAULTS="seed=7;store.rename=once;el.send=p:0.25"
///
/// Sites currently wired (grep FaultHit for ground truth):
///
///   store.open / store.write / store.flush / store.rename
///       session-snapshot file I/O (open failure, short write + error,
///       ENOSPC on the final flush, rename failure)
///   log.append / log.fsync / log.replay
///       cleaning-log I/O (append-open failure, fsync failure after the
///       bytes landed — the append truncates back —, replay failure on
///       rehydration)
///   el.accept / el.recv / el.send / el.send_eagain / el.send_short
///       event-loop sockets (EMFILE on accept, connection reset on read /
///       write, EAGAIN storms, partial writes)
///   serve.exec
///       request execution stall (sleep rules only make sense here)
///   compute.selection_scores
///       first compute-layer site: throws std::runtime_error from the
///       greedy selection kernel (failure rules exercise exception
///       propagation in library tests; sleep rules stall a clean_step
///       mid-compute under a live server)
class FaultInjection {
 public:
  /// Parses `config` and replaces every installed rule (and counters).
  /// An empty config clears all rules. Invalid syntax is an
  /// InvalidArgument and leaves the previous rules untouched.
  static Status Configure(const std::string& config);

  /// Removes every rule; `FaultHit` returns to its one-atomic-load path.
  static void Clear();

  /// True when at least one rule is installed.
  static bool Active();

  /// Arms the test-only `fault_inject` server op without the environment
  /// variable (in-process tests).
  static void ArmOps();

  /// True when the `fault_inject` server op may run: the CPCLEAN_FAULTS
  /// environment variable is present (any value, even empty) or `ArmOps`
  /// was called. A production server — env unset — refuses the op.
  static bool OpsArmed();

  /// Installs the rules from CPCLEAN_FAULTS, once per process (later
  /// calls are no-ops). A malformed env config aborts via CP_CHECK —
  /// silently serving without the faults the operator asked for would
  /// invalidate the whole test run.
  static void InitFromEnv();

  struct SiteStats {
    std::string site;
    uint64_t hits = 0;   // times the site was reached with a rule present
    uint64_t fires = 0;  // times the rule made it fail (or sleep)
  };
  /// Per-site counters, sorted by site name. Only sites with rules are
  /// tracked (an unruled site is never counted — that is the zero-cost
  /// path).
  static std::vector<SiteStats> Stats();
};

/// True when the fault at `site` fires on this hit. `sleep` rules stall
/// the calling thread and return false. Near-zero cost while no rules are
/// installed.
bool FaultHit(const char* site);

}  // namespace cpclean

#endif  // CPCLEAN_COMMON_FAULT_INJECTION_H_
