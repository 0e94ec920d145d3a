#include "serve/session_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <shared_mutex>
#include <sstream>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "cleaning/cp_clean.h"
#include "cleaning/imputers.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "datasets/paper_datasets.h"
#include "eval/experiment.h"
#include "incomplete/cleaning_log.h"
#include "incomplete/serialization.h"
#include "serve/request_params.h"

namespace cpclean {

namespace {

constexpr char kSnapshotSuffix[] = ".cpsession";
constexpr char kLogSuffix[] = ".cplog";
/// Degraded-mode probe file (written + removed inside the data dir; never
/// matches the snapshot suffix, so listings ignore it).
constexpr char kProbeName[] = ".cpclean_probe";

/// Parses the inline CSV text a spec carries under `key`.
Result<Table> LoadTable(const JsonValue& req, const char* key) {
  CP_ASSIGN_OR_RETURN(const std::string text, RequestString(req, key));
  return ReadCsvString(text);
}

/// Session names are arbitrary protocol strings; filenames are not.
/// Alnum, '-', and '_' pass through, everything else becomes %XX — a
/// bijection, so `SavedNames` can decode listings.
std::string EscapeName(const std::string& name) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u) != 0 || c == '-' || c == '_') {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xF]);
    }
  }
  return out;
}

Result<std::string> UnescapeName(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '%') {
      out.push_back(escaped[i]);
      continue;
    }
    if (i + 2 >= escaped.size()) {
      return Status::ParseError("truncated %-escape in: " + escaped);
    }
    const auto nibble = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    const int hi = nibble(escaped[i + 1]);
    const int lo = nibble(escaped[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::ParseError("bad %-escape in: " + escaped);
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return out;
}

}  // namespace

Result<CleaningTask> BuildTaskFromSpec(const JsonValue& spec) {
  CP_ASSIGN_OR_RETURN(const std::string source,
                      RequestStringOr(spec, "source", "paper"));
  if (source == "paper" || source == "synthetic") {
    ExperimentConfig config;
    CP_ASSIGN_OR_RETURN(const int train_rows,
                        RequestIntParam(spec, "train_rows", 300));
    CP_ASSIGN_OR_RETURN(const int val_size,
                        RequestIntParam(spec, "val_size", 100));
    CP_ASSIGN_OR_RETURN(const int test_size,
                        RequestIntParam(spec, "test_size", 200));
    CP_ASSIGN_OR_RETURN(const int64_t seed, RequestIntOr(spec, "seed", 42));
    if (source == "paper") {
      CP_ASSIGN_OR_RETURN(const std::string dataset,
                          RequestStringOr(spec, "dataset", "Supreme"));
      bool known = false;
      for (const auto& paper_spec : PaperDatasetSuite()) {
        if (paper_spec.name == dataset) known = true;
      }
      if (!known) {
        return Status::InvalidArgument(StrFormat(
            "unknown paper dataset \"%s\" (expected BabyProduct, Supreme, "
            "Bank, Puma)",
            dataset.c_str()));
      }
      config.dataset =
          PaperDatasetByName(dataset, train_rows, val_size, test_size,
                             static_cast<uint64_t>(seed));
    } else {
      PaperDatasetSpec synthetic;
      CP_ASSIGN_OR_RETURN(synthetic.name,
                          RequestStringOr(spec, "dataset", "synthetic"));
      synthetic.synthetic.name = synthetic.name;
      CP_ASSIGN_OR_RETURN(const int numeric,
                          RequestIntParam(spec, "numeric", 6));
      CP_ASSIGN_OR_RETURN(const int categorical,
                          RequestIntParam(spec, "categorical", 1));
      CP_ASSIGN_OR_RETURN(const double noise,
                          RequestDoubleOr(spec, "noise_sigma", 0.5));
      CP_ASSIGN_OR_RETURN(const bool nonlinear,
                          RequestBoolOr(spec, "nonlinear", false));
      synthetic.synthetic.num_rows = train_rows + val_size + test_size;
      synthetic.synthetic.num_numeric = numeric;
      synthetic.synthetic.num_categorical = categorical;
      synthetic.synthetic.noise_sigma = noise;
      synthetic.synthetic.nonlinear = nonlinear;
      synthetic.synthetic.seed = static_cast<uint64_t>(seed);
      synthetic.val_size = val_size;
      synthetic.test_size = test_size;
      config.dataset = std::move(synthetic);
    }
    CP_ASSIGN_OR_RETURN(
        config.dataset.missing_rate,
        RequestDoubleOr(spec, "missing_rate", config.dataset.missing_rate));
    CP_ASSIGN_OR_RETURN(config.k, RequestIntParam(spec, "k", 3));
    // Feature importance runs KNN with this k on the training rows, so it
    // is checked before that runs, not at session creation.
    CP_RETURN_NOT_OK(ValidateCleaningK(config.k, train_rows));
    config.seed = static_cast<uint64_t>(seed);
    CP_ASSIGN_OR_RETURN(const std::string kernel_name,
                        RequestStringOr(spec, "kernel", "neg_euclidean"));
    CP_ASSIGN_OR_RETURN(const KernelKind kind,
                        KernelKindFromName(kernel_name));
    CP_ASSIGN_OR_RETURN(const double gamma,
                        RequestDoubleOr(spec, "gamma", 1.0));
    const std::unique_ptr<SimilarityKernel> kernel = MakeKernel(kind, gamma);
    return BuildExperimentTask(config, *kernel);
  }
  if (source == "csv") {
    // Dirty training CSV text plus the label column; ground truth /
    // validation / test tables are optional — a default-imputed completion
    // stands in when absent, mirroring the csv_workflow example. Every
    // parse or schema failure surfaces as a structured error response.
    CP_ASSIGN_OR_RETURN(Table dirty, LoadTable(spec, "csv_text"));
    CP_ASSIGN_OR_RETURN(const std::string label, RequestString(spec, "label"));
    CP_ASSIGN_OR_RETURN(const int label_col,
                        dirty.schema().FieldIndex(label));
    Table clean;
    if (spec.Find("clean_text") != nullptr) {
      CP_ASSIGN_OR_RETURN(clean, LoadTable(spec, "clean_text"));
    } else {
      CP_ASSIGN_OR_RETURN(clean, DefaultCleanImpute(dirty, label_col));
    }
    Table val = clean;
    if (spec.Find("val_text") != nullptr) {
      CP_ASSIGN_OR_RETURN(val, LoadTable(spec, "val_text"));
    }
    Table test = val;
    if (spec.Find("test_text") != nullptr) {
      CP_ASSIGN_OR_RETURN(test, LoadTable(spec, "test_text"));
    }
    return BuildCleaningTask(dirty, clean, val, test, label);
  }
  return Status::InvalidArgument(StrFormat(
      "unknown source \"%s\" (expected paper, synthetic, csv)",
      source.c_str()));
}

SessionStore::SessionStore(SessionStoreOptions options)
    : options_(std::move(options)) {
  // Crash hygiene: a process that died mid-save (or hit a disk error the
  // unlink also lost to) leaves uniquely-named temp files behind; nothing
  // else ever reclaims them, so sweep on startup.
  if (!enabled()) return;
  std::error_code ec;
  std::filesystem::directory_iterator it(options_.data_dir, ec);
  if (ec) return;
  std::unordered_set<std::string> base_stems;
  std::vector<std::filesystem::path> log_files;
  for (const auto& entry : it) {
    const std::string filename = entry.path().filename().string();
    const bool snapshot_tmp =
        filename.find(kSnapshotSuffix) != std::string::npos &&
        filename.size() > 4 &&
        filename.compare(filename.size() - 4, 4, ".tmp") == 0;
    // Probe files (and their temps) are transient by construction; one
    // left behind means the process died mid-probe.
    const bool probe_leftover =
        filename.compare(0, sizeof(kProbeName) - 1, kProbeName) == 0;
    if (snapshot_tmp || probe_leftover) {
      std::filesystem::remove(entry.path(), ec);
      continue;
    }
    const size_t snap_len = sizeof(kSnapshotSuffix) - 1;
    if (filename.size() > snap_len &&
        filename.compare(filename.size() - snap_len, snap_len,
                         kSnapshotSuffix) == 0) {
      base_stems.insert(filename.substr(0, filename.size() - snap_len));
    }
    const size_t log_len = sizeof(kLogSuffix) - 1;
    if (filename.size() > log_len &&
        filename.compare(filename.size() - log_len, log_len, kLogSuffix) ==
            0) {
      log_files.push_back(entry.path());
    }
  }
  // A cleaning log without its base snapshot is unreplayable litter: the
  // only way to get one is a crash between Delete's two removals (base
  // first, then log — that order is what makes this sweep sound).
  for (const std::filesystem::path& log_path : log_files) {
    const std::string filename = log_path.filename().string();
    const std::string stem =
        filename.substr(0, filename.size() - (sizeof(kLogSuffix) - 1));
    if (base_stems.count(stem) == 0) {
      std::filesystem::remove(log_path, ec);
    }
  }
}

std::string SessionStore::PathFor(const std::string& name) const {
  return options_.data_dir + "/" + EscapeName(name) + kSnapshotSuffix;
}

std::string SessionStore::LogPathFor(const std::string& name) const {
  return options_.data_dir + "/" + EscapeName(name) + kLogSuffix;
}

Status SessionStore::ValidateSavable(const ServeSession& session) {
  if (!session.spec().is_object()) {
    return Status::InvalidArgument(StrFormat(
        "session \"%s\" carries no creation spec; nothing could rebuild "
        "its task on load",
        session.name().c_str()));
  }
  return Status::OK();
}

Status SessionStore::RequireEnabled() const {
  if (enabled()) return Status::OK();
  return Status::Unavailable(
      "session persistence is disabled (no --data-dir)");
}

bool SessionStore::Publishes(const SessionRegistry& registry,
                             const ServeSession& session) {
  const Result<std::shared_ptr<ServeSession>> live =
      registry.Get(session.name());
  return live.ok() && live.value().get() == &session;
}

Status SessionStore::Save(ServeSession& session) {
  CP_RETURN_NOT_OK(RequireEnabled());
  std::lock_guard<std::mutex> order(save_order_mu_);
  std::shared_lock<std::shared_mutex> lock(session.mu_);
  CP_ASSIGN_OR_RETURN(const PendingSave pending, PrepareSave(session));
  return CommitSave(session, pending);
}

Result<bool> SessionStore::SavePublished(SessionRegistry& registry,
                                         std::mutex& lifecycle_mu,
                                         ServeSession& session) {
  CP_RETURN_NOT_OK(RequireEnabled());
  std::lock_guard<std::mutex> order(save_order_mu_);
  std::shared_lock<std::shared_mutex> lock(session.mu_);
  CP_ASSIGN_OR_RETURN(const PendingSave pending, PrepareSave(session));
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu);
  if (!Publishes(registry, session)) return false;
  CP_RETURN_NOT_OK(CommitSave(session, pending));
  return true;
}

Result<SessionStore::PendingSave> SessionStore::PrepareSave(
    const ServeSession& session) {
  CP_RETURN_NOT_OK(ValidateSavable(session));
  PendingSave pending;
  const std::optional<ServeSession::DurableBaseline>& durable =
      session.durable_;
  if (durable.has_value()) {
    const ServeSession::SnapshotDelta delta =
        session.SerializeDelta(durable->durable_version);
    if (delta.available) {
      pending.version = delta.version;
      if (delta.records.empty()) {
        pending.noop = true;
        return pending;
      }
      size_t bytes = 0;
      std::vector<std::string> lines;
      lines.reserve(delta.records.size());
      for (const MutationRecord& record : delta.records) {
        lines.push_back(EncodeLogRecord(record));
        bytes += lines.back().size() + 1;  // trailing newline
      }
      if (durable->log_bytes + bytes <= options_.log_compact_bytes) {
        pending.delta = true;
        pending.log_lines = std::move(lines);
        pending.log_bytes_add = bytes;
        return pending;
      }
      // The append would outgrow the compaction threshold: fall through
      // to a full base write, which folds the log away.
    }
  }
  pending.full_text = session.SerializeSnapshot(&pending.version);
  return pending;
}

Status SessionStore::CommitSave(ServeSession& session,
                                const PendingSave& pending) {
  if (pending.noop) return Status::OK();
  std::optional<ServeSession::DurableBaseline>& durable = session.durable_;
  if (!pending.delta) {
    CP_RETURN_NOT_OK(
        WriteFileAtomic(PathFor(session.name()), pending.full_text));
    // The fresh base supersedes any log on disk. Remove-after-rename is
    // crash-safe: a log that survives next to the newer base only holds
    // records at or below the base's version, which replay skips.
    const bool compacted = durable.has_value() && durable->log_bytes > 0;
    durable = ServeSession::DurableBaseline{pending.version, pending.version,
                                            0};
    std::error_code ec;
    std::filesystem::remove(LogPathFor(session.name()), ec);
    if (compacted) {
      static MetricCounter& compactions =
          MetricsRegistry::Get().GetCounter("store.compactions");
      compactions.Add(1);
    }
    return Status::OK();
  }
  // Delta append. Same degraded fast-fail and metrics as the full path;
  // AppendCleaningLog carries its own fault sites (log.append, log.fsync)
  // and truncates back on failure so the log never keeps a torn tail it
  // acknowledged.
  Status degraded;
  if (DegradedFastFail(&degraded)) return degraded;
  const uint64_t start_ns = MonotonicNowNs();
  const Result<size_t> appended =
      AppendCleaningLog(LogPathFor(session.name()), pending.log_lines);
  NoteWriteResult(appended.ok());
  if (!appended.ok()) {
    // Conservative: void the baseline so the next save writes a full
    // base instead of extending a log whose tail just failed.
    durable.reset();
    static MetricCounter& failures =
        MetricsRegistry::Get().GetCounter("store.save_failures_total");
    failures.Add(1);
    return appended.status();
  }
  durable->durable_version = pending.version;
  durable->log_bytes += appended.value();
  static MetricCounter& saves =
      MetricsRegistry::Get().GetCounter("store.saves_total");
  static MetricHistogram& save_ns =
      MetricsRegistry::Get().GetHistogram("store.save_ns");
  static MetricCounter& log_bytes =
      MetricsRegistry::Get().GetCounter("store.log_appended_bytes");
  saves.Add(1);
  save_ns.Record(MonotonicNowNs() - start_ns);
  log_bytes.Add(appended.value());
  return Status::OK();
}

bool SessionStore::DegradedFastFail(Status* status) {
  // Degraded fast-fail: a disk that just failed will almost certainly
  // fail again; don't pay (or retry-storm) the IO until the backoff
  // window elapses. The first write after the window probes for real.
  std::lock_guard<std::mutex> lock(degraded_mu_);
  if (degraded_ && std::chrono::steady_clock::now() < next_probe_) {
    *status = Status::IoError(StrFormat(
        "data dir %s is degraded (a recent write failed); retrying in "
        "<= %d ms",
        options_.data_dir.c_str(), backoff_ms_));
    return true;
  }
  return false;
}

Status SessionStore::WriteFileAtomic(const std::string& path,
                                     const std::string& text) {
  {
    Status degraded;
    if (DegradedFastFail(&degraded)) return degraded;
  }
  // Timed from first IO to rename; the degraded fast-fail above is a
  // deliberate non-write and never counts as a save failure.
  const uint64_t start_ns = MonotonicNowNs();
  const Status written = [&]() -> Status {
    std::error_code ec;
    std::filesystem::create_directories(options_.data_dir, ec);
    if (ec) {
      return Status::IoError(StrFormat("cannot create data dir %s: %s",
                                       options_.data_dir.c_str(),
                                       ec.message().c_str()));
    }
    // Temp-write + rename so a crash mid-save never leaves a torn snapshot
    // where a loadable one used to be. The temp name is unique per write:
    // saves through one store serialize, but two stores may share a data
    // dir, and a shared temp path would let one writer truncate the file
    // another is about to rename into place.
    static std::atomic<uint64_t> save_seq{0};
    const std::string tmp = StrFormat(
        "%s.%llu.tmp", path.c_str(),
        static_cast<unsigned long long>(
            save_seq.fetch_add(1, std::memory_order_relaxed)));
    if (FaultHit("store.open")) {
      return Status::IoError("cannot open for writing (injected): " + tmp);
    }
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      return Status::IoError(StrFormat("cannot open %s for writing: %s",
                                       tmp.c_str(), std::strerror(errno)));
    }
    // Injected short write: half the bytes land, then the device fails.
    // The torn temp must be reclaimed and the error surfaced.
    const size_t want =
        FaultHit("store.write") ? text.size() / 2 : text.size();
    size_t done = 0;
    while (done < want) {
      const ssize_t n = ::write(fd, text.data() + done, want - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      done += static_cast<size_t>(n);
    }
    // The bytes must be on disk before the rename publishes them: the
    // caller unlinks the cleaning log right after, so a base a power loss
    // could still empty would take the session's only copy with it. A
    // failed fsync (or close — the last chance to see ENOSPC) installs
    // nothing.
    const bool synced = done == text.size() && !FaultHit("store.flush") &&
                        ::fsync(fd) == 0;
    if (::close(fd) != 0 || !synced) {
      std::filesystem::remove(tmp, ec);  // don't leak the partial temp
      return Status::IoError("write failed: " + tmp);
    }
    if (FaultHit("store.rename")) {
      std::filesystem::remove(tmp, ec);
      return Status::IoError(StrFormat("rename %s -> %s: injected failure",
                                       tmp.c_str(), path.c_str()));
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      const Status status =
          Status::IoError(StrFormat("rename %s -> %s: %s", tmp.c_str(),
                                    path.c_str(), ec.message().c_str()));
      std::filesystem::remove(tmp, ec);
      return status;
    }
    // And the rename itself must be durable before the log goes.
    const int dir_fd =
        ::open(options_.data_dir.c_str(), O_RDONLY | O_DIRECTORY);
    const int dir_err = dir_fd < 0 || ::fsync(dir_fd) != 0 ? errno : 0;
    if (dir_fd >= 0) ::close(dir_fd);
    if (dir_err != 0) {
      return Status::IoError(StrFormat("cannot fsync data dir %s: %s",
                                       options_.data_dir.c_str(),
                                       std::strerror(dir_err)));
    }
    return Status::OK();
  }();
  if (written.ok()) {
    static MetricCounter& saves =
        MetricsRegistry::Get().GetCounter("store.saves_total");
    static MetricHistogram& save_ns =
        MetricsRegistry::Get().GetHistogram("store.save_ns");
    saves.Add(1);
    save_ns.Record(MonotonicNowNs() - start_ns);
  } else {
    static MetricCounter& failures =
        MetricsRegistry::Get().GetCounter("store.save_failures_total");
    failures.Add(1);
  }
  NoteWriteResult(written.ok());
  return written;
}

void SessionStore::NoteWriteResult(bool ok) {
  std::lock_guard<std::mutex> lock(degraded_mu_);
  if (ok) {
    degraded_ = false;
    backoff_ms_ = 0;
    return;
  }
  if (!degraded_) {
    // Healthy -> degraded edge only; repeat failures extend the backoff
    // but are not new transitions.
    static MetricCounter& transitions = MetricsRegistry::Get().GetCounter(
        "store.degraded_transitions_total");
    transitions.Add(1);
  }
  degraded_ = true;
  backoff_ms_ = backoff_ms_ == 0
                    ? options_.degraded_backoff_initial_ms
                    : std::min(backoff_ms_ * 2, options_.degraded_backoff_max_ms);
  next_probe_ =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(backoff_ms_);
}

bool SessionStore::CheckDegraded() {
  if (!enabled()) return false;
  {
    std::lock_guard<std::mutex> lock(degraded_mu_);
    if (!degraded_) return false;
    if (std::chrono::steady_clock::now() < next_probe_) return true;
  }
  // Backoff elapsed: probe through the real write path (same fault sites,
  // same state machine) so a healed disk clears degraded on the next
  // stats poll instead of waiting for the next save to come along.
  const std::string probe_path = options_.data_dir + "/" + kProbeName;
  if (WriteFileAtomic(probe_path, "ok\n").ok()) {
    std::error_code ec;
    std::filesystem::remove(probe_path, ec);
  }
  std::lock_guard<std::mutex> lock(degraded_mu_);
  return degraded_;
}

Result<std::shared_ptr<ServeSession>> SessionStore::Load(
    const std::string& name) {
  CP_RETURN_NOT_OK(RequireEnabled());
  const uint64_t start_ns = MonotonicNowNs();
  Result<std::shared_ptr<ServeSession>> result =
      [&]() -> Result<std::shared_ptr<ServeSession>> {
  const std::string path = PathFor(name);
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound(StrFormat(
        "no snapshot for session \"%s\" (%s)", name.c_str(), path.c_str()));
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  CP_ASSIGN_OR_RETURN(DeserializedDataset parsed,
                      DeserializeIncompleteDataset(buffer.str()));

  // Replay the cleaning log (if any) onto the base before anything else:
  // the replayed dataset is the durable truth the rebuilt session must be
  // bit-identical to. ScanCleaningLogForAppend drops a torn final record
  // — the one append that was never acknowledged to a client.
  const std::string log_path = LogPathFor(name);
  const uint64_t base_version = parsed.dataset.version();
  CP_ASSIGN_OR_RETURN(const LogScan scan, ScanCleaningLogForAppend(log_path));
  std::vector<int> log_fix_ids;
  if (!scan.records.empty()) {
    for (const MutationRecord& record : scan.records) {
      if (record.kind != MutationRecord::Kind::kFix) {
        // Serving sessions only ever fix examples; replaying anything
        // else could not be folded into the cleaning replay order below.
        return Status::Internal(StrFormat(
            "%s: unexpected non-fix record (seq %llu) in a serve cleaning "
            "log",
            log_path.c_str(),
            static_cast<unsigned long long>(record.seq)));
      }
    }
    CP_RETURN_NOT_OK(ReplayCleaningLog(scan.records, base_version,
                                       &parsed.dataset, &log_fix_ids));
    static MetricCounter& replayed =
        MetricsRegistry::Get().GetCounter("store.log_replayed_records");
    replayed.Add(scan.records.size());
  }

  const SerializedSection* spec_section = nullptr;
  const SerializedSection* cleaning_section = nullptr;
  const SerializedSection* task_section = nullptr;
  const SerializedSection* audit_section = nullptr;
  for (const SerializedSection& section : parsed.sections) {
    if (section.name == "spec") spec_section = &section;
    if (section.name == "cleaning") cleaning_section = &section;
    if (section.name == "task") task_section = &section;
    if (section.name == "audit") audit_section = &section;
  }
  if (spec_section == nullptr || spec_section->lines.size() != 1) {
    return Status::ParseError(path + ": missing one-line \"spec\" section");
  }
  if (cleaning_section == nullptr || cleaning_section->lines.size() != 1) {
    return Status::ParseError(path +
                              ": missing one-line \"cleaning\" section");
  }
  CP_ASSIGN_OR_RETURN(const JsonValue spec,
                      ParseJson(spec_section->lines[0]));

  const std::vector<std::string> fields =
      Split(cleaning_section->lines[0], ' ');
  if (fields.size() < 2 || fields[0] != "cleaned") {
    return Status::ParseError(path + ": expected 'cleaned <n> <ids...>'");
  }
  CP_ASSIGN_OR_RETURN(const int count, ParseInt(fields[1]));
  if (count < 0 || static_cast<size_t>(count) != fields.size() - 2) {
    return Status::ParseError(StrFormat(
        "%s: cleaning order announces %d ids, carries %d", path.c_str(),
        count, static_cast<int>(fields.size()) - 2));
  }
  std::vector<int> cleaned_order;
  cleaned_order.reserve(static_cast<size_t>(count));
  for (size_t f = 2; f < fields.size(); ++f) {
    CP_ASSIGN_OR_RETURN(const int id, ParseInt(fields[f]));
    cleaned_order.push_back(id);
  }

  // Optional provenance: the per-step audit trail for the base snapshot's
  // cleaning order. Pre-provenance snapshots simply lack the section;
  // Restore then recomputes every step's attribution.
  std::vector<CleaningAuditRecord> audit;
  if (audit_section != nullptr) {
    if (audit_section->lines.empty()) {
      return Status::ParseError(path + ": empty \"audit\" section");
    }
    const std::vector<std::string> header =
        Split(audit_section->lines[0], ' ');
    if (header.size() != 2 || header[0] != "audit") {
      return Status::ParseError(path + ": expected 'audit <n>'");
    }
    CP_ASSIGN_OR_RETURN(const int audit_count, ParseInt(header[1]));
    if (audit_count < 0 ||
        static_cast<size_t>(audit_count) != audit_section->lines.size() - 1) {
      return Status::ParseError(StrFormat(
          "%s: audit announces %d records, carries %d", path.c_str(),
          audit_count, static_cast<int>(audit_section->lines.size()) - 1));
    }
    audit.reserve(static_cast<size_t>(audit_count));
    for (size_t l = 1; l < audit_section->lines.size(); ++l) {
      const std::vector<std::string> rec =
          Split(audit_section->lines[l], ' ');
      if (rec.size() < 4) {
        return Status::ParseError(StrFormat(
            "%s: audit record %d: expected "
            "'<step> <example> <version> <count> <ids...>'",
            path.c_str(), static_cast<int>(l)));
      }
      CleaningAuditRecord record;
      CP_ASSIGN_OR_RETURN(record.step, ParseInt(rec[0]));
      CP_ASSIGN_OR_RETURN(record.example, ParseInt(rec[1]));
      const Result<uint64_t> version = ParseUint64(rec[2], 10);
      if (!version.ok()) {
        return Status::ParseError(StrFormat(
            "%s: audit record %d: unparseable version", path.c_str(),
            static_cast<int>(l)));
      }
      record.version = version.value();
      CP_ASSIGN_OR_RETURN(const int num_certain, ParseInt(rec[3]));
      if (num_certain < 0 ||
          static_cast<size_t>(num_certain) != rec.size() - 4) {
        return Status::ParseError(StrFormat(
            "%s: audit record %d announces %d val ids, carries %d",
            path.c_str(), static_cast<int>(l), num_certain,
            static_cast<int>(rec.size()) - 4));
      }
      record.newly_certain.reserve(static_cast<size_t>(num_certain));
      for (size_t f = 4; f < rec.size(); ++f) {
        CP_ASSIGN_OR_RETURN(const int v, ParseInt(rec[f]));
        record.newly_certain.push_back(v);
      }
      audit.push_back(std::move(record));
    }
    if (audit.size() > cleaned_order.size()) {
      return Status::ParseError(StrFormat(
          "%s: audit covers %d steps but the cleaning order has %d",
          path.c_str(), static_cast<int>(audit.size()),
          static_cast<int>(cleaned_order.size())));
    }
  }

  if (task_section == nullptr || task_section->lines.size() != 1) {
    return Status::ParseError(path + ": missing one-line \"task\" section");
  }
  const std::vector<std::string> task_fields =
      Split(task_section->lines[0], ' ');
  if (task_fields.size() != 2 || task_fields[0] != "fingerprint") {
    return Status::ParseError(path + ": expected 'fingerprint <hex>'");
  }
  const Result<uint64_t> want_fingerprint = ParseUint64(task_fields[1], 16);
  if (!want_fingerprint.ok()) {
    return Status::ParseError(path + ": unparseable task fingerprint");
  }

  CP_ASSIGN_OR_RETURN(
      const ServeSessionOptions options,
      ServeSessionOptionsFromRequest(spec, options_.default_cache_capacity));
  CP_ASSIGN_OR_RETURN(CleaningTask task, BuildTaskFromSpec(spec));
  if (TaskFingerprint(task) != want_fingerprint.value()) {
    // The working dataset is bit-verified separately (RestoreCleaning);
    // this catches drift in what that check cannot see — the spec no longer
    // rebuilds the validation/test sets or the oracle that were saved.
    return Status::Internal(StrFormat(
        "session \"%s\": the rebuilt task's validation/test/oracle data "
        "does not match the snapshot",
        name.c_str()));
  }
  // The replay order is the base's cleaning section plus the fixes the
  // log appended, in log order.
  cleaned_order.insert(cleaned_order.end(), log_fix_ids.begin(),
                       log_fix_ids.end());
  CP_ASSIGN_OR_RETURN(
      std::shared_ptr<ServeSession> session,
      ServeSession::Make(name, std::move(task), options, spec,
                         /*prime_certainty=*/false));
  CleaningSnapshot cleaning_snapshot;
  cleaning_snapshot.cleaned_order = std::move(cleaned_order);
  cleaning_snapshot.audit = std::move(audit);
  CP_RETURN_NOT_OK(
      session->RestoreCleaning(cleaning_snapshot, parsed.dataset));
  // Version-determinism check: the rebuilt session must sit at exactly
  // the version the base+log reached, or the next delta's sequence
  // numbers would not line up with the log on disk. The session is
  // unpublished, so nothing else can reach it yet.
  const ServeSession::SnapshotDelta check =
      session->SerializeDelta(parsed.dataset.version());
  if (!check.available || check.version != parsed.dataset.version() ||
      !check.records.empty()) {
    return Status::Internal(StrFormat(
        "session \"%s\": rebuilt working version %llu does not match the "
        "durable version %llu",
        name.c_str(), static_cast<unsigned long long>(check.version),
        static_cast<unsigned long long>(parsed.dataset.version())));
  }
  // The on-disk state is now known-good: future saves of this instance
  // extend the log from the replayed version instead of rewriting the
  // base.
  session->durable_ = ServeSession::DurableBaseline{
      base_version, parsed.dataset.version(), scan.durable_bytes};
  return session;
  }();
  if (result.ok()) {
    static MetricCounter& loads =
        MetricsRegistry::Get().GetCounter("store.loads_total");
    static MetricHistogram& load_ns =
        MetricsRegistry::Get().GetHistogram("store.load_ns");
    loads.Add(1);
    load_ns.Record(MonotonicNowNs() - start_ns);
  } else {
    static MetricCounter& failures =
        MetricsRegistry::Get().GetCounter("store.load_failures_total");
    failures.Add(1);
  }
  return result;
}

Status SessionStore::Delete(const std::string& name) {
  CP_RETURN_NOT_OK(RequireEnabled());
  std::error_code ec;
  const bool removed = std::filesystem::remove(PathFor(name), ec);
  if (ec) {
    // A snapshot that exists but cannot be deleted (permissions, IO) is a
    // different failure than one that never existed — the session is
    // still rehydratable and the operator needs the real error.
    return Status::IoError(StrFormat("cannot delete snapshot for \"%s\": %s",
                                     name.c_str(), ec.message().c_str()));
  }
  // Base first, then log: a crash in between leaves an orphan log, which
  // Load never sees (no base -> NotFound) and the startup sweep reclaims.
  // The other order could leave base-without-log looking like a complete,
  // older session.
  std::error_code log_ec;
  std::filesystem::remove(LogPathFor(name), log_ec);
  if (!removed) {
    return Status::NotFound(StrFormat(
        "no snapshot for session \"%s\"", name.c_str()));
  }
  return Status::OK();
}

bool SessionStore::Saved(const std::string& name) const {
  if (!enabled()) return false;
  std::error_code ec;
  return std::filesystem::exists(PathFor(name), ec);
}

std::vector<std::string> SessionStore::SavedNames() const {
  std::vector<std::string> names;
  if (!enabled()) return names;
  std::error_code ec;
  std::filesystem::directory_iterator it(options_.data_dir, ec);
  if (ec) return names;
  for (const auto& entry : it) {
    const std::string filename = entry.path().filename().string();
    const size_t suffix_len = sizeof(kSnapshotSuffix) - 1;
    if (filename.size() <= suffix_len ||
        filename.compare(filename.size() - suffix_len, suffix_len,
                         kSnapshotSuffix) != 0) {
      continue;
    }
    Result<std::string> name =
        UnescapeName(filename.substr(0, filename.size() - suffix_len));
    if (name.ok()) names.push_back(std::move(name).value());
  }
  std::sort(names.begin(), names.end());
  return names;
}

Result<std::vector<std::string>> SessionStore::EnforceCapacity(
    SessionRegistry& registry, std::mutex& lifecycle_mu) {
  std::vector<std::string> evicted;
  if (options_.max_sessions == 0) return evicted;
  // One sweep at a time, and no save in between: the sweep holds the
  // save order mutex for its whole loop, so no second sweep races it to
  // evict the same LRU victim and no client save interleaves its own
  // delta append with the eviction's on a victim's log. Callers must NOT
  // hold `lifecycle_mu` — the sweep takes it only around each commit.
  std::lock_guard<std::mutex> order(save_order_mu_);
  while (registry.size() > options_.max_sessions) {
    if (!enabled()) {
      return Status::Unavailable(StrFormat(
          "%d sessions exceed --max-sessions=%d and no --data-dir is "
          "configured to evict into",
          static_cast<int>(registry.size()),
          static_cast<int>(options_.max_sessions)));
    }
    // LRU by last-request sequence (monotone process-wide, so bursts
    // within one wall-clock millisecond still order correctly).
    std::shared_ptr<ServeSession> victim;
    for (const std::shared_ptr<ServeSession>& session : registry.All()) {
      if (!victim ||
          session->last_request_seq() < victim->last_request_seq()) {
        victim = session;
      }
    }
    if (!victim) break;  // raced to empty
    // Serialization runs OUTSIDE the lifecycle mutex (the same split
    // save_session uses) but under the victim's shared lock, held until
    // the drop: readers keep running, writers wait, so the saved state is
    // the final one and a waiting writer finds the evicted bit.
    std::shared_lock<std::shared_mutex> lock(victim->mu_);
    CP_ASSIGN_OR_RETURN(const PendingSave pending, PrepareSave(*victim));
    // Commit under the lifecycle mutex, re-validated against a racing
    // drop (writing our snapshot back would resurrect the name), then
    // drop the live entry.
    std::lock_guard<std::mutex> lifecycle(lifecycle_mu);
    if (!Publishes(registry, *victim)) continue;  // dropped; re-pick
    CP_RETURN_NOT_OK(CommitSave(*victim, pending));
    victim->evicted_.store(true, std::memory_order_relaxed);
    (void)registry.Drop(victim->name());
    evicted.push_back(victim->name());
  }
  return evicted;
}

}  // namespace cpclean
