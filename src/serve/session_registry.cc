#include "serve/session_registry.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "cleaning/certify.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "core/certain_predictor.h"
#include "core/witness.h"
#include "incomplete/serialization.h"
#include "serve/request_params.h"

namespace cpclean {

namespace {

/// Process-wide request sequence: every counted request on any session
/// draws a unique, monotone stamp — the eviction policy's LRU order
/// (wall-clock ms alone ties under bursts).
std::atomic<uint64_t> g_request_seq{0};

int64_t NowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Result<KernelKind> KernelKindFromName(const std::string& name) {
  if (name == "neg_euclidean") return KernelKind::kNegativeEuclidean;
  if (name == "rbf") return KernelKind::kRbf;
  if (name == "linear") return KernelKind::kLinear;
  if (name == "cosine") return KernelKind::kCosine;
  return Status::InvalidArgument(StrFormat(
      "unknown kernel \"%s\" (expected neg_euclidean, rbf, linear, cosine)",
      name.c_str()));
}

Result<ServeSessionOptions> ServeSessionOptionsFromRequest(
    const JsonValue& req, size_t default_cache_capacity) {
  ServeSessionOptions options;
  CP_ASSIGN_OR_RETURN(options.k, RequestIntParam(req, "k", 3));
  CP_ASSIGN_OR_RETURN(const std::string kernel_name,
                      RequestStringOr(req, "kernel", "neg_euclidean"));
  CP_ASSIGN_OR_RETURN(options.kernel, KernelKindFromName(kernel_name));
  CP_ASSIGN_OR_RETURN(options.gamma, RequestDoubleOr(req, "gamma", 1.0));
  CP_ASSIGN_OR_RETURN(
      const int64_t cache_capacity,
      RequestIntOr(req, "cache_capacity",
                   static_cast<int64_t>(default_cache_capacity)));
  if (cache_capacity < 0) {
    return Status::InvalidArgument("cache_capacity must be >= 0");
  }
  options.cache_capacity = static_cast<size_t>(cache_capacity);
  CP_ASSIGN_OR_RETURN(
      const int64_t max_contrib_bytes,
      RequestIntOr(req, "max_contrib_bytes",
                   static_cast<int64_t>(options.max_contrib_bytes)));
  if (max_contrib_bytes < 1) {
    return Status::InvalidArgument("max_contrib_bytes must be >= 1");
  }
  options.max_contrib_bytes = static_cast<size_t>(max_contrib_bytes);
  return options;
}

uint64_t TaskFingerprint(const CleaningTask& task) {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  const uint64_t prime = 1099511628211ULL;
  const auto mix = [&h, prime](uint64_t v) { h = (h ^ v) * prime; };
  const auto mix_rows = [&](const std::vector<std::vector<double>>& rows) {
    mix(static_cast<uint64_t>(rows.size()));
    for (const std::vector<double>& row : rows) mix(HashPointBytes(row));
  };
  const auto mix_ints = [&](const std::vector<int>& values) {
    mix(static_cast<uint64_t>(values.size()));
    for (const int v : values) mix(static_cast<uint64_t>(v) + 1);
  };
  mix_rows(task.val_x);
  mix_rows(task.test_x);
  mix_ints(task.val_y);
  mix_ints(task.test_y);
  mix_ints(task.train_y);
  mix_ints(task.true_candidate);
  return h;
}

ServeSession::ServeSession(std::string name, CleaningTask task,
                           const ServeSessionOptions& options,
                           JsonValue spec)
    : name_(std::move(name)),
      task_(std::move(task)),
      options_(options),
      spec_(std::move(spec)),
      cache_(options.cache_capacity) {}

Result<std::shared_ptr<ServeSession>> ServeSession::Make(
    std::string name, CleaningTask task, const ServeSessionOptions& options,
    JsonValue spec, bool prime_certainty) {
  if (name.empty()) return Status::InvalidArgument("session name is empty");
  // shared_ptr rather than make_shared: the constructor is private.
  std::shared_ptr<ServeSession> session(new ServeSession(
      std::move(name), std::move(task), options, std::move(spec)));
  session->kernel_ = MakeKernel(options.kernel, options.gamma);
  CpCleanOptions clean_options;
  clean_options.k = options.k;
  clean_options.max_contrib_bytes = options.max_contrib_bytes;
  // Serving sessions step incrementally; the run-loop bookkeeping knobs
  // (per-step accuracy / entropy traces) stay off.
  clean_options.track_test_accuracy = false;
  clean_options.track_entropy = false;
  CP_ASSIGN_OR_RETURN(
      session->cleaner_,
      CleaningSession::Create(&session->task_, session->kernel_.get(),
                              clean_options));
  // Serving sessions always journal their working-dataset mutations: the
  // session store's delta saves append exactly this journal to the
  // cleaning log.
  WorkingStorageOptions storage;
  storage.journal = true;
  session->cleaner_->ConfigureWorkingStorage(storage);
  session->engines_ = std::make_unique<EnginePool>(
      &session->cleaner_->working(), options.k);
  // Prime the validation-certainty flags before publishing: they refresh
  // lazily, and every later refresh happens on the write path (StepGreedy /
  // Restore), so read ops — stats included — never mutate cleaning state.
  // Skipped when a RestoreCleaning immediately follows (it refreshes).
  if (prime_certainty) session->cleaner_->FracValCertain();
  session->Touch();
  return session;
}

void ServeSession::Touch() {
  last_request_ms_.store(NowUnixMs(), std::memory_order_relaxed);
  last_request_seq_.store(
      g_request_seq.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
}

Result<std::vector<double>> ServeSession::ValPoint(int index) const {
  if (index < 0 || index >= static_cast<int>(task_.val_x.size())) {
    return Status::OutOfRange(
        StrFormat("val_index %d outside [0, %d)", index,
                  static_cast<int>(task_.val_x.size())));
  }
  return task_.val_x[static_cast<size_t>(index)];
}

template <typename Fn>
Result<JsonValue> ServeSession::CachedRead(const char* op, int param,
                                           const std::vector<double>& point,
                                           Fn compute) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  requests_.fetch_add(1, std::memory_order_relaxed);
  Touch();
  const IncompleteDataset& working = cleaner_->working();
  if (static_cast<int>(point.size()) != working.dim()) {
    return Status::InvalidArgument(
        StrFormat("point has %d features, dataset has %d",
                  static_cast<int>(point.size()), working.dim()));
  }
  const uint64_t version = working.version();
  const std::string key =
      QueryCacheKey(op, kernel_->name(), options_.k, param, point);
  {
    ScopedSpanPhase phase(kSpanCacheLookup);
    if (std::optional<JsonValue> hit = cache_.Lookup(key, version)) {
      return *std::move(hit);
    }
  }
  Result<JsonValue> computed = compute(working);
  if (!computed.ok()) return computed;
  computed.value().Set("version", JsonValue(version));
  cache_.Insert(key, version, computed.value());
  return computed;
}

Result<JsonValue> ServeSession::Certify(const std::vector<double>& point,
                                        int max_cleaned) {
  return CachedRead(
      "certify", max_cleaned, point,
      [&](const IncompleteDataset& working) -> Result<JsonValue> {
        CertifyOptions certify_options;
        certify_options.k = options_.k;
        certify_options.max_cleaned = max_cleaned;
        ScopedSpanPhase compute_phase(kSpanKernelCompute);
        CP_ASSIGN_OR_RETURN(
            const CertifyResult certified,
            CertifyOnDataset(working, task_.true_candidate, point, *kernel_,
                             certify_options));
        JsonValue out = JsonValue::MakeObject();
        out.Set("certified", JsonValue(certified.certified));
        out.Set("label", JsonValue(certified.certain_label));
        out.Set("cleaned", JsonValue::FromInts(certified.cleaned));
        return out;
      });
}

Result<JsonValue> ServeSession::Q2(const std::vector<double>& point) {
  return CachedRead(
      "q2", -1, point, [&](const IncompleteDataset&) -> Result<JsonValue> {
        // A private engine per concurrent reader; SetTestPoint re-binds
        // when the lease is stamped with a superseded dataset version.
        std::optional<EnginePool::Lease> engine;
        {
          ScopedSpanPhase phase(kSpanEngineAcquire);
          engine.emplace(engines_->Acquire());
        }
        ScopedSpanPhase compute_phase(kSpanKernelCompute);
        (*engine)->SetTestPoint(point, *kernel_);
        const std::vector<double> probs = (*engine)->Fractions();
        JsonValue out = JsonValue::MakeObject();
        out.Set("probs", JsonValue::FromDoubles(probs));
        out.Set("entropy", JsonValue(Entropy(probs)));
        return out;
      });
}

Result<JsonValue> ServeSession::Predict(const std::vector<double>& point) {
  return CachedRead(
      "predict", -1, point,
      [&](const IncompleteDataset& working) -> Result<JsonValue> {
        const CertainPredictor predictor(kernel_.get(), options_.k);
        ScopedSpanPhase compute_phase(kSpanKernelCompute);
        const int label = predictor.Check(working, point).CertainLabel();
        JsonValue out = JsonValue::MakeObject();
        out.Set("certain", JsonValue(label >= 0));
        out.Set("label", JsonValue(label));
        return out;
      });
}

Result<JsonValue> ServeSession::Explain(const std::vector<double>& point) {
  return CachedRead(
      "explain", -1, point,
      [&](const IncompleteDataset& working) -> Result<JsonValue> {
        ScopedSpanPhase compute_phase(kSpanKernelCompute);
        CP_ASSIGN_OR_RETURN(
            const WitnessSet witness,
            ExplainPrediction(working, point, *kernel_, options_.k));
        JsonValue out = JsonValue::MakeObject();
        out.Set("certain", JsonValue(witness.certain));
        out.Set("label", JsonValue(witness.label));
        out.Set("witnesses", JsonValue::FromInts(witness.tuples));
        out.Set("support", JsonValue::FromInts(witness.support));
        out.Set("minimal", JsonValue(witness.minimal));
        return out;
      });
}

Result<JsonValue> ServeSession::WhyCertified(
    const std::vector<double>& point) {
  return CachedRead(
      "why_certified", -1, point,
      [&](const IncompleteDataset& working) -> Result<JsonValue> {
        ScopedSpanPhase compute_phase(kSpanKernelCompute);
        CP_ASSIGN_OR_RETURN(
            const WitnessSet witness,
            ExplainPrediction(working, point, *kernel_, options_.k));
        // The decision trail: cleaning steps whose fixed tuple the
        // certification rests on (witness tuples stay ascending, so a
        // binary search per record suffices). The audit only moves under
        // the exclusive lock, so reading it here under the shared lock is
        // coherent with the version.
        JsonValue trail = JsonValue::MakeArray();
        for (const CleaningAuditRecord& record : cleaner_->audit()) {
          if (!std::binary_search(witness.tuples.begin(),
                                  witness.tuples.end(), record.example)) {
            continue;
          }
          JsonValue entry = JsonValue::MakeObject();
          entry.Set("step", JsonValue(record.step));
          entry.Set("tuple", JsonValue(record.example));
          entry.Set("version", JsonValue(record.version));
          entry.Set("newly_certain",
                    JsonValue::FromInts(record.newly_certain));
          trail.Append(std::move(entry));
        }
        JsonValue out = JsonValue::MakeObject();
        out.Set("certified", JsonValue(witness.certain));
        out.Set("label", JsonValue(witness.label));
        out.Set("witnesses", JsonValue::FromInts(witness.tuples));
        out.Set("minimal", JsonValue(witness.minimal));
        out.Set("trail", std::move(trail));
        return out;
      });
}

Result<JsonValue> ServeSession::CleanStep(int steps) {
  return Clean(steps, /*run=*/false);
}

Result<JsonValue> ServeSession::CleanRun(int budget) {
  return Clean(budget, /*run=*/true);
}

Result<JsonValue> ServeSession::Clean(int limit, bool run) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  requests_.fetch_add(1, std::memory_order_relaxed);
  Touch();
  if (evicted_.load(std::memory_order_relaxed)) {
    return Status::Unavailable(StrFormat(
        "session \"%s\" was evicted; retry the request", name_.c_str()));
  }
  if (!run && limit < 1) return Status::InvalidArgument("steps must be >= 1");
  std::vector<int> cleaned;
  while (limit < 0 || static_cast<int>(cleaned.size()) < limit) {
    const int example = cleaner_->StepGreedy();
    if (example < 0) break;
    cleaned.push_back(example);
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("cleaned", JsonValue::FromInts(cleaned));
  if (run) out.Set("steps", JsonValue(static_cast<int>(cleaned.size())));
  out.Set("frac_val_certain", JsonValue(cleaner_->FracValCertain()));
  out.Set("dirty_remaining", JsonValue(cleaner_->NumDirtyRemaining()));
  out.Set("version", JsonValue(cleaner_->working().version()));
  return out;
}

JsonValue ServeSession::Stats() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Counted as a request but deliberately not Touch()ed: operators polling
  // stats must not keep an idle session out of the eviction sweep.
  requests_.fetch_add(1, std::memory_order_relaxed);
  JsonValue out = JsonValue::MakeObject();
  out.Set("name", JsonValue(name_));
  out.Set("state", JsonValue("live"));
  out.Set("k", JsonValue(options_.k));
  out.Set("kernel", JsonValue(kernel_->name()));
  out.Set("train", JsonValue(task_.incomplete.num_examples()));
  out.Set("val", JsonValue(static_cast<int>(task_.val_x.size())));
  out.Set("test", JsonValue(static_cast<int>(task_.test_x.size())));
  out.Set("dim", JsonValue(task_.incomplete.dim()));
  out.Set("num_cleaned", JsonValue(cleaner_->NumCleaned()));
  out.Set("dirty_remaining", JsonValue(cleaner_->NumDirtyRemaining()));
  out.Set("frac_val_certain", JsonValue(cleaner_->LastFracValCertain()));
  out.Set("version", JsonValue(cleaner_->working().version()));
  out.Set("requests",
          JsonValue(requests_.load(std::memory_order_relaxed)));
  out.Set("last_request_unix_ms", JsonValue(last_request_unix_ms()));
  // The full resolved options, so operators can audit a live session
  // without replaying its create_session request.
  JsonValue resolved = JsonValue::MakeObject();
  resolved.Set("k", JsonValue(options_.k));
  resolved.Set("kernel", JsonValue(kernel_->name()));
  resolved.Set("gamma", JsonValue(options_.gamma));
  resolved.Set("cache_capacity",
               JsonValue(static_cast<uint64_t>(options_.cache_capacity)));
  resolved.Set(
      "max_contrib_bytes",
      JsonValue(static_cast<uint64_t>(options_.max_contrib_bytes)));
  out.Set("options", std::move(resolved));
  const ResultCache::Stats cache_stats = cache_.stats();
  JsonValue cache = JsonValue::MakeObject();
  cache.Set("size", JsonValue(static_cast<uint64_t>(cache_.size())));
  cache.Set("capacity", JsonValue(static_cast<uint64_t>(cache_.capacity())));
  cache.Set("hits", JsonValue(cache_stats.hits));
  cache.Set("misses", JsonValue(cache_stats.misses));
  cache.Set("evictions", JsonValue(cache_stats.evictions));
  cache.Set("invalidations", JsonValue(cache_stats.invalidations));
  out.Set("cache", std::move(cache));
  const EnginePool::Stats engine_stats = engines_->stats();
  JsonValue engines = JsonValue::MakeObject();
  engines.Set("created", JsonValue(engine_stats.created));
  engines.Set("reused",
              JsonValue(engine_stats.acquired - engine_stats.created));
  engines.Set("idle", JsonValue(engine_stats.idle));
  out.Set("engines", std::move(engines));
  return out;
}

ServeSession::SnapshotDelta ServeSession::SerializeDelta(
    uint64_t since_version) const {
  SnapshotDelta delta;
  const IncompleteDataset& working = cleaner_->working();
  delta.version = working.version();
  delta.available = working.JournalCovers(since_version);
  if (delta.available) delta.records = working.JournalSince(since_version);
  return delta;
}

std::string ServeSession::SerializeSnapshot(uint64_t* version_out) const {
  *version_out = cleaner_->working().version();
  std::vector<SerializedSection> sections;
  if (spec_.is_object()) {
    sections.push_back(SerializedSection{"spec", {spec_.Dump()}});
  }
  const CleaningSnapshot snapshot = cleaner_->Snapshot();
  std::string cleaned = StrFormat(
      "cleaned %d", static_cast<int>(snapshot.cleaned_order.size()));
  for (const int i : snapshot.cleaned_order) {
    cleaned += StrFormat(" %d", i);
  }
  sections.push_back(SerializedSection{"cleaning", {std::move(cleaned)}});
  // Per-step provenance: the cleaning-decision audit trail, one line per
  // step (`<step> <example> <version> <count> <val ids...>`). Restore
  // adopts these records verbatim; log-replayed steps appended after this
  // snapshot recompute theirs.
  std::vector<std::string> audit_lines;
  audit_lines.push_back(
      StrFormat("audit %d", static_cast<int>(snapshot.audit.size())));
  for (const CleaningAuditRecord& record : snapshot.audit) {
    std::string line = StrFormat(
        "%d %d %llu %d", record.step, record.example,
        static_cast<unsigned long long>(record.version),
        static_cast<int>(record.newly_certain.size()));
    for (const int v : record.newly_certain) line += StrFormat(" %d", v);
    audit_lines.push_back(std::move(line));
  }
  sections.push_back(SerializedSection{"audit", std::move(audit_lines)});
  // Everything the working dataset does NOT cover but answers depend on
  // (validation/test sets, oracle); re-checked on rehydration.
  sections.push_back(SerializedSection{
      "task",
      {StrFormat("fingerprint %016llx",
                 static_cast<unsigned long long>(TaskFingerprint(task_)))}});
  return SerializeIncompleteDataset(cleaner_->working(), sections);
}

Status ServeSession::RestoreCleaning(const CleaningSnapshot& snapshot,
                                     const IncompleteDataset& expected) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  CP_RETURN_NOT_OK(cleaner_->Restore(snapshot));
  if (!BitIdentical(cleaner_->working(), expected)) {
    return Status::Internal(StrFormat(
        "session \"%s\": replaying the snapshot's cleaning order against "
        "the rebuilt task does not reproduce the stored working dataset "
        "(the task's source data changed since the snapshot was saved?)",
        name_.c_str()));
  }
  return Status::OK();
}

Status SessionRegistry::Insert(std::shared_ptr<ServeSession> session) {
  // Copy the name up front: if emplace rejects a duplicate it may still
  // have moved from its arguments.
  const std::string name = session->name();
  std::lock_guard<std::mutex> lock(mu_);
  if (!sessions_.emplace(name, std::move(session)).second) {
    return Status::AlreadyExists(
        StrFormat("session \"%s\" already exists", name.c_str()));
  }
  return Status::OK();
}

Result<std::shared_ptr<ServeSession>> SessionRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(name);
  if (it != sessions_.end()) return it->second;
  return Status::NotFound(
      StrFormat("no session named \"%s\"", name.c_str()));
}

Status SessionRegistry::Drop(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.erase(name) == 0) {
    return Status::NotFound(
        StrFormat("no session named \"%s\"", name.c_str()));
  }
  return Status::OK();
}

std::vector<std::string> SessionRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(sessions_.size());
  for (const auto& entry : sessions_) names.push_back(entry.first);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::shared_ptr<ServeSession>> SessionRegistry::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<ServeSession>> out;
  out.reserve(sessions_.size());
  for (const auto& entry : sessions_) out.push_back(entry.second);
  return out;
}

size_t SessionRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace cpclean
