#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "bench/xmark_workload.h"
#include "gate.h"
#include "reference.h"
#include "spans.h"
#include "src/core/engine.h"
#include "src/exec/phrase_count_cache.h"
#include "src/exec/profile_cache.h"
#include "src/exec/profile_store.h"
#include "src/index/persist.h"
#include "src/plan/planner.h"
#include "src/profile/compiled_profile.h"
#include "src/profile/rule_parser.h"
#include "src/tpq/tpq_parser.h"
#include "src/xml/parser.h"
#include "stats.h"

namespace pimbench {
namespace {

namespace core = pimento::core;
namespace exec = pimento::exec;
namespace index = pimento::index;

double Mb(size_t bytes) { return static_cast<double>(bytes) / 1048576.0; }

// ---------------------------------------------------------------------------
// Ingest and persistence, shared by every workload.

/// XML text in memory -> engine ready to serve.
struct Ingested {
  std::unique_ptr<core::SearchEngine> engine;
  double parse_ms = 0.0;
  double build_ms = 0.0;  ///< Collection::Build plus the engine around it
  std::string error;
};

Ingested Ingest(const std::string& text, SpanLog* log) {
  Ingested out;
  const int64_t t0 = NowNs();
  auto doc = [&] {
    ScopedSpan span(log, "xml.ParseXml");
    return pimento::xml::ParseXml(text);
  }();
  const int64_t t1 = NowNs();
  if (!doc.ok()) {
    out.error = "ParseXml: " + doc.status().ToString();
    return out;
  }
  {
    ScopedSpan span(log, "index.Collection.Build");
    out.engine = std::make_unique<core::SearchEngine>(
        index::Collection::Build(*std::move(doc)));
  }
  const int64_t t2 = NowNs();
  out.parse_ms = MsBetween(t0, t1);
  out.build_ms = MsBetween(t1, t2);
  return out;
}

/// One SaveCollection + LoadCollection round trip through `path`.
struct RoundTrip {
  double save_ms = 0.0;
  double load_ms = 0.0;
  size_t image_bytes = 0;
  std::unique_ptr<core::SearchEngine> restarted;
  std::string error;
};

RoundTrip SaveAndRestart(const index::Collection& collection,
                         const std::string& path, SpanLog* log) {
  RoundTrip rt;
  const int64_t t0 = NowNs();
  pimento::Status saved = [&] {
    ScopedSpan span(log, "index.SaveCollection");
    return index::SaveCollection(collection, path);
  }();
  const int64_t t1 = NowNs();
  if (!saved.ok()) {
    rt.error = "SaveCollection: " + saved.ToString();
    return rt;
  }
  auto loaded = [&] {
    ScopedSpan span(log, "index.LoadCollection");
    return index::LoadCollection(path);
  }();
  const int64_t t2 = NowNs();
  if (!loaded.ok()) {
    rt.error = "LoadCollection: " + loaded.status().ToString();
    return rt;
  }
  rt.save_ms = MsBetween(t0, t1);
  rt.load_ms = MsBetween(t1, t2);
  rt.image_bytes = std::filesystem::file_size(path);
  rt.restarted = std::make_unique<core::SearchEngine>(*std::move(loaded));
  return rt;
}

/// The in-memory halves of a save and a load, timed apart from the file
/// I/O (traced runs only).
void TimeCodec(const index::Collection& collection, SpanLog* log) {
  std::string bytes = [&] {
    ScopedSpan span(log, "index.SerializeCollection");
    return index::SerializeCollection(collection);
  }();
  ScopedSpan span(log, "index.DeserializeCollection");
  auto again = index::DeserializeCollection(bytes);
  (void)again;
}

uint64_t FileHash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return Fnv1a(bytes.data(), bytes.size());
}

// ---------------------------------------------------------------------------
// Request streams and the answer fingerprints they must reproduce.

core::SearchRequest MakeRequest(const RequestText& text, int k) {
  core::SearchOptions options;
  options.k = k;
  return core::SearchRequest::Text(text.query, text.profile, options);
}

/// One request of a stream. `slot` names the answers it must produce:
/// the mix position modulo the cycle for the Fig. 5 mix, the answer class
/// for cold users.
struct Item {
  const RequestText* text = nullptr;
  const core::SearchRequest* request = nullptr;
  uint32_t slot = 0;
  bool new_user = false;
};

/// The fingerprints each slot must reproduce, taken at set-up after the
/// reference check. A cold-user class first met during the run (a new
/// user's) is checked against the reference after the timed loop.
class Expected {
 public:
  void Set(uint32_t slot, uint64_t key) { keys_[slot] = key; }
  bool Has(uint32_t slot) const { return keys_.count(slot) != 0; }

  /// Counts one response into `report`.
  void Check(const Item& item, uint64_t key, Report* report) {
    auto it = keys_.find(item.slot);
    if (it != keys_.end()) {
      report->Check(it->second == key
                        ? ""
                        : "answers differ from the set-up fingerprint (slot " +
                              std::to_string(item.slot) + ")");
      return;
    }
    auto [pending, fresh] = pending_.try_emplace(item.slot);
    if (fresh) pending->second.text = *item.text;
    pending->second.keys.push_back(key);
  }

  /// Resolves the slots first met during the run: reference-checks one of
  /// their requests now and compares every response seen against it.
  void ResolvePending(const core::SearchEngine& engine, int k,
                      Report* report) {
    for (auto& [slot, pending] : pending_) {
      auto result = engine.Execute(MakeRequest(pending.text, k));
      std::string error;
      if (!result.ok()) {
        error = result.status().ToString();
      } else {
        error = CheckAgainstReference(engine, pending.text, k,
                                      result->answers);
      }
      const uint64_t key = result.ok() ? AnswerKey(result->answers) : 0;
      for (uint64_t seen : pending.keys) {
        report->Check(!error.empty() ? error
                      : seen == key  ? ""
                                     : "answers differ within a class");
      }
      keys_[slot] = key;
    }
    pending_.clear();
  }

 private:
  struct Pending {
    RequestText text;
    std::vector<uint64_t> keys;
  };
  std::map<uint32_t, uint64_t> keys_;
  std::map<uint32_t, Pending> pending_;
};

/// The Fig. 5 mix, cycled.
class Fig5Stream {
 public:
  Fig5Stream(int size, int k) : texts_(Fig5Mix(size)) {
    for (const RequestText& t : texts_) requests_.push_back(MakeRequest(t, k));
  }
  static constexpr uint32_t kCycle = 8;

  Item Next() {
    const size_t i = next_++ % texts_.size();
    return {&texts_[i], &requests_[i], static_cast<uint32_t>(i % kCycle),
            false};
  }
  const std::vector<RequestText>& texts() const { return texts_; }
  const std::vector<core::SearchRequest>& requests() const {
    return requests_;
  }

 private:
  std::vector<RequestText> texts_;
  std::vector<core::SearchRequest> requests_;
  size_t next_ = 0;
};

/// Returning users round-robin, one request in `new_user_every` a user
/// never seen before.
class ColdStream {
 public:
  ColdStream(uint64_t seed, const Scale& scale) : seed_(seed), scale_(scale) {
    for (int u = 0; u < scale.returning_users; ++u) {
      UserProfile user = MakeUser(seed, u, scale);
      texts_.push_back({pimento::bench::kXmarkSelectiveQuery, user.text});
      classes_.push_back(user.answer_class);
    }
    for (const RequestText& t : texts_) {
      requests_.push_back(MakeRequest(t, scale.k));
    }
  }

  Item Next() {
    const int64_t i = issued_++;
    if (i % scale_.new_user_every == scale_.new_user_every - 1) {
      UserProfile user =
          MakeUser(seed_, scale_.returning_users + new_users_++, scale_);
      fresh_text_ = {pimento::bench::kXmarkSelectiveQuery, user.text};
      fresh_request_ = MakeRequest(fresh_text_, scale_.k);
      return {&fresh_text_, &fresh_request_, user.answer_class, true};
    }
    const size_t u = returning_next_++ % texts_.size();
    return {&texts_[u], &requests_[u], classes_[u], false};
  }

  const std::vector<RequestText>& texts() const { return texts_; }
  const std::vector<uint32_t>& classes() const { return classes_; }
  int64_t new_users() const { return new_users_; }

 private:
  uint64_t seed_;
  Scale scale_;
  std::vector<RequestText> texts_;
  std::vector<uint32_t> classes_;
  std::vector<core::SearchRequest> requests_;
  RequestText fresh_text_;
  core::SearchRequest fresh_request_;
  int64_t issued_ = 0;
  int64_t new_users_ = 0;
  size_t returning_next_ = 0;
};

// ---------------------------------------------------------------------------
// Timed loops.
//
// The machine this benchmark was built on slows by up to 2x for stretches
// of seconds (other tenants contending for the physical cores under its
// vCPUs), and the slow stretches of one vCPU are independent of another's.
// fig5_warm and cold_users therefore run one closed-loop client per vCPU
// (up to Scale::clients), each on its own document and engine, so one run
// averages over every vCPU instead of following one; fig5_batch spreads
// each batch over nproc workers already.
// Every latency figure is taken over all samples of the run, so a change
// that slows only some requests still shows; next to each one the table
// prints its spread across five consecutive sub-windows of the run, so a
// run that straddled a slow stretch reads wide.

/// Latencies of one client's timed loop, in completion order.
struct Timed {
  std::vector<double> lat_ms;
  std::vector<int64_t> end_ns;
  std::vector<uint64_t> allocs;

  void Add(int64_t start, int64_t end) {
    lat_ms.push_back(MsBetween(start, end));
    end_ns.push_back(end);
  }

  /// Every client's latencies, in completion order.
  static std::vector<double> Pooled(const std::vector<const Timed*>& all) {
    std::vector<std::pair<int64_t, double>> by_end;
    for (const Timed* t : all) {
      for (size_t i = 0; i < t->lat_ms.size(); ++i) {
        by_end.emplace_back(t->end_ns[i], t->lat_ms[i]);
      }
    }
    std::sort(by_end.begin(), by_end.end());
    std::vector<double> out;
    out.reserve(by_end.size());
    for (const auto& [end, lat] : by_end) out.push_back(lat);
    return out;
  }
};

/// `v` cut into `parts` consecutive, near-equal windows.
std::vector<std::vector<double>> Windows(const std::vector<double>& v,
                                         size_t parts) {
  std::vector<std::vector<double>> out;
  for (size_t p = 0; p < parts; ++p) {
    const size_t lo = v.size() * p / parts;
    const size_t hi = v.size() * (p + 1) / parts;
    if (hi > lo) out.emplace_back(v.begin() + lo, v.begin() + hi);
  }
  return out;
}

/// `fn` over all of `v`, and its spread across five sub-windows.
template <typename Fn>
std::pair<double, double> WithSpread(const std::vector<double>& v, Fn fn) {
  std::vector<double> per;
  for (const std::vector<double>& w : Windows(v, 5)) per.push_back(fn(w));
  return {fn(v), WindowSpread(per)};
}

/// Operations per second of `clients` concurrent closed loops whose samples
/// are `lat_ms`, each sample covering `ops_per_sample` operations.
double OpsPerSecond(const std::vector<double>& lat_ms, double ops_per_sample,
                    int clients) {
  double sum = 0.0;
  for (double v : lat_ms) sum += v;
  return sum <= 0.0 ? 0.0
                    : ops_per_sample * clients *
                          static_cast<double>(lat_ms.size()) / (sum / 1000.0);
}

/// p50_ms scaled to reference speed by `to_reference` (gated), and p50_ms,
/// ops_per_s and p99_ms as measured (printed only), over every sample of
/// the run's timed loops, `lat_ms` in completion order. `ops_per_sample` is
/// the operations one latency sample covers (a whole batch on fig5_batch).
void AddLatencyMetrics(const std::vector<double>& lat_ms,
                       double ops_per_sample, int clients,
                       double to_reference, Report* report) {
  const int64_t n = static_cast<int64_t>(lat_ms.size());
  auto p50 = [](const std::vector<double>& v) { return Percentile(v, 0.5); };
  auto p99 = [](const std::vector<double>& v) { return Percentile(v, 0.99); };
  auto qps = [&](const std::vector<double>& v) {
    return OpsPerSecond(v, ops_per_sample, clients);
  };
  const auto [median, median_spread] = WithSpread(lat_ms, p50);
  report->Add("p50_ms", median * to_reference, "ms", n, median_spread);
  report->Info("p50_ms.raw", median, "ms", n, median_spread);
  const auto [ops, ops_spread] = WithSpread(lat_ms, qps);
  report->Info("ops_per_s", ops, "1/s", n, ops_spread);
  const auto [tail, tail_spread] = WithSpread(lat_ms, p99);
  report->Info("p99_ms", tail, "ms", n, tail_spread);
}

/// One Execute, timed and checked.
void ExecuteOne(const core::SearchEngine& engine, const Item& item,
                Expected* expected, Report* report, Timed* timed) {
  const uint64_t a0 = ThreadAllocs();
  const int64_t t0 = NowNs();
  auto result = engine.Execute(*item.request);
  const int64_t t1 = NowNs();
  timed->allocs.push_back(ThreadAllocs() - a0);
  timed->Add(t0, t1);
  if (!result.ok()) {
    report->Check("Execute: " + result.status().ToString());
  } else {
    expected->Check(item, AnswerKey(result->answers), report);
  }
}

/// Every this many seconds of a timed loop (and once at its start), one
/// client, in turn, takes its XML through one more ingest and save/restart
/// between two of its blocks, so those steps are sampled across the whole
/// run like the requests.
constexpr double kRepEverySeconds = 1.5;

/// The clock of a timed loop: starts the clients together, hands out the
/// ingest and save/restart turns, and stops the clients after `seconds`.
class LoopClock {
 public:
  explicit LoopClock(int clients) : clients_(clients), start_(clients + 1) {}

  /// Client side: waits for the loop to start.
  void AwaitStart() { start_.arrive_and_wait(); }
  bool Stopped() const { return stopped_.load(std::memory_order_relaxed); }
  /// Client side, between blocks: whether client `c` holds the turn.
  bool RepDue(int c) {
    std::lock_guard<std::mutex> lock(mu_);
    return turn_ == c;
  }
  void RepDone() {
    std::lock_guard<std::mutex> lock(mu_);
    turn_ = -1;
    done_.notify_all();
  }

  /// Coordinator side: starts the clients, hands a turn to the next client
  /// every kRepEverySeconds until `seconds` have passed, then stops them.
  void Run(double seconds) {
    start_.arrive_and_wait();
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    const auto every = std::chrono::nanoseconds(
        static_cast<int64_t>(kRepEverySeconds * 1e9));
    for (int turn = 0; NowNs() < deadline; ++turn) {
      const auto next = std::chrono::steady_clock::now() + every;
      {
        std::unique_lock<std::mutex> lock(mu_);
        turn_ = turn % clients_;
        done_.wait(lock, [&] { return turn_ == -1; });
      }
      std::this_thread::sleep_until(std::min(
          next, std::chrono::steady_clock::time_point(
                    std::chrono::nanoseconds(deadline))));
    }
    stopped_.store(true, std::memory_order_relaxed);
  }

 private:
  const int clients_;
  std::barrier<> start_;
  std::atomic<bool> stopped_{false};
  std::mutex mu_;
  std::condition_variable done_;
  int turn_ = -1;
};

/// Per-item stats of batches.
struct BatchTotals {
  std::vector<double> item_ms;
  double busy_ms = 0.0;
  double wall_ms = 0.0;
};

/// One BatchSearch of the whole mix, timed; every item must equal the
/// single-client answers.
void BatchOnce(const core::SearchEngine& engine, const Fig5Stream& stream,
               Expected* expected, int workers, Report* report, Timed* timed,
               BatchTotals* totals) {
  core::BatchOptions options;
  options.num_workers = workers;
  const int64_t t0 = NowNs();
  core::BatchResult batch = engine.BatchSearch(stream.requests(), options);
  const int64_t t1 = NowNs();
  timed->Add(t0, t1);
  if (totals != nullptr) totals->wall_ms += batch.stats.wall_ms;
  for (size_t i = 0; i < batch.items.size(); ++i) {
    const core::BatchItem& it = batch.items[i];
    if (totals != nullptr) {
      totals->item_ms.push_back(it.elapsed_ms);
      totals->busy_ms += it.elapsed_ms;
    }
    Item item{&stream.texts()[i], &stream.requests()[i],
              static_cast<uint32_t>(i % Fig5Stream::kCycle), false};
    if (!it.status.ok()) {
      report->Check("BatchSearch item: " + it.status.ToString());
    } else {
      expected->Check(item, AnswerKey(it.result.answers), report);
    }
  }
}

// ---------------------------------------------------------------------------
// The traced replay: the engine's request path re-run through each
// module's public functions, each call in its own span.

struct ReplayOut {
  std::vector<pimento::algebra::Answer> answers;
  std::string error;
  int64_t hom_runs = 0;
  int64_t members = 0;
  int64_t plan_ops = 0;
  pimento::algebra::PlanStats stats;
};

/// Times the parts GetOrCompile wraps, called on the same input: profile
/// parse, ambiguity analysis, store lookup, rule compilation, and (for a
/// user the store has never seen) the store append, made on a scratch
/// store so the engine's own store is left as the real path leaves it.
/// Run before GetOrCompile, so the store lookup sees what GetOrCompile
/// will see.
void ReplayProfileParts(const std::string& text, exec::ProfileStore* store,
                        exec::ProfileStore* scratch_store, SpanLog* log) {
  auto parsed = [&] {
    ScopedSpan span(log, "profile.ParseProfile");
    return pimento::profile::ParseProfile(text);
  }();
  if (!parsed.ok()) return;
  {
    ScopedSpan span(log, "profile.DetectAmbiguity");
    auto report = pimento::profile::DetectAmbiguity(parsed->vors);
    (void)report;
  }
  const uint64_t hash = exec::ProfileCache::ContentHash(text);
  std::vector<std::string> lines;
  std::vector<uint64_t> hashes;
  std::string relations;
  bool hit = false;
  if (store != nullptr) {
    {
      ScopedSpan span(log, "exec.ProfileStore.RuleHashes");
      for (const pimento::profile::ScopingRule& r : parsed->scoping_rules) {
        lines.push_back(r.ToString());
        hashes.push_back(exec::ProfileStore::RuleHash(lines.back()));
      }
    }
    ScopedSpan span(log, "exec.ProfileStore.Get");
    hit = store->Get(hash, pimento::profile::kRuleCompilerVersion, hashes,
                     &relations);
  }
  std::vector<pimento::profile::ScopingRule> rules = parsed->scoping_rules;
  pimento::profile::CompiledRules compiled = [&] {
    ScopedSpan span(log, "profile.CompileRules");
    return pimento::profile::CompileRules(std::move(rules), relations);
  }();
  if (store != nullptr && !hit && scratch_store != nullptr) {
    ScopedSpan span(log, "exec.ProfileStore.Put");
    scratch_store
        ->Put(hash, pimento::profile::kRuleCompilerVersion, lines,
              pimento::profile::SerializeRelations(compiled))
        .ok();
  }
}

/// SearchEngine::Execute's top-k path for a text request in a release
/// build, one span per module call.
ReplayOut Replay(const core::SearchEngine& engine, const RequestText& text,
                 int k, SpanLog* log) {
  ReplayOut out;
  ScopedSpan root(log, "core.request");
  auto query = [&] {
    ScopedSpan span(log, "tpq.ParseTpq");
    return pimento::tpq::ParseTpq(text.query);
  }();
  if (!query.ok()) {
    out.error = query.status().ToString();
    return out;
  }
  auto compiled = [&] {
    ScopedSpan span(log, "exec.ProfileCache.GetOrCompile");
    return engine.profile_cache().GetOrCompile(text.profile);
  }();
  if (!compiled.ok()) {
    out.error = compiled.status().ToString();
    return out;
  }
  const exec::CompiledProfile& profile = **compiled;
  pimento::profile::FlockBuildStats fstats;
  auto flock = [&] {
    ScopedSpan span(log, "profile.BuildFlockCompiled");
    return pimento::profile::BuildFlockCompiled(
        *query, profile.compiled_rules, nullptr, &fstats);
  }();
  if (!flock.ok()) {
    out.error = flock.status().ToString();
    return out;
  }
  out.hom_runs = fstats.hom_runs;
  out.members = static_cast<int64_t>(flock->members.size());

  core::SearchOptions defaults;
  pimento::plan::PlannerOptions popts;
  popts.k = k;
  popts.strategy = defaults.strategy;
  popts.rank_order = profile.profile.rank_order;
  popts.vor_mode = defaults.vor_mode;
  popts.kor_order = defaults.kor_order;
  popts.optional_bonus = defaults.optional_bonus;
  popts.use_structural_prefilter = defaults.use_structural_prefilter;
  popts.scan_mode = defaults.scan_mode;
  popts.use_score_floor = defaults.use_score_floor;
  popts.count_cache = &engine.phrase_count_cache();
  auto plan = [&] {
    ScopedSpan span(log, "plan.BuildPlan");
    return pimento::plan::BuildPlan(engine.collection(), engine.scorer(),
                                    flock->encoded, profile.profile.vors,
                                    profile.profile.kors, popts);
  }();
  if (!plan.ok()) {
    out.error = plan.status().ToString();
    return out;
  }
  out.plan_ops = static_cast<int64_t>(plan->size());
  {
    ScopedSpan span(log, "algebra.Plan.Execute");
    out.answers = plan->Execute(nullptr);
  }
  out.stats = plan->CollectStats();
  {
    ScopedSpan span(log, "algebra.RankContext");
    pimento::algebra::RankContext rank(profile.profile.vors,
                                       profile.profile.rank_order);
    for (const pimento::algebra::Answer& a : out.answers) {
      std::vector<double> keys = rank.VorKeys(a);
      (void)keys;
    }
  }
  return out;
}

/// Sums of the replay's per-request counters.
struct ReplayTotals {
  int64_t requests = 0;
  int64_t hom_runs = 0;
  int64_t members = 0;
  int64_t plan_ops = 0;
  int64_t scanned = 0;
  int64_t emitted = 0;
  int64_t kor_consumed = 0;
  int64_t pruned_by_topk = 0;
  int64_t pruned_by_filters = 0;
  int64_t blocks_skipped = 0;
  int64_t blocks_visited = 0;
  int64_t cursor_skipped = 0;
  int64_t cursor_visited = 0;
  std::vector<double> request_ms;  ///< core.request span per request
  /// Allocations of each replayed request, by distinct request.
  std::map<std::string, std::vector<uint64_t>> allocs_by_request;

  void Add(const ReplayOut& r) {
    ++requests;
    hom_runs += r.hom_runs;
    members += r.members;
    plan_ops += r.plan_ops;
    scanned += r.stats.scanned;
    emitted += r.stats.emitted;
    kor_consumed += r.stats.kor_consumed;
    pruned_by_topk += r.stats.pruned_by_topk;
    pruned_by_filters += r.stats.pruned_by_filters;
    blocks_skipped += r.stats.blocks_skipped;
    blocks_visited += r.stats.blocks_visited;
    cursor_skipped += r.stats.cursor_blocks_skipped;
    cursor_visited += r.stats.cursor_blocks_visited;
  }
};

/// Replays one request with spans and checks its answers.
template <typename Stream>
void ReplayOne(const core::SearchEngine& engine, Stream* stream,
               Expected* expected, int k, bool decompose,
               exec::ProfileStore* scratch_store, SpanLog* log,
               ReplayTotals* totals, Report* report) {
  const Item item = stream->Next();
  log->BeginRequest(static_cast<uint64_t>(totals->requests));
  if (decompose) {
    ReplayProfileParts(item.text->profile, engine.profile_store(),
                       item.new_user ? scratch_store : nullptr, log);
  }
  const size_t root = log->spans().size();
  ReplayOut out = Replay(engine, *item.text, k, log);
  const Span& span = log->spans()[root];
  totals->request_ms.push_back(MsBetween(span.start_ns, span.end_ns));
  if (!item.new_user) {
    totals->allocs_by_request[item.text->profile + item.text->query]
        .push_back(span.allocs);
  }
  totals->Add(out);
  if (!out.error.empty()) {
    report->Check("replay: " + out.error);
    return;
  }
  // The replayed answers must be Execute's answers for the same request.
  expected->Check(item, AnswerKey(out.answers), report);
}

// ---------------------------------------------------------------------------
// Per-layer metrics.

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in output order. A layer that does no work on a
/// workload reports 0 there.
constexpr LayerMetric kLayerMetrics[] = {
    {"core.execute.us", "us"},
    {"core.overhead.us", "us"},
    {"core.allocs", "count"},
    {"tpq.parse.us", "us"},
    {"tpq.parse.allocs", "count"},
    {"exec.profile_cache.us", "us"},
    {"exec.profile_cache.hit_ratio", "ratio"},
    {"exec.profile_cache.evictions", "count"},
    {"exec.profile_cache.allocs", "count"},
    {"exec.profile_cache.covered_frac", "ratio"},
    {"exec.profile_store.get.us", "us"},
    {"exec.profile_store.put.us", "us"},
    {"exec.profile_store.hit_ratio", "ratio"},
    {"exec.profile_store.bytes_per_profile", "bytes"},
    {"exec.phrase_count_cache.hit_ratio", "ratio"},
    {"exec.batch.busy_frac", "ratio"},
    {"exec.batch.item_p50_ms", "ms"},
    {"exec.batch.inflation", "ratio"},
    {"profile.parse.us", "us"},
    {"profile.compile.us", "us"},
    {"profile.flock.us", "us"},
    {"profile.flock.hom_runs", "count"},
    {"profile.flock.members", "count"},
    {"profile.flock.allocs", "count"},
    {"plan.build.us", "us"},
    {"plan.ops", "count"},
    {"plan.build.allocs", "count"},
    {"algebra.execute.us", "us"},
    {"algebra.rank.us", "us"},
    {"algebra.scanned_per_result", "ratio"},
    {"algebra.kor_consumed", "count"},
    {"algebra.topk_pruned_ratio", "ratio"},
    {"algebra.filter_pruned_ratio", "ratio"},
    {"algebra.execute.allocs", "count"},
    {"algebra.rank.allocs", "count"},
    {"index.blocks_skipped_ratio", "ratio"},
    {"index.cursor_blocks_skipped_ratio", "ratio"},
    {"index.build.ms_per_mb", "ms/MB"},
    {"index.build.allocs_per_mb", "count/MB"},
    {"index.serialize.ms_per_mb", "ms/MB"},
    {"index.deserialize.ms_per_mb", "ms/MB"},
    {"index.file_io.ms_per_mb", "ms/MB"},
    {"xml.parse.ms_per_mb", "ms/MB"},
    {"xml.parse.allocs_per_mb", "count/MB"},
    {"trace.overhead_frac", "ratio"},
    {"alloc.repeat_exact", "ratio"},
};

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Collects per-layer values by name and emits the whole catalog.
class Layers {
 public:
  void Set(const std::string& name, double value, int64_t samples) {
    values_[name] = {value, samples};
  }
  void Emit(Report* report) const {
    for (const LayerMetric& m : kLayerMetrics) {
      auto it = values_.find(m.name);
      const auto [value, samples] =
          it == values_.end() ? std::pair<double, int64_t>{0.0, 0}
                              : it->second;
      report->Add(m.name, value, m.unit, samples);
    }
  }

 private:
  std::map<std::string, std::pair<double, int64_t>> values_;
};

/// Ingest and persistence layers from a span log covering `mb` MB per call.
void SetLoadLayers(const std::map<std::string, SpanTotals>& totals, double mb,
                   Layers* layers) {
  auto get = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const SpanTotals parse = get("xml.ParseXml");
  const SpanTotals build = get("index.Collection.Build");
  const SpanTotals ser = get("index.SerializeCollection");
  const SpanTotals de = get("index.DeserializeCollection");
  const SpanTotals save = get("index.SaveCollection");
  const SpanTotals load = get("index.LoadCollection");
  auto per_mb = [&](double v) { return Ratio(v, mb); };
  layers->Set("xml.parse.ms_per_mb", per_mb(parse.MeanUs() / 1e3), parse.calls);
  layers->Set("xml.parse.allocs_per_mb", per_mb(parse.MedianAllocs()),
              parse.calls);
  layers->Set("index.build.ms_per_mb", per_mb(build.MeanUs() / 1e3),
              build.calls);
  layers->Set("index.build.allocs_per_mb", per_mb(build.MedianAllocs()),
              build.calls);
  layers->Set("index.serialize.ms_per_mb", per_mb(ser.MeanUs() / 1e3),
              ser.calls);
  layers->Set("index.deserialize.ms_per_mb", per_mb(de.MeanUs() / 1e3),
              de.calls);
  layers->Set("index.file_io.ms_per_mb",
              per_mb((save.MeanUs() - ser.MeanUs() + load.MeanUs() -
                      de.MeanUs()) /
                     1e3),
              save.calls);
}

/// Query-side layers from the replay's spans and counters, against the
/// untraced Execute loop of the same run.
void SetQueryLayers(const std::map<std::string, SpanTotals>& totals,
                    const ReplayTotals& replay, const Timed& untraced,
                    Layers* layers) {
  auto get = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const int64_t n = replay.requests;
  const SpanTotals parse = get("tpq.ParseTpq");
  const SpanTotals cache = get("exec.ProfileCache.GetOrCompile");
  const SpanTotals flock = get("profile.BuildFlockCompiled");
  const SpanTotals build = get("plan.BuildPlan");
  const SpanTotals execute = get("algebra.Plan.Execute");
  const SpanTotals rank = get("algebra.RankContext");
  const SpanTotals pparse = get("profile.ParseProfile");
  const SpanTotals ambiguity = get("profile.DetectAmbiguity");
  const SpanTotals hashes = get("exec.ProfileStore.RuleHashes");
  const SpanTotals get_span = get("exec.ProfileStore.Get");
  const SpanTotals compile = get("profile.CompileRules");
  const SpanTotals put = get("exec.ProfileStore.Put");

  const double execute_us = Mean(untraced.lat_ms) * 1e3;
  const int64_t stage_ns = parse.total_ns + cache.total_ns + flock.total_ns +
                           build.total_ns + execute.total_ns + rank.total_ns;
  layers->Set("core.execute.us", execute_us,
              static_cast<int64_t>(untraced.lat_ms.size()));
  layers->Set("core.overhead.us",
              execute_us - Ratio(static_cast<double>(stage_ns) / 1e3,
                                 static_cast<double>(n)),
              n);
  std::vector<double> allocs(untraced.allocs.begin(), untraced.allocs.end());
  layers->Set("core.allocs", Median(allocs),
              static_cast<int64_t>(allocs.size()));
  layers->Set("tpq.parse.us", parse.MeanUs(), parse.calls);
  layers->Set("tpq.parse.allocs", parse.MedianAllocs(), parse.calls);
  layers->Set("exec.profile_cache.us", cache.MeanUs(), cache.calls);
  layers->Set("exec.profile_cache.allocs", cache.MedianAllocs(), cache.calls);
  if (pparse.calls > 0) {
    layers->Set("exec.profile_cache.covered_frac",
                Ratio(static_cast<double>(pparse.total_ns +
                                          ambiguity.total_ns +
                                          hashes.total_ns + get_span.total_ns +
                                          compile.total_ns + put.total_ns),
                      static_cast<double>(cache.total_ns)),
                pparse.calls);
  }
  layers->Set("exec.profile_store.get.us", get_span.MeanUs(), get_span.calls);
  layers->Set("exec.profile_store.put.us", put.MeanUs(), put.calls);
  layers->Set("profile.parse.us", pparse.MeanUs(), pparse.calls);
  layers->Set("profile.compile.us", compile.MeanUs(), compile.calls);
  layers->Set("profile.flock.us", flock.MeanUs(), flock.calls);
  layers->Set("profile.flock.hom_runs",
              Ratio(static_cast<double>(replay.hom_runs), n), n);
  layers->Set("profile.flock.members",
              Ratio(static_cast<double>(replay.members), n), n);
  layers->Set("profile.flock.allocs", flock.MedianAllocs(), flock.calls);
  layers->Set("plan.build.us", build.MeanUs(), build.calls);
  layers->Set("plan.ops", Ratio(static_cast<double>(replay.plan_ops), n), n);
  layers->Set("plan.build.allocs", build.MedianAllocs(), build.calls);
  layers->Set("algebra.execute.us", execute.MeanUs(), execute.calls);
  layers->Set("algebra.rank.us", rank.MeanUs(), rank.calls);
  layers->Set("algebra.scanned_per_result",
              Ratio(static_cast<double>(replay.scanned),
                    static_cast<double>(replay.emitted)),
              n);
  layers->Set("algebra.kor_consumed",
              Ratio(static_cast<double>(replay.kor_consumed), n), n);
  layers->Set("algebra.topk_pruned_ratio",
              Ratio(static_cast<double>(replay.pruned_by_topk),
                    static_cast<double>(replay.scanned)),
              n);
  layers->Set("algebra.filter_pruned_ratio",
              Ratio(static_cast<double>(replay.pruned_by_filters),
                    static_cast<double>(replay.scanned)),
              n);
  layers->Set("algebra.execute.allocs", execute.MedianAllocs(), execute.calls);
  layers->Set("algebra.rank.allocs", rank.MedianAllocs(), rank.calls);
  layers->Set("index.blocks_skipped_ratio",
              Ratio(static_cast<double>(replay.blocks_skipped),
                    static_cast<double>(replay.blocks_skipped +
                                        replay.blocks_visited)),
              n);
  layers->Set("index.cursor_blocks_skipped_ratio",
              Ratio(static_cast<double>(replay.cursor_skipped),
                    static_cast<double>(replay.cursor_skipped +
                                        replay.cursor_visited)),
              n);
  const double untraced_p50 = Median(untraced.lat_ms);
  layers->Set("trace.overhead_frac",
              Ratio(Median(replay.request_ms), untraced_p50) - 1.0,
              static_cast<int64_t>(replay.request_ms.size()));
  int64_t repeated = 0;
  int64_t exact = 0;
  for (const auto& [key, counts] : replay.allocs_by_request) {
    if (counts.size() < 3) continue;
    ++repeated;
    // The first replay of a request may still fill caches; the rest must
    // allocate exactly alike.
    if (std::all_of(counts.begin() + 1, counts.end(),
                    [&](uint64_t c) { return c == counts[1]; })) {
      ++exact;
    }
  }
  layers->Set("alloc.repeat_exact",
              Ratio(static_cast<double>(exact), static_cast<double>(repeated)),
              repeated);
}

/// Cache and store counters at one moment.
struct CounterSnapshot {
  exec::ProfileCache::CacheStats cache;
  exec::PhraseCountCache::CacheStats phrases;
  exec::ProfileStore::Stats store;

  static CounterSnapshot Take(const core::SearchEngine& engine) {
    CounterSnapshot s;
    s.cache = engine.profile_cache().GetStats();
    s.phrases = engine.phrase_count_cache().GetStats();
    if (engine.profile_store() != nullptr) {
      s.store = engine.profile_store()->GetStats();
    }
    return s;
  }
};

/// Counter deltas summed over the untraced blocks of a traced run.
struct CounterTotals {
  int64_t requests = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t evictions = 0;
  int64_t phrase_hits = 0;
  int64_t phrase_misses = 0;
  int64_t store_lookups = 0;
  int64_t store_hits = 0;

  void Add(const CounterSnapshot& b, const CounterSnapshot& a,
           int64_t block_requests) {
    requests += block_requests;
    cache_hits += a.cache.hits - b.cache.hits;
    cache_misses += a.cache.misses - b.cache.misses;
    evictions += a.cache.evictions - b.cache.evictions;
    phrase_hits += a.phrases.hits - b.phrases.hits;
    phrase_misses += a.phrases.misses - b.phrases.misses;
    store_lookups += a.store.lookups - b.store.lookups;
    store_hits += a.store.hits - b.store.hits;
  }
};

void SetCounterLayers(const CounterTotals& t, const std::string& store_path,
                      const core::SearchEngine& engine, Layers* layers) {
  auto d = [](int64_t v) { return static_cast<double>(v); };
  layers->Set("exec.profile_cache.hit_ratio",
              Ratio(d(t.cache_hits), d(t.cache_hits + t.cache_misses)),
              t.cache_hits + t.cache_misses);
  layers->Set("exec.profile_cache.evictions",
              Ratio(d(t.evictions), d(t.requests)), t.requests);
  layers->Set("exec.phrase_count_cache.hit_ratio",
              Ratio(d(t.phrase_hits), d(t.phrase_hits + t.phrase_misses)),
              t.phrase_hits + t.phrase_misses);
  if (engine.profile_store() != nullptr) {
    const int64_t profiles = engine.profile_store()->GetStats().profiles;
    layers->Set("exec.profile_store.hit_ratio",
                Ratio(d(t.store_hits), d(t.store_lookups)), t.store_lookups);
    layers->Set("exec.profile_store.bytes_per_profile",
                Ratio(d(static_cast<int64_t>(
                          std::filesystem::file_size(store_path))),
                      d(profiles)),
                profiles);
  }
}

// ---------------------------------------------------------------------------
// The query workloads.

/// Median of `values`, reported with its count.
void AddMedian(Report* report, const char* name, const std::vector<double>& v,
               const char* unit) {
  report->Add(name, Median(v), unit, static_cast<int64_t>(v.size()));
}

struct QueryRun {
  const RunOptions& options;
  Report* report;
  SpanLog log;
  std::string store_path;
  std::string image_path;
  std::unique_ptr<core::SearchEngine> engine;
  std::vector<double> setup_s, ingest_ms_per_mb, save_ms_per_mb,
      restart_ms_per_mb;
  /// The reference work's times, one after each block of the timed loop.
  std::vector<double> reference_ms;
  bool fills_store = false;  ///< set-up includes the profile-store fill
  double image_ratio = 0.0;
  uint64_t image_hash = 0;
  Expected expected;

  QueryRun(const RunOptions& o, Report* r, int client)
      : options(o),
        report(r),
        store_path(o.work_dir + "/users-" + std::to_string(client) +
                   ".profile_store"),
        image_path(o.work_dir + "/query-" + std::to_string(client) +
                   ".image") {}

  SpanLog* Log() { return options.trace ? &log : nullptr; }

  /// Repeated set-up: ingest, plus store pre-population for cold users.
  /// Keeps the last engine.
  bool Setup(const std::string& text, const ColdStream* cold, int repeats) {
    fills_store = cold != nullptr;
    for (int r = 0; r < repeats; ++r) {
      engine.reset();
      const int64_t t0 = NowNs();
      Ingested in = Ingest(text, Log());
      if (!in.engine) {
        report->Check(in.error);
        return false;
      }
      if (cold != nullptr) {
        std::filesystem::remove(store_path);
        pimento::Status attached = in.engine->SetProfileStore(store_path);
        if (!attached.ok()) {
          report->Check("SetProfileStore: " + attached.ToString());
          return false;
        }
        for (const RequestText& user : cold->texts()) {
          auto got = in.engine->profile_cache().GetOrCompile(user.profile);
          if (!got.ok()) {
            report->Check("GetOrCompile: " + got.status().ToString());
            return false;
          }
        }
        in.engine->profile_cache().Clear();
      }
      setup_s.push_back(MsBetween(t0, NowNs()) / 1e3);
      engine = std::move(in.engine);
    }
    return true;
  }

  /// Save/restart round trips of the served collection; the last restarted
  /// engine must re-serialize byte-identically and answer `probes` like
  /// the served engine.
  bool Persist(size_t text_bytes, const std::vector<RequestText>& probes) {
    std::unique_ptr<core::SearchEngine> restarted;
    for (int r = 0; r < options.scale.setup_repeats; ++r) {
      RoundTrip rt = SaveAndRestart(engine->collection(), image_path, Log());
      if (!rt.error.empty()) {
        report->Check(rt.error);
        return false;
      }
      image_ratio = static_cast<double>(rt.image_bytes) /
                    static_cast<double>(text_bytes);
      if (options.trace) TimeCodec(engine->collection(), Log());
      restarted = std::move(rt.restarted);
    }
    image_hash = FileHash(image_path);
    std::filesystem::remove(image_path);
    report->Check(index::SerializeCollection(restarted->collection()) ==
                          index::SerializeCollection(engine->collection())
                      ? ""
                      : "restarted image does not re-serialize identically");
    for (const RequestText& probe : probes) {
      auto a = engine->Execute(MakeRequest(probe, options.scale.k));
      auto b = restarted->Execute(MakeRequest(probe, options.scale.k));
      report->Check(!a.ok() || !b.ok() ? "probe failed"
                    : AnswerKey(a->answers) == AnswerKey(b->answers)
                        ? ""
                        : "restarted engine answers a probe differently");
    }
    return true;
  }

  /// One more ingest and save/restart of `text`, timed, between blocks of
  /// the timed loop. A rebuilt collection must save the set-up image.
  void Rep(const std::string& text) {
    Ingested in = Ingest(text, nullptr);
    if (!in.engine) {
      report->Check(in.error);
      return;
    }
    RoundTrip rt = SaveAndRestart(in.engine->collection(), image_path, nullptr);
    if (!rt.error.empty()) {
      report->Check(rt.error);
      return;
    }
    const double mb = Mb(text.size());
    // Without a store to fill, an ingest is a whole set-up: sampled across
    // the run, set-up time does not hang on the second before the loop.
    if (!fills_store) setup_s.push_back((in.parse_ms + in.build_ms) / 1e3);
    ingest_ms_per_mb.push_back((in.parse_ms + in.build_ms) / mb);
    save_ms_per_mb.push_back(rt.save_ms / mb);
    restart_ms_per_mb.push_back(rt.load_ms / mb);
    report->Check(FileHash(image_path) == image_hash
                      ? ""
                      : "a rebuilt collection saved a different image");
    std::filesystem::remove(image_path);
  }

  /// Reference-checks one request per slot and records its fingerprint.
  void Gate(const std::vector<std::pair<uint32_t, const RequestText*>>& slots) {
    for (const auto& [slot, text] : slots) {
      if (expected.Has(slot)) continue;
      auto result = engine->Execute(MakeRequest(*text, options.scale.k));
      if (!result.ok()) {
        report->Check("Execute: " + result.status().ToString());
        continue;
      }
      std::vector<core::RankedAnswer> answers = MaybeCorrupt(result->answers);
      const std::string error =
          CheckAgainstReference(*engine, *text, options.scale.k, answers);
      report->Check(error.empty() ? "" : "reference: " + error);
      expected.Set(slot, AnswerKey(answers));
    }
  }

  /// The traced run of a query workload, in interleaved blocks so the
  /// untraced baseline and the traced replay see the same machine: `block`
  /// requests through Execute, a BatchSearch of the mix when `batch` is
  /// set, then `block` requests replayed with spans. `decompose` also
  /// times the parts of GetOrCompile (cold users).
  template <typename Stream>
  void Traced(Stream* stream, const Fig5Stream* batch, size_t block,
              bool decompose, exec::ProfileStore* scratch_store,
              size_t text_bytes) {
    Layers layers;
    SetLoadLayers(log.Totals(), Mb(text_bytes), &layers);
    log.Clear();
    Timed untraced;
    CounterTotals counters;
    Timed batches;
    BatchTotals batch_totals;
    ReplayTotals replay;
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(options.seconds * 1e9);
    do {
      const CounterSnapshot before = CounterSnapshot::Take(*engine);
      for (size_t i = 0; i < block; ++i) {
        ExecuteOne(*engine, stream->Next(), &expected, report, &untraced);
      }
      counters.Add(before, CounterSnapshot::Take(*engine),
                   static_cast<int64_t>(block));
      if (batch != nullptr) {
        BatchOnce(*engine, *batch, &expected, options.workers, report,
                  &batches, &batch_totals);
      }
      for (size_t i = 0; i < block; ++i) {
        ReplayOne(*engine, stream, &expected, options.scale.k, decompose,
                  scratch_store, &log, &replay, report);
      }
    } while (NowNs() < deadline);
    expected.ResolvePending(*engine, options.scale.k, report);
    SetCounterLayers(counters, store_path, *engine, &layers);
    SetQueryLayers(log.Totals(), replay, untraced, &layers);
    if (batch != nullptr) {
      const double item_p50 = Median(batch_totals.item_ms);
      const int64_t items = static_cast<int64_t>(batch_totals.item_ms.size());
      layers.Set("exec.batch.busy_frac",
                 Ratio(batch_totals.busy_ms,
                       batch_totals.wall_ms * options.workers),
                 items);
      layers.Set("exec.batch.item_p50_ms", item_p50, items);
      layers.Set("exec.batch.inflation",
                 Ratio(item_p50, Median(untraced.lat_ms)), items);
    }
    log.Write(options.work_dir + "/spans-" + options.workload + ".jsonl");
    layers.Emit(report);
  }
};

/// One closed-loop client of a query workload: its own document, engine,
/// request stream and checks. Untraced, each client runs on its own thread
/// and counts its checks in its own report.
template <typename Stream>
struct Client {
  Report report;
  std::string text;
  QueryRun run;
  Stream stream;
  Timed timed;

  template <typename... StreamArgs>
  Client(const RunOptions& options, int c, std::string xml,
         StreamArgs&&... stream_args)
      : text(std::move(xml)),
        run(options, &report, c),
        stream(std::forward<StreamArgs>(stream_args)...) {}
};

/// Clients of fig5_warm and cold_users: one per vCPU, up to Scale::clients.
int ClientCount(const RunOptions& options) {
  return std::max(1, std::min(options.scale.clients, options.workers));
}

/// Seed of client `c`'s document and user population; client 0 uses the
/// run's seed itself.
uint64_t ClientSeed(uint64_t seed, int c) {
  return seed + 7919u * static_cast<uint64_t>(c);
}

/// Runs each client on its own thread: it prepares (`prepare`, false on
/// failure), serves blocks (`block`) from the moment every client is ready
/// until the clock stops them, timing the reference work (`references[i]`
/// for client i) after each block and taking its turns at ingest and
/// save/restart between blocks, then finishes (`finish`).
template <typename C, typename Prepare, typename Block, typename Finish>
void RunClients(double seconds, std::vector<std::unique_ptr<C>>& clients,
                std::vector<ReferenceWork>& references, Prepare prepare,
                Block block, Finish finish) {
  LoopClock clock(static_cast<int>(clients.size()));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      C& client = *clients[i];
      ReferenceWork& reference = references[i];
      const bool ok = prepare(client);
      clock.AwaitStart();
      while (!clock.Stopped()) {
        if (ok) {
          block(client);
          client.run.reference_ms.push_back(reference.TimeMs());
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (clock.RepDue(static_cast<int>(i))) {
          if (ok) client.run.Rep(client.text);
          clock.RepDone();
        }
      }
      if (ok) finish(client);
    });
  }
  clock.Run(seconds);
  for (std::thread& t : threads) t.join();
}

/// Peak resident set, in MB, of a fresh process holding one client's
/// engine, set up once by `set_up`, while one more ingest and save/restart
/// of its XML run beside it: the median of two probes. Measured before any
/// other client exists, so no other thread's allocations move it. (Probed
/// beside four clients' engines instead, it moved by up to 0.16 of its
/// median from run to run with how their concurrent set-ups had left the
/// heap.)
template <typename C, typename SetUp>
std::vector<double> ProbePeakRss(std::unique_ptr<C> client, SetUp set_up,
                                 Report* report) {
  std::vector<double> peak_mb;
  if (set_up(*client)) {
    for (int p = 0; p < 2; ++p) {
      ResetPeakRss();
      Ingested in = Ingest(client->text, nullptr);
      if (in.engine) {
        SaveAndRestart(in.engine->collection(), client->run.image_path,
                       nullptr);
        std::filesystem::remove(client->run.image_path);
      }
      peak_mb.push_back(PeakRssMb());
    }
  }
  std::filesystem::remove(client->run.store_path);
  report->Merge(client->report);
  return peak_mb;
}

/// The untraced run of a query workload, in Scale::rounds rounds of an equal
/// share of the run. Each round makes `n` fresh clients, `make(i)` for
/// i = round * n + c, so that every round serves documents of its own, and
/// runs them (RunClients). A finished round's engines and stores are
/// dropped before the next round is made. Returns every client.
template <typename C, typename Make, typename Prepare, typename Block,
          typename Finish>
std::vector<std::unique_ptr<C>> RunRounds(const RunOptions& options, int n,
                                          Make make, Prepare prepare,
                                          Block block, Finish finish) {
  const int rounds = options.scale.rounds;
  std::vector<ReferenceWork> references(n);
  std::vector<std::unique_ptr<C>> all;
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::unique_ptr<C>> clients;
    for (int c = 0; c < n; ++c) clients.push_back(make(r * n + c));
    RunClients(options.seconds / rounds, clients, references, prepare, block,
               finish);
    for (std::unique_ptr<C>& client : clients) {
      client->run.engine.reset();
      std::filesystem::remove(client->run.store_path);
      all.push_back(std::move(client));
    }
  }
  return all;
}

/// The reference work's time, in ms, on the machine every timing is scaled
/// to: about its median on the 4-vCPU development VM.
constexpr double kReferenceMs = 2.5;

/// `name` scaled to reference speed (gated), and as measured (printed only).
void AddScaled(Report* report, const std::string& name,
               const std::vector<double>& v, const char* unit,
               double to_reference) {
  const int64_t n = static_cast<int64_t>(v.size());
  report->Add(name, Median(v) * to_reference, unit, n);
  report->Info(name + ".raw", Median(v), unit, n);
}

/// The end-to-end metrics of a query workload over all its clients; every
/// sample of every client counts. Timings are scaled to reference speed by
/// the reference work timed during the loop. (Timed between set-ups instead,
/// it read up to 6x slow on cold_users, where four clients fill their
/// stores at once.)
template <typename C>
void AddEndToEnd(const std::vector<std::unique_ptr<C>>& clients,
                 const std::vector<double>& peak_mb, double ops_per_sample,
                 int concurrency, Report* report) {
  std::vector<double> setup_s, ingest, save, restart, image, reference;
  std::vector<const Timed*> timed;
  auto append = [](std::vector<double>* to, const std::vector<double>& v) {
    to->insert(to->end(), v.begin(), v.end());
  };
  for (const auto& c : clients) {
    append(&setup_s, c->run.setup_s);
    append(&ingest, c->run.ingest_ms_per_mb);
    append(&save, c->run.save_ms_per_mb);
    append(&restart, c->run.restart_ms_per_mb);
    image.push_back(c->run.image_ratio);
    append(&reference, c->run.reference_ms);
    timed.push_back(&c->timed);
  }
  report->Info("reference_ms", Median(reference), "ms",
               static_cast<int64_t>(reference.size()));
  // No reference time means no block ran (every client failed to prepare):
  // leave the timings unscaled rather than print a non-finite number.
  const double to_reference =
      reference.empty() ? 1.0 : kReferenceMs / Median(reference);
  AddScaled(report, "setup_s", setup_s, "s", to_reference);
  AddScaled(report, "ingest_ms_per_mb", ingest, "ms/MB", to_reference);
  AddScaled(report, "save_ms_per_mb", save, "ms/MB", to_reference);
  AddScaled(report, "restart_ms_per_mb", restart, "ms/MB", to_reference);
  report->Add("image_bytes_per_xml_byte", Median(image), "ratio",
              static_cast<int64_t>(save.size()));
  AddMedian(report, "peak_rss_mb", peak_mb, "MB");
  AddLatencyMetrics(Timed::Pooled(timed), ops_per_sample,
                    concurrency, to_reference, report);
}

/// "a,b,c" of each client's document size.
template <typename C>
std::string DocBytes(const std::vector<std::unique_ptr<C>>& clients) {
  std::string out;
  for (const auto& c : clients) {
    out += (out.empty() ? "" : ",") + std::to_string(c->text.size());
  }
  return out;
}

using Fig5Client = Client<Fig5Stream>;
using ColdClient = Client<ColdStream>;

void RunFig5(const RunOptions& options, bool batch, Report* report) {
  const Scale& scale = options.scale;
  // fig5_batch has one client whose batches spread over nproc workers.
  const int n = options.trace || batch ? 1 : ClientCount(options);
  auto make = [&](int i) {
    return std::make_unique<Fig5Client>(
        options, i,
        XmarkText(scale.query_doc_bytes,
                  static_cast<uint32_t>(ClientSeed(options.seed, i))),
        scale.batch_size, scale.k);
  };
  report->Config("clients", std::to_string(n));
  report->Config("mix", "fig5: Fig. 5 query x 8 profiles, 1/4 Phoenix");
  report->Config("mix_size", std::to_string(scale.batch_size));

  auto prepare = [&](Fig5Client& cl) {
    const std::vector<RequestText>& texts = cl.stream.texts();
    std::vector<std::pair<uint32_t, const RequestText*>> slots;
    for (uint32_t i = 0; i < Fig5Stream::kCycle; ++i) {
      slots.push_back({i, &texts[i]});
    }
    std::vector<RequestText> probes(texts.begin(),
                                    texts.begin() + Fig5Stream::kCycle);
    if (!cl.run.Setup(cl.text, nullptr, scale.setup_repeats) ||
        !cl.run.Persist(cl.text.size(), probes)) {
      return false;
    }
    cl.run.Gate(slots);
    // Warm-up: fill the profile and phrase-count caches.
    for (const core::SearchRequest& r : cl.stream.requests()) {
      auto warm = cl.run.engine->Execute(r);
      (void)warm;
    }
    return true;
  };

  if (options.trace) {
    std::unique_ptr<Fig5Client> cl = make(0);
    report->Config("doc_bytes", std::to_string(cl->text.size()));
    if (prepare(*cl)) {
      cl->run.Traced(&cl->stream, batch ? &cl->stream : nullptr,
                     cl->stream.texts().size(), false, nullptr,
                     cl->text.size());
    }
    report->Merge(cl->report);
    return;
  }
  const std::vector<double> peak_mb = ProbePeakRss(
      make(0),
      [&](Fig5Client& cl) { return cl.run.Setup(cl.text, nullptr, 1); },
      report);
  const auto clients = RunRounds<Fig5Client>(
      options, n, make, prepare,
      [&](Fig5Client& cl) {
        if (batch) {
          for (int i = 0; i < 4; ++i) {
            BatchOnce(*cl.run.engine, cl.stream, &cl.run.expected,
                      options.workers, &cl.report, &cl.timed, nullptr);
          }
          return;
        }
        for (size_t i = 0; i < cl.stream.texts().size(); ++i) {
          ExecuteOne(*cl.run.engine, cl.stream.Next(), &cl.run.expected,
                     &cl.report, &cl.timed);
        }
      },
      [](Fig5Client&) {});
  report->Config("doc_bytes", DocBytes(clients));
  for (const auto& cl : clients) report->Merge(cl->report);
  AddEndToEnd(clients, peak_mb, batch ? scale.batch_size : 1.0, n, report);
}

void RunColdUsers(const RunOptions& options, Report* report) {
  const Scale& scale = options.scale;
  const int n = options.trace ? 1 : ClientCount(options);
  auto make = [&](int i) {
    const uint64_t seed = ClientSeed(options.seed, i);
    return std::make_unique<ColdClient>(
        options, i,
        XmarkText(scale.query_doc_bytes, static_cast<uint32_t>(seed)), seed,
        scale);
  };
  report->Config("clients", std::to_string(n));
  report->Config("mix", "cold_users: Phoenix query, one profile per user");
  report->Config("population",
                 std::to_string(scale.returning_users) + " returning x " +
                     std::to_string(scale.rules_per_user) + " rules (" +
                     std::to_string(scale.applying_rules) +
                     " applying), 1/" + std::to_string(scale.new_user_every) +
                     " new, per client");

  auto prepare = [&](ColdClient& cl) {
    std::vector<std::pair<uint32_t, const RequestText*>> slots;
    std::vector<RequestText> probes;
    std::map<uint32_t, bool> seen;
    for (size_t u = 0; u < cl.stream.texts().size(); ++u) {
      const uint32_t cls = cl.stream.classes()[u];
      slots.push_back({cls, &cl.stream.texts()[u]});
      if (!seen[cls] && probes.size() < 8) {
        probes.push_back(cl.stream.texts()[u]);
      }
      seen[cls] = true;
    }
    if (!cl.run.Setup(cl.text, &cl.stream, scale.heavy_setup_repeats) ||
        !cl.run.Persist(cl.text.size(), probes)) {
      return false;
    }
    cl.run.Gate(slots);
    // Warm-up: the phrase-count cache; then drop the profile cache so the
    // timed loop starts, like the rest of it, missing memory.
    for (int i = 0; i < 64; ++i) {
      const Item item = cl.stream.Next();
      auto warm = cl.run.engine->Execute(*item.request);
      if (warm.ok()) {
        cl.run.expected.Check(item, AnswerKey(warm->answers), &cl.report);
      }
    }
    cl.run.engine->profile_cache().Clear();
    return true;
  };

  if (options.trace) {
    std::unique_ptr<ColdClient> cl = make(0);
    report->Config("doc_bytes", std::to_string(cl->text.size()));
    const std::string scratch_path =
        options.work_dir + "/scratch.profile_store";
    std::filesystem::remove(scratch_path);
    auto scratch = exec::ProfileStore::Open(scratch_path);
    if (!scratch.ok()) {
      cl->report.Check("scratch store: " + scratch.status().ToString());
    } else if (prepare(*cl)) {
      cl->run.Traced(&cl->stream, nullptr, 64, true, scratch->get(),
                     cl->text.size());
    }
    std::filesystem::remove(scratch_path);
    std::filesystem::remove(cl->run.store_path);
    report->Merge(cl->report);
    return;
  }
  const std::vector<double> peak_mb = ProbePeakRss(
      make(0),
      [&](ColdClient& cl) { return cl.run.Setup(cl.text, &cl.stream, 1); },
      report);
  const auto clients = RunRounds<ColdClient>(
      options, n, make, prepare,
      [&](ColdClient& cl) {
        for (int i = 0; i < 64; ++i) {
          ExecuteOne(*cl.run.engine, cl.stream.Next(), &cl.run.expected,
                     &cl.report, &cl.timed);
        }
      },
      [&](ColdClient& cl) {
        cl.run.expected.ResolvePending(*cl.run.engine, scale.k, &cl.report);
      });
  int64_t new_users = 0;
  for (const auto& cl : clients) {
    new_users += cl->stream.new_users();
    report->Merge(cl->report);
  }
  report->Config("doc_bytes", DocBytes(clients));
  report->Config("new_users", std::to_string(new_users));
  AddEndToEnd(clients, peak_mb, 1.0, n, report);
}

}  // namespace

bool RunWorkload(const RunOptions& options, Report* report) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (options.workload == w.name) def = &w;
  }
  if (def == nullptr) return false;
  report->Config("workload", options.workload);
  report->Config("why", def->why);
  report->Config("seed", std::to_string(options.seed));
  report->Config("k", std::to_string(options.scale.k));
  report->Config("workers", std::to_string(options.workers));
  report->Config("nproc",
                 std::to_string(std::thread::hardware_concurrency()));
  report->Config("seconds", std::to_string(options.seconds));
  report->Config("trace", options.trace ? "1" : "0");
  if (options.workload == "fig5_warm") {
    RunFig5(options, false, report);
  } else if (options.workload == "fig5_batch") {
    RunFig5(options, true, report);
  } else {
    RunColdUsers(options, report);
  }
  return true;
}

}  // namespace pimbench
