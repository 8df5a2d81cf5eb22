// End-to-end benchmark harness: one run of one workload against the
// real-thread runtimes (rt::ConcurrentApollo and cluster::EdgeCluster).
//
//   apollo_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --out DIR
//
// Each workload is a closed loop of fixed work. Driver threads own a
// share of the sessions and round-robin over them, running one TPC-W or
// TPC-C interaction per turn through the unmodified
// workload::WorkloadClient state machines; every query is a synchronous
// Execute, so a session's think time is the rest of its thread's round.
// A measured pass is a fixed number of interactions per driver; passes
// repeat until --seconds of measurement have elapsed, and throughput is
// computed per pass from its elapsed time. Untimed warm-up rounds run
// first.
//
// Resident probe sessions (a benchmark-owned table, PB_PROBE) check the
// session guarantees on the serving path: each probe writes a strictly
// increasing value to its own row and reads it back (read-your-writes),
// and reads other probes' rows (monotonic reads). Probe steps are tied to
// the interaction count, so probe traffic is the same on every commit.
//
// With --trace 1 the measured passes alternate untraced / traced. Traced
// passes enable the runtime TraceLog and record benchmark-side spans
// (interaction, execute, probe); afterwards the captured client
// statements are replayed through a fresh sql::TemplateCache and a
// freshly loaded db::Database (replay.admit / replay.exec spans). The
// spans, the TraceLog and per-pass MetricsRegistry exports are written to
// --out for perfbench/summarize.py.
//
// The last stdout line is one JSON object of raw facts; perfbench/run.py
// turns it into the benchmark's metrics and correctness verdict.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/edge_cluster.h"
#include "core/middleware.h"
#include "db/database.h"
#include "obs/observability.h"
#include "rt/concurrent_apollo.h"
#include "sim/event_loop.h"
#include "sql/template_cache.h"
#include "util/rng.h"
#include "workload/tpcc.h"
#include "workload/tpcw.h"
#include "workload/workload.h"

namespace apollo::perfbench {
namespace {

/// One workload: traffic mix, deployment and load shape. Documented in
/// perfbench/README.md; keep the two in step.
struct Spec {
  const char* name;
  bool tpcc;               // TPC-C paper mix; otherwise TPC-W browsing mix
  int edges;               // 0 = one rt::ConcurrentApollo
  int sessions;            // workload sessions, multiplexed over drivers
  int drivers;             // driver threads
  int pool_threads;        // runtime pool threads (per edge)
  int rtt_us;              // gateway round trip
  int warmup_rounds;       // untimed rounds over every session
  int pass_interactions;   // interactions per driver per measured pass
  int probes;              // resident probe sessions
  int probe_every;         // driver interactions between probe steps
};

constexpr Spec kSpecs[] = {
    {"tpcw-rtt0", false, 0, 200, 2, 2, 0, 3, 250, 4, 10},
    {"tpcw-wan20", false, 0, 600, 3, 1, 20000, 1, 50, 4, 10},
    {"tpcc-cluster-rtt2", true, 3, 300, 1, 1, 2000, 2, 300, 3, 10},
};

/// TPC-C scale for the cluster workload (the rest of TpccConfig keeps
/// its defaults: the paper's 5% Payment mix over uniform warehouses).
constexpr int kTpccWarehouses = 200;
/// Setups timed per untraced run, before and after the measured phase;
/// setup_s is their median. Host speed drifts over seconds, so samples
/// from both ends of the run are steadier than the same number at its
/// start.
constexpr int kSetupsBefore = 4;
constexpr int kSetupsAfter = 4;
/// Captured client statements replayed per traced run.
constexpr size_t kMaxReplay = 3000;
/// TraceLog ring for traced runs (large enough that nothing drops; the
/// dropped count is reported regardless).
constexpr size_t kTraceCapacity = size_t{1} << 21;

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "apollo_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

/// CPUs this process may run on (what `nproc` reports), so affinity and
/// cpuset limits count.
int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

// --- Deployment -----------------------------------------------------------

std::unique_ptr<workload::Workload> MakeWorkload(const Spec& spec,
                                                 uint64_t seed) {
  if (spec.tpcc) {
    workload::TpccConfig c;
    c.num_warehouses = kTpccWarehouses;
    c.seed = seed * 7919 + 77;
    return std::make_unique<workload::TpccWorkload>(c);
  }
  workload::TpcwConfig c;
  c.seed = seed * 7919 + 99;
  return std::make_unique<workload::TpcwWorkload>(c);
}

/// Loads the workload's data plus the probe table PB_PROBE(PB_K, PB_V).
void LoadDatabase(workload::Workload* w, int probes, db::Database* db) {
  db->set_semijoin_prefilter(true);
  auto st = w->Setup(db);
  if (!st.ok()) Die("workload setup failed: " + st.message());
  using common::ValueType;
  db::Schema s("PB_PROBE",
               {{"PB_K", ValueType::kInt}, {"PB_V", ValueType::kInt}});
  s.AddIndex("PRIMARY", {"PB_K"});
  st = db->CreateTable(std::move(s));
  if (!st.ok()) Die("probe table: " + st.message());
  for (int p = 0; p < probes; ++p) {
    st = db->GetTable("PB_PROBE")->Insert(
        {common::Value::Int(p), common::Value::Int(0)});
    if (!st.ok()) Die("probe row: " + st.message());
  }
}

struct Deployment {
  // Declaration order is destruction order reversed: runtimes go first.
  std::unique_ptr<db::Database> db;
  std::unique_ptr<workload::Workload> workload;
  std::unique_ptr<obs::Observability> obs;
  std::unique_ptr<rt::ConcurrentApollo> single;
  std::unique_ptr<cluster::EdgeCluster> cluster;
  size_t cache_bytes = 0;  // per runtime

  util::Result<common::ResultSetPtr> Execute(core::ClientId c,
                                             const std::string& sql) {
    return single ? single->Execute(c, sql) : cluster->Execute(c, sql);
  }

  std::vector<rt::ConcurrentApollo*> Runtimes() {
    if (single) return {single.get()};
    std::vector<rt::ConcurrentApollo*> out;
    for (size_t e = 0; e < cluster->num_edges(); ++e) {
      out.push_back(cluster->edge_runtime(e));
    }
    return out;
  }

  /// Metric prefix of each runtime's instruments.
  std::vector<std::string> Prefixes() const {
    if (single) return {"rt."};
    std::vector<std::string> out;
    for (size_t e = 0; e < cluster->num_edges(); ++e) {
      out.push_back("cluster.e" + std::to_string(e) + ".");
    }
    return out;
  }

  void Shutdown() {
    if (single) single->Shutdown();
    if (cluster) cluster->Shutdown();
  }
};

std::unique_ptr<Deployment> BuildDeployment(const Spec& spec, uint64_t seed,
                                            size_t trace_capacity) {
  auto d = std::make_unique<Deployment>();
  d->db = std::make_unique<db::Database>();
  d->workload = MakeWorkload(spec, seed);
  LoadDatabase(d->workload.get(), spec.probes, d->db.get());
  d->obs = std::make_unique<obs::Observability>(trace_capacity);
  d->obs->trace.set_clock([] { return NowNs() / 1000; });
  // Same runtime configuration as bench/throughput_scaling: default
  // learning tunables, cache = 5% of DB bytes per runtime.
  d->cache_bytes = d->db->ApproximateDataBytes() / 20;
  rt::ConcurrentApolloConfig rc;
  rc.gateway.rtt = std::chrono::microseconds(spec.rtt_us);
  rc.pool.num_threads = spec.pool_threads;
  rc.pool.queue_capacity = 256;
  rc.cache_bytes = d->cache_bytes;
  if (spec.edges == 0) {
    d->single = std::make_unique<rt::ConcurrentApollo>(d->db.get(), rc,
                                                       d->obs.get());
  } else {
    cluster::ClusterConfig cc;
    cc.num_edges = static_cast<size_t>(spec.edges);
    cc.seed = seed;
    cc.edge = rc;
    d->cluster = std::make_unique<cluster::EdgeCluster>(d->db.get(), cc,
                                                        d->obs.get());
  }
  return d;
}

// --- Spans ----------------------------------------------------------------

enum class SpanKind : uint8_t { kInteraction, kExecute, kProbe };

struct Span {
  SpanKind kind;
  int session;
  uint32_t seq;         // interaction number or query sequence
  uint32_t parent_seq;  // enclosing interaction (execute / probe spans)
  int64_t start_ns;
  int64_t end_ns;
};

/// A client statement captured in a traced pass, for the replay.
struct Captured {
  int64_t end_ns;
  int session;
  uint32_t seq;
  std::string sql;
};

// --- Drivers --------------------------------------------------------------

enum class PassMode { kWarmup, kMeasured, kTraced };

struct Session {
  Session(core::ClientId id_in, std::unique_ptr<workload::WorkloadClient> c,
          uint64_t rng_seed, sim::EventLoop* loop, core::Middleware* mw)
      : id(id_in), client(std::move(c)), rng(rng_seed),
        ctx(loop, mw, id_in, &rng) {}
  core::ClientId id;
  std::unique_ptr<workload::WorkloadClient> client;
  util::Rng rng;
  workload::ClientContext ctx;
  uint32_t queries = 0;
  uint32_t interactions = 0;
  int64_t last_end_ns = -1;
};

/// Probe session state: its own row and the values it has observed.
struct Probe {
  int key;
  core::ClientId id;
  int64_t written = 0;
  uint32_t queries = 0;
  std::unordered_map<int, int64_t> seen;  // probe key -> highest value read
};

struct PassTotals {
  uint64_t queries = 0;  // workload queries
  uint64_t errors = 0;
  std::vector<int64_t> lat_ns;
  uint64_t probe_queries = 0;
  uint64_t probe_errors = 0;
  int64_t probe_ns_sum = 0;
  int64_t think_ns_sum = 0;
  uint64_t think_count = 0;
};

/// One driver thread's sessions. Also the core::Middleware the workload
/// clients submit through: each query becomes one synchronous Execute on
/// the calling (driver) thread, timed from the caller's side.
class Driver : public core::Middleware {
 public:
  Driver(Deployment* dep, const Spec& spec, int index, uint64_t seed)
      : dep_(dep), spec_(spec), rng_(seed * 31 + 17 + index) {
    for (int s = index; s < spec.sessions; s += spec.drivers) {
      const uint64_t cs = seed * 1000003 + static_cast<uint64_t>(s);
      sessions_.push_back(std::make_unique<Session>(
          s, dep->workload->MakeClient(s, cs), cs ^ 0x5bd1e995u, &loop_,
          this));
    }
    for (int p = index; p < spec.probes; p += spec.drivers) {
      probes_.push_back(Probe{p, spec.sessions + p});
    }
  }

  void RunPass(int interactions, PassMode mode) {
    mode_ = mode;
    totals_ = PassTotals{};
    for (int i = 0; i < interactions; ++i) {
      Session& s = *sessions_[next_session_++ % sessions_.size()];
      cur_ = &s;
      const int64_t t0 = NowNs();
      if (s.last_end_ns >= 0 && mode != PassMode::kWarmup) {
        totals_.think_ns_sum += t0 - s.last_end_ns;
        ++totals_.think_count;
      }
      bool finished = false;
      s.client->RunInteraction(s.ctx, [&finished] { finished = true; });
      if (!finished) Die("interaction did not complete inline");
      const int64_t t1 = NowNs();
      if (mode == PassMode::kTraced) {
        spans_.push_back(
            {SpanKind::kInteraction, s.id, s.interactions, 0, t0, t1});
      }
      ++s.interactions;
      s.last_end_ns = t1;
      cur_ = nullptr;
      if (!probes_.empty() && ++probe_clock_ % spec_.probe_every == 0) {
        ProbeStep(probes_[next_probe_++ % probes_.size()]);
      }
    }
  }

  void SubmitQuery(core::ClientId client, const std::string& sql,
                   QueryCallback callback) override {
    if (cur_ == nullptr || cur_->id != client) Die("session mix-up");
    const int64_t t0 = NowNs();
    auto result = dep_->Execute(client, sql);
    const int64_t t1 = NowNs();
    const uint32_t seq = cur_->queries++;
    if (!result.ok()) {
      ++errors_total_;
      if (first_error_.empty()) first_error_ = result.status().message();
    }
    if (mode_ != PassMode::kWarmup) {
      ++totals_.queries;
      if (!result.ok()) ++totals_.errors;
      totals_.lat_ns.push_back(t1 - t0);
    }
    if (mode_ == PassMode::kTraced) {
      spans_.push_back({SpanKind::kExecute, client, seq,
                        cur_->interactions, t0, t1});
      captured_.push_back({t1, client, seq, sql});
    }
    callback(std::move(result));
  }

  const core::MiddlewareStats& stats() const override { return stats_; }
  std::string name() const override { return "perfbench-driver"; }

  const PassTotals& totals() const { return totals_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Captured>& captured() { return captured_; }
  uint64_t errors_total() const { return errors_total_; }
  const std::string& first_error() const { return first_error_; }
  uint64_t probe_steps() const { return probe_steps_; }
  uint64_t probe_errors() const { return probe_errors_; }
  uint64_t violations() const { return violations_; }

 private:
  common::ResultSetPtr ProbeExec(Probe& p, const std::string& sql) {
    const int64_t t0 = NowNs();
    auto r = dep_->Execute(p.id, sql);
    const int64_t t1 = NowNs();
    if (mode_ != PassMode::kWarmup) {
      ++totals_.probe_queries;
      if (!r.ok()) ++totals_.probe_errors;
      totals_.probe_ns_sum += t1 - t0;
    }
    if (mode_ == PassMode::kTraced) {
      spans_.push_back({SpanKind::kProbe, p.id, p.queries, 0, t0, t1});
    }
    ++p.queries;
    if (!r.ok()) {
      ++probe_errors_;
      if (first_error_.empty()) first_error_ = r.status().message();
      return nullptr;
    }
    return *r;
  }

  static bool ReadValue(const common::ResultSetPtr& rs, int64_t* v) {
    if (rs == nullptr || rs->num_rows() != 1) return false;
    *v = rs->At(0, 0).AsInt();
    return true;
  }

  void ProbeStep(Probe& p) {
    ++probe_steps_;
    const std::string key = std::to_string(p.key);
    const int64_t val = ++p.written;
    auto w = ProbeExec(p, "UPDATE PB_PROBE SET PB_V = " +
                              std::to_string(val) + " WHERE PB_K = " + key);
    auto rb = ProbeExec(p, "SELECT PB_V FROM PB_PROBE WHERE PB_K = " + key);
    int64_t got = 0;
    // Read-your-writes: the row has exactly one writer, this session.
    if (w != nullptr && (!ReadValue(rb, &got) || got != val)) ++violations_;
    p.seen[p.key] = val;
    // Monotonic reads across another probe's row: values only grow, so
    // reading less than this session already saw is a stale serve.
    const int other = static_cast<int>(rng_.UniformInt(0, spec_.probes - 1));
    auto cr = ProbeExec(p, "SELECT PB_V FROM PB_PROBE WHERE PB_K = " +
                               std::to_string(other));
    int64_t v = 0;
    if (ReadValue(cr, &v)) {
      auto it = p.seen.find(other);
      if (it != p.seen.end() && v < it->second) ++violations_;
      if (it == p.seen.end() || v > it->second) p.seen[other] = v;
    }
  }

  Deployment* dep_;
  const Spec& spec_;
  util::Rng rng_;
  sim::EventLoop loop_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<Probe> probes_;
  size_t next_session_ = 0;
  size_t next_probe_ = 0;
  uint64_t probe_clock_ = 0;
  Session* cur_ = nullptr;
  PassMode mode_ = PassMode::kWarmup;
  PassTotals totals_;
  std::vector<Span> spans_;
  std::vector<Captured> captured_;
  uint64_t errors_total_ = 0;
  std::string first_error_;
  uint64_t probe_steps_ = 0, probe_errors_ = 0;
  uint64_t violations_ = 0;
  core::MiddlewareStats stats_;
};

// --- Output helpers -------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string NumList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i > 0 ? "," : "") + Num(v[i]);
  return out + "]";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t SumCounter(Deployment& d, const std::string& name) {
  uint64_t total = 0;
  for (const auto& p : d.Prefixes()) {
    if (auto* c = d.obs->metrics.FindCounter(p + name)) total += c->Value();
  }
  return total;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One MetricsRegistry export plus the counters the registry does not
/// hold (template cache, database stats), tagged with its pass.
/// `exec_ns_sum` is the benchmark-side Execute time of the pass's
/// workload and probe queries together.
std::string PassRecord(Deployment& d, int pass, const char* kind,
                       double wall_s, uint64_t queries,
                       uint64_t probe_queries, double exec_ns_sum) {
  uint64_t fast = 0, fallbacks = 0;
  for (auto* r : d.Runtimes()) {
    fast += r->template_cache().fast_hits();
    fallbacks += r->template_cache().fallbacks();
  }
  const db::DatabaseStats ds = d.db->stats();
  std::string out = "{\"pass\":" + std::to_string(pass) +
                    ",\"kind\":" + Quote(kind) + ",\"wall_s\":" + Num(wall_s) +
                    ",\"queries\":" + std::to_string(queries) +
                    ",\"probe_queries\":" + std::to_string(probe_queries) +
                    ",\"bench_exec_ns_sum\":" + Num(exec_ns_sum) +
                    ",\"tcache_fast\":" + std::to_string(fast) +
                    ",\"tcache_fallbacks\":" + std::to_string(fallbacks) +
                    ",\"db_queries\":" + std::to_string(ds.queries_executed) +
                    ",\"db_rows_examined\":" +
                    std::to_string(ds.rows_examined) + ",\"registry\":" +
                    d.obs->metrics.ToJson(obs::ExportFilter::kAll) + "}";
  return out;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(text.data(), 1, text.size(), f);
  return std::fclose(f) == 0 && n == text.size();
}

const char* SpanName(SpanKind k) {
  switch (k) {
    case SpanKind::kInteraction: return "interaction";
    case SpanKind::kExecute: return "execute";
    case SpanKind::kProbe: return "probe";
  }
  return "?";
}

std::string SpanLine(const char* name, const std::string& id,
                     const std::string& parent, int64_t start_ns,
                     int64_t end_ns) {
  return "{\"name\":" + Quote(name) + ",\"id\":" + Quote(id) +
         ",\"parent\":" + (parent.empty() ? "null" : Quote(parent)) +
         ",\"start_us\":" + Num(start_ns / 1e3) +
         ",\"end_us\":" + Num(end_ns / 1e3) + "}\n";
}

// --- Run ------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--out") {
      a.out = v;
    } else {
      Die("unknown flag " + flag);
    }
  }
  return a;
}

int Run(const Args& args) {
  const Spec* spec = nullptr;
  for (const auto& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) Die("unknown workload '" + args.workload + "'");
  const int nproc = Nproc();
  const int threads =
      spec->drivers + spec->pool_threads * std::max(1, spec->edges);
  if (nproc > 0 && threads > nproc) {
    Die("thread budget " + std::to_string(threads) + " exceeds nproc " +
        std::to_string(nproc));
  }

  // Set-up: DB load + runtime construction, timed kSetupsBefore times
  // here and kSetupsAfter times after measuring (traced runs, which report
  // no setup time, set up once). The last one built here is measured.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  auto timed_setup = [&] {
    if (dep) {
      dep->Shutdown();
      dep.reset();
    }
    const int64_t t0 = NowNs();
    dep = BuildDeployment(*spec, args.seed, args.trace ? kTraceCapacity : 8);
    setup_s.push_back((NowNs() - t0) / 1e9);
  };
  for (int r = 0; r < (args.trace ? 1 : kSetupsBefore); ++r) timed_setup();

  std::vector<std::unique_ptr<Driver>> drivers;
  for (int i = 0; i < spec->drivers; ++i) {
    drivers.push_back(
        std::make_unique<Driver>(dep.get(), *spec, i, args.seed));
  }
  auto run_pass = [&](int interactions, PassMode mode) {
    std::vector<std::thread> ts;
    for (auto& d : drivers) {
      ts.emplace_back([&d, interactions, mode] {
        d->RunPass(interactions, mode);
      });
    }
    for (auto& t : ts) t.join();
  };

  // Warm-up: every session runs warmup_rounds interactions, untimed.
  const int per_driver = (spec->sessions + spec->drivers - 1) / spec->drivers;
  run_pass(per_driver * spec->warmup_rounds, PassMode::kWarmup);

  // Measured phase.
  struct PassOut {
    double wall_s;
    uint64_t queries;
    double mean_us;
    bool traced;
  };
  std::vector<PassOut> passes;
  std::vector<int64_t> all_lat;
  uint64_t errors = 0;
  uint64_t probe_queries_measured = 0, probe_errors_measured = 0;
  int64_t think_ns_sum = 0;
  uint64_t think_count = 0;
  std::vector<std::string> pass_records;
  const uint64_t stmts0 = SumCounter(*dep, "gateway.batch_statements");
  const uint64_t rtq0 = SumCounter(*dep, "queries");
  if (args.trace) {
    pass_records.push_back(PassRecord(*dep, 0, "start", 0, 0, 0, 0));
  }
  const int64_t m0 = NowNs();
  const int min_passes = args.trace ? 2 : 1;
  while (static_cast<int>(passes.size()) < min_passes ||
         NowNs() - m0 < static_cast<int64_t>(args.seconds * 1e9)) {
    const bool traced = args.trace && passes.size() % 2 == 1;
    if (traced) dep->obs->trace.set_enabled(true);
    const int64_t p0 = NowNs();
    run_pass(spec->pass_interactions,
             traced ? PassMode::kTraced : PassMode::kMeasured);
    const double wall_s = (NowNs() - p0) / 1e9;
    dep->obs->trace.set_enabled(false);
    PassOut po{wall_s, 0, 0, traced};
    double lat_sum = 0, probe_ns_sum = 0;
    uint64_t pass_probe_queries = 0;
    for (auto& d : drivers) {
      const PassTotals& t = d->totals();
      po.queries += t.queries;
      errors += t.errors;
      pass_probe_queries += t.probe_queries;
      probe_errors_measured += t.probe_errors;
      probe_ns_sum += static_cast<double>(t.probe_ns_sum);
      think_ns_sum += t.think_ns_sum;
      think_count += t.think_count;
      for (int64_t ns : t.lat_ns) lat_sum += static_cast<double>(ns);
      all_lat.insert(all_lat.end(), t.lat_ns.begin(), t.lat_ns.end());
    }
    po.mean_us = po.queries > 0 ? lat_sum / 1e3 / po.queries : 0;
    passes.push_back(po);
    probe_queries_measured += pass_probe_queries;
    if (args.trace) {
      pass_records.push_back(PassRecord(
          *dep, static_cast<int>(passes.size()),
          traced ? "traced" : "untraced", wall_s, po.queries,
          pass_probe_queries, lat_sum + probe_ns_sum));
    }
  }
  const double measured_s = (NowNs() - m0) / 1e9;
  const uint64_t origin_statements =
      SumCounter(*dep, "gateway.batch_statements") - stmts0;
  const uint64_t runtime_queries = SumCounter(*dep, "queries") - rtq0;

  // Learned-state size: one SnapshotBytes() per runtime after measuring.
  double snapshot_bytes = 0, snapshot_ms = 0;
  if (args.trace) {
    const int64_t t0 = NowNs();
    for (auto* r : dep->Runtimes()) {
      snapshot_bytes += static_cast<double>(r->SnapshotBytes().size());
    }
    snapshot_ms = (NowNs() - t0) / 1e6;
  }
  const uint64_t parse_errors = SumCounter(*dep, "parse_errors");
  const uint64_t inv_gaps = SumCounter(*dep, "invalidation_gaps");
  const uint64_t trace_recorded = dep->obs->trace.total_recorded();
  const uint64_t trace_dropped = dep->obs->trace.dropped();
  const size_t cache_bytes = dep->cache_bytes;
  const std::vector<std::string> prefixes = dep->Prefixes();
  dep->Shutdown();
  if (args.trace &&
      !dep->obs->trace.WriteJsonl(args.out + "/tracelog.jsonl")) {
    Die("write tracelog");
  }

  uint64_t errors_total = 0, probe_steps = 0, probe_errors = 0,
           violations = 0;
  std::string first_error;
  for (auto& d : drivers) {
    errors_total += d->errors_total();
    probe_steps += d->probe_steps();
    probe_errors += d->probe_errors();
    violations += d->violations();
    if (first_error.empty()) first_error = d->first_error();
  }

  if (!args.trace) {
    for (int r = 0; r < kSetupsAfter; ++r) timed_setup();
    dep->Shutdown();
    dep.reset();
  }

  // Latency percentiles over every measured sample.
  std::sort(all_lat.begin(), all_lat.end());
  const size_t n = all_lat.size();
  const int64_t p50 = n > 0 ? all_lat[n / 2] : 0;
  const int64_t p99 = n > 0 ? all_lat[std::min(n - 1, n * 99 / 100)] : 0;
  const size_t beyond = static_cast<size_t>(
      all_lat.end() - std::upper_bound(all_lat.begin(), all_lat.end(), p99));

  std::vector<double> qps_untraced, qps_traced, mean_untraced;
  uint64_t queries = 0;
  std::string passes_json = "[";
  for (size_t i = 0; i < passes.size(); ++i) {
    const auto& p = passes[i];
    queries += p.queries;
    const double qps = p.queries / p.wall_s;
    (p.traced ? qps_traced : qps_untraced).push_back(qps);
    if (!p.traced) mean_untraced.push_back(p.mean_us);
    if (i > 0) passes_json += ",";
    passes_json += "{\"wall_s\":" + Num(p.wall_s) +
                   ",\"queries\":" + std::to_string(p.queries) +
                   ",\"qps\":" + Num(qps) + ",\"mean_us\":" + Num(p.mean_us) +
                   ",\"traced\":" + (p.traced ? "true" : "false") + "}";
  }
  passes_json += "]";

  std::string trace_json = "null";
  if (args.trace) {
    // Replay the captured client statements, in completion order, through
    // a fresh template cache and a database loaded from the same seed.
    std::vector<Captured> cap;
    for (auto& d : drivers) {
      auto& c = d->captured();
      std::move(c.begin(), c.end(), std::back_inserter(cap));
      c.clear();
    }
    std::sort(cap.begin(), cap.end(), [](const Captured& a,
                                         const Captured& b) {
      return a.end_ns < b.end_ns;
    });
    if (cap.size() > kMaxReplay) cap.resize(kMaxReplay);
    std::string spans;
    for (auto& d : drivers) {
      for (const Span& s : d->spans()) {
        const std::string sid = std::to_string(s.session);
        if (s.kind == SpanKind::kInteraction) {
          spans += SpanLine("interaction", sid + ":i" + std::to_string(s.seq),
                            "", s.start_ns - m0, s.end_ns - m0);
        } else {
          const std::string parent =
              s.kind == SpanKind::kExecute
                  ? sid + ":i" + std::to_string(s.parent_seq)
                  : "";
          spans += SpanLine(SpanName(s.kind), sid + ":" + std::to_string(s.seq),
                            parent, s.start_ns - m0, s.end_ns - m0);
        }
      }
    }
    dep.reset();  // release the run's database before loading the replay's
    db::Database replay_db;
    auto replay_wl = MakeWorkload(*spec, args.seed);
    LoadDatabase(replay_wl.get(), spec->probes, &replay_db);
    sql::TemplateCache tcache;
    uint64_t replay_errors = 0;
    for (const Captured& c : cap) {
      const std::string rid =
          std::to_string(c.session) + ":" + std::to_string(c.seq);
      const int64_t t0 = NowNs();
      auto adm = tcache.Admit(c.sql);
      const int64_t t1 = NowNs();
      util::Result<common::ResultSetPtr> res =
          adm.ok() && adm->preparable()
              ? replay_db.ExecutePrepared(*adm->tpl->statement, adm->params)
              : replay_db.Execute(c.sql);
      const int64_t t2 = NowNs();
      if (!adm.ok() || !res.ok()) ++replay_errors;
      spans += SpanLine("replay.admit", rid + "/admit", rid, t0 - m0, t1 - m0);
      spans += SpanLine("replay.exec", rid + "/exec", rid, t1 - m0, t2 - m0);
    }
    if (!WriteFile(args.out + "/spans.jsonl", spans)) Die("write spans");
    std::string records;
    for (const auto& r : pass_records) records += r + "\n";
    if (!WriteFile(args.out + "/metrics.jsonl", records)) Die("write metrics");
    trace_json =
        "{\"qps_traced\":" + Num(Median(qps_traced)) +
        ",\"query_p50_us\":" + Num(p50 / 1e3) +
        ",\"events_recorded\":" + std::to_string(trace_recorded) +
        ",\"events_dropped\":" + std::to_string(trace_dropped) +
        ",\"think_ms_mean\":" +
        Num(think_count > 0 ? think_ns_sum / 1e6 / think_count : 0) +
        ",\"think_samples\":" + std::to_string(think_count) +
        ",\"snapshot_bytes\":" + Num(snapshot_bytes) +
        ",\"snapshot_ms\":" + Num(snapshot_ms) +
        ",\"replayed\":" + std::to_string(cap.size()) +
        ",\"replay_errors\":" + std::to_string(replay_errors) +
        ",\"prefixes\":[";
    for (size_t i = 0; i < prefixes.size(); ++i) {
      trace_json += (i > 0 ? "," : "") + Quote(prefixes[i]);
    }
    trace_json += "]}";
  }
  std::string out =
      "{\"config\":{\"workload\":" + Quote(spec->name) +
      ",\"seed\":" + std::to_string(args.seed) +
      ",\"seconds\":" + Num(args.seconds) +
      ",\"sessions\":" + std::to_string(spec->sessions) +
      ",\"probes\":" + std::to_string(spec->probes) +
      ",\"drivers\":" + std::to_string(spec->drivers) +
      ",\"pool_threads\":" + std::to_string(spec->pool_threads) +
      ",\"edges\":" + std::to_string(std::max(1, spec->edges)) +
      ",\"rtt_us\":" + std::to_string(spec->rtt_us) +
      ",\"cache_bytes\":" + std::to_string(cache_bytes) +
      ",\"nproc\":" + std::to_string(nproc) +
      ",\"traced\":" + (args.trace ? "true" : "false") + "}" +
      ",\"setup_s\":" + NumList(setup_s);
  out += ",\"measured_s\":" + Num(measured_s) + ",\"passes\":" + passes_json +
         ",\"qps\":" + Num(Median(qps_untraced)) +
         ",\"query_mean_us\":" + Num(Median(mean_untraced)) +
         ",\"query_p99_us\":" + Num(p99 / 1e3) +
         ",\"p99_samples\":" + std::to_string(n) +
         ",\"p99_beyond\":" + std::to_string(beyond) +
         ",\"queries\":" + std::to_string(queries) +
         ",\"errors\":" + std::to_string(errors) +
         ",\"errors_total\":" + std::to_string(errors_total) +
         ",\"first_error\":" + Quote(first_error) +
         ",\"probe_steps\":" + std::to_string(probe_steps) +
         ",\"probe_errors_total\":" + std::to_string(probe_errors) +
         ",\"probe_queries\":" + std::to_string(probe_queries_measured) +
         ",\"probe_errors\":" + std::to_string(probe_errors_measured) +
         ",\"session_violations\":" + std::to_string(violations) +
         ",\"parse_errors\":" + std::to_string(parse_errors) +
         ",\"invalidation_gaps\":" + std::to_string(inv_gaps) +
         ",\"origin_statements\":" + std::to_string(origin_statements) +
         ",\"runtime_queries\":" + std::to_string(runtime_queries) +
         ",\"peak_rss_mb\":" + Num(PeakRssMb()) + ",\"trace\":" + trace_json +
         "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace apollo::perfbench

int main(int argc, char** argv) {
  return apollo::perfbench::Run(apollo::perfbench::ParseArgs(argc, argv));
}
