// Microbenchmarks for the hot paths of the Apollo engine: query
// templatization (every client query), cache probes, transition-graph
// updates and FDQ-readiness lookups, and database point reads. These bound
// the middleware overhead the paper reports as negligible (Section 4.2.1).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "cache/kv_cache.h"
#include "core/dependency_graph.h"
#include "core/query_stream.h"
#include "core/transition_graph.h"
#include "db/database.h"
#include "obs/observability.h"
#include "rt/db_gateway.h"
#include "rt/mpmc_queue.h"
#include "sql/fast_path.h"
#include "sql/parser.h"
#include "sql/template.h"
#include "sql/template_cache.h"
#include "workload/tpcw.h"

namespace {

using namespace apollo;

const char* kQuery =
    "SELECT C_ID, C_UNAME, C_FNAME FROM CUSTOMER WHERE C_UNAME = 'user42' "
    "AND C_PASSWD = 'pwd42'";

void BM_Parse(benchmark::State& state) {
  for (auto _ : state) {
    auto stmt = sql::Parse(kQuery);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_Parse);

void BM_Templatize(benchmark::State& state) {
  for (auto _ : state) {
    auto info = sql::Templatize(kQuery);
    benchmark::DoNotOptimize(info);
  }
}
BENCHMARK(BM_Templatize);

void BM_Instantiate(benchmark::State& state) {
  auto info = sql::Templatize(kQuery);
  for (auto _ : state) {
    auto sql = sql::Instantiate(info->template_text, info->params);
    benchmark::DoNotOptimize(sql);
  }
}
BENCHMARK(BM_Instantiate);

// --- Admission path (DESIGN.md Section 10) ---
// BM_Templatize above is the full parse+print route every query used to
// pay; these measure what replaced it.

void BM_LexTemplatize(benchmark::State& state) {
  // The raw literal-stripping scanner, no cache interaction.
  sql::LexTemplateResult lex;
  for (auto _ : state) {
    bool ok = sql::LexTemplatize(kQuery, &lex);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(lex);
  }
}
BENCHMARK(BM_LexTemplatize);

void BM_AdmitSteadyState(benchmark::State& state) {
  // Repeat-query admission through the template cache: lex fast path,
  // zero AST allocation. Rotating literals keep the canonical text (and
  // the lex key's parameter slots) changing like real traffic.
  sql::TemplateCache cache;
  std::vector<std::string> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(
        "SELECT C_ID, C_UNAME, C_FNAME FROM CUSTOMER WHERE C_UNAME = 'user" +
        std::to_string(i) + "' AND C_PASSWD = 'pwd" + std::to_string(i) +
        "'");
    (void)cache.Admit(queries.back());  // seed: first sight full-parses
  }
  size_t i = 0;
  for (auto _ : state) {
    auto adm = cache.Admit(queries[i++ % queries.size()]);
    benchmark::DoNotOptimize(adm);
  }
  if (cache.fast_hits() == 0) {
    state.SkipWithError("fast path never hit");
  }
}
BENCHMARK(BM_AdmitSteadyState);

void BM_AdmitFallback(benchmark::State& state) {
  // Admission when the lex key misses: full parse + intern lookup. A query
  // already holding a '?' placeholder can never map its lex key (params
  // counts differ), so every admission takes the fallback route.
  sql::TemplateCache cache;
  const std::string query =
      "SELECT C_ID, C_UNAME, C_FNAME FROM CUSTOMER WHERE C_UNAME = ? "
      "AND C_PASSWD = 'pwd42'";
  (void)cache.Admit(query);
  for (auto _ : state) {
    auto adm = cache.Admit(query);
    benchmark::DoNotOptimize(adm);
  }
  if (cache.fast_hits() != 0) {
    state.SkipWithError("expected fallback admissions only");
  }
}
BENCHMARK(BM_AdmitFallback);

void BM_ExecutePreparedPointRead(benchmark::State& state) {
  // Prepared point read: statement from the template cache, params bound
  // at execution — the no-reparse analogue of BM_DbPointRead.
  db::Database db;
  db::Schema s("T", {{"ID", common::ValueType::kInt},
                     {"V", common::ValueType::kString}});
  s.AddIndex("PRIMARY", {"ID"});
  (void)db.CreateTable(std::move(s));
  db::Table* t = db.GetTable("T");
  for (int i = 0; i < 100000; ++i) {
    (void)t->Insert({common::Value::Int(i), common::Value::Str("v")});
  }
  sql::TemplateCache cache;
  auto seed = cache.Admit("SELECT V FROM T WHERE ID = 1");
  if (!seed.ok() || !seed->preparable()) {
    state.SkipWithError("seed admission not preparable");
    return;
  }
  sql::CachedTemplatePtr tpl = seed->tpl;
  std::vector<common::Value> params = {common::Value::Int(0)};
  int i = 0;
  for (auto _ : state) {
    params[0] = common::Value::Int(i++ % 100000);
    auto rs = db.ExecutePrepared(*tpl->statement, params);
    benchmark::DoNotOptimize(rs);
  }
}
BENCHMARK(BM_ExecutePreparedPointRead);

void BM_CacheGetHit(benchmark::State& state) {
  cache::KvCache cache(1 << 24);
  auto rs = std::make_shared<common::ResultSet>(
      std::vector<std::string>{"V"});
  rs->AddRow({common::Value::Int(1)});
  cache::VersionVector stamp;
  stamp.Set("T", 1);
  for (int i = 0; i < 1024; ++i) {
    cache.Put("key" + std::to_string(i), rs, stamp);
  }
  cache::VersionVector client;
  std::vector<std::string> tables = {"T"};
  int i = 0;
  for (auto _ : state) {
    auto hit = cache.GetCompatible("key" + std::to_string(i++ % 1024),
                                   client, tables);
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_CacheGetHit);

void BM_CachePut(benchmark::State& state) {
  cache::KvCache cache(1 << 22);
  auto rs = std::make_shared<common::ResultSet>(
      std::vector<std::string>{"V"});
  rs->AddRow({common::Value::Int(1)});
  cache::VersionVector stamp;
  stamp.Set("T", 1);
  int i = 0;
  for (auto _ : state) {
    cache.Put("key" + std::to_string(i++ % 4096), rs, stamp);
  }
}
BENCHMARK(BM_CachePut);

void BM_StreamProcess(benchmark::State& state) {
  // Append + process one entry against three delta-t graphs, steady state.
  core::QueryStream stream(
      {util::Seconds(1), util::Seconds(5), util::Seconds(15)}, 1024);
  util::SimTime t = 0;
  for (auto _ : state) {
    stream.Append(static_cast<uint64_t>(t % 17), t);
    stream.Process(t);
    t += util::Millis(200);
  }
}
BENCHMARK(BM_StreamProcess);

void BM_DependentsLookup(benchmark::State& state) {
  core::DependencyGraph g;
  for (uint64_t i = 0; i < 256; ++i) {
    g.Add(1000 + i, {{i % 16, 0}});
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.DependentsOf(i++ % 16));
  }
}
BENCHMARK(BM_DependentsLookup);

void BM_DbPointRead(benchmark::State& state) {
  db::Database db;
  db::Schema s("T", {{"ID", common::ValueType::kInt},
                     {"V", common::ValueType::kString}});
  s.AddIndex("PRIMARY", {"ID"});
  (void)db.CreateTable(std::move(s));
  db::Table* t = db.GetTable("T");
  for (int i = 0; i < 100000; ++i) {
    (void)t->Insert({common::Value::Int(i), common::Value::Str("v")});
  }
  int i = 0;
  for (auto _ : state) {
    auto rs = db.Execute("SELECT V FROM T WHERE ID = " +
                         std::to_string(i++ % 100000));
    benchmark::DoNotOptimize(rs);
  }
}
BENCHMARK(BM_DbPointRead);

void BM_ObsCounterInc(benchmark::State& state) {
  // Every client query bumps a handful of these; the budget is "free".
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.RegisterCounter("bench.counter", 8);
  size_t shard = 0;
  for (auto _ : state) {
    c->Inc(1, shard++);
  }
  benchmark::DoNotOptimize(c->Value());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsTraceRecordDisabled(benchmark::State& state) {
  // The default configuration: Record() must be a single branch.
  obs::TraceLog trace(4096);
  for (auto _ : state) {
    trace.Record(obs::TraceEventType::kPredictionIssued, 1, 42);
  }
  benchmark::DoNotOptimize(trace.total_recorded());
}
BENCHMARK(BM_ObsTraceRecordDisabled);

void BM_ObsTraceRecordEnabled(benchmark::State& state) {
  obs::TraceLog trace(4096);
  trace.set_enabled(true);
  for (auto _ : state) {
    trace.Record(obs::TraceEventType::kPredictionIssued, 1, 42);
  }
  benchmark::DoNotOptimize(trace.total_recorded());
}
BENCHMARK(BM_ObsTraceRecordEnabled);

void BM_MpmcQueuePushPop(benchmark::State& state) {
  // Each thread pushes before popping, so the queue can never starve a
  // popper; throughput measures the mutex+condvar handoff cost that
  // bounds the runtime's task dispatch rate.
  static rt::MpmcQueue<int> queue(4096);
  int v = 0;
  for (auto _ : state) {
    queue.Push(1);
    queue.Pop(&v);
  }
  benchmark::DoNotOptimize(v);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpmcQueuePushPop)->Threads(1)->Threads(8);

void TransitionGraphUpdateLoop(core::TransitionGraph& graph,
                               benchmark::State& state) {
  // 64 hot templates shared by all writers: with one stripe every update
  // serializes; with the default stripes they fan out 8 ways.
  uint64_t i = static_cast<uint64_t>(state.thread_index()) * 7;
  for (auto _ : state) {
    graph.AddVertexObservation(i % 64);
    graph.AddEdgeObservation(i % 64, (i + 1) % 64);
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}

void BM_GraphUpdateSingleLock(benchmark::State& state) {
  static core::TransitionGraph graph(util::Seconds(1), /*num_stripes=*/1);
  TransitionGraphUpdateLoop(graph, state);
}
BENCHMARK(BM_GraphUpdateSingleLock)->Threads(8);

void BM_GraphUpdateStriped(benchmark::State& state) {
  static core::TransitionGraph graph(util::Seconds(1));  // default stripes
  TransitionGraphUpdateLoop(graph, state);
}
BENCHMARK(BM_GraphUpdateStriped)->Threads(8);

db::Database* GatewayBenchDb() {
  static db::Database* db = [] {
    auto* d = new db::Database();
    db::Schema s("T", {{"ID", common::ValueType::kInt},
                       {"V", common::ValueType::kInt}});
    s.AddIndex("PRIMARY", {"ID"});
    (void)d->CreateTable(std::move(s));
    db::Table* t = d->GetTable("T");
    for (int i = 0; i < 64; ++i) {
      (void)t->Insert({common::Value::Int(i), common::Value::Int(i)});
    }
    return d;
  }();
  return db;
}

void BM_WanSequential(benchmark::State& state) {
  // N co-issued predictions as N separate round trips: the pre-batching
  // transport. Wall clock should grow ~linearly with the statement count.
  const int n = static_cast<int>(state.range(0));
  rt::DbGatewayConfig cfg;
  cfg.rtt = std::chrono::microseconds(200);
  rt::DbGateway gw(GatewayBenchDb(), cfg);
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      auto f = gw.ExecuteAsync(
          /*pool=*/nullptr, "SELECT V FROM T WHERE ID = " + std::to_string(i),
          /*is_write=*/false, {"T"});
      auto rr = f.Take();
      benchmark::DoNotOptimize(rr);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
  gw.Shutdown();
}
BENCHMARK(BM_WanSequential)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_WanBatched(benchmark::State& state) {
  // The same N statements coalesced into one envelope paying one RTT:
  // wall clock should stay ~flat as the statement count grows.
  const int n = static_cast<int>(state.range(0));
  rt::DbGatewayConfig cfg;
  cfg.rtt = std::chrono::microseconds(200);
  rt::DbGateway gw(GatewayBenchDb(), cfg);
  for (auto _ : state) {
    std::vector<rt::BatchStatement> stmts;
    stmts.reserve(n);
    for (int i = 0; i < n; ++i) {
      rt::BatchStatement st;
      st.sql = "SELECT V FROM T WHERE ID = " + std::to_string(i);
      st.tables = {"T"};
      stmts.push_back(std::move(st));
    }
    auto futures = gw.ExecuteBatchAsync(/*pool=*/nullptr, std::move(stmts));
    for (auto& f : futures) {
      auto rr = f.Take();
      benchmark::DoNotOptimize(rr);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
  gw.Shutdown();
}
BENCHMARK(BM_WanBatched)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

struct LearnLockTable {
  // Mirrors ConcurrentApollo's LearnShard table: engine-learn critical
  // sections lock stripe (session_id % shards).
  explicit LearnLockTable(size_t shards) : mus(shards), state(shards) {}
  std::vector<std::mutex> mus;
  std::vector<uint64_t> state;  // per-stripe, guarded by mus[i]
};

void LearnLockLoop(LearnLockTable& table, benchmark::State& state) {
  // Each thread is one session; the critical section models the graph
  // append + FDQ bookkeeping the engine does per completed query.
  const uint64_t session = static_cast<uint64_t>(state.thread_index());
  const size_t stripe = session % table.mus.size();
  for (auto _ : state) {
    std::lock_guard<std::mutex> lock(table.mus[stripe]);
    benchmark::DoNotOptimize(table.state[stripe] += session + 1);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_LearnLockGlobal(benchmark::State& state) {
  static LearnLockTable table(1);
  LearnLockLoop(table, state);
}
BENCHMARK(BM_LearnLockGlobal)->Threads(8);

void BM_LearnLockStriped(benchmark::State& state) {
  static LearnLockTable table(16);
  LearnLockLoop(table, state);
}
BENCHMARK(BM_LearnLockStriped)->Threads(8);

void BM_DbAggregateScan(benchmark::State& state) {
  db::Database db;
  db::Schema s("T", {{"ID", common::ValueType::kInt},
                     {"G", common::ValueType::kInt},
                     {"V", common::ValueType::kInt}});
  s.AddIndex("PRIMARY", {"ID"});
  (void)db.CreateTable(std::move(s));
  db::Table* t = db.GetTable("T");
  for (int i = 0; i < 10000; ++i) {
    (void)t->Insert({common::Value::Int(i), common::Value::Int(i % 50),
                     common::Value::Int(i % 7)});
  }
  for (auto _ : state) {
    auto rs = db.Execute(
        "SELECT G, SUM(V) AS S FROM T GROUP BY G ORDER BY S DESC LIMIT 10");
    benchmark::DoNotOptimize(rs);
  }
}
BENCHMARK(BM_DbAggregateScan);

// ---------------------------------------------------------------------------
// Per-template executor cost on the TPC-W heavy statements: the seven
// templates that dominate replayed DB time in the real-thread runtimes, on a
// fixed-seed default-size (50k-item) database with the semijoin pre-filter
// on, as the runtimes run it. Each iteration executes one prepared variant;
// the variants cycle through 64 parameter sets so per-row costs dominate.
// ---------------------------------------------------------------------------

db::Database* TpcwHeavyDb() {
  static db::Database* db = [] {
    auto* d = new db::Database();
    d->set_semijoin_prefilter(true);
    workload::TpcwWorkload w;  // default scale and seed
    if (!w.Setup(d).ok()) std::abort();
    return d;
  }();
  return db;
}

std::string HeavySql(const std::string& tpl, int k) {
  const auto& subjects = workload::TpcwWorkload::Subjects();
  const std::string subject = subjects[k % subjects.size()];
  if (tpl == "title_like") {
    return "SELECT I_ID, I_TITLE, A_FNAME, A_LNAME FROM ITEM, AUTHOR "
           "WHERE I_A_ID = A_ID AND I_TITLE LIKE 'TITLE" +
           std::to_string(1 + (k * 37) % 999) + "%' ORDER BY I_TITLE LIMIT 20";
  }
  if (tpl == "best_sellers") {
    // The window of the 3333 most recent of the 22500 loaded orders.
    return "SELECT I_ID, I_TITLE, A_FNAME, A_LNAME, SUM(OL_QTY) AS QTY_SOLD "
           "FROM ITEM, AUTHOR, ORDER_LINE WHERE I_SUBJECT = '" + subject +
           "' AND A_ID = I_A_ID AND OL_I_ID = I_ID AND OL_O_ID > 19167 "
           "GROUP BY I_ID, I_TITLE, A_FNAME, A_LNAME "
           "ORDER BY QTY_SOLD DESC LIMIT 50";
  }
  if (tpl == "max_o_id") return "SELECT MAX(O_ID) AS MAX_O_ID FROM ORDERS";
  if (tpl == "count_items") {
    return "SELECT COUNT(*) AS ITEM_COUNT FROM ITEM";
  }
  if (tpl == "subject_by_title") {
    return "SELECT I_ID, I_TITLE, A_FNAME, A_LNAME FROM ITEM, AUTHOR "
           "WHERE I_A_ID = A_ID AND I_SUBJECT = '" + subject +
           "' ORDER BY I_TITLE LIMIT 20";
  }
  if (tpl == "new_products") {
    return "SELECT I_ID, I_TITLE, A_FNAME, A_LNAME FROM ITEM, AUTHOR "
           "WHERE I_A_ID = A_ID AND I_SUBJECT = '" + subject +
           "' ORDER BY I_PUB_DATE DESC, I_TITLE LIMIT 20";
  }
  // author_like
  return "SELECT I_ID, I_TITLE, A_FNAME, A_LNAME FROM ITEM, AUTHOR "
         "WHERE I_A_ID = A_ID AND A_LNAME LIKE 'LN" +
         std::to_string((k * 37) % 500) + "%' ORDER BY I_TITLE LIMIT 20";
}

void BM_ExecuteTpcwHeavy(benchmark::State& state, std::string tpl) {
  db::Database* db = TpcwHeavyDb();
  sql::TemplateCache cache;
  std::vector<sql::AdmittedQuery> variants;
  for (int k = 0; k < 64; ++k) {
    auto adm = cache.Admit(HeavySql(tpl, k));
    if (!adm.ok() || !adm->preparable()) {
      state.SkipWithError("heavy template not preparable");
      return;
    }
    variants.push_back(std::move(*adm));
  }
  size_t i = 0;
  uint64_t examined = 0;
  for (auto _ : state) {
    const sql::AdmittedQuery& q = variants[i++ % variants.size()];
    auto rs = db->ExecutePrepared(*q.tpl->statement, q.params);
    if (!rs.ok()) {
      state.SkipWithError(rs.status().ToString().c_str());
      return;
    }
    examined += (*rs)->rows_examined();
    benchmark::DoNotOptimize(rs);
  }
  state.counters["rows_examined"] = benchmark::Counter(
      static_cast<double>(examined), benchmark::Counter::kAvgIterations);
}
BENCHMARK_CAPTURE(BM_ExecuteTpcwHeavy, title_like, std::string("title_like"));
BENCHMARK_CAPTURE(BM_ExecuteTpcwHeavy, best_sellers,
                  std::string("best_sellers"));
BENCHMARK_CAPTURE(BM_ExecuteTpcwHeavy, max_o_id, std::string("max_o_id"));
BENCHMARK_CAPTURE(BM_ExecuteTpcwHeavy, count_items,
                  std::string("count_items"));
BENCHMARK_CAPTURE(BM_ExecuteTpcwHeavy, subject_by_title,
                  std::string("subject_by_title"));
BENCHMARK_CAPTURE(BM_ExecuteTpcwHeavy, new_products,
                  std::string("new_products"));
BENCHMARK_CAPTURE(BM_ExecuteTpcwHeavy, author_like,
                  std::string("author_like"));

}  // namespace
