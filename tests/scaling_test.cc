// Scaling-rework coverage (DESIGN.md Section 14): decision parity of the
// sharded, batched runtime against the event-loop simulator (results,
// cache contents and counters, then prediction-lifecycle trace events —
// one PredictionPlanner and one ServingCore, DESIGN.md Sections 17 and
// 19), gateway batch semantics (demultiplexing, per-sub-statement fault
// injection, deadline fail-fast), fan-out beyond the per-envelope cap,
// and 8-thread contention suites for the learn-shard table and the
// batched WAN transport (run under TSan via `tools/check.sh --thread`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bind_sql.h"
#include "cache/kv_cache.h"
#include "core/apollo_middleware.h"
#include "db/database.h"
#include "net/remote_database.h"
#include "rt/concurrent_apollo.h"
#include "rt/db_gateway.h"
#include "sim/event_loop.h"

namespace apollo {
namespace {

using namespace std::chrono_literals;

// --------------------------------------------------------------------------
// Shared fixture: the A -> B -> C correlated schema the prediction tests
// use, loaded wide enough for multi-session replays.
// --------------------------------------------------------------------------

class ScalingFixture : public ::testing::Test {
 protected:
  void SetUp() override { SeedDb(&db_); }

  static void SeedDb(db::Database* db) {
    using common::Value;
    using common::ValueType;
    {
      db::Schema s("A", {{"A_ID", ValueType::kInt},
                         {"A_B_ID", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"A_ID"});
      ASSERT_TRUE(db->CreateTable(std::move(s)).ok());
    }
    {
      db::Schema s("B", {{"B_ID", ValueType::kInt},
                         {"B_C_ID", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"B_ID"});
      ASSERT_TRUE(db->CreateTable(std::move(s)).ok());
    }
    {
      db::Schema s("C", {{"C_ID", ValueType::kInt},
                         {"C_V", ValueType::kInt}});
      s.AddIndex("PRIMARY", {"C_ID"});
      ASSERT_TRUE(db->CreateTable(std::move(s)).ok());
    }
    for (int i = 1; i <= 200; ++i) {
      ASSERT_TRUE(db->GetTable("A")
                      ->Insert({Value::Int(i), Value::Int(1000 + i)})
                      .ok());
      ASSERT_TRUE(db->GetTable("B")
                      ->Insert({Value::Int(1000 + i), Value::Int(2000 + i)})
                      .ok());
      ASSERT_TRUE(db->GetTable("C")
                      ->Insert({Value::Int(2000 + i), Value::Int(7 * i)})
                      .ok());
    }
  }

  /// Blocks until the runtime reports quiescence (all async completions,
  /// including the learning they trigger, have landed).
  static void Drain(rt::ConcurrentApollo& apollo) {
    for (int i = 0; i < 20000; ++i) {
      if (apollo.Quiescent()) return;
      std::this_thread::sleep_for(100us);
    }
    FAIL() << "runtime did not quiesce";
  }

  db::Database db_;
};

// --------------------------------------------------------------------------
// Parity: the simulator is the reference. The same correlated trace,
// replayed single-threaded with full drains between queries through the
// event-loop ApolloMiddleware and through rt::ConcurrentApollo (16 learn
// shards, batched envelopes), must give the same results, land the same
// cache keys and report the same counters.
// --------------------------------------------------------------------------

struct ReplayOutcome {
  std::vector<std::string> results;    // per client query: "<v>" or "ERR"
  std::vector<std::string> cache_keys;
  std::map<std::string, uint64_t> counters;  // rt names, without "rt."
};

class ShardBatchParityTest : public ScalingFixture {
 protected:
  static core::ApolloConfig Config() {
    core::ApolloConfig cfg;
    cfg.verification_period = 2;
    // One wide transition-graph window: decisions depend on query ORDER
    // only, not on wall-clock gaps, so the replays stay bit-identical
    // even when the machine is loaded (ctest -j, TSan).
    cfg.delta_ts = {util::Seconds(60)};
    return cfg;
  }

  /// A correlated TPC-W-ish trace: 4 sessions round-robin, each walking
  /// its own A -> B -> C chains, with periodic writes.
  static std::vector<std::pair<int, std::string>> Trace() {
    std::vector<std::pair<int, std::string>> t;
    auto chain = [&](int client, int i) {
      t.emplace_back(client, "SELECT A_ID, A_B_ID FROM A WHERE A_ID = " +
                                 std::to_string(i));
      t.emplace_back(client, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
                                 std::to_string(1000 + i));
      t.emplace_back(client, "SELECT C_V FROM C WHERE C_ID = " +
                                 std::to_string(2000 + i));
    };
    // Learning rounds: each session walks disjoint chains so per-session
    // graphs differ, exercising distinct learn shards.
    for (int round = 1; round <= 6; ++round) {
      for (int client = 0; client < 4; ++client) {
        chain(client, 40 * client + round);
      }
      // A write invalidates C-reads downstream and exercises the ADQ
      // reload pass on the write path.
      t.emplace_back(0, "UPDATE C SET C_V = " + std::to_string(100 + round) +
                            " WHERE C_ID = " + std::to_string(2000 + round));
    }
    // Post-learning probes: these A-reads should predict B and C.
    for (int client = 0; client < 4; ++client) chain(client, 40 * client + 7);
    return t;
  }

  static std::string Render(const util::Result<common::ResultSetPtr>& rs) {
    if (!rs.ok()) return "ERR";
    if ((*rs)->num_rows() == 0) return "EMPTY";
    return std::to_string((*rs)->At(0, 0).AsInt());
  }

  static constexpr const char* kCounters[] = {
      "queries",          "reads",
      "writes",           "cache_hits",
      "cache_misses",     "predictions_issued",
      "predictions_shed", "predictions_skipped",
      "fdqs_discovered",  "fdqs_invalidated",
      "adq_reloads"};

  ReplayOutcome ReplaySimulator() {
    db::Database db;
    SeedDb(&db);
    sim::EventLoop loop;
    net::RemoteDbConfig rcfg;
    rcfg.rtt = sim::LatencyModel::Constant(util::Millis(1));
    net::RemoteDatabase remote(&loop, &db, rcfg);
    cache::KvCache cache(32u << 20);  // no evictions: keysets stay exact
    obs::Observability obs;
    core::ApolloMiddleware mw(&loop, &remote, &cache, Config(), &obs);
    ReplayOutcome out;
    for (const auto& [client, sql] : Trace()) {
      mw.SubmitQuery(client, sql,
                     [&out](auto rs) { out.results.push_back(Render(rs)); });
      loop.Run();
    }
    out.cache_keys = cache.KeysForTest();
    const obs::MetricsRegistry& m = obs.metrics;
    auto value = [&m](const std::string& name) {
      return m.FindCounter("mw." + name)->Value();
    };
    for (const char* name : kCounters) {
      const std::string n = name;
      if (n == "predictions_skipped") {
        // rt folds the simulator's five skip counters into one.
        out.counters[n] = value("predictions_skipped_cached") +
                          value("predictions_skipped_inflight") +
                          value("predictions_skipped_fresh") +
                          value("predictions_skipped_invalid") +
                          value("predictions_skipped_incomplete");
      } else if (n == "predictions_shed") {
        out.counters[n] = value("shed_predictions");
      } else {
        out.counters[n] = value(n);
      }
    }
    return out;
  }

  ReplayOutcome ReplayThreaded() {
    db::Database db;
    SeedDb(&db);
    rt::ConcurrentApolloConfig cfg;
    cfg.apollo = Config();
    cfg.pool.num_threads = 2;
    cfg.pool.queue_capacity = 256;
    cfg.gateway.rtt = std::chrono::microseconds(300);
    cfg.cache_bytes = 32u << 20;
    rt::ConcurrentApollo apollo(&db, cfg);
    ReplayOutcome out;
    for (const auto& [client, sql] : Trace()) {
      out.results.push_back(Render(apollo.Execute(client, sql)));
      Drain(apollo);
    }
    out.cache_keys = apollo.result_cache().KeysForTest();
    auto& m = apollo.observability().metrics;
    for (const char* name : kCounters) {
      out.counters[name] = m.FindCounter(std::string("rt.") + name)->Value();
    }
    apollo.Shutdown();
    return out;
  }
};

TEST_F(ShardBatchParityTest, ShardedBatchedMatchesSimulator) {
  const ReplayOutcome sim = ReplaySimulator();
  const ReplayOutcome rt = ReplayThreaded();

  // The learning must actually have produced predictions, or the parity
  // claim is vacuous.
  ASSERT_GT(sim.counters.at("predictions_issued"), 0u);
  ASSERT_GT(sim.counters.at("fdqs_discovered"), 0u);

  EXPECT_EQ(sim.results, rt.results);
  EXPECT_EQ(sim.cache_keys, rt.cache_keys);
  for (const auto& [name, value] : sim.counters) {
    EXPECT_EQ(value, rt.counters.at(name)) << "counter " << name;
  }
}

// --------------------------------------------------------------------------
// Cross-runtime parity: the event-loop simulator and the threaded runtime
// run the same PredictionPlanner, so one correlated trace replayed through
// both (single-threaded, drained between queries, one wide delta-t) must
// leave the same prediction-lifecycle event types in each TraceLog (the
// planner's decisions and the serving core's discovery, issue and cache
// fill) and the same template discovery and FDQ discovery / invalidation
// counts.
// --------------------------------------------------------------------------

class CrossRuntimeParityTest : public ScalingFixture {
 protected:
  struct Outcome {
    std::set<std::string> events;  // "type" or "prediction_skipped:reason"
    uint64_t templates_discovered = 0;
    uint64_t fdqs_discovered = 0;
    uint64_t fdqs_invalidated = 0;
  };

  static core::ApolloConfig Config() {
    core::ApolloConfig cfg;
    cfg.verification_period = 2;
    cfg.delta_ts = {util::Seconds(60)};
    return cfg;
  }

  /// A -> B -> C chains on four sessions with a write to C after every
  /// round, a parameterless read of C (an ADQ, reloaded on those writes),
  /// an A-read with no row (nothing to instantiate B from) and a mapping
  /// that is confirmed, then disproven.
  static std::vector<std::pair<int, std::string>> Trace() {
    std::vector<std::pair<int, std::string>> t;
    auto chain = [&](int client, int i) {
      t.emplace_back(client, "SELECT A_ID, A_B_ID FROM A WHERE A_ID = " +
                                 std::to_string(i));
      t.emplace_back(client, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
                                 std::to_string(1000 + i));
      t.emplace_back(client, "SELECT C_V FROM C WHERE C_ID = " +
                                 std::to_string(2000 + i));
    };
    for (int round = 1; round <= 5; ++round) {
      for (int client = 0; client < 4; ++client) {
        chain(client, 40 * client + round);
      }
      t.emplace_back(1, "SELECT COUNT(*) FROM C");
      t.emplace_back(0, "UPDATE C SET C_V = " + std::to_string(100 + round) +
                            " WHERE C_ID = " + std::to_string(2000 + round));
    }
    t.emplace_back(2, "SELECT A_ID, A_B_ID FROM A WHERE A_ID = 999");
    for (int client = 0; client < 4; ++client) chain(client, 40 * client + 7);
    // E's parameter is first confirmed as A.A_B_ID / B.B_ID, then
    // contradicted often enough (ParamMapper::kMinViolations) to disprove.
    for (int i = 11; i <= 16; ++i) {
      t.emplace_back(3, "SELECT A_ID, A_B_ID FROM A WHERE A_ID = " +
                            std::to_string(i));
      t.emplace_back(3, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
                            std::to_string(1000 + i));
      t.emplace_back(3, "SELECT A_ID FROM A WHERE A_B_ID = " +
                            std::to_string(i <= 12 ? 1000 + i : 1100 + i));
    }
    return t;
  }

  static std::set<std::string> LifecycleEvents(const obs::TraceLog& trace) {
    EXPECT_EQ(trace.dropped(), 0u);
    std::set<std::string> out;
    for (const obs::TraceEvent& e : trace.Events()) {
      switch (e.type) {
        case obs::TraceEventType::kPredictionSkipped:
          out.insert(std::string(obs::TraceLog::TypeName(e.type)) + ":" +
                     obs::TraceLog::ReasonName(e.reason));
          break;
        case obs::TraceEventType::kTemplateDiscovered:
        case obs::TraceEventType::kFdqTagged:
        case obs::TraceEventType::kAdqTagged:
        case obs::TraceEventType::kAdqRevoked:
        case obs::TraceEventType::kFdqInvalidated:
        case obs::TraceEventType::kMappingDisproven:
        case obs::TraceEventType::kPredictionIssued:
        case obs::TraceEventType::kPredictionCached:
        case obs::TraceEventType::kAdqReload:
          out.insert(obs::TraceLog::TypeName(e.type));
          break;
        default:
          break;
      }
    }
    return out;
  }

  static uint64_t TemplatesDiscovered(const obs::TraceLog& trace) {
    uint64_t n = 0;
    for (const obs::TraceEvent& e : trace.Events()) {
      if (e.type == obs::TraceEventType::kTemplateDiscovered) ++n;
    }
    return n;
  }

  Outcome RunSimulator() {
    db::Database db;
    SeedDb(&db);
    sim::EventLoop loop;
    net::RemoteDbConfig rcfg;
    rcfg.rtt = sim::LatencyModel::Constant(util::Millis(1));
    net::RemoteDatabase remote(&loop, &db, rcfg);
    cache::KvCache cache(32u << 20);
    obs::Observability obs;
    obs.trace.set_enabled(true);
    core::ApolloMiddleware mw(&loop, &remote, &cache, Config(), &obs);
    for (const auto& [client, sql] : Trace()) {
      mw.SubmitQuery(client, sql, [](auto) {});
      loop.Run();
    }
    return {LifecycleEvents(obs.trace), TemplatesDiscovered(obs.trace),
            obs.metrics.FindCounter("mw.fdqs_discovered")->Value(),
            obs.metrics.FindCounter("mw.fdqs_invalidated")->Value()};
  }

  Outcome RunThreaded() {
    db::Database db;
    SeedDb(&db);
    rt::ConcurrentApolloConfig cfg;
    cfg.apollo = Config();
    cfg.pool.num_threads = 2;
    cfg.gateway.rtt = std::chrono::microseconds(300);
    cfg.cache_bytes = 32u << 20;
    obs::Observability obs;
    obs.trace.set_enabled(true);
    rt::ConcurrentApollo apollo(&db, cfg, &obs);
    for (const auto& [client, sql] : Trace()) {
      EXPECT_TRUE(apollo.Execute(client, sql).ok()) << sql;
      Drain(apollo);
    }
    apollo.Shutdown();
    return {LifecycleEvents(obs.trace), TemplatesDiscovered(obs.trace),
            obs.metrics.FindCounter("rt.fdqs_discovered")->Value(),
            obs.metrics.FindCounter("rt.fdqs_invalidated")->Value()};
  }
};

TEST_F(CrossRuntimeParityTest, SameLifecycleEventsAsSimulator) {
  const Outcome sim = RunSimulator();
  // The trace must exercise every planner decision the test is about.
  // (Freshness vetoes need closed transition windows; the wide delta-t
  // keeps the graphs empty here, so prediction_test and planner_test
  // cover them with controlled clocks instead.)
  for (const char* want :
       {"template_discovered", "fdq_tagged", "adq_tagged", "adq_reload",
        "mapping_disproven", "fdq_invalidated", "prediction_issued",
        "prediction_cached", "prediction_skipped:incomplete_sources"}) {
    EXPECT_EQ(sim.events.count(want), 1u) << "simulator never emitted " << want;
  }
  EXPECT_GT(sim.fdqs_invalidated, 0u);
  const Outcome rt = RunThreaded();
  EXPECT_EQ(sim.events, rt.events);
  EXPECT_EQ(sim.templates_discovered, rt.templates_discovered);
  EXPECT_EQ(sim.fdqs_discovered, rt.fdqs_discovered);
  EXPECT_EQ(sim.fdqs_invalidated, rt.fdqs_invalidated);
}

// --------------------------------------------------------------------------
// Gateway batch semantics
// --------------------------------------------------------------------------

class GatewayBatchTest : public ScalingFixture {};

TEST_F(GatewayBatchTest, BatchDemultiplexesPerStatementResults) {
  obs::Observability obs;
  rt::DbGateway gw(&db_, {.rtt = std::chrono::microseconds(500)}, &obs);
  std::vector<sql::BoundStatement> stmts;
  for (int i = 1; i <= 4; ++i) {
    stmts.push_back(
        BindSql("SELECT C_V FROM C WHERE C_ID = " + std::to_string(2000 + i)));
  }
  auto futures = gw.ExecuteBatchAsync(/*pool=*/nullptr, std::move(stmts));
  ASSERT_EQ(futures.size(), 4u);
  for (int i = 1; i <= 4; ++i) {
    rt::RemoteResult rr = futures[i - 1].Take();
    ASSERT_TRUE(rr.result.ok());
    EXPECT_EQ((*rr.result)->At(0, 0).AsInt(), 7 * i);
    EXPECT_EQ(rr.versions.count("C"), 1u);
  }
  // One round trip for the whole batch: the gateway queued one batch
  // carrying all four statements (counted, not timed, so load on the host
  // cannot fail it).
  const obs::MetricsRegistry& m = obs.metrics;
  EXPECT_EQ(m.FindCounter("rt.gateway.batches")->Value(), 1u);
  EXPECT_EQ(m.FindCounter("rt.gateway.batch_statements")->Value(), 4u);
  gw.Shutdown();
}

TEST_F(GatewayBatchTest, ReadAfterWriteInSameBatchSeesWrittenData) {
  rt::DbGateway gw(&db_, {.rtt = std::chrono::microseconds(200)});
  std::vector<sql::BoundStatement> stmts;
  stmts.push_back(BindSql("UPDATE C SET C_V = 4242 WHERE C_ID = 2001"));
  stmts.push_back(BindSql("SELECT C_V FROM C WHERE C_ID = 2001"));
  auto futures = gw.ExecuteBatchAsync(nullptr, std::move(stmts));
  rt::RemoteResult w = futures[0].Take();
  rt::RemoteResult r = futures[1].Take();
  ASSERT_TRUE(w.result.ok());
  ASSERT_TRUE(r.result.ok());
  EXPECT_EQ((*r.result)->At(0, 0).AsInt(), 4242);
  // The read's stamp covers the in-batch write (it executed after it).
  EXPECT_GE(r.versions.at("C"), w.versions.at("C"));
  gw.Shutdown();
}

TEST_F(GatewayBatchTest, MidBatchFaultFailsOnlyAffectedSubStatements) {
  // Every 3rd statement faults: in a batch of 5 the 3rd statement (global
  // op counter 3) fails while its batch-mates complete normally.
  rt::DbGateway gw(&db_,
                   {.rtt = std::chrono::microseconds(200), .fail_every_n = 3});
  std::vector<sql::BoundStatement> stmts;
  for (int i = 1; i <= 5; ++i) {
    stmts.push_back(
        BindSql("SELECT C_V FROM C WHERE C_ID = " + std::to_string(2000 + i)));
  }
  auto futures = gw.ExecuteBatchAsync(nullptr, std::move(stmts));
  int failed = 0;
  for (int i = 0; i < 5; ++i) {
    rt::RemoteResult rr = futures[i].Take();
    if (i == 2) {  // statement 3 of 5
      EXPECT_FALSE(rr.result.ok());
      EXPECT_EQ(rr.result.status().code(), util::StatusCode::kUnavailable);
      ++failed;
    } else {
      EXPECT_TRUE(rr.result.ok()) << "statement " << i;
      EXPECT_EQ((*rr.result)->At(0, 0).AsInt(), 7 * (i + 1));
    }
  }
  EXPECT_EQ(failed, 1);
  gw.Shutdown();
}

TEST_F(GatewayBatchTest, ExpiredDeadlineFailsWholeBatchFast) {
  rt::DbGateway gw(&db_, {.rtt = std::chrono::milliseconds(50)});
  std::vector<sql::BoundStatement> stmts(
      3, BindSql("SELECT C_V FROM C WHERE C_ID = 2001"));
  const auto t0 = std::chrono::steady_clock::now();
  auto futures = gw.ExecuteBatchAsync(
      nullptr, std::move(stmts),
      std::chrono::steady_clock::now() + std::chrono::microseconds(100));
  for (auto& f : futures) {
    rt::RemoteResult rr = f.Take();
    ASSERT_FALSE(rr.result.ok());
    EXPECT_EQ(rr.result.status().code(),
              util::StatusCode::kDeadlineExceeded);
  }
  // Fail-fast: nowhere near the 50 ms round trip.
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(25));
  EXPECT_EQ(gw.pending_batches(), 0u);
  gw.Shutdown();
}

TEST_F(GatewayBatchTest, ThenContinuationsRunWithoutBlockingTake) {
  rt::DbGateway gw(&db_, {.rtt = std::chrono::microseconds(300)});
  std::vector<sql::BoundStatement> stmts;
  stmts.push_back(BindSql("SELECT C_V FROM C WHERE C_ID = 2002"));
  std::atomic<int> seen{0};
  auto futures = gw.ExecuteBatchAsync(nullptr, std::move(stmts));
  futures[0].Then([&seen](const rt::RemoteResult& rr) {
    if (rr.result.ok() && (*rr.result)->At(0, 0).AsInt() == 14) seen = 1;
  });
  for (int i = 0; i < 10000 && seen.load() == 0; ++i) {
    std::this_thread::sleep_for(100us);
  }
  EXPECT_EQ(seen.load(), 1);
  gw.Shutdown();
}

// --------------------------------------------------------------------------
// Fan-out beyond the envelope cap
// --------------------------------------------------------------------------

class BatchOverflowTest : public ScalingFixture {};

TEST_F(BatchOverflowTest, WriteFanOutBeyondCapOverflowsIntoAnotherEnvelope) {
  // Seventeen parameterless reads of W (the LIMIT is part of each
  // template) become ADQs, and a write to W reloads all of them in its
  // pre-issue pass: more predictions than fit beside the write.
  constexpr size_t kCap = rt::ConcurrentApollo::kMaxBatchStatements;
  constexpr size_t kAdqs = kCap + 1;
  {
    db::Schema s("W", {{"K", common::ValueType::kInt},
                       {"V", common::ValueType::kInt}});
    s.AddIndex("PRIMARY", {"K"});
    ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
    for (int k = 1; k <= 20; ++k) {
      ASSERT_TRUE(db_.GetTable("W")
                      ->Insert({common::Value::Int(k), common::Value::Int(k)})
                      .ok());
    }
  }
  rt::ConcurrentApolloConfig cfg;
  cfg.apollo.enable_freshness_check = false;  // reload every ADQ on W
  cfg.pool.num_threads = 2;
  cfg.gateway.rtt = std::chrono::microseconds(300);
  obs::Observability obs;
  obs.trace.set_enabled(true);
  rt::ConcurrentApollo apollo(&db_, cfg, &obs);
  constexpr core::ClientId kSession = 0;
  for (size_t n = 1; n <= kAdqs; ++n) {
    ASSERT_TRUE(apollo
                    .Execute(kSession, "SELECT K, V FROM W ORDER BY K LIMIT " +
                                           std::to_string(n))
                    .ok());
    Drain(apollo);
  }
  ASSERT_EQ(apollo.dependency_graph().Adqs().size(), kAdqs);

  const obs::MetricsRegistry& m = obs.metrics;
  auto count = [&m](const char* name) { return m.FindCounter(name)->Value(); };
  auto cached = [&obs] {
    size_t n = 0;
    for (const obs::TraceEvent& e : obs.trace.Events()) {
      if (e.type == obs::TraceEventType::kPredictionCached) ++n;
    }
    return n;
  };
  const uint64_t batches0 = count("rt.gateway.batches");
  const uint64_t stmts0 = count("rt.gateway.batch_statements");
  const uint64_t issued0 = count("rt.predictions_issued");
  const size_t cached0 = cached();
  const obs::HistogramMetric* sizes = m.FindHistogram("rt.gateway.batch_size");
  ASSERT_LT(sizes->Percentile(100), static_cast<int64_t>(kCap));

  ASSERT_TRUE(apollo.Execute(kSession, "UPDATE W SET V = 7 WHERE K = 1").ok());
  Drain(apollo);

  // The write's envelope is full: the write plus kCap - 1 reloads. The two
  // reloads that did not fit go out together in one more envelope, armed
  // against the write's post-write visibility even if the pool arms them
  // before the write lands (the cached pre-write results must not count).
  EXPECT_EQ(sizes->Percentile(100), static_cast<int64_t>(kCap));
  EXPECT_EQ(count("rt.gateway.batches") - batches0, 2u);
  EXPECT_EQ(count("rt.gateway.batch_statements") - stmts0, 1 + kAdqs);
  // Every reload was armed and landed in the cache.
  EXPECT_EQ(count("rt.predictions_issued") - issued0, kAdqs);
  EXPECT_EQ(cached() - cached0, kAdqs);
  EXPECT_EQ(obs.trace.dropped(), 0u);
  apollo.Shutdown();
}

// --------------------------------------------------------------------------
// Contention suites (8 threads; run under TSan via check.sh --thread)
// --------------------------------------------------------------------------

class ShardContentionTest : public ScalingFixture {};

TEST_F(ShardContentionTest, EightThreadsLearnAcrossShardsConcurrently) {
  rt::ConcurrentApolloConfig cfg;
  cfg.apollo.verification_period = 2;
  cfg.pool.num_threads = 8;
  cfg.pool.queue_capacity = 512;
  cfg.gateway.rtt = std::chrono::microseconds(200);
  rt::ConcurrentApollo apollo(&db_, cfg);

  constexpr int kThreads = 8;
  constexpr int kRounds = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    // Sessions t and t + kLearnShards share a shard: 8 sessions over 4
    // shards, so learning contends within a shard as well as across.
    const core::ClientId session =
        (t % 4) + static_cast<core::ClientId>(
                      (t / 4) * rt::ConcurrentApollo::kLearnShards);
    workers.emplace_back([&, t, session] {
      for (int round = 1; round <= kRounds; ++round) {
        const int i = 20 * t + round;
        for (const std::string& sql :
             {"SELECT A_ID, A_B_ID FROM A WHERE A_ID = " + std::to_string(i),
              "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
                  std::to_string(1000 + i),
              "SELECT C_V FROM C WHERE C_ID = " + std::to_string(2000 + i)}) {
          if (!apollo.Execute(session, sql).ok()) failures.fetch_add(1);
        }
        if (round % 4 == 0) {
          if (!apollo
                   .Execute(session, "UPDATE C SET C_V = 1 WHERE C_ID = " +
                                   std::to_string(2000 + i))
                   .ok()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  auto& m = apollo.observability().metrics;
  EXPECT_EQ(m.FindCounter("rt.queries")->Value(),
            static_cast<uint64_t>(kThreads * kRounds * 3 + kThreads * 3));
  // Per-shard wait histograms exist and the aggregate saw every
  // acquisition.
  EXPECT_GT(
      m.FindHistogram("rt.latency.learn_shard0.lock_wait_wall_us")->Count(),
      0u);
  EXPECT_GT(
      m.FindHistogram("rt.latency.learn_lock_wait_wall_us")->Count(), 0u);
  apollo.Shutdown();
}

class GatewayBatchContentionTest : public ScalingFixture {};

TEST_F(GatewayBatchContentionTest, ConcurrentBatchesAllComplete) {
  rt::ThreadPoolConfig pc;
  pc.num_threads = 4;
  pc.queue_capacity = 256;
  rt::ThreadPool pool(pc);
  rt::DbGateway gw(&db_, {.rtt = std::chrono::microseconds(300)});

  constexpr int kThreads = 8;
  constexpr int kBatchesEach = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int b = 0; b < kBatchesEach; ++b) {
        std::vector<sql::BoundStatement> stmts;
        const int n = 1 + (t + b) % 4;
        for (int i = 0; i < n; ++i) {
          const int id = 2001 + (t * 17 + b * 3 + i) % 200;
          stmts.push_back(
              BindSql("SELECT C_V FROM C WHERE C_ID = " + std::to_string(id)));
        }
        auto futures = gw.ExecuteBatchAsync(&pool, std::move(stmts),
                                            rt::kNoDeadline,
                                            static_cast<uint64_t>(t));
        for (auto& f : futures) {
          rt::RemoteResult rr = f.Take();
          if (!rr.result.ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  // A batch counts until its completion task has set every promise, which
  // can trail the last Take(); joining the pool's workers ends them all.
  pool.Shutdown();
  EXPECT_EQ(gw.pending_batches(), 0u);
  gw.Shutdown();
}

}  // namespace
}  // namespace apollo
