// Scaling-rework coverage (DESIGN.md Section 14): parity of the sharded +
// batched runtime against the single-lock unbatched seed path, gateway
// batch semantics (demultiplexing, per-sub-statement fault injection,
// deadline fail-fast), and 8-thread contention suites for the learn-shard
// table and the batched WAN transport (run under TSan via
// `tools/check.sh --thread`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "rt/concurrent_apollo.h"
#include "rt/db_gateway.h"

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
// Parity: sharded learning + batched issue must make bit-identical
// prediction decisions to the single-lock, unbatched seed path when the
// trace is replayed single-threaded with full drains between queries.
// --------------------------------------------------------------------------

struct ReplayOutcome {
  std::vector<std::string> results;    // per client query: "<v>" or "ERR"
  std::vector<std::string> cache_keys;
  std::map<std::string, uint64_t> counters;
};

class ShardBatchParityTest : public ScalingFixture {
 protected:
  /// Replays the same correlated TPC-W-ish trace (4 sessions round-robin,
  /// each walking its own A -> B -> C chains, with periodic writes) and
  /// snapshots everything decision-visible.
  ReplayOutcome Replay(size_t learn_shards, bool batch_wan) {
    rt::ConcurrentApolloConfig cfg;
    cfg.apollo.verification_period = 2;
    // One wide transition-graph window: decisions depend on query ORDER
    // only, not on wall-clock gaps, so the two replays stay bit-identical
    // even when the machine is loaded (ctest -j, TSan).
    cfg.apollo.delta_ts = {util::Seconds(60)};
    cfg.pool.num_threads = 2;
    cfg.pool.queue_capacity = 256;
    cfg.gateway.rtt = std::chrono::microseconds(300);
    cfg.cache_bytes = 32u << 20;  // no evictions: keysets stay exact
    cfg.learn_shards = learn_shards;
    cfg.batch_wan = batch_wan;

    // Each replay gets its own freshly seeded database so the first
    // replay's writes cannot contaminate the second one's data (and thus
    // its param mappings and prediction decisions).
    db::Database replay_db;
    SeedDb(&replay_db);

    ReplayOutcome out;
    rt::ConcurrentApollo apollo(&replay_db, cfg);
    auto run = [&](int client, const std::string& sql) {
      auto rs = apollo.Execute(client, sql);
      if (!rs.ok()) {
        out.results.push_back("ERR");
      } else if ((*rs)->num_rows() == 0) {
        out.results.push_back("EMPTY");
      } else {
        out.results.push_back(std::to_string((*rs)->At(0, 0).AsInt()));
      }
      Drain(apollo);
    };

    // Learning rounds: each session walks disjoint chains so per-session
    // graphs differ, exercising distinct shards in the sharded config.
    for (int round = 1; round <= 6; ++round) {
      for (int client = 0; client < 4; ++client) {
        const int i = 40 * client + round;
        run(client, "SELECT A_ID, A_B_ID FROM A WHERE A_ID = " +
                        std::to_string(i));
        run(client, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
                        std::to_string(1000 + i));
        run(client, "SELECT C_V FROM C WHERE C_ID = " +
                        std::to_string(2000 + i));
      }
      // A write invalidates C-reads downstream and exercises the ADQ
      // reload pass on the write path.
      run(0, "UPDATE C SET C_V = " + std::to_string(100 + round) +
                 " WHERE C_ID = " + std::to_string(2000 + round));
    }
    // Post-learning probes: these A-reads should co-issue B/C predictions.
    for (int client = 0; client < 4; ++client) {
      const int i = 40 * client + 7;
      run(client, "SELECT A_ID, A_B_ID FROM A WHERE A_ID = " +
                      std::to_string(i));
      run(client, "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
                      std::to_string(1000 + i));
      run(client, "SELECT C_V FROM C WHERE C_ID = " +
                      std::to_string(2000 + i));
    }
    Drain(apollo);

    out.cache_keys = apollo.result_cache().KeysForTest();
    auto& m = apollo.observability().metrics;
    for (const char* name :
         {"rt.queries", "rt.reads", "rt.writes", "rt.cache_hits",
          "rt.cache_misses", "rt.predictions_issued", "rt.predictions_shed",
          "rt.predictions_skipped", "rt.fdqs_discovered",
          "rt.fdqs_invalidated", "rt.adq_reloads"}) {
      out.counters[name] = m.FindCounter(name)->Value();
    }
    apollo.Shutdown();
    return out;
  }
};

TEST_F(ShardBatchParityTest, ShardedBatchedMatchesSingleLockUnbatched) {
  ReplayOutcome seed = Replay(/*learn_shards=*/1, /*batch_wan=*/false);
  ReplayOutcome next = Replay(/*learn_shards=*/16, /*batch_wan=*/true);

  // The learning must actually have produced predictions, or the parity
  // claim is vacuous.
  ASSERT_GT(seed.counters["rt.predictions_issued"], 0u);
  ASSERT_GT(seed.counters["rt.fdqs_discovered"], 0u);

  EXPECT_EQ(seed.results, next.results);
  EXPECT_EQ(seed.cache_keys, next.cache_keys);
  for (const auto& [name, value] : seed.counters) {
    EXPECT_EQ(value, next.counters[name]) << "counter " << name;
  }
}

// --------------------------------------------------------------------------
// Gateway batch semantics
// --------------------------------------------------------------------------

class GatewayBatchTest : public ScalingFixture {};

TEST_F(GatewayBatchTest, BatchDemultiplexesPerStatementResults) {
  obs::Observability obs;
  rt::DbGateway gw(&db_, {.rtt = std::chrono::microseconds(500)}, &obs);
  std::vector<rt::BatchStatement> stmts;
  for (int i = 1; i <= 4; ++i) {
    rt::BatchStatement st;
    st.sql = "SELECT C_V FROM C WHERE C_ID = " + std::to_string(2000 + i);
    st.tables = {"C"};
    stmts.push_back(std::move(st));
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
  rt::BatchStatement write;
  write.sql = "UPDATE C SET C_V = 4242 WHERE C_ID = 2001";
  write.is_write = true;
  write.tables = {"C"};
  rt::BatchStatement read;
  read.sql = "SELECT C_V FROM C WHERE C_ID = 2001";
  read.tables = {"C"};
  std::vector<rt::BatchStatement> stmts;
  stmts.push_back(std::move(write));
  stmts.push_back(std::move(read));
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
  std::vector<rt::BatchStatement> stmts;
  for (int i = 1; i <= 5; ++i) {
    rt::BatchStatement st;
    st.sql = "SELECT C_V FROM C WHERE C_ID = " + std::to_string(2000 + i);
    st.tables = {"C"};
    stmts.push_back(std::move(st));
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
  std::vector<rt::BatchStatement> stmts(3);
  for (auto& st : stmts) {
    st.sql = "SELECT C_V FROM C WHERE C_ID = 2001";
    st.tables = {"C"};
  }
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
  rt::BatchStatement st;
  st.sql = "SELECT C_V FROM C WHERE C_ID = 2002";
  st.tables = {"C"};
  std::vector<rt::BatchStatement> stmts;
  stmts.push_back(std::move(st));
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
// Contention suites (8 threads; run under TSan via check.sh --thread)
// --------------------------------------------------------------------------

class ShardContentionTest : public ScalingFixture {};

TEST_F(ShardContentionTest, EightThreadsLearnAcrossShardsConcurrently) {
  rt::ConcurrentApolloConfig cfg;
  cfg.apollo.verification_period = 2;
  cfg.pool.num_threads = 8;
  cfg.pool.queue_capacity = 512;
  cfg.gateway.rtt = std::chrono::microseconds(200);
  cfg.learn_shards = 4;  // 8 sessions over 4 shards: in-shard contention too
  cfg.batch_wan = true;
  rt::ConcurrentApollo apollo(&db_, cfg);

  constexpr int kThreads = 8;
  constexpr int kRounds = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 1; round <= kRounds; ++round) {
        const int i = 20 * t + round;
        for (const std::string& sql :
             {"SELECT A_ID, A_B_ID FROM A WHERE A_ID = " + std::to_string(i),
              "SELECT B_ID, B_C_ID FROM B WHERE B_ID = " +
                  std::to_string(1000 + i),
              "SELECT C_V FROM C WHERE C_ID = " + std::to_string(2000 + i)}) {
          if (!apollo.Execute(t, sql).ok()) failures.fetch_add(1);
        }
        if (round % 4 == 0) {
          if (!apollo
                   .Execute(t, "UPDATE C SET C_V = 1 WHERE C_ID = " +
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
  // Sharding on: per-shard wait histograms exist and the aggregate saw
  // every acquisition.
  EXPECT_NE(m.FindHistogram("rt.latency.learn_shard0.lock_wait_wall_us"),
            nullptr);
  EXPECT_GT(
      m.FindHistogram("rt.latency.learn_lock_wait_wall_us")->Count(), 0u);
  apollo.Shutdown();
}

TEST_F(ShardContentionTest, SingleShardConfigKeepsLegacyInstrumentSet) {
  rt::ConcurrentApolloConfig cfg;
  cfg.gateway.rtt = std::chrono::microseconds(50);
  cfg.learn_shards = 1;
  cfg.batch_wan = false;
  rt::ConcurrentApollo apollo(&db_, cfg);
  ASSERT_TRUE(
      apollo.Execute(0, "SELECT C_V FROM C WHERE C_ID = 2001").ok());
  auto& m = apollo.observability().metrics;
  EXPECT_EQ(m.FindHistogram("rt.latency.learn_shard0.lock_wait_wall_us"),
            nullptr);
  EXPECT_EQ(m.FindCounter("rt.gateway.batches"), nullptr);
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
        std::vector<rt::BatchStatement> stmts;
        const int n = 1 + (t + b) % 4;
        for (int i = 0; i < n; ++i) {
          rt::BatchStatement st;
          const int id = 2001 + (t * 17 + b * 3 + i) % 200;
          st.sql = "SELECT C_V FROM C WHERE C_ID = " + std::to_string(id);
          st.tables = {"C"};
          stmts.push_back(std::move(st));
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
  EXPECT_EQ(gw.pending_batches(), 0u);
  gw.Shutdown();
  pool.Shutdown();
}

}  // namespace
}  // namespace apollo
