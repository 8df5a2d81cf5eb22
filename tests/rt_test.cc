// Tests for the parallel middleware runtime (src/rt/): MPMC queue,
// promise/future, thread pool backpressure, and the ConcurrentApollo
// adapter's serving path — including the single-flight contention
// regression (of N racing submitters of one query, exactly one executes
// remotely). Run under TSan via tools/check.sh thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bind_sql.h"
#include "db/database.h"
#include "persist/snapshot.h"
#include "rt/concurrent_apollo.h"
#include "rt/db_gateway.h"
#include "rt/future.h"
#include "rt/mpmc_queue.h"
#include "rt/thread_pool.h"

namespace apollo {
namespace {

// --------------------------------------------------------------------------
// MpmcQueue
// --------------------------------------------------------------------------

TEST(MpmcQueueTest, FifoSingleThread) {
  rt::MpmcQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.TryPush(3));
  int v = 0;
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.TryPush(4));
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 3);
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 4);
  EXPECT_FALSE(q.TryPop(&v));
}

TEST(MpmcQueueTest, TryPushRejectsWhenFull) {
  rt::MpmcQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  int v = 0;
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_TRUE(q.TryPush(3));
}

TEST(MpmcQueueTest, CloseDrainsThenStops) {
  rt::MpmcQueue<int> q(4);
  ASSERT_TRUE(q.TryPush(7));
  q.Close();
  EXPECT_FALSE(q.Push(8));
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));  // queued item still delivered
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(q.Pop(&v));  // closed and drained
}

TEST(MpmcQueueTest, ConcurrentProducersConsumersDeliverEverythingOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 500;
  rt::MpmcQueue<int> q(32);
  std::atomic<int> consumed{0};
  std::atomic<int64_t> sum{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      int v = 0;
      while (q.Pop(&v)) {
        sum.fetch_add(v);
        consumed.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  for (size_t i = kConsumers; i < threads.size(); ++i) threads[i].join();
  q.Close();
  for (int c = 0; c < kConsumers; ++c) threads[static_cast<size_t>(c)].join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  const int64_t n = kProducers * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// --------------------------------------------------------------------------
// Promise / Future
// --------------------------------------------------------------------------

TEST(FutureTest, SetBeforeGet) {
  rt::Promise<int> p;
  p.Set(42);
  EXPECT_TRUE(p.GetFuture().Ready());
  EXPECT_EQ(p.GetFuture().Get(), 42);
}

TEST(FutureTest, GetBlocksUntilSet) {
  rt::Promise<std::string> p;
  rt::Future<std::string> f = p.GetFuture();
  std::thread setter([&p] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    p.Set("done");
  });
  EXPECT_EQ(f.Get(), "done");
  setter.join();
}

TEST(FutureTest, SecondSetIgnored) {
  rt::Promise<int> p;
  p.Set(1);
  p.Set(2);
  EXPECT_EQ(p.GetFuture().Get(), 1);
}

TEST(FutureTest, CopyableIntoStdFunction) {
  rt::Promise<int> p;
  std::function<void()> fn = [p] { p.Set(9); };
  std::function<void()> copy = fn;
  copy();
  EXPECT_EQ(p.GetFuture().Get(), 9);
}

// --------------------------------------------------------------------------
// ThreadPool
// --------------------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesAllClientTasks) {
  rt::ThreadPool pool({.num_threads = 4, .queue_capacity = 16});
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit(rt::TaskClass::kClient, [&] { ran.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(pool.submitted(), 100u);
  EXPECT_EQ(pool.pending(), 0);
}

TEST(ThreadPoolTest, PredictiveShedAtWatermark) {
  // One worker blocked on a gate; watermark 2 means the third queued
  // predictive task is rejected while client tasks still enqueue.
  rt::ThreadPoolConfig cfg;
  cfg.num_threads = 1;
  cfg.queue_capacity = 8;
  cfg.predictive_watermark = 2;
  rt::ThreadPool pool(cfg);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ASSERT_TRUE(pool.Submit(rt::TaskClass::kClient, [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  }));
  // The worker may or may not have dequeued the gate task yet; fill to the
  // watermark deterministically on top of whatever is queued.
  while (pool.queue_depth() < cfg.predictive_watermark) {
    if (!pool.Submit(rt::TaskClass::kPredictive, [] {})) break;
  }
  EXPECT_FALSE(pool.Submit(rt::TaskClass::kPredictive, [] {}));
  EXPECT_GE(pool.rejected_predictive(), 1u);
  // Client tasks are never shed by the watermark.
  EXPECT_TRUE(pool.Submit(rt::TaskClass::kClient, [] {}));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Shutdown();
}

TEST(ThreadPoolTest, RecordsQueueWaitPerWorker) {
  obs::Observability obs;
  rt::ThreadPool pool({.num_threads = 2, .queue_capacity = 8}, &obs, "tp.");
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pool.Submit(rt::TaskClass::kClient, [&] { ran.fetch_add(1); }));
  }
  pool.Shutdown();
  uint64_t samples = 0;
  for (int w = 0; w < 2; ++w) {
    auto* h = obs.metrics.FindHistogram("tp.worker" + std::to_string(w) +
                                        ".queue_wait_wall_us");
    ASSERT_NE(h, nullptr);
    samples += h->Count();
  }
  EXPECT_EQ(samples, 20u);
}

// --------------------------------------------------------------------------
// ConcurrentApollo
// --------------------------------------------------------------------------

class ConcurrentApolloTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Schema s("ITEM", {{"I_ID", common::ValueType::kInt},
                          {"I_STOCK", common::ValueType::kInt}});
    s.AddIndex("PRIMARY", {"I_ID"});
    ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db_.GetTable("ITEM")
                      ->Insert({common::Value::Int(i),
                                common::Value::Int(10 * i)})
                      .ok());
    }
  }

  rt::ConcurrentApolloConfig Config(std::chrono::microseconds rtt) {
    rt::ConcurrentApolloConfig cfg;
    cfg.pool.num_threads = 10;
    cfg.pool.queue_capacity = 64;
    cfg.gateway.rtt = rtt;
    return cfg;
  }

  db::Database db_;
};

TEST_F(ConcurrentApolloTest, ServesReadsAndWritesAcrossThreads) {
  rt::ConcurrentApollo apollo(&db_, Config(std::chrono::microseconds(200)));
  constexpr int kThreads = 8;
  constexpr int kQueriesEach = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kQueriesEach; ++i) {
        int id = (t * 7 + i) % 100;
        auto rs = apollo.Execute(
            t, "SELECT I_STOCK FROM ITEM WHERE I_ID = " + std::to_string(id));
        if (!rs.ok() || (*rs)->At(0, 0).AsInt() != 10 * id) failures.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  auto& m = apollo.observability().metrics;
  EXPECT_EQ(m.FindCounter("rt.queries")->Value(),
            static_cast<uint64_t>(kThreads * kQueriesEach));
  // Repeated ids across threads must hit the shared cache.
  EXPECT_GT(m.FindCounter("rt.cache_hits")->Value(), 0u);
  apollo.Shutdown();
}

TEST_F(ConcurrentApolloTest, ReadYourOwnWrites) {
  rt::ConcurrentApollo apollo(&db_, Config(std::chrono::microseconds(100)));
  // Client 0 seeds the cache with the old value; client 1 writes and must
  // then see its own write despite the stale cached entry.
  auto before = apollo.Execute(0, "SELECT I_STOCK FROM ITEM WHERE I_ID = 5");
  ASSERT_TRUE(before.ok());
  ASSERT_EQ((*before)->At(0, 0).AsInt(), 50);
  auto w = apollo.Execute(1, "UPDATE ITEM SET I_STOCK = 777 WHERE I_ID = 5");
  ASSERT_TRUE(w.ok());
  auto after = apollo.Execute(1, "SELECT I_STOCK FROM ITEM WHERE I_ID = 5");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->At(0, 0).AsInt(), 777);
  apollo.Shutdown();
}

TEST_F(ConcurrentApolloTest, SingleFlightExactlyOneExecution) {
  // The single-flight regression: 8 sessions race the same uncached query
  // with a WAN round trip long enough that all arrive while the leader is
  // in flight. Exactly one remote execution must happen; everyone gets the
  // correct result.
  rt::ConcurrentApollo apollo(&db_, Config(std::chrono::milliseconds(80)));
  constexpr int kThreads = 8;
  const uint64_t reads_before = db_.stats().reads;

  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  bool go = false;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (++arrived == kThreads) {
          go = true;
          cv.notify_all();
        } else {
          cv.wait(lock, [&] { return go; });
        }
      }
      auto rs =
          apollo.Execute(t, "SELECT I_STOCK FROM ITEM WHERE I_ID = 42");
      if (!rs.ok() || (*rs)->At(0, 0).AsInt() != 420) failures.fetch_add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  // One leader executed remotely; everyone else subscribed or hit the
  // cache the leader filled.
  EXPECT_EQ(db_.stats().reads - reads_before, 1u);
  auto& m = apollo.observability().metrics;
  EXPECT_EQ(m.FindCounter("rt.coalesced_waits")->Value() +
                m.FindCounter("rt.cache_hits")->Value(),
            static_cast<uint64_t>(kThreads - 1));
  apollo.Shutdown();
}

TEST_F(ConcurrentApolloTest, GatewayReadStampNeverNewerThanData) {
  // Version discipline: a read's stamp is snapshotted before execution,
  // so under concurrent writes Get(t) <= the table version at return.
  rt::DbGateway gw(&db_, {.rtt = std::chrono::microseconds(0)});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load()) {
      (void)db_.Execute("UPDATE ITEM SET I_STOCK = " +
                        std::to_string(i++ % 1000) + " WHERE I_ID = 7");
    }
  });
  const sql::BoundStatement stmt =
      BindSql("SELECT I_STOCK FROM ITEM WHERE I_ID = 7");
  for (int i = 0; i < 200; ++i) {
    rt::RemoteResult rr = gw.ExecuteBatchAsync(nullptr, {stmt})[0].Take();
    ASSERT_TRUE(rr.result.ok());
    EXPECT_LE(rr.versions["ITEM"], db_.TableVersion("ITEM"));
  }
  stop.store(true);
  writer.join();
}

TEST_F(ConcurrentApolloTest, RacingFirstSightsDiscoverTemplateOnce) {
  // Eight sessions see one template for the first time at once; the
  // pre-increment observation count elects exactly one discoverer.
  obs::Observability obs;
  obs.trace.set_enabled(true);
  rt::ConcurrentApollo apollo(&db_, Config(std::chrono::microseconds(200)),
                              &obs);
  constexpr int kThreads = 8;
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  bool go = false;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (++arrived == kThreads) {
          go = true;
          cv.notify_all();
        } else {
          cv.wait(lock, [&] { return go; });
        }
      }
      EXPECT_TRUE(apollo
                      .Execute(t, "SELECT I_STOCK FROM ITEM WHERE I_ID = " +
                                      std::to_string(t))
                      .ok());
    });
  }
  for (auto& w : workers) w.join();
  apollo.Shutdown();
  int discovered = 0;
  for (const obs::TraceEvent& e : obs.trace.Events()) {
    if (e.type == obs::TraceEventType::kTemplateDiscovered) ++discovered;
  }
  EXPECT_EQ(discovered, 1);
  EXPECT_EQ(apollo.templates().total_observations(),
            static_cast<uint64_t>(kThreads));
}

// The simulator's CoalescedReadAfterOwnWriteFallsBackToFreshResult on real
// threads. The gateway runs a statement at the end of its round trip and
// the leader publishes right after, so here the session's floor rises
// while its read waits: client 0's update was acked at another edge and
// the cluster imports its post-write versions (ImportSessionVv). The
// leader executes before the update reaches the origin; its stamp trails
// client 0's vector, so client 0 re-issues privately and sees the update.
TEST(ConcurrentApolloServingTest, CoalescedReadAfterOwnWriteFallsBack) {
  db::Database db;
  {
    db::Schema s("CUSTOMER", {{"C_ID", common::ValueType::kInt},
                              {"C_UNAME", common::ValueType::kString}});
    s.AddIndex("PRIMARY", {"C_ID"});
    ASSERT_TRUE(db.CreateTable(std::move(s)).ok());
  }
  for (int i = 1; i <= 50; ++i) {
    ASSERT_TRUE(db.GetTable("CUSTOMER")
                    ->Insert({common::Value::Int(i),
                              common::Value::Str("user" + std::to_string(i))})
                    .ok());
  }
  rt::ConcurrentApolloConfig cfg;
  cfg.pool.num_threads = 4;
  cfg.gateway.rtt = std::chrono::milliseconds(400);
  rt::ConcurrentApollo apollo(&db, cfg);
  const std::string scan =
      "SELECT C_ID, C_UNAME FROM CUSTOMER WHERE C_UNAME LIKE '%7'";
  auto wait_for = [](auto done) {
    for (int i = 0; i < 20000 && !done(); ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return done();
  };

  util::Result<common::ResultSetPtr> leader_rs = common::ResultSetPtr();
  std::thread leader([&] { leader_rs = apollo.Execute(1, scan); });
  ASSERT_TRUE(wait_for([&] { return apollo.inflight().num_inflight() == 1; }));
  util::Result<common::ResultSetPtr> follower_rs = common::ResultSetPtr();
  std::thread follower([&] { follower_rs = apollo.Execute(0, scan); });
  ASSERT_TRUE(wait_for([&] { return apollo.inflight().coalesced() == 1; }));
  cache::VersionVector floor;
  floor.Set("CUSTOMER", db.TableVersion("CUSTOMER") + 1);
  apollo.ImportSessionVv(0, floor, floor);
  leader.join();
  // The leader published its pre-update result; the update lands at the
  // origin before client 0's private re-issue gets there.
  ASSERT_TRUE(
      db.Execute("UPDATE CUSTOMER SET C_UNAME = 'renamed7' WHERE C_ID = 7")
          .ok());
  follower.join();
  apollo.Shutdown();

  auto name_of_7 = [](const common::ResultSetPtr& rs) {
    for (size_t r = 0; r < rs->num_rows(); ++r) {
      if (rs->At(r, 0).AsInt() == 7) return rs->At(r, 1).AsString();
    }
    return std::string("missing");
  };
  ASSERT_TRUE(leader_rs.ok());
  ASSERT_TRUE(follower_rs.ok());
  EXPECT_EQ(name_of_7(*leader_rs), "user7");
  EXPECT_EQ(name_of_7(*follower_rs), "renamed7");
  auto& m = apollo.observability().metrics;
  EXPECT_EQ(m.FindCounter("rt.coalesced_waits")->Value(), 1u);
  EXPECT_EQ(m.FindCounter("rt.subscriber_fallbacks")->Value(), 1u);
}

// --------------------------------------------------------------------------
// Crash-tolerant learned state in the runtime (DESIGN.md §11): the
// background checkpointer takes copy-then-write snapshots under the
// engine locks while 8 client threads keep executing. Run under TSan via
// tools/check.sh thread.
// --------------------------------------------------------------------------

class ConcurrentApolloPersistTest : public ConcurrentApolloTest {
 protected:
  std::string SnapshotPath(const char* name) {
    return ::testing::TempDir() + "apollo_rt_persist_" + name;
  }
};

TEST_F(ConcurrentApolloPersistTest, CheckpointerSnapshotsUnderLoad) {
  const std::string path = SnapshotPath("under_load.snap");
  std::remove(path.c_str());
  auto cfg = Config(std::chrono::microseconds(200));
  cfg.persist.path = path;
  cfg.persist.checkpoint_interval_ms = 5;
  {
    rt::ConcurrentApollo apollo(&db_, cfg);
    constexpr int kThreads = 8;
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < 60; ++i) {
          int id = (t * 11 + i) % 100;
          auto rs = apollo.Execute(
              t,
              "SELECT I_STOCK FROM ITEM WHERE I_ID = " + std::to_string(id));
          if (!rs.ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(failures.load(), 0);
    // On-demand checkpoint races with the periodic one: both must be safe.
    EXPECT_TRUE(apollo.CheckpointNow().ok());
    apollo.Shutdown();
    auto& m = apollo.observability().metrics;
    EXPECT_GT(m.FindCounter("rt.persist.checkpoints")->Value(), 0);
    EXPECT_EQ(m.FindCounter("rt.persist.checkpoint_errors")->Value(), 0);
  }
  auto snap = persist::ReadSnapshotFile(path);
  ASSERT_TRUE(snap.ok());
  EXPECT_FALSE(snap->truncated);
  EXPECT_GE(snap->sections.size(), 4u);
  for (const auto& sec : snap->sections) EXPECT_TRUE(sec.crc_ok);
  std::remove(path.c_str());
}

TEST_F(ConcurrentApolloPersistTest, WarmRestartRestoresLearnedState) {
  const std::string path = SnapshotPath("warm.snap");
  std::remove(path.c_str());
  auto cfg = Config(std::chrono::microseconds(100));
  cfg.persist.path = path;  // interval 0: checkpoint only at shutdown
  size_t learned_templates = 0;
  {
    rt::ConcurrentApollo apollo(&db_, cfg);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(apollo
                      .Execute(0, "SELECT I_STOCK FROM ITEM WHERE I_ID = " +
                                      std::to_string(i))
                      .ok());
    }
    learned_templates = apollo.templates().size();
    ASSERT_GT(learned_templates, 0u);
    apollo.Shutdown();  // writes the final snapshot
  }
  {
    rt::ConcurrentApollo apollo(&db_, cfg);  // restore_on_startup default
    EXPECT_EQ(apollo.templates().size(), learned_templates);
    EXPECT_GT(apollo.templates().total_observations(), 0u);
    // The restored engine keeps serving correctly.
    auto rs = apollo.Execute(1, "SELECT I_STOCK FROM ITEM WHERE I_ID = 3");
    ASSERT_TRUE(rs.ok());
    EXPECT_EQ((*rs)->At(0, 0).AsInt(), 30);
    apollo.Shutdown();
  }
  std::remove(path.c_str());
}

TEST_F(ConcurrentApolloPersistTest, RestoreTolerantOfDamagedSnapshot) {
  const std::string path = SnapshotPath("damaged.snap");
  std::remove(path.c_str());
  auto cfg = Config(std::chrono::microseconds(100));
  cfg.persist.path = path;
  {
    rt::ConcurrentApollo apollo(&db_, cfg);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(apollo
                      .Execute(0, "SELECT I_STOCK FROM ITEM WHERE I_ID = " +
                                      std::to_string(i))
                      .ok());
    }
    apollo.Shutdown();
  }
  // Flip the first payload byte of the second section: exactly that
  // section's CRC dies, everything else stays intact.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  auto pristine = persist::ParseSnapshot(bytes);
  ASSERT_TRUE(pristine.ok());
  ASSERT_GE(pristine->sections.size(), 2u);
  size_t offset = persist::kHeaderBytes + persist::kSectionHeaderBytes +
                  pristine->sections[0].payload.size() +
                  persist::kSectionHeaderBytes;
  ASSERT_LT(offset, bytes.size());
  bytes[offset] ^= 0xFF;
  ASSERT_TRUE(persist::WriteFileAtomic(path, bytes).ok());
  {
    rt::ConcurrentApollo apollo(&db_, cfg);  // must construct, not crash
    persist::RestoreStats stats;
    // A second explicit restore reports the partial-recovery accounting.
    ASSERT_TRUE(apollo.RestoreNow(&stats).ok());
    EXPECT_EQ(stats.sections_corrupt, 1u);
    EXPECT_EQ(stats.sections_loaded, stats.sections_total - 1);
    auto rs = apollo.Execute(2, "SELECT I_STOCK FROM ITEM WHERE I_ID = 4");
    ASSERT_TRUE(rs.ok());
    EXPECT_EQ((*rs)->At(0, 0).AsInt(), 40);
    apollo.Shutdown();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace apollo
