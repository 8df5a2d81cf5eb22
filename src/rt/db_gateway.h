// DbGateway: the runtime's remote-database port.
//
// Where the simulator's net::RemoteDatabase models the WAN with simulated
// delays and callbacks on the event loop, the gateway talks to the same
// db::Database from real threads: each execution pays a (configurable)
// real-time round trip, then runs a bound statement (sql::BoundStatement:
// cached template + parameters — nothing is re-parsed) through
// db::Database::ExecuteStamped, which returns the result with the
// table-version stamp the paper's session consistency needs. Completions
// are delivered as rt::Future values.
//
// Since the scaling rework (DESIGN.md Section 14) the async paths are
// fully non-blocking: instead of parking a pool worker in a sleep for the
// round trip, pending operations sit in a deadline min-heap drained by one
// WAN timer thread. When an operation comes due, the timer dispatches a
// completion task to the pool (kClient class, never shed) that executes
// the statement(s) against the database and fulfills the per-statement
// promises — so Future::Then continuations run on pool workers and no
// thread anywhere sleeps per in-flight operation. ExecuteBatchAsync
// coalesces any number of statements into ONE round trip: the batch pays
// a single RTT, the statements execute sequentially at "the remote" in
// submission order (a read after a write in the same batch sees the
// written data), and each statement's result is demultiplexed into its
// own Future.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "obs/observability.h"
#include "rt/future.h"
#include "rt/thread_pool.h"
#include "sql/template_cache.h"
#include "util/result.h"

namespace apollo::rt {

/// Per-query completion budget (absolute wall-clock point). kNoDeadline
/// means unbounded — the legacy behavior. Deadline-aware admission
/// (DESIGN.md Section 12) propagates this from ConcurrentApollo::Execute
/// down to the gateway, which cancels work whose remaining budget cannot
/// cover the WAN round trip instead of queueing it.
using Deadline = std::chrono::steady_clock::time_point;
inline constexpr Deadline kNoDeadline = Deadline::max();

/// Outcome of one remote execution: result plus the version stamp used for
/// cache entries and session vector advances.
using RemoteResult = db::StampedResult;

struct DbGatewayConfig {
  /// Real-time WAN round trip added to every execution. This is what the
  /// throughput benchmark overlaps across workers: with an I/O-bound
  /// round trip, N concurrent sessions approach N× the single-session
  /// throughput regardless of core count.
  std::chrono::microseconds rtt{2000};
  /// Transport fault injection for soak tests: every Nth *statement*
  /// fails with Unavailable after paying the round trip and before
  /// touching the database (the statement provably did not run). In a
  /// batch the counter advances per sub-statement, so a mid-batch fault
  /// fails only the affected sub-statements while the rest of the batch
  /// completes. 0 disables.
  uint32_t fail_every_n = 0;
};

class DbGateway {
 public:
  /// `obs` may be null (no batch instruments are registered then);
  /// `metric_prefix` qualifies the gateway's instruments ("rt.gateway."
  /// from the runtime).
  DbGateway(db::Database* db, DbGatewayConfig config,
            obs::Observability* obs = nullptr,
            const std::string& metric_prefix = "rt.gateway.");
  ~DbGateway();

  DbGateway(const DbGateway&) = delete;
  DbGateway& operator=(const DbGateway&) = delete;

  /// Executes on the calling thread: sleeps the WAN round trip, then runs
  /// and stamps the statement. If `deadline` cannot cover the round trip
  /// the call fails fast with DeadlineExceeded WITHOUT paying the round
  /// trip or touching the database. Used where a pool worker owns the
  /// whole trip (unbatched predictions); the batch path below never sleeps
  /// a worker.
  RemoteResult ExecuteInline(const sql::BoundStatement& stmt,
                             Deadline deadline = kNoDeadline);

  /// Coalesces `stmts` into a single WAN round trip: the batch pays one
  /// RTT in the timer heap, then a pool task (kClient, keyed by `session`
  /// for fair queueing) executes the statements in order and fulfills one
  /// future per statement. No thread sleeps while the batch is in flight.
  /// If `deadline` cannot cover the round trip, every future fails fast
  /// with DeadlineExceeded (nothing executes). After Shutdown the futures
  /// fail with Unavailable. `pool` may be null (completion then runs on
  /// the timer thread — shutdown drains only).
  std::vector<Future<RemoteResult>> ExecuteBatchAsync(
      ThreadPool* pool, std::vector<sql::BoundStatement> stmts,
      Deadline deadline = kNoDeadline, uint64_t session = 0);

  /// Stops the WAN timer thread. Operations still pending in the heap are
  /// failed with Unavailable (their Then-continuations run on the calling
  /// or timer thread). Idempotent; also run by the destructor. Call after
  /// client threads have stopped issuing work.
  void Shutdown();

  /// Batches accepted by ExecuteBatchAsync and not yet finished: waiting
  /// out their round trip, waiting for a pool worker, or executing. A batch
  /// counts until CompleteBatch has set every promise — and so has run the
  /// Then-continuations, which count whatever work they hand on — which
  /// makes the count exact for quiescence detection.
  size_t pending_batches() const {
    return unfinished_.load(std::memory_order_seq_cst);
  }

  const DbGatewayConfig& config() const { return config_; }

 private:
  struct PendingBatch {
    std::chrono::steady_clock::time_point due;
    uint64_t seq = 0;  // FIFO tiebreak for identical due times
    std::vector<sql::BoundStatement> stmts;
    std::vector<Promise<RemoteResult>> promises;
    ThreadPool* pool = nullptr;
    uint64_t session = 0;
  };
  struct BatchLater {
    bool operator()(const std::shared_ptr<PendingBatch>& a,
                    const std::shared_ptr<PendingBatch>& b) const {
      if (a->due != b->due) return a->due > b->due;
      return a->seq > b->seq;
    }
  };

  /// True when `deadline` cannot cover one round trip from now.
  bool BudgetExhausted(Deadline deadline) const;

  /// Executes one statement with no WAN delay (the caller already paid the
  /// round trip), honoring per-statement fault injection.
  RemoteResult ExecuteNoDelay(const sql::BoundStatement& stmt);

  /// Runs every statement of a due batch in order and fulfills the
  /// promises. Runs on a pool worker normally; on the timer thread when
  /// the pool refused the completion task (shutdown drain).
  void CompleteBatch(const std::shared_ptr<PendingBatch>& batch);
  /// Fails every statement of an accepted batch with `status` and ends it.
  void FailBatch(const std::shared_ptr<PendingBatch>& batch,
                 const util::Status& status);

  void TimerLoop();

  db::Database* db_;
  DbGatewayConfig config_;
  std::atomic<uint64_t> op_counter_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<std::shared_ptr<PendingBatch>,
                      std::vector<std::shared_ptr<PendingBatch>>, BatchLater>
      heap_;
  uint64_t next_seq_ = 0;
  bool stop_ = false;
  /// See pending_batches(): raised when a batch enters the heap, dropped
  /// once its promises are set.
  std::atomic<size_t> unfinished_{0};
  std::thread timer_;

  // Batch instruments (null when constructed without an obs bundle, e.g.
  // bare gateways in tests — the hot path checks before recording).
  obs::Counter* batches_ = nullptr;
  obs::Counter* batch_statements_ = nullptr;
  obs::HistogramMetric* batch_size_ = nullptr;
};

}  // namespace apollo::rt
