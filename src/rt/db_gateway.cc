#include "rt/db_gateway.h"

#include <thread>
#include <utility>

namespace apollo::rt {

namespace {
void FailAll(const std::vector<Promise<RemoteResult>>& promises,
             const util::Status& status) {
  for (const auto& p : promises) {
    RemoteResult r;
    r.result = status;
    p.Set(std::move(r));
  }
}
}  // namespace

DbGateway::DbGateway(db::Database* db, DbGatewayConfig config,
                     obs::Observability* obs,
                     const std::string& metric_prefix)
    : db_(db), config_(config) {
  if (obs != nullptr) {
    obs::MetricsRegistry& m = obs->metrics;
    batches_ = m.RegisterCounter(metric_prefix + "batches");
    batch_statements_ = m.RegisterCounter(metric_prefix + "batch_statements");
    batch_size_ = m.RegisterHistogram(metric_prefix + "batch_size");
  }
  timer_ = std::thread([this] { TimerLoop(); });
}

DbGateway::~DbGateway() { Shutdown(); }

bool DbGateway::BudgetExhausted(Deadline deadline) const {
  return deadline != kNoDeadline &&
         std::chrono::steady_clock::now() + config_.rtt > deadline;
}

RemoteResult DbGateway::ExecuteInline(const sql::BoundStatement& stmt,
                                      Deadline deadline) {
  if (BudgetExhausted(deadline)) {
    // The remaining budget cannot cover the round trip: cancel before
    // paying it, so overload sheds work instead of executing it late.
    RemoteResult out;
    out.result = util::Status::DeadlineExceeded("query budget exhausted");
    return out;
  }
  if (config_.rtt.count() > 0) std::this_thread::sleep_for(config_.rtt);
  return ExecuteNoDelay(stmt);
}

RemoteResult DbGateway::ExecuteNoDelay(const sql::BoundStatement& stmt) {
  if (config_.fail_every_n > 0) {
    const uint64_t n = op_counter_.fetch_add(1, std::memory_order_relaxed);
    if ((n + 1) % config_.fail_every_n == 0) {
      // Fault injection: the statement paid its round trip but provably
      // did not reach the database (safe to retry); in a batch, its
      // batch-mates complete normally.
      RemoteResult out;
      out.result = util::Status::Unavailable("injected transport fault");
      return out;
    }
  }
  return db_->ExecuteStamped(stmt);
}

void DbGateway::CompleteBatch(const std::shared_ptr<PendingBatch>& batch) {
  // In-order execution is the wire contract: a read batched after a write
  // sees the written rows and the bumped table versions.
  for (size_t i = 0; i < batch->stmts.size(); ++i) {
    batch->promises[i].Set(ExecuteNoDelay(batch->stmts[i]));
  }
  // Only now is the batch finished: Set ran its continuations, and they
  // counted any work they handed on.
  unfinished_.fetch_sub(1, std::memory_order_seq_cst);
}

void DbGateway::FailBatch(const std::shared_ptr<PendingBatch>& batch,
                          const util::Status& status) {
  FailAll(batch->promises, status);
  unfinished_.fetch_sub(1, std::memory_order_seq_cst);
}

std::vector<Future<RemoteResult>> DbGateway::ExecuteBatchAsync(
    ThreadPool* pool, std::vector<sql::BoundStatement> stmts,
    Deadline deadline, uint64_t session) {
  std::vector<Future<RemoteResult>> futures;
  futures.reserve(stmts.size());
  std::vector<Promise<RemoteResult>> promises(stmts.size());
  for (const auto& p : promises) futures.push_back(p.GetFuture());
  if (stmts.empty()) return futures;

  if (BudgetExhausted(deadline)) {
    // Fail fast without paying the round trip: the whole batch shares one
    // envelope, so a budget that cannot cover the RTT dooms every
    // statement equally.
    FailAll(promises, util::Status::DeadlineExceeded("query budget exhausted"));
    return futures;
  }

  auto batch = std::make_shared<PendingBatch>();
  batch->due = std::chrono::steady_clock::now() + config_.rtt;
  batch->stmts = std::move(stmts);
  batch->pool = pool;
  batch->session = session;
  const size_t n = batch->stmts.size();

  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      rejected = true;
    } else {
      batch->seq = next_seq_++;
      batch->promises = std::move(promises);
      unfinished_.fetch_add(1, std::memory_order_seq_cst);
      heap_.push(batch);
    }
  }
  if (rejected) {
    FailAll(promises, util::Status::Unavailable("gateway shut down"));
    return futures;
  }
  cv_.notify_one();
  if (batches_ != nullptr) {
    batches_->Inc();
    batch_statements_->Inc(static_cast<int64_t>(n));
    batch_size_->Record(static_cast<int64_t>(n));
  }
  return futures;
}

void DbGateway::TimerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (heap_.empty()) {
      if (stop_) return;
      cv_.wait(lock, [&] { return stop_ || !heap_.empty(); });
      continue;
    }
    auto batch = heap_.top();
    if (!stop_) {
      // Wait out the remaining round trip; a newly enqueued earlier-due
      // batch or shutdown re-evaluates from the top.
      if (cv_.wait_until(lock, batch->due, [&] {
            return stop_ || heap_.top() != batch;
          })) {
        continue;
      }
    }
    heap_.pop();
    lock.unlock();
    // Dispatch off the timer thread so a slow statement never delays other
    // batches' due times. kClient class: completions are real client work
    // and must not be shed at the predictive watermark.
    bool dispatched =
        batch->pool != nullptr &&
        batch->pool->Submit(TaskClass::kClient, batch->session,
                            [this, batch] { CompleteBatch(batch); });
    if (!dispatched) {
      if (stop_) {
        // Shutdown drain: do not touch the database, fail the statements.
        FailBatch(batch, util::Status::Unavailable("gateway shut down"));
      } else {
        // No pool (bare gateway in tests) or pool closed mid-run: complete
        // on the timer thread rather than losing the batch.
        CompleteBatch(batch);
      }
    }
    lock.lock();
  }
}

void DbGateway::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (timer_.joinable()) timer_.join();
  // Anything still heaped when the timer exited: fail it here.
  std::priority_queue<std::shared_ptr<PendingBatch>,
                      std::vector<std::shared_ptr<PendingBatch>>, BatchLater>
      leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftovers.swap(heap_);
  }
  while (!leftovers.empty()) {
    FailBatch(leftovers.top(), util::Status::Unavailable("gateway shut down"));
    leftovers.pop();
  }
}

}  // namespace apollo::rt
