// ConcurrentApollo: the Apollo middleware pipeline on real threads.
//
// The simulator runs the whole middleware on one deterministic event
// loop; this adapter runs the same pipeline — versioned result cache,
// session consistency, publish-subscribe single-flight — with hardware
// parallelism. The serving rule (admission, lookup, subscriber
// validation, landing reads, writes and predictions) is
// core::ServingCore (DESIGN.md Section 19), and every learning and
// prediction decision (mapping discovery, FDQ/ADQ discovery,
// freshness-gated pipelined prediction, informed ADQ reload) is made by
// core::PredictionPlanner (Section 17): the same code the simulator runs.
// This class owns what is runtime-specific: learn shards, the brownout
// veto and overload gates, batching and the transport:
//
//   - Per-session client worker threads call Execute() synchronously.
//     The serving path (cache lookup, version-vector math, remote round
//     trip) runs in parallel across sessions; remote completions are
//     delivered as rt::Future values and only client threads block on
//     them.
//   - Predictive executions and ADQ reloads are dispatched to a bounded
//     rt::ThreadPool as kPredictive tasks; at the queue watermark they
//     are rejected (reject-predictions-first backpressure, the
//     thread-level mirror of the WAN shed policy).
//   - The planner's learning/predict-decide pass is serialized PER
//     SESSION under a striped lock table (`learn_shards_`, DESIGN.md
//     Section 14): each session's transition ladder, satisfied sets and
//     window state are independent, so sessions in different shards
//     learn concurrently. Cross-session structures (the planner's
//     ParamMapper and DependencyGraph, the TemplateRegistry) carry their
//     own internal striping/locking; composite read-then-mutate sequences on
//     them are serialized per session by the shard, and the benign races
//     that remain across shards (two sessions discovering the same FDQ)
//     are absorbed by DependencyGraph::Add's first-writer-wins contract.
//   - With `batch_wan` on (the default), every prediction fan-out
//     co-issued from one trigger rides a single WAN round trip through
//     DbGateway::ExecuteBatchAsync — including the triggering client
//     query when it must go remote anyway — and all speculative
//     completions are continuation-style (Future::Then on pool threads):
//     no worker thread ever sleeps out a round trip for speculation.
//
// Lock ordering (DESIGN.md Sections 9 and 14): learn shard(s) (all-shard
// acquisitions in ascending index order) -> sessions_mu_ -> session.mu ->
// structure-internal leaf locks (cache shards, mapper / transition-graph
// stripes, dependency graph, inflight registry). Cross-session
// satisfied-set clears run after the disproving session's mu is released
// (still under its shard), so no thread ever waits on another session's
// mu while holding its own. No thread blocks on a Future while holding
// any of these, and pool worker threads never block on a Future at all.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/kv_cache.h"
#include "core/config.h"
#include "core/inflight_registry.h"
#include "core/prediction_planner.h"
#include "core/serving_core.h"
#include "core/template_registry.h"
#include "db/database.h"
#include "obs/observability.h"
#include "rt/db_gateway.h"
#include "rt/future.h"
#include "rt/overload.h"
#include "rt/thread_pool.h"
#include "sql/template_cache.h"

namespace apollo::persist {
struct RestoreStats;
struct Snapshot;
}  // namespace apollo::persist

namespace apollo::rt {

/// Crash-tolerant learned state (DESIGN.md Section 11). With `path`
/// empty, persistence is fully disabled: no snapshot I/O, no
/// checkpointer thread, and no persistence instruments are registered.
struct PersistOptions {
  std::string path;  // snapshot file; "" disables persistence
  /// > 0 starts a background checkpointer that snapshots every interval.
  /// 0 means checkpoints happen only on demand / at shutdown.
  int checkpoint_interval_ms = 0;
  bool restore_on_startup = true;   // warm-restart from `path` if present
  bool checkpoint_on_shutdown = true;
};

struct ConcurrentApolloConfig {
  core::ApolloConfig apollo;  // learning tunables + feature toggles
  ThreadPoolConfig pool;      // prediction/I-O pool size + backpressure
  DbGatewayConfig gateway;    // real-time WAN round trip
  size_t cache_bytes = 8u << 20;
  size_t cache_shards = 8;
  /// Stripes of the learn-lock table (sessions hash to shards by id).
  /// 1 restores the single global engine lock — the pre-sharding
  /// behavior, byte-identical down to the instrument set.
  size_t learn_shards = 16;
  /// Coalesce the prediction fan-out of one trigger (plus the triggering
  /// client query when it goes remote) into a single batched WAN round
  /// trip, with fully-async speculative completions. Off restores the
  /// one-round-trip-per-query legacy path (worker sleeps the RTT inline).
  bool batch_wan = true;
  /// Upper bound on statements per batched round trip; fan-out beyond it
  /// overflows into additional (concurrently in-flight) batches.
  size_t max_batch_statements = 16;
  PersistOptions persist;     // learned-state snapshots (off by default)
  /// Overload control & graceful brownout (DESIGN.md Section 12). Off by
  /// default: no controller, no deadlines, no fair queueing, no new
  /// instruments — byte-identical legacy behavior.
  OverloadConfig overload;
  /// Invoked after every successful client write with the post-write
  /// table-version snapshot the write observed (the same versions that
  /// advanced the session's vector). The cluster layer (DESIGN.md
  /// Section 15) taps this to drive cross-edge invalidation fan-out.
  /// Called without any runtime lock held; null (the default) costs
  /// nothing and keeps single-edge behavior byte-identical.
  std::function<void(const std::unordered_map<std::string, uint64_t>&)>
      on_write;
};

class ConcurrentApollo {
 public:
  /// `obs` may be null (a private bundle is created). Instruments are
  /// registered under `metric_prefix` ("rt." by default).
  ConcurrentApollo(db::Database* db, ConcurrentApolloConfig config,
                   obs::Observability* obs = nullptr,
                   const std::string& metric_prefix = "rt.");
  ~ConcurrentApollo();

  ConcurrentApollo(const ConcurrentApollo&) = delete;
  ConcurrentApollo& operator=(const ConcurrentApollo&) = delete;

  /// Executes one SQL statement on behalf of `client`, blocking the
  /// calling thread until the result is available (cache hit, coalesced
  /// wait, or remote round trip). Thread-safe; call from one worker
  /// thread per session for the intended parallelism. The no-deadline
  /// overload stamps `overload.default_deadline` when one is configured.
  util::Result<common::ResultSetPtr> Execute(core::ClientId client,
                                             const std::string& sql);
  /// Deadline-aware variant: work whose remaining budget cannot cover the
  /// WAN round trip is cancelled with DeadlineExceeded instead of queued
  /// (kNoDeadline = unbounded). At brownout level kReject the query is
  /// refused immediately with Unavailable (backpressure to the caller).
  util::Result<common::ResultSetPtr> Execute(core::ClientId client,
                                             const std::string& sql,
                                             Deadline deadline);

  /// Stops the gateway's WAN timer, drains the pool and joins its workers
  /// (stopping the background checkpointer first, then — if configured —
  /// writing one final snapshot). Idempotent; also run by the destructor.
  /// Execute must not be called afterwards.
  void Shutdown();

  /// Takes a consistent copy of the learning state (templates, param
  /// mapper, dependency graph, per-session transition graphs and
  /// satisfied sets) under every learn shard (ascending order) plus the
  /// session locks, then encodes and writes it atomically to the
  /// configured snapshot path off-lock (copy-then-write). Lock-hold time
  /// lands in "persist.checkpoint_copy_wall_us". Error if persistence is
  /// disabled; thread-safe.
  util::Status CheckpointNow();

  /// Loads the snapshot at the configured path into the live structures
  /// (the constructor runs this when restore_on_startup is set).
  /// Damaged sections are skipped individually — everything intact still
  /// loads. Only learning state travels: the result cache and session
  /// version vectors restart empty, so restored knowledge is never
  /// mistaken for restored data freshness. kNotFound if no snapshot
  /// exists yet.
  util::Status RestoreNow(persist::RestoreStats* stats = nullptr);

  /// Serializes the learned state to snapshot bytes (the same
  /// section-framed image CheckpointNow writes) without requiring
  /// persistence to be configured. The cluster layer gossips these bytes
  /// between edges so a joining edge warm-starts from a live peer
  /// (DESIGN.md Section 15). Thread-safe; same consistent-copy discipline
  /// as CheckpointNow.
  std::string SnapshotBytes();

  /// Restores learned state from snapshot bytes (the receiving half of
  /// gossip). Section-level damage is skipped, never fatal — a corrupt
  /// peer section costs only that section. Works with persistence
  /// disabled; fails only when the snapshot header itself is unusable.
  util::Status RestoreFromBytes(std::string_view bytes,
                                persist::RestoreStats* stats = nullptr);

  /// Copies the session's version vector (and own-writes floor) out so a
  /// cluster router can carry them across an edge failover. False if the
  /// session does not exist here; either output may be null.
  bool ExportSessionVv(core::ClientId client, cache::VersionVector* vv,
                       cache::VersionVector* written_vv = nullptr);

  /// Merges carried vectors into the session (created if absent). Merge
  /// is componentwise max — it only ever *advances* the session's
  /// freshness requirement, so importing can cause extra cache misses but
  /// never a stale serve. Used both to land a failed-over session on its
  /// new edge and to apply the cluster invalidation floor.
  void ImportSessionVv(core::ClientId client, const cache::VersionVector& vv,
                       const cache::VersionVector& written_vv);

  obs::Observability& observability() { return *obs_; }
  cache::KvCache& result_cache() { return cache_; }
  core::TemplateRegistry& templates() { return serving_.templates(); }
  const sql::TemplateCache& template_cache() const {
    return serving_.template_cache();
  }
  const core::DependencyGraph& dependency_graph() const {
    return planner_.dependency_graph();
  }
  const core::InflightRegistry& inflight() const {
    return serving_.inflight();
  }
  ThreadPool& pool() { return pool_; }
  DbGateway& gateway() { return gateway_; }
  /// Null unless overload control is enabled.
  BrownoutController* brownout() { return brownout_.get(); }
  const ConcurrentApolloConfig& config() const { return config_; }

  /// True when no deferred work remains anywhere: no pool task queued or
  /// running, no gateway batch unfinished, no inflight single-flight
  /// entry. Exact, with no settle sleep (see the .cc). Parity/replay tests
  /// poll this between interactions, with no client call in progress, so
  /// every async completion (and the learning it triggers) lands before
  /// the next query is issued.
  bool Quiescent();

  /// Microseconds of real time since construction — the runtime's clock,
  /// used wherever the simulated pipeline used the event loop's now().
  util::SimTime NowUs() const;

 private:
  /// What the single-flight registry publishes to subscribers.
  struct Published {
    util::Result<common::ResultSetPtr> result =
        util::Result<common::ResultSetPtr>(nullptr);
    cache::VersionVector stamp;
  };

  /// Collector for one trigger's whole prediction fan-out: decided
  /// executions (batched issue) and the FDQs the planner deferred because
  /// they need the pending trigger's result rows (re-tried by the
  /// post-pass once the result lands).
  struct PredictionPlan {
    std::vector<core::PredictionItem> items;
    std::vector<const core::Fdq*> deferred;
  };

  /// Planner sink: brownout veto + plan/dispatch transport.
  class PlanSink;

  core::ClientSession& SessionFor(core::ClientId client);

  util::Result<common::ResultSetPtr> ExecuteRead(core::ClientSession& session,
                                                 sql::AdmittedQuery adm,
                                                 Deadline deadline);
  util::Result<common::ResultSetPtr> ExecuteWrite(core::ClientSession& session,
                                                  sql::AdmittedQuery adm,
                                                  Deadline deadline);
  /// Leader (`publish`) or fallback remote read. With batch_wan: pre-issue
  /// learning pass, then ONE round trip carrying the client query plus
  /// every co-issued prediction, then the post-pass (result into
  /// `recent`, deferred predictions re-tried).
  util::Result<common::ResultSetPtr> RemoteRead(core::ClientSession& session,
                                                const sql::AdmittedQuery& adm,
                                                bool publish,
                                                Deadline deadline);
  /// Learning pass for a read served from a hit, a subscription or an
  /// unbatched trip.
  void FinishRead(core::ClientSession& session, const sql::AdmittedQuery& adm,
                  const common::ResultSetPtr& result);

  /// Locks the learn shard owning `session_key`, recording the wait into
  /// the aggregate and (when sharding is on) per-shard wait histograms.
  std::unique_lock<std::mutex> LockLearn(uint64_t session_key);
  /// Locks every learn shard in ascending index order (the fixed total
  /// order that makes whole-engine stops — checkpoint copy, restore —
  /// deadlock-free against per-session learners).
  std::vector<std::unique_lock<std::mutex>> LockAllLearn();

  /// One planner pass for a completed client query (learning, Algorithm
  /// 2, ADQ reload on writes) with the session's learn shard held; locks
  /// session.mu internally. `result` is null for writes and for the
  /// batch_wan pre-issue pass, which passes its own template as
  /// `pending_fresh` (its result lands on this round trip). `plan` null =
  /// dispatch each prediction to the pool.
  void OnQueryCompleted(core::ClientSession& session,
                        const sql::AdmittedQuery& adm,
                        const common::ResultSetPtr& result,
                        uint64_t pending_fresh, PredictionPlan* plan);
  void OnPredictionCompleted(core::ClientSession& session,
                             uint64_t template_id,
                             common::ResultSetPtr result, int depth);
  /// Drops per-session satisfied state for a removed FDQ across all OTHER
  /// sessions. Called by the disproving session AFTER releasing its own
  /// session.mu (it erases its own entry inline): acquiring another
  /// session's mu while holding one's own could deadlock two sharded
  /// learners against each other (DESIGN.md Section 14).
  void ClearSatisfiedOthers(uint64_t fdq_id, core::ClientSession* self);

  /// Unbatched transport: one pool task (shed at the watermark) arms the
  /// item and sleeps its round trip inline. Called with the shard held.
  void PredictiveExecute(core::ClientSession& session,
                         core::PredictionItem item);

  /// Batched transport: ONE kPredictive pool task (the whole plan is shed
  /// at the watermark) arms every item and sends them in batches. Called
  /// WITHOUT shard or session locks held.
  void IssuePredictionPlan(core::ClientSession& session,
                           std::vector<core::PredictionItem> items);
  void RunPredictionBatch(core::ClientSession& session,
                          std::vector<core::PredictionItem> items);
  /// One batched round trip carrying a client `trigger` statement plus
  /// as many of `items` as fit under max_batch_statements (armed against
  /// `vv_check`); the rest go out through IssuePredictionPlan. Returns the
  /// trigger's future; `t0` receives the issue time.
  Future<RemoteResult> CoIssue(core::ClientSession& session,
                               sql::BoundStatement trigger,
                               std::vector<core::PredictionItem> items,
                               const cache::VersionVector& vv_check,
                               Deadline deadline,
                               std::chrono::steady_clock::time_point* t0);
  /// Sends one batch whose trailing statements are `armed` predictions
  /// and lands each on a pool thread via Future::Then. Returns every
  /// statement's future.
  std::vector<Future<RemoteResult>> SendBatch(
      core::ClientSession& session, std::vector<sql::BoundStatement> stmts,
      std::vector<core::ArmedPrediction> armed, Deadline deadline,
      std::chrono::steady_clock::time_point t0);
  /// Consistent learned-state copy (all learn shards + session locks, the
  /// CheckpointNow discipline) encoded to a serialized snapshot image.
  /// Lock-hold wall time is reported through `copy_wall_us` when non-null.
  std::string BuildSnapshotBytes(int64_t* copy_wall_us);

  /// Applies a parsed snapshot to the live structures section by section
  /// (shared by RestoreNow and RestoreFromBytes). Damaged sections are
  /// skipped and counted; never fails.
  void ApplySnapshot(const persist::Snapshot& snap,
                     persist::RestoreStats* stats);

  /// Starts the periodic checkpointer thread (persistence enabled and
  /// checkpoint_interval_ms > 0 only).
  void StartCheckpointer();

  /// Pool config derived from config_: when overload control is on, wires
  /// fair queueing + the controller's sojourn feed. Called from the
  /// member-init list after brownout_ is constructed.
  ThreadPoolConfig BuildPoolConfig();

  /// Brownout gates (the planner sink's veto). True = prediction vetoed
  /// (counters/trace already recorded). Called with shard + s.mu held.
  bool BrownoutVetoesPrediction(const core::ClientSession& session,
                                const core::Fdq& f, uint64_t trigger);

  db::Database* db_;
  ConcurrentApolloConfig config_;

  std::unique_ptr<obs::Observability> owned_obs_;
  obs::Observability* obs_;

  cache::KvCache cache_;
  core::ServingCore serving_;
  core::PredictionPlanner planner_;
  /// Non-null iff overload control is enabled. Declared (and constructed)
  /// BEFORE pool_: the pool's workers may invoke the sojourn callback as
  /// soon as they start.
  std::unique_ptr<BrownoutController> brownout_;
  ThreadPool pool_;
  DbGateway gateway_;

  std::mutex sessions_mu_;
  std::unordered_map<core::ClientId, std::unique_ptr<core::ClientSession>>
      sessions_;

  /// Striped learn-lock table (see file comment): shard i serializes the
  /// learning/predict-decide stage of the sessions with id % size == i.
  /// Heap-allocated so shard mutexes never share a cache line.
  struct LearnShard {
    std::mutex mu;
    /// Per-shard lock-wait histogram; null when learn_shards == 1 (the
    /// legacy single-lock configuration exports an unchanged instrument
    /// set — only the aggregate below).
    obs::HistogramMetric* wait_us = nullptr;
  };
  std::vector<std::unique_ptr<LearnShard>> learn_shards_;

  std::chrono::steady_clock::time_point epoch_;
  bool shut_down_ = false;

  /// Background checkpointer (persistence enabled only). stop flag and
  /// cv are guarded by persist_mu_; the thread itself never holds
  /// persist_mu_ while checkpointing, so Shutdown can always interrupt a
  /// sleeping checkpointer immediately.
  std::thread checkpointer_;
  std::mutex persist_mu_;
  std::condition_variable persist_cv_;
  bool stop_checkpointer_ = false;
  /// Serializes whole checkpoints (on-demand CheckpointNow vs. the
  /// periodic thread); never held while serving queries.
  std::mutex checkpoint_mu_;

  struct Counters {
    obs::Counter* queries;
    obs::Counter* parse_errors;
    obs::Counter* predictions_shed;
    obs::Counter* predictions_skipped;
    obs::Counter* adq_reloads;
    obs::Counter* fdqs_discovered;
    obs::Counter* fdqs_invalidated;
  };
  Counters c_{};
  obs::HistogramMetric* query_wall_us_;       // client-observed latency
  obs::HistogramMetric* learn_lock_wait_wall_us_;  // aggregate over shards

  // Persistence + bounded-memory instruments; registered only when the
  // corresponding feature is on, so default configs export exactly the
  // pre-existing instrument set.
  obs::Counter* checkpoints_ = nullptr;
  obs::Counter* checkpoint_errors_ = nullptr;
  obs::HistogramMetric* checkpoint_copy_wall_us_ = nullptr;
  obs::HistogramMetric* checkpoint_write_wall_us_ = nullptr;
  obs::Counter* learning_pruned_edges_ = nullptr;

  // Overload-control instruments; registered only when overload control
  // is enabled (same discipline as the persistence instruments).
  obs::Counter* overload_rejected_ = nullptr;
  obs::Counter* deadline_missed_ = nullptr;
  obs::Counter* stale_served_ = nullptr;
  obs::Counter* predictions_shed_utility_ = nullptr;
  obs::Counter* adq_reloads_shed_ = nullptr;
  obs::Counter* checkpoint_deferred_ = nullptr;
};

}  // namespace apollo::rt
