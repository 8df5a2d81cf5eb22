#include "rt/concurrent_apollo.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "persist/snapshot.h"
#include "persist/state_codec.h"

namespace apollo::rt {

using core::WallMicrosSince;

namespace {
/// Result-cache eviction options from the learning config (DESIGN.md §13).
cache::KvCacheOptions BuildCacheOptions(const core::ApolloConfig& cfg) {
  cache::KvCacheOptions opt;
  opt.policy = cfg.cache_policy;
  opt.window_fraction = cfg.cache_window_fraction;
  return opt;
}
}  // namespace

/// Planner sink for one rt pass: the brownout veto, then collection into
/// the pass's PredictionPlan, which the caller sends once its locks drop.
class ConcurrentApollo::PlanSink final : public core::PredictionSink {
 public:
  PlanSink(ConcurrentApollo* rt, PredictionPlan& plan)
      : rt_(rt), plan_(plan) {}
  bool Veto(const core::ClientSession& session, const core::Fdq& f,
            uint64_t trigger) override {
    return rt_->brownout_ != nullptr &&
           rt_->BrownoutVetoesPrediction(session, f, trigger);
  }
  void Issue(uint64_t template_id, const std::string& sql, int depth,
             double probability) override {
    plan_.items.push_back({template_id, sql, depth, probability});
  }

 private:
  ConcurrentApollo* rt_;
  PredictionPlan& plan_;
};

ConcurrentApollo::ConcurrentApollo(db::Database* db,
                                   ConcurrentApolloConfig config,
                                   obs::Observability* obs,
                                   const std::string& metric_prefix)
    : db_(db),
      config_(std::move(config)),
      owned_obs_(obs == nullptr ? std::make_unique<obs::Observability>()
                                : nullptr),
      obs_(obs == nullptr ? owned_obs_.get() : obs),
      cache_(config_.cache_bytes, config_.cache_shards, obs_,
             metric_prefix + "cache.", BuildCacheOptions(config_.apollo)),
      serving_(config_.apollo, &cache_,
               [this](core::ClientSession& session, uint64_t template_id,
                      common::ResultSetPtr result, int depth) {
                 OnPredictionCompleted(session, template_id,
                                       std::move(result), depth);
               }),
      planner_(config_.apollo, &serving_.templates()),
      brownout_(config_.overload.enabled
                    ? std::make_unique<BrownoutController>(
                          config_.overload, obs_,
                          metric_prefix + "overload.")
                    : nullptr),
      pool_(BuildPoolConfig(), obs_, metric_prefix + "pool."),
      gateway_(db, config_.gateway, obs_, metric_prefix + "gateway."),
      epoch_(std::chrono::steady_clock::now()) {
  obs::MetricsRegistry& m = obs_->metrics;
  const std::string& p = metric_prefix;
  c_.queries = m.RegisterCounter(p + "queries");
  c_.parse_errors = m.RegisterCounter(p + "parse_errors");
  c_.predictions_shed = m.RegisterCounter(p + "predictions_shed");
  c_.predictions_skipped = m.RegisterCounter(p + "predictions_skipped");
  c_.adq_reloads = m.RegisterCounter(p + "adq_reloads");
  c_.fdqs_discovered = m.RegisterCounter(p + "fdqs_discovered");
  c_.fdqs_invalidated = m.RegisterCounter(p + "fdqs_invalidated");
  query_wall_us_ = m.RegisterHistogram(p + "latency.query_wall_us");
  learn_lock_wait_wall_us_ =
      m.RegisterHistogram(p + "latency.learn_lock_wait_wall_us");
  // rt exports one skip counter for every reason, here and in the
  // planner; the trace tells them apart.
  serving_.AttachInstruments(
      {.reads = m.RegisterCounter(p + "reads"),
       .writes = m.RegisterCounter(p + "writes"),
       .cache_hits = m.RegisterCounter(p + "cache_hits"),
       .cache_misses = m.RegisterCounter(p + "cache_misses"),
       .coalesced_waits = m.RegisterCounter(p + "coalesced_waits"),
       .subscriber_fallbacks = m.RegisterCounter(p + "subscriber_fallbacks"),
       .predictions_issued = m.RegisterCounter(p + "predictions_issued"),
       .skipped_invalid = c_.predictions_skipped,
       .skipped_cached = c_.predictions_skipped,
       .skipped_inflight = c_.predictions_skipped,
       .admit_fast_wall_us =
           m.RegisterHistogram(p + "latency.admit_fast_wall_us"),
       .admit_full_wall_us =
           m.RegisterHistogram(p + "latency.admit_full_wall_us"),
       .trace = &obs_->trace});
  // Per-shard wait histograms quantify contention on each stripe.
  for (size_t i = 0; i < kLearnShards; ++i) {
    learn_shards_[i].wait_us = m.RegisterHistogram(
        p + "latency.learn_shard" + std::to_string(i) + ".lock_wait_wall_us");
  }
  if (config_.apollo.max_transition_edges > 0) {
    learning_pruned_edges_ = m.RegisterCounter(p + "learning_pruned_edges");
  }
  planner_.AttachInstruments(
      {.fdqs_discovered = c_.fdqs_discovered,
       .fdqs_invalidated = c_.fdqs_invalidated,
       .adq_reloads = c_.adq_reloads,
       .skipped_fresh = c_.predictions_skipped,
       .skipped_incomplete = c_.predictions_skipped,
       .skipped_invalid = c_.predictions_skipped,
       .learning_pruned_pairs =
           config_.apollo.max_param_pairs > 0
               ? m.RegisterCounter(p + "learning_pruned_pairs")
               : nullptr,
       .trace = &obs_->trace});
  if (config_.overload.enabled) {
    overload_rejected_ = m.RegisterCounter(p + "overload.rejected");
    deadline_missed_ = m.RegisterCounter(p + "overload.deadline_missed");
    stale_served_ = m.RegisterCounter(p + "overload.stale_served");
    predictions_shed_utility_ =
        m.RegisterCounter(p + "overload.predictions_shed_utility");
    adq_reloads_shed_ = m.RegisterCounter(p + "overload.adq_reloads_shed");
  }
  if (!config_.persist.path.empty()) {
    checkpoints_ = m.RegisterCounter(p + "persist.checkpoints");
    checkpoint_errors_ = m.RegisterCounter(p + "persist.checkpoint_errors");
    if (config_.overload.enabled) {
      checkpoint_deferred_ =
          m.RegisterCounter(p + "persist.checkpoint_deferred");
    }
    checkpoint_copy_wall_us_ =
        m.RegisterHistogram(p + "persist.checkpoint_copy_wall_us");
    checkpoint_write_wall_us_ =
        m.RegisterHistogram(p + "persist.checkpoint_write_wall_us");
    if (config_.persist.restore_on_startup) {
      // Warm restart before any worker thread exists; a missing snapshot
      // (first boot) or damaged sections are not errors.
      util::Status s = RestoreNow();
      (void)s;
    }
    if (config_.persist.checkpoint_interval_ms > 0) StartCheckpointer();
  }
}

ConcurrentApollo::~ConcurrentApollo() { Shutdown(); }

ThreadPoolConfig ConcurrentApollo::BuildPoolConfig() {
  ThreadPoolConfig pc = config_.pool;
  if (brownout_ != nullptr) {
    pc.fair_queueing = config_.overload.fair_queueing;
    BrownoutController* b = brownout_.get();
    pc.sojourn_callback = [b](int64_t us) { b->RecordSojourn(us); };
  }
  return pc;
}

void ConcurrentApollo::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  if (checkpointer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(persist_mu_);
      stop_checkpointer_ = true;
    }
    persist_cv_.notify_all();
    checkpointer_.join();
  }
  // Gateway first: batches still in the WAN heap complete (or fail) and
  // their pool completions drain before the pool joins.
  gateway_.Shutdown();
  pool_.Shutdown();
  if (!config_.persist.path.empty() && config_.persist.checkpoint_on_shutdown) {
    // Final snapshot after the pool drained: no in-flight learning left.
    util::Status s = CheckpointNow();
    (void)s;  // failures are counted in persist.checkpoint_errors
  }
}

void ConcurrentApollo::StartCheckpointer() {
  checkpointer_ = std::thread([this] {
    const auto interval =
        std::chrono::milliseconds(config_.persist.checkpoint_interval_ms);
    std::unique_lock<std::mutex> lock(persist_mu_);
    while (!stop_checkpointer_) {
      if (persist_cv_.wait_for(lock, interval,
                               [this] { return stop_checkpointer_; })) {
        break;
      }
      lock.unlock();
      if (brownout_ != nullptr && brownout_->DeferCheckpoints()) {
        // Under heavy brownout the snapshot's lock-hold time and file I/O
        // compete with draining the backlog; skip this tick and let the
        // next interval (or shutdown) pick it up.
        checkpoint_deferred_->Inc();
      } else {
        util::Status s = CheckpointNow();
        (void)s;  // counted in persist.checkpoint_errors
      }
      lock.lock();
    }
  });
}

util::Status ConcurrentApollo::CheckpointNow() {
  if (config_.persist.path.empty()) {
    return util::Status::InvalidArgument("persistence is disabled");
  }
  // One checkpoint at a time: an on-demand call racing the periodic
  // checkpointer would write the same target concurrently for no gain.
  std::lock_guard<std::mutex> serialize(checkpoint_mu_);
  int64_t copy_us = 0;
  const std::string bytes = BuildSnapshotBytes(&copy_us);
  checkpoint_copy_wall_us_->Record(copy_us);
  const auto write_t0 = std::chrono::steady_clock::now();
  util::Status s = persist::WriteFileAtomic(config_.persist.path, bytes);
  checkpoint_write_wall_us_->Record(WallMicrosSince(write_t0));
  if (!s.ok()) {
    checkpoint_errors_->Inc();
    return s;
  }
  checkpoints_->Inc();
  if (obs_->trace.enabled()) {
    obs_->trace.Record(obs::TraceEventType::kSnapshotSaved, -1, 0,
                       obs::SkipReason::kNone, bytes.size());
  }
  return util::Status::OK();
}

std::string ConcurrentApollo::SnapshotBytes() {
  return BuildSnapshotBytes(/*copy_wall_us=*/nullptr);
}

std::string ConcurrentApollo::BuildSnapshotBytes(int64_t* copy_wall_us) {
  // Copy-then-encode: plain State copies under the locks, all encoding
  // after release. Learning-state mutation happens under the
  // learn shards, so holding every shard (fixed ascending order) makes
  // the copy consistent across structures.
  core::TemplateRegistry::State tstate;
  core::PredictionPlanner::State pstate;
  persist::SessionsState sstate;
  const auto copy_t0 = std::chrono::steady_clock::now();
  {
    auto learn = LockAllLearn();
    tstate = serving_.templates().ExportState();
    pstate = planner_.ExportState();
    const util::SimTime now_us = NowUs();
    std::lock_guard<std::mutex> slock(sessions_mu_);
    sstate.sessions.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) {
      std::lock_guard<std::mutex> lk(session->mu);
      sstate.sessions.push_back(persist::ExportSession(*session, now_us));
    }
  }
  if (copy_wall_us != nullptr) *copy_wall_us = WallMicrosSince(copy_t0);

  std::sort(sstate.sessions.begin(), sstate.sessions.end(),
            [](const persist::SessionState& a, const persist::SessionState& b) {
              return a.id < b.id;
            });
  persist::SnapshotWriter w;
  w.AddSection(persist::kSectionTemplates, persist::EncodeTemplates(tstate));
  w.AddSection(persist::kSectionSessions, persist::EncodeSessions(sstate));
  core::PredictionPlanner::WriteSections(pstate, &w);
  return w.Serialize(static_cast<uint64_t>(NowUs()));
}

util::Status ConcurrentApollo::RestoreNow(persist::RestoreStats* stats) {
  if (config_.persist.path.empty()) {
    return util::Status::InvalidArgument("persistence is disabled");
  }
  persist::Snapshot snap;
  APOLLO_ASSIGN_OR_RETURN(snap,
                          persist::ReadSnapshotFile(config_.persist.path));
  ApplySnapshot(snap, stats);
  return util::Status::OK();
}

util::Status ConcurrentApollo::RestoreFromBytes(std::string_view bytes,
                                                persist::RestoreStats* stats) {
  persist::Snapshot snap;
  APOLLO_ASSIGN_OR_RETURN(snap, persist::ParseSnapshot(bytes));
  ApplySnapshot(snap, stats);
  return util::Status::OK();
}

void ConcurrentApollo::ApplySnapshot(const persist::Snapshot& snap,
                                     persist::RestoreStats* stats) {
  auto learn = LockAllLearn();
  persist::ApplySections(
      snap, stats, &obs_->trace,
      [this](uint32_t type, const std::string& payload,
             persist::RestoreStats* st) -> util::Status {
        switch (type) {
          case persist::kSectionTemplates: {
            core::TemplateRegistry::State ts;
            APOLLO_ASSIGN_OR_RETURN(ts, persist::DecodeTemplates(payload));
            st->templates += ts.templates.size();
            serving_.templates().ImportState(ts);
            return util::Status::OK();
          }
          case persist::kSectionSessions:
            return persist::RestoreSessions(
                payload, config_.apollo, st,
                [this](const persist::SessionState& s) {
                  core::ClientSession& session = SessionFor(s.id);
                  std::lock_guard<std::mutex> lk(session.mu);
                  return persist::ImportSession(s, &session);
                });
          default:
            return planner_.RestoreSection(type, payload, st);
        }
      });
}

util::SimTime ConcurrentApollo::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::unique_lock<std::mutex> ConcurrentApollo::LockLearn(
    uint64_t session_key) {
  LearnShard& shard = learn_shards_[session_key % kLearnShards];
  auto t0 = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(shard.mu);
  const int64_t waited = WallMicrosSince(t0);
  learn_lock_wait_wall_us_->Record(waited);
  shard.wait_us->Record(waited);
  return lock;
}

std::vector<std::unique_lock<std::mutex>> ConcurrentApollo::LockAllLearn() {
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(kLearnShards);
  // Ascending index order — the fixed total order every all-shard
  // acquisition uses, so whole-engine stops can't deadlock each other.
  for (LearnShard& shard : learn_shards_) locks.emplace_back(shard.mu);
  learn_lock_wait_wall_us_->Record(WallMicrosSince(t0));
  return locks;
}

bool ConcurrentApollo::Quiescent() {
  // Work is always counted somewhere: a pool task from Submit until its fn
  // returns, a gateway batch from ExecuteBatchAsync until its promises are
  // set, and every hand-off raises the next count before dropping its own.
  // The reads below are not one atomic snapshot, so work could still slip
  // from the gateway (read second) into the pool (read first) between
  // them — but only through a pool submission, which moves submitted().
  const uint64_t submitted = pool_.submitted();
  const bool idle = pool_.pending() == 0 && gateway_.pending_batches() == 0 &&
                    serving_.inflight().num_inflight() == 0;
  return idle && pool_.submitted() == submitted;
}

core::ClientSession& ConcurrentApollo::SessionFor(core::ClientId client) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto& session = sessions_[client];
  if (session == nullptr) {
    session = std::make_unique<core::ClientSession>(client, config_.apollo,
                                                    learning_pruned_edges_);
  }
  return *session;
}

bool ConcurrentApollo::ExportSessionVv(core::ClientId client,
                                       cache::VersionVector* vv,
                                       cache::VersionVector* written_vv) {
  core::ClientSession* session = nullptr;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(client);
    if (it == sessions_.end()) return false;
    session = it->second.get();
  }
  std::lock_guard<std::mutex> lock(session->mu);
  if (vv != nullptr) *vv = session->vv;
  if (written_vv != nullptr) *written_vv = session->written_vv;
  return true;
}

void ConcurrentApollo::ImportSessionVv(core::ClientId client,
                                       const cache::VersionVector& vv,
                                       const cache::VersionVector& written_vv) {
  core::ClientSession& session = SessionFor(client);
  std::lock_guard<std::mutex> lock(session.mu);
  for (const auto& [t, v] : vv.entries()) session.vv.AdvanceTo(t, v);
  for (const auto& [t, v] : written_vv.entries()) {
    session.vv.AdvanceTo(t, v);
    session.written_vv.AdvanceTo(t, v);
  }
}

util::Result<common::ResultSetPtr> ConcurrentApollo::Execute(
    core::ClientId client, const std::string& sql) {
  Deadline deadline = kNoDeadline;
  if (brownout_ != nullptr && config_.overload.default_deadline.count() > 0) {
    deadline =
        std::chrono::steady_clock::now() + config_.overload.default_deadline;
  }
  return Execute(client, sql, deadline);
}

util::Result<common::ResultSetPtr> ConcurrentApollo::Execute(
    core::ClientId client, const std::string& sql, Deadline deadline) {
  auto t0 = std::chrono::steady_clock::now();
  c_.queries->Inc();
  if (brownout_ != nullptr) brownout_->Tick();
  if (brownout_ != nullptr && brownout_->RejectClient()) {
    // L4: shed at the door so queued work drains. Unavailable is
    // retryable — callers back off and retry, which is the point.
    overload_rejected_->Inc();
    if (obs_->trace.enabled()) {
      obs_->trace.Record(obs::TraceEventType::kOverloadRejected,
                         static_cast<int>(client), 0);
    }
    return util::Status::Unavailable("overload: rejecting new queries");
  }
  auto adm = serving_.Admit(sql);
  if (!adm.ok()) {
    c_.parse_errors->Inc();
    return adm.status();
  }
  core::ClientSession& session = SessionFor(client);
  auto out = adm->read_only()
                 ? ExecuteRead(session, std::move(*adm), deadline)
                 : ExecuteWrite(session, std::move(*adm), deadline);
  if (!out.ok() &&
      out.status().code() == util::StatusCode::kDeadlineExceeded &&
      deadline_missed_ != nullptr) {
    deadline_missed_->Inc();
    if (obs_->trace.enabled()) {
      obs_->trace.Record(obs::TraceEventType::kDeadlineMiss,
                         static_cast<int>(client), 0);
    }
  }
  query_wall_us_->Record(WallMicrosSince(t0));
  return out;
}

util::Result<common::ResultSetPtr> ConcurrentApollo::ExecuteRead(
    core::ClientSession& session, sql::AdmittedQuery adm, Deadline deadline) {
  serving_.Observe(session, adm);
  if (auto entry = serving_.Lookup(session, adm)) {
    FinishRead(session, adm, entry->result);
    return entry->result;
  }
  // L3 serve-stale-within-bound: before paying a remote round trip the
  // middleware can no longer afford, serve an entry that fails the full
  // session-freshness check but (a) is younger than stale_bound and
  // (b) still covers this session's own writes (read-your-writes holds;
  // cross-session monotonic reads are what brownout relaxes).
  if (brownout_ != nullptr && brownout_->ServeStaleAllowed()) {
    cache::VersionVector written_floor = session.WrittenVv();
    const int64_t min_put_us =
        NowUs() - std::chrono::duration_cast<std::chrono::microseconds>(
                      config_.overload.stale_bound)
                      .count();
    auto stale = cache_.GetStaleWithin(adm.canonical_text, written_floor,
                                       adm.tables_read(), min_put_us);
    if (stale.has_value()) {
      stale_served_->Inc();
      if (obs_->trace.enabled()) {
        obs_->trace.Record(obs::TraceEventType::kStaleServed,
                           static_cast<int>(session.id), adm.fingerprint());
      }
      serving_.ServeHit(session, adm, *stale);
      FinishRead(session, adm, stale->result);
      return stale->result;
    }
  }

  Promise<Published> promise;
  const bool leader = serving_.JoinFlight(adm, [&promise] {
    return [promise](const util::Result<common::ResultSetPtr>& result,
                     const cache::VersionVector& stamp) {
      promise.Set(Published{result, stamp});
    };
  });
  if (!leader) {
    // Another thread is executing this exact query: block on its
    // published outcome (client worker threads may wait on futures).
    Published pub = promise.GetFuture().Take();
    switch (serving_.ReceivePublished(session, adm, pub.result, pub.stamp)) {
      case core::ServingCore::Publication::kServe:
        FinishRead(session, adm, *pub.result);
        return pub.result;
      case core::ServingCore::Publication::kFail:
        return pub.result.status();
      case core::ServingCore::Publication::kFallBack:
        return RemoteRead(session, adm, /*publish=*/false, deadline);
    }
  }
  return RemoteRead(session, adm, /*publish=*/true, deadline);
}

util::Result<common::ResultSetPtr> ConcurrentApollo::RemoteRead(
    core::ClientSession& session, const sql::AdmittedQuery& adm, bool publish,
    Deadline deadline) {
  const uint64_t session_key = static_cast<uint64_t>(session.id);
  const bool learn = config_.apollo.enable_prediction;
  // Pre-issue learning pass: every learning/predict decision that does
  // not need the pending result is made NOW, so the decided fan-out rides
  // the SAME round trip as the trigger (paper §3.1's pipelining argument
  // applied to the wire). Predictions whose source rows must come from
  // this query's result are parked in plan.deferred for the post-pass. If
  // the remote trip then fails, the query stays recorded in the learning
  // state — harmless speculative knowledge.
  PredictionPlan plan;
  if (learn) {
    auto lock = LockLearn(session_key);
    OnQueryCompleted(session, adm, /*result=*/nullptr,
                     /*pending_fresh=*/adm.fingerprint(), plan);
  }
  // Cache-skip checks for co-issued items run against the versions this
  // round trip is about to make the session observe (the current table
  // versions): the vector the session holds once the trip lands.
  cache::VersionVector vv_check;
  if (!plan.items.empty()) {
    vv_check = session.Vv();
    for (const auto& [t, v] : db_->VersionsOf(adm.tables_read())) {
      vv_check.AdvanceTo(t, v);
    }
  }
  std::chrono::steady_clock::time_point t0;
  RemoteResult rr = CoIssue(session, adm.bound(), std::move(plan.items),
                            vv_check, deadline, &t0)
                        .Take();
  auto rs = serving_.LandRead(session, adm, rr.result, rr.versions,
                              WallMicrosSince(t0), NowUs(), publish);
  if (!rs.ok() || !learn) return rs;
  // Post-pass: the result lands in `recent`, and predictions parked on it
  // get their (single) retry with the source rows now available.
  PredictionPlan post;
  {
    auto lock = LockLearn(session_key);
    std::lock_guard<std::mutex> slock(session.mu);
    const util::SimTime now = NowUs();
    session.recent[adm.fingerprint()] = {*rs, now};
    PlanSink sink(this, post);
    for (const core::Fdq* f : plan.deferred) {
      planner_.TryPredict(session, *f, adm.fingerprint(), /*depth=*/0, now,
                          sink);
    }
  }
  if (!post.items.empty()) IssuePredictionPlan(session, std::move(post.items));
  return rs;
}

void ConcurrentApollo::FinishRead(core::ClientSession& session,
                                  const sql::AdmittedQuery& adm,
                                  const common::ResultSetPtr& result) {
  if (!config_.apollo.enable_prediction) return;
  PredictionPlan plan;
  {
    auto lock = LockLearn(static_cast<uint64_t>(session.id));
    OnQueryCompleted(session, adm, result, /*pending_fresh=*/0, plan);
  }
  if (!plan.items.empty()) IssuePredictionPlan(session, std::move(plan.items));
}

util::Result<common::ResultSetPtr> ConcurrentApollo::ExecuteWrite(
    core::ClientSession& session, sql::AdmittedQuery adm, Deadline deadline) {
  core::TemplateMeta* meta = serving_.Observe(session, adm);
  // The learning pass (including informed ADQ reload) runs pre-issue —
  // none of its decisions need the write's outcome — and its prediction
  // fan-out rides the write's round trip. In-order batch execution at the
  // gateway means those reads see the post-write rows and versions. As in
  // RemoteRead, a failed write leaves the (harmless) learning record
  // behind.
  PredictionPlan plan;
  if (config_.apollo.enable_prediction) {
    auto lock = LockLearn(static_cast<uint64_t>(session.id));
    OnQueryCompleted(session, adm, /*result=*/nullptr, /*pending_fresh=*/0,
                     plan);
  }
  // Arm co-issued predictions against post-write visibility: the write
  // in this batch bumps every written table past any resident cache
  // stamp, so cached entries reading those tables can never satisfy the
  // skip check.
  cache::VersionVector vv_check;
  if (!plan.items.empty()) {
    vv_check = session.Vv();
    for (const auto& t : adm.tables_written()) {
      vv_check.AdvanceTo(t, std::numeric_limits<uint64_t>::max());
    }
  }
  std::chrono::steady_clock::time_point t0;
  RemoteResult rr = CoIssue(session, adm.bound(), std::move(plan.items),
                            vv_check, deadline, &t0)
                        .Take();
  auto out = serving_.LandWrite(session, meta, rr.result, rr.versions,
                                WallMicrosSince(t0));
  if (out.ok() && config_.on_write) config_.on_write(rr.versions);
  return out;
}

// ---------------------------------------------------------------------------
// Learning / prediction: core::PredictionPlanner under the learn shards
// ---------------------------------------------------------------------------

void ConcurrentApollo::OnQueryCompleted(core::ClientSession& s,
                                        const sql::AdmittedQuery& adm,
                                        const common::ResultSetPtr& result,
                                        uint64_t pending_fresh,
                                        PredictionPlan& plan) {
  const util::SimTime now = NowUs();
  const uint64_t qt = adm.fingerprint();
  uint64_t removed = 0;
  {
    std::lock_guard<std::mutex> slock(s.mu);
    removed =
        planner_.Learn(s, qt, adm.params, result, adm.read_only(), now);
    PlanSink sink(this, plan);
    planner_.Predict(s, qt, now, sink, pending_fresh, &plan.deferred);
    if (!adm.read_only() && config_.apollo.enable_adq_reload) {
      if (brownout_ != nullptr && brownout_->ShedAdqReloads()) {
        // >= L2: reload passes are speculation too, and they fan out hard.
        adq_reloads_shed_->Inc();
      } else {
        planner_.ReloadAdqs(s, qt, adm.tables_written(), now, sink);
      }
    }
  }
  if (removed != 0) ClearSatisfiedOthers(removed, &s);
}

void ConcurrentApollo::OnPredictionCompleted(core::ClientSession& s,
                                             uint64_t template_id,
                                             common::ResultSetPtr result,
                                             int depth) {
  if (!config_.apollo.enable_prediction) return;
  PredictionPlan plan;
  {
    auto lock = LockLearn(static_cast<uint64_t>(s.id));
    std::lock_guard<std::mutex> slock(s.mu);
    PlanSink sink(this, plan);
    planner_.OnPredictionCompleted(s, template_id, std::move(result),
                                   depth, NowUs(), sink);
  }
  if (!plan.items.empty()) IssuePredictionPlan(s, std::move(plan.items));
}

void ConcurrentApollo::ClearSatisfiedOthers(uint64_t fdq_id,
                                            core::ClientSession* self) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto& [_, session] : sessions_) {
    if (session.get() == self) continue;
    std::lock_guard<std::mutex> slock(session->mu);
    session->satisfied.erase(fdq_id);
  }
}

bool ConcurrentApollo::BrownoutVetoesPrediction(
    const core::ClientSession& session, const core::Fdq& f,
    uint64_t trigger) {
  if (!brownout_->AllowSpeculation()) {
    c_.predictions_skipped->Inc();
    if (obs_->trace.enabled()) {
      obs_->trace.Record(obs::TraceEventType::kPredictionSkipped,
                         static_cast<int>(session.id), f.id,
                         obs::SkipReason::kOverload);
    }
    return true;
  }
  // Expected benefit of this prediction: how likely the client is to issue
  // f after the trigger (transition probability, floored by f's overall
  // popularity so cold graphs still rank) times the remote round trip a
  // hit would save.
  const core::TemplateMeta* meta = serving_.templates().Get(f.id);
  double p = session.stream.primary().TransitionProbability(trigger, f.id);
  if (meta != nullptr) {
    const uint64_t total =
        std::max<uint64_t>(1, serving_.templates().total_observations());
    const double popularity =
        static_cast<double>(
            meta->observations.load(std::memory_order_relaxed)) /
        static_cast<double>(total);
    p = std::max(p, popularity);
  }
  const double utility_us = p * planner_.MeanExecUs(f.id);
  brownout_->RecordUtility(utility_us);
  if (brownout_->ShouldShedPrediction(utility_us)) {
    predictions_shed_utility_->Inc();
    c_.predictions_skipped->Inc();
    if (obs_->trace.enabled()) {
      obs_->trace.Record(obs::TraceEventType::kPredictionSkipped,
                         static_cast<int>(session.id), f.id,
                         obs::SkipReason::kLowUtility);
    }
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Prediction transport: batched envelopes (DESIGN.md Section 14)
// ---------------------------------------------------------------------------

Future<RemoteResult> ConcurrentApollo::CoIssue(
    core::ClientSession& session, sql::BoundStatement trigger,
    std::vector<core::PredictionItem> items,
    const cache::VersionVector& vv_check, Deadline deadline,
    std::chrono::steady_clock::time_point* t0) {
  std::vector<sql::BoundStatement> stmts;
  std::vector<core::ArmedPrediction> armed;
  std::vector<core::PredictionItem> overflow;
  stmts.reserve(items.size() + 1);
  stmts.push_back(std::move(trigger));
  for (auto& item : items) {
    if (stmts.size() >= kMaxBatchStatements) {
      overflow.push_back(std::move(item));
      continue;
    }
    core::ArmedPrediction a;
    if (!serving_.Arm(session, item, vv_check, &a)) continue;
    stmts.push_back(a.adm.bound());
    armed.push_back(std::move(a));
  }

  *t0 = std::chrono::steady_clock::now();
  Future<RemoteResult> out = SendBatch(session, std::move(stmts),
                                       std::move(armed), deadline, *t0)[0];
  if (!overflow.empty()) {
    IssuePredictionPlan(session, std::move(overflow), vv_check);
  }
  return out;
}

std::vector<Future<RemoteResult>> ConcurrentApollo::SendBatch(
    core::ClientSession& s, std::vector<sql::BoundStatement> stmts,
    std::vector<core::ArmedPrediction> armed, Deadline deadline,
    std::chrono::steady_clock::time_point t0) {
  std::vector<Future<RemoteResult>> futures = gateway_.ExecuteBatchAsync(
      &pool_, std::move(stmts), deadline, static_cast<uint64_t>(s.id));
  const size_t first = futures.size() - armed.size();
  for (size_t i = 0; i < armed.size(); ++i) {
    auto a = std::make_shared<core::ArmedPrediction>(std::move(armed[i]));
    futures[first + i].Then([this, &s, a, t0](const RemoteResult& rr) {
      // Issue-to-landing wall time: the round trip a hit on this entry
      // saves (cost-aware eviction input).
      serving_.LandPrediction(s, *a, rr.result, rr.versions,
                              WallMicrosSince(t0), NowUs());
    });
  }
  return futures;
}

void ConcurrentApollo::IssuePredictionPlan(
    core::ClientSession& s, std::vector<core::PredictionItem> items,
    cache::VersionVector vv_floor) {
  if (items.empty()) return;
  // Counted BEFORE handing the items to the pool: the worker moves the
  // vector out of `shared`, so touching it after Submit would race.
  const size_t n = items.size();
  // shared_ptr: pool tasks require copyable closures.
  auto shared =
      std::make_shared<std::vector<core::PredictionItem>>(std::move(items));
  bool accepted = pool_.Submit(
      TaskClass::kPredictive, static_cast<uint64_t>(s.id),
      [this, &s, shared, vv_floor = std::move(vv_floor)] {
        RunPredictionBatch(s, std::move(*shared), vv_floor);
      });
  if (!accepted) {
    // The whole plan is shed as one unit: it would have been one queue
    // slot and (mostly) one round trip.
    c_.predictions_shed->Inc(n);
  }
}

void ConcurrentApollo::RunPredictionBatch(
    core::ClientSession& s, std::vector<core::PredictionItem> items,
    const cache::VersionVector& vv_floor) {
  cache::VersionVector vv_check = s.Vv();
  for (const auto& [t, v] : vv_floor.entries()) vv_check.AdvanceTo(t, v);
  std::vector<sql::BoundStatement> stmts;
  std::vector<core::ArmedPrediction> armed;
  auto flush = [&] {
    if (stmts.empty()) return;
    SendBatch(s, std::move(stmts), std::move(armed), kNoDeadline,
              std::chrono::steady_clock::now());
    stmts.clear();
    armed.clear();
  };
  for (const auto& item : items) {
    core::ArmedPrediction a;
    if (!serving_.Arm(s, item, vv_check, &a)) continue;
    stmts.push_back(a.adm.bound());
    armed.push_back(std::move(a));
    // Overflowing fan-out goes out as additional, concurrently in-flight
    // round trips rather than being dropped.
    if (stmts.size() >= kMaxBatchStatements) flush();
  }
  flush();
}

}  // namespace apollo::rt
