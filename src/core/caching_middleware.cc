#include "core/caching_middleware.h"

#include <utility>

namespace apollo::core {

CachingMiddleware::CachingMiddleware(sim::EventLoop* loop,
                                     net::RemoteDatabase* remote,
                                     cache::KvCache* cache,
                                     ApolloConfig config,
                                     obs::Observability* obs,
                                     const std::string& metric_prefix)
    : loop_(loop),
      remote_(remote),
      cache_(cache),
      config_(std::move(config)),
      station_(loop, config_.engine_servers),
      serving_(config_, cache_,
               [this](ClientSession& session, uint64_t template_id,
                      common::ResultSetPtr result, int depth) {
                 OnPredictionCompleted(session, template_id,
                                       std::move(result), depth);
               }) {
  if (obs == nullptr) {
    owned_obs_ = std::make_unique<obs::Observability>();
    obs = owned_obs_.get();
    obs->trace.set_clock([loop]() { return loop->now(); });
  }
  obs_ = obs;
  obs::MetricsRegistry& m = obs_->metrics;
  const std::string& p = metric_prefix;
  c_.queries = m.RegisterCounter(p + "queries");
  c_.reads = m.RegisterCounter(p + "reads");
  c_.writes = m.RegisterCounter(p + "writes");
  c_.cache_hits = m.RegisterCounter(p + "cache_hits");
  c_.cache_misses = m.RegisterCounter(p + "cache_misses");
  c_.coalesced_waits = m.RegisterCounter(p + "coalesced_waits");
  c_.parse_errors = m.RegisterCounter(p + "parse_errors");
  c_.predictions_issued = m.RegisterCounter(p + "predictions_issued");
  c_.predictions_skipped_cached =
      m.RegisterCounter(p + "predictions_skipped_cached");
  c_.predictions_skipped_inflight =
      m.RegisterCounter(p + "predictions_skipped_inflight");
  c_.predictions_skipped_fresh =
      m.RegisterCounter(p + "predictions_skipped_fresh");
  c_.predictions_skipped_invalid =
      m.RegisterCounter(p + "predictions_skipped_invalid");
  c_.predictions_skipped_incomplete =
      m.RegisterCounter(p + "predictions_skipped_incomplete");
  c_.adq_reloads = m.RegisterCounter(p + "adq_reloads");
  c_.shed_predictions = m.RegisterCounter(p + "shed_predictions");
  c_.shed_adq_reloads = m.RegisterCounter(p + "shed_adq_reloads");
  c_.subscriber_fallbacks = m.RegisterCounter(p + "subscriber_fallbacks");
  c_.fdqs_discovered = m.RegisterCounter(p + "fdqs_discovered");
  c_.fdqs_invalidated = m.RegisterCounter(p + "fdqs_invalidated");
  c_.find_fdq_calls = m.RegisterCounter(p + "find_fdq_calls");
  c_.construct_fdq_calls = m.RegisterCounter(p + "construct_fdq_calls");
  c_.find_fdq_wall_us = m.RegisterGauge(p + "find_fdq_wall_us");
  c_.construct_fdq_wall_us = m.RegisterGauge(p + "construct_fdq_wall_us");
  lat_.cache_us = m.RegisterHistogram(p + "latency.cache_us");
  lat_.wan_us = m.RegisterHistogram(p + "latency.wan_us");
  lat_.learn_wall_us = m.RegisterHistogram(p + "latency.learn_wall_us");
  lat_.predict_wall_us =
      m.RegisterHistogram(p + "latency.predict_decide_wall_us");
  serving_.AttachInstruments(
      {.reads = c_.reads,
       .writes = c_.writes,
       .cache_hits = c_.cache_hits,
       .cache_misses = c_.cache_misses,
       .coalesced_waits = c_.coalesced_waits,
       .subscriber_fallbacks = c_.subscriber_fallbacks,
       .predictions_issued = c_.predictions_issued,
       .skipped_invalid = c_.predictions_skipped_invalid,
       .skipped_cached = c_.predictions_skipped_cached,
       .skipped_inflight = c_.predictions_skipped_inflight,
       .admit_fast_wall_us =
           m.RegisterHistogram(p + "latency.admit_fast_wall_us"),
       .admit_full_wall_us =
           m.RegisterHistogram(p + "latency.admit_full_wall_us"),
       .trace = &obs_->trace});
  // Registered only when a cap is on: default-config runs must export an
  // unchanged instrument set (bench byte-identity, DESIGN.md §11).
  if (config_.max_transition_edges > 0) {
    c_.learning_pruned_edges = m.RegisterCounter(p + "learning_pruned_edges");
  }
  if (config_.max_param_pairs > 0) {
    c_.learning_pruned_pairs = m.RegisterCounter(p + "learning_pruned_pairs");
  }
}

const MiddlewareStats& CachingMiddleware::stats() const {
  MiddlewareStats& s = stats_view_;
  s.queries = c_.queries->Value();
  s.reads = c_.reads->Value();
  s.writes = c_.writes->Value();
  s.cache_hits = c_.cache_hits->Value();
  s.cache_misses = c_.cache_misses->Value();
  s.coalesced_waits = c_.coalesced_waits->Value();
  s.parse_errors = c_.parse_errors->Value();
  s.predictions_issued = c_.predictions_issued->Value();
  s.predictions_skipped_cached = c_.predictions_skipped_cached->Value();
  s.predictions_skipped_inflight = c_.predictions_skipped_inflight->Value();
  s.predictions_skipped_fresh = c_.predictions_skipped_fresh->Value();
  s.predictions_skipped_invalid = c_.predictions_skipped_invalid->Value();
  s.predictions_skipped_incomplete =
      c_.predictions_skipped_incomplete->Value();
  s.adq_reloads = c_.adq_reloads->Value();
  s.shed_predictions = c_.shed_predictions->Value();
  s.shed_adq_reloads = c_.shed_adq_reloads->Value();
  s.subscriber_fallbacks = c_.subscriber_fallbacks->Value();
  s.fdqs_discovered = c_.fdqs_discovered->Value();
  s.fdqs_invalidated = c_.fdqs_invalidated->Value();
  s.find_fdq_calls = c_.find_fdq_calls->Value();
  s.construct_fdq_calls = c_.construct_fdq_calls->Value();
  s.find_fdq_wall_us = c_.find_fdq_wall_us->Value();
  s.construct_fdq_wall_us = c_.construct_fdq_wall_us->Value();
  return s;
}

ClientSession& CachingMiddleware::SessionFor(ClientId client) {
  auto& session = sessions_[client];
  if (session == nullptr) {
    session = std::make_unique<ClientSession>(client, config_,
                                              c_.learning_pruned_edges);
  }
  return *session;
}

void CachingMiddleware::SubmitQuery(ClientId client, const std::string& sql,
                                    QueryCallback callback) {
  c_.queries->Inc();
  // All middleware processing consumes edge-node CPU.
  station_.Submit(config_.engine_overhead_per_query,
                  [this, client, sql, callback = std::move(callback)]() {
                    ProcessQuery(client, sql, std::move(callback));
                  });
}

void CachingMiddleware::ProcessQuery(ClientId client, const std::string& sql,
                                     QueryCallback callback) {
  auto adm = serving_.Admit(sql);
  if (!adm.ok()) {
    c_.parse_errors->Inc();
    callback(adm.status());
    return;
  }
  ClientSession& session = SessionFor(client);
  if (adm->read_only()) {
    ExecuteRead(session, std::move(*adm), std::move(callback));
  } else {
    ExecuteWrite(session, std::move(*adm), std::move(callback));
  }
}

void CachingMiddleware::FinishRead(ClientSession& session,
                                   const sql::AdmittedQuery& adm,
                                   common::ResultSetPtr result,
                                   bool from_cache,
                                   util::SimDuration remote_time,
                                   QueryCallback callback) {
  // Latency breakdown: every client read pays one cache round trip; reads
  // that went remote additionally record the observed WAN time.
  lat_.cache_us->Record(config_.cache_latency);
  if (remote_time > 0) lat_.wan_us->Record(remote_time);
  callback(result);
  OnQueryCompleted(session, {.template_id = adm.fingerprint(),
                             .meta = templates().Get(adm.fingerprint()),
                             .canonical_text = adm.canonical_text,
                             .params = adm.params,
                             .result = std::move(result),
                             .from_cache = from_cache,
                             .remote_time = remote_time});
}

void CachingMiddleware::ExecuteRead(ClientSession& session,
                                    sql::AdmittedQuery adm,
                                    QueryCallback callback) {
  serving_.Observe(session, adm);
  // One round trip to the shared cache.
  loop_->After(config_.cache_latency, [this, &session, adm = std::move(adm),
                                       callback =
                                           std::move(callback)]() mutable {
    if (auto entry = serving_.Lookup(session, adm)) {
      FinishRead(session, adm, entry->result, /*from_cache=*/true, 0,
                 std::move(callback));
      return;
    }
    const bool leader = serving_.JoinFlight(adm, [&] {
      return [this, &session, adm, callback](
                 const util::Result<common::ResultSetPtr>& result,
                 const cache::VersionVector& stamp) {
        switch (serving_.ReceivePublished(session, adm, result, stamp)) {
          case ServingCore::Publication::kServe:
            FinishRead(session, adm, result.value(), /*from_cache=*/true, 0,
                       callback);
            return;
          case ServingCore::Publication::kFallBack:
            RemoteRead(session, adm, callback, /*publish=*/false);
            return;
          case ServingCore::Publication::kFail:
            callback(result.status());
            return;
        }
      };
    });
    if (!leader) return;  // subscribed; the leader will publish
    RemoteRead(session, std::move(adm), std::move(callback),
               /*publish=*/true);
  });
}

void CachingMiddleware::RemoteRead(ClientSession& session,
                                   sql::AdmittedQuery adm,
                                   QueryCallback callback, bool publish) {
  const util::SimTime t0 = loop_->now();
  // Taken before the lambda capture moves `adm`.
  sql::BoundStatement stmt = adm.bound();
  auto on_done = [this, &session, adm = std::move(adm),
                  callback = std::move(callback), publish,
                  t0](util::Result<common::ResultSetPtr> result,
                      std::unordered_map<std::string, uint64_t> versions)
      mutable {
    const util::SimDuration remote_time = loop_->now() - t0;
    auto rs = serving_.LandRead(session, adm, result, versions, remote_time,
                                /*put_time_us=*/0, publish);
    if (!rs.ok()) {
      callback(rs.status());
      return;
    }
    FinishRead(session, adm, *rs, /*from_cache=*/false,
               remote_time, std::move(callback));
  };
  remote_->Execute(std::move(stmt), std::move(on_done));
}

void CachingMiddleware::ExecuteWrite(ClientSession& session,
                                     sql::AdmittedQuery adm,
                                     QueryCallback callback) {
  TemplateMeta* meta = serving_.Observe(session, adm);
  const util::SimTime t0 = loop_->now();
  // Taken before the lambda capture moves `adm`.
  sql::BoundStatement stmt = adm.bound();
  auto on_done = [this, &session, meta, adm = std::move(adm),
                  callback = std::move(callback),
                  t0](util::Result<common::ResultSetPtr> result,
                      std::unordered_map<std::string, uint64_t> versions)
      mutable {
    const util::SimDuration remote_time = loop_->now() - t0;
    auto out =
        serving_.LandWrite(session, meta, result, versions, remote_time);
    if (!out.ok()) {
      callback(out.status());
      return;
    }
    lat_.wan_us->Record(remote_time);
    callback(*out);
    OnQueryCompleted(session, {.template_id = adm.fingerprint(),
                               .meta = meta,
                               .canonical_text = adm.canonical_text,
                               .params = adm.params,
                               .result = nullptr,
                               .read_only = false,
                               .remote_time = remote_time});
  };
  remote_->Execute(std::move(stmt), std::move(on_done));
}

void CachingMiddleware::PredictiveExecute(ClientSession& session,
                                          uint64_t template_id,
                                          const std::string& sql, int depth,
                                          double probability) {
  // Degraded WAN path: shed optional load before it consumes anything.
  // AllowPredictive admits one prediction as the breaker's half-open probe.
  if (config_.shed_predictions_when_degraded && !remote_->AllowPredictive()) {
    c_.shed_predictions->Inc();
    Trace(obs::TraceEventType::kPredictionSkipped, session, template_id,
          obs::SkipReason::kShed, static_cast<uint64_t>(depth));
    return;
  }
  ArmedPrediction armed;
  if (!serving_.Arm(session, {template_id, sql, depth, probability},
                    session.Vv(), &armed)) {
    return;
  }
  station_.Submit(
      config_.engine_overhead_per_prediction,
      [this, &session, armed = std::move(armed)]() mutable {
        const util::SimTime t0 = loop_->now();
        sql::BoundStatement stmt = armed.adm.bound();
        auto on_done =
            [this, &session, armed = std::move(armed), t0](
                util::Result<common::ResultSetPtr> result,
                std::unordered_map<std::string, uint64_t> versions) {
              serving_.LandPrediction(session, armed, result, versions,
                                      loop_->now() - t0,
                                      /*put_time_us=*/0);
            };
        remote_->Execute(std::move(stmt), std::move(on_done),
                         /*predictive=*/true);
      });
}

}  // namespace apollo::core
