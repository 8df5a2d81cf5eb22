#include "core/apollo_middleware.h"

#include <chrono>

namespace apollo::core {

/// Planner sink for one session: no veto; every prediction goes straight to
/// PredictiveExecute.
class ApolloMiddleware::Sink final : public PredictionSink {
 public:
  Sink(ApolloMiddleware* mw, ClientSession* session)
      : mw_(mw), session_(session) {}
  void Issue(uint64_t template_id, const std::string& sql, int depth,
             double probability) override {
    mw_->PredictiveExecute(*session_, template_id, sql, depth, probability);
  }

 private:
  ApolloMiddleware* mw_;
  ClientSession* session_;
};

ApolloMiddleware::ApolloMiddleware(sim::EventLoop* loop,
                                   net::RemoteDatabase* remote,
                                   cache::KvCache* cache, ApolloConfig config,
                                   obs::Observability* obs,
                                   const std::string& metric_prefix)
    : CachingMiddleware(loop, remote, cache, std::move(config), obs,
                        metric_prefix),
      planner_(config_, &templates()) {
  planner_.AttachInstruments(
      {.fdqs_discovered = c_.fdqs_discovered,
       .fdqs_invalidated = c_.fdqs_invalidated,
       .adq_reloads = c_.adq_reloads,
       .skipped_fresh = c_.predictions_skipped_fresh,
       .skipped_incomplete = c_.predictions_skipped_incomplete,
       .skipped_invalid = c_.predictions_skipped_invalid,
       .learning_pruned_pairs = c_.learning_pruned_pairs,
       .find_fdq_calls = c_.find_fdq_calls,
       .construct_fdq_calls = c_.construct_fdq_calls,
       .find_fdq_wall_us = c_.find_fdq_wall_us,
       .construct_fdq_wall_us = c_.construct_fdq_wall_us,
       .trace = &obs_->trace});
}

void ApolloMiddleware::OnQueryCompleted(ClientSession& session,
                                        const CompletedQuery& q) {
  if (!config_.enable_prediction) return;  // Memcached configuration
  const util::SimTime now = loop_->now();
  const auto learn_t0 = std::chrono::steady_clock::now();
  const uint64_t removed = planner_.Learn(session, q.template_id, q.params,
                                          q.result, q.read_only, now);
  if (removed != 0) {
    // The other sessions' satisfied sets for the removed FDQ go too.
    for (auto& [_, s] : sessions_) s->satisfied.erase(removed);
  }
  lat_.learn_wall_us->Record(
      static_cast<int64_t>(WallMicrosSince(learn_t0)));

  const auto predict_t0 = std::chrono::steady_clock::now();
  Sink sink(this, &session);
  planner_.Predict(session, q.template_id, now, sink);
  if (!q.read_only && config_.enable_adq_reload) {
    // Reload storms are the worst load to send into a degraded link; drop
    // the whole pass (the next write after recovery re-triggers it).
    if (config_.shed_predictions_when_degraded && remote_->Degraded()) {
      c_.shed_adq_reloads->Inc();
      Trace(obs::TraceEventType::kPredictionSkipped, session, q.template_id,
            obs::SkipReason::kShed);
    } else if (q.meta != nullptr) {
      planner_.ReloadAdqs(session, q.template_id, q.meta->tables_written,
                          now, sink);
    }
  }
  lat_.predict_wall_us->Record(
      static_cast<int64_t>(WallMicrosSince(predict_t0)));
}

void ApolloMiddleware::OnPredictionCompleted(ClientSession& session,
                                             uint64_t template_id,
                                             common::ResultSetPtr result,
                                             int depth) {
  if (!config_.enable_prediction) return;
  Sink sink(this, &session);
  planner_.OnPredictionCompleted(session, template_id, std::move(result),
                                 depth, loop_->now(), sink);
}

size_t ApolloMiddleware::LearningStateBytes() const {
  size_t total = planner_.ApproximateBytes() + templates().ApproximateBytes();
  for (const auto& [_, session] : sessions_) {
    total += session->stream.ApproximateBytes();
    total += session->satisfied.size() * 64;
  }
  return total;
}

}  // namespace apollo::core
