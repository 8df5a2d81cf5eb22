// ApolloMiddleware: the paper's predictive caching engine (Sections 2-3)
// on the deterministic event loop.
//
// Extends CachingMiddleware with learning and prediction. Every decision
// — parameter-mapping discovery with a verification period (2.3), FDQ/ADQ
// discovery (Algorithm 3), dependency-ready tracking (Algorithm 4),
// pipelined prediction (2.4), the multi-delta-t freshness model (3.4.1)
// and informed ADQ reload (3.4.2) — is made by core::PredictionPlanner,
// shared with rt::ConcurrentApollo. This class is the event-loop adapter:
// it feeds the planner the loop's clock, issues its predictions through
// PredictiveExecute, times the learn / predict-decide stages and sheds
// reload passes while the WAN is degraded.
#pragma once

#include "core/caching_middleware.h"
#include "core/prediction_planner.h"

namespace apollo::core {

class ApolloMiddleware : public CachingMiddleware {
 public:
  ApolloMiddleware(sim::EventLoop* loop, net::RemoteDatabase* remote,
                   cache::KvCache* cache, ApolloConfig config,
                   obs::Observability* obs = nullptr,
                   const std::string& metric_prefix = "mw.");

  std::string name() const override {
    return config_.enable_prediction ? "apollo" : "memcached";
  }

  size_t LearningStateBytes() const override;

  const ParamMapper& mapper() const { return planner_.mapper(); }
  const DependencyGraph& dependency_graph() const {
    return planner_.dependency_graph();
  }

 protected:
  void OnQueryCompleted(ClientSession& session,
                        const CompletedQuery& query) override;
  void OnPredictionCompleted(ClientSession& session, uint64_t template_id,
                             common::ResultSetPtr result,
                             int depth) override;

  // Snapshot hooks: adds the param-mapper and dependency-graph sections
  // on top of the base sections. Defined in
  // src/persist/middleware_persist.cc (apollo_persist).
  void CollectPersistSections(persist::SnapshotWriter* w) override;
  util::Status RestoreSection(uint32_t type, const std::string& payload,
                              persist::RestoreStats* stats) override;

 private:
  class Sink;

  PredictionPlanner planner_;
};

}  // namespace apollo::core
