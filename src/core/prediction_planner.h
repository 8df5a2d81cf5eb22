// PredictionPlanner: Apollo's prediction decisions, written once for every
// runtime (DESIGN.md Section 17).
//
// The planner owns the learned correlation state that is not per session
// — the ParamMapper and the FDQ/ADQ DependencyGraph — and reads the
// runtime's TemplateRegistry. It holds the only implementation of the
// mapping-observation loop (Section 2.3), FDQ/ADQ discovery and
// dependency readiness (Algorithms 2-4), fan-out instantiation and
// pipelining (2.4), the multi-delta-t freshness model (3.4.1) and
// informed ADQ reload (3.4.2), together with their counters and
// prediction-lifecycle trace events.
//
// It never reads a clock and never executes anything: callers pass `now`
// and a PredictionSink. The sink vetoes predictions for reasons the
// planner cannot see (rt brownout) and transports the ones it decides to
// issue. The event-loop ApolloMiddleware and the threaded ConcurrentApollo
// are thin adapters around it.
//
// Thread safety: ParamMapper, DependencyGraph and TemplateRegistry lock
// internally. Every method that takes a ClientSession reads and writes
// that session, so the caller serializes calls per session (rt: learn
// shard + session.mu).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/caching_middleware.h"
#include "core/dependency_graph.h"
#include "core/param_mapper.h"

namespace apollo::core {

/// Where the planner's decisions go. One sink is bound to one session's
/// pass, so Issue carries no session.
class PredictionSink {
 public:
  virtual ~PredictionSink() = default;
  /// Runtime gate consulted after the freshness check and before
  /// instantiation. True vetoes `fdq`; the sink records its own reason.
  virtual bool Veto(const ClientSession& /*session*/, const Fdq& /*fdq*/,
                    uint64_t /*trigger*/) {
    return false;
  }
  /// One instantiated prediction to execute (or to batch).
  virtual void Issue(uint64_t template_id, const std::string& sql, int depth,
                     double probability) = 0;
};

/// The runtime's instruments the planner records into. Null entries are
/// skipped; the skip counters may all alias one counter (rt does).
struct PlannerInstruments {
  obs::Counter* fdqs_discovered = nullptr;
  obs::Counter* fdqs_invalidated = nullptr;
  obs::Counter* adq_reloads = nullptr;
  obs::Counter* skipped_fresh = nullptr;
  obs::Counter* skipped_incomplete = nullptr;
  obs::Counter* skipped_invalid = nullptr;
  obs::Counter* learning_pruned_pairs = nullptr;
  /// FDQ discovery timing (real time): all four or none. When
  /// find_fdq_calls is null no clock is read.
  obs::Counter* find_fdq_calls = nullptr;
  obs::Counter* construct_fdq_calls = nullptr;
  obs::Gauge* find_fdq_wall_us = nullptr;
  obs::Gauge* construct_fdq_wall_us = nullptr;
  obs::TraceLog* trace = nullptr;
};

class PredictionPlanner {
 public:
  /// Fallback runtime estimate for templates never executed remotely.
  static constexpr double kDefaultRuntimeUs = 100'000.0;  // 100 ms

  /// `config` and `templates` belong to the runtime and must outlive the
  /// planner.
  PredictionPlanner(const ApolloConfig& config,
                    const TemplateRegistry* templates);

  /// Wires the runtime's instruments; call before the first query.
  void AttachInstruments(const PlannerInstruments& instruments);

  /// Learning for one completed client query: stream append (Algorithm 1),
  /// `recent` update and parameter-mapping observations (2.3). A disproof
  /// that hits a registered FDQ removes it and erases this session's
  /// satisfied set for it; the removed id is returned (0 = none) so the
  /// runtime clears the other sessions under its own locking. `result` is
  /// null for writes and for rt's pending results.
  uint64_t Learn(ClientSession& session, uint64_t template_id,
                 const std::vector<common::Value>& params,
                 const common::ResultSetPtr& result, bool read_only,
                 util::SimTime now);

  /// Algorithm 2 for trigger `qt`: discovers new FDQs, marks dependency
  /// readiness and predicts every FDQ that became ready. `pending_fresh`
  /// (0 = none) is a template whose result is still in flight on the
  /// trigger's own round trip: it counts as fresh, and FDQs on it (as a
  /// source, or the template itself) are appended to `deferred` (required
  /// then) instead of issued.
  void Predict(ClientSession& session, uint64_t qt, util::SimTime now,
               PredictionSink& sink, uint64_t pending_fresh = 0,
               std::vector<const Fdq*>* deferred = nullptr);

  /// Pipelining (2.4): stores a predicted result and predicts the FDQs it
  /// makes ready, up to max_pipeline_depth.
  void OnPredictionCompleted(ClientSession& session, uint64_t template_id,
                             common::ResultSetPtr result, int depth,
                             util::SimTime now, PredictionSink& sink);

  /// Section 3.4.2: reloads valuable ADQ hierarchies that read a table in
  /// `tables_written`. The runtime decides whether a pass may run at all.
  void ReloadAdqs(ClientSession& session, uint64_t write_template,
                  const std::vector<std::string>& tables_written,
                  util::SimTime now, PredictionSink& sink);

  /// Freshness check, sink veto, then fan-out instantiation of `f` (one
  /// prediction per source row, bounded by max_fanout_rows). `trigger` is
  /// the template whose execution made `f` ready.
  void TryPredict(ClientSession& session, const Fdq& f, uint64_t trigger,
                  int depth, util::SimTime now, PredictionSink& sink,
                  uint64_t pending_fresh = 0,
                  std::vector<const Fdq*>* deferred = nullptr);

  /// Mean observed remote execution time of template `id` (us), or
  /// kDefaultRuntimeUs if it never executed remotely.
  double MeanExecUs(uint64_t id) const;

  const ParamMapper& mapper() const { return mapper_; }
  const DependencyGraph& dependency_graph() const { return deps_; }
  size_t ApproximateBytes() const {
    return mapper_.ApproximateBytes() + deps_.ApproximateBytes();
  }

  // ---- Snapshot sections kSectionParamMapper / kSectionDependencyGraph.
  // Defined in src/persist/middleware_persist.cc.
  struct State {
    ParamMapper::State mapper;
    DependencyGraph::State deps;
  };
  /// Plain copy, cheap enough to take under the runtime's locks.
  State ExportState() const {
    return {mapper_.ExportState(), deps_.ExportState()};
  }
  /// Encodes `state` as the planner's two sections.
  static void WriteSections(const State& state, persist::SnapshotWriter* w);
  /// Decodes and applies one section; kNotFound for other section types.
  util::Status RestoreSection(uint32_t type, const std::string& payload,
                              persist::RestoreStats* stats);

 private:
  /// Algorithm 3: templates related to `qt` whose parameters are now
  /// fully mapped, registered as FDQs.
  std::vector<const Fdq*> FindNewFdqs(const ClientSession& session,
                                      uint64_t qt);
  /// Algorithm 4: marks `qt` satisfied in every dependent FDQ's
  /// per-session set; returns the FDQs that became ready.
  std::vector<const Fdq*> MarkReadyDependency(ClientSession& session,
                                              uint64_t qt);
  /// True if every dependency of `f` has a fresh result in the session.
  bool DepsFresh(const ClientSession& session, const Fdq& f,
                 util::SimTime now, uint64_t pending_fresh) const;
  /// Section 3.4.1: false if an invalidating write is likely before the
  /// prediction could be consumed.
  bool FreshnessAllows(const ClientSession& session, const Fdq& f,
                       uint64_t trigger, util::SimTime now,
                       uint64_t pending_fresh) const;
  /// Expected time (us) to execute `f` including unexecuted dependencies.
  double EstimateRuntimeUs(const ClientSession& session, const Fdq& f,
                           util::SimTime now, uint64_t pending_fresh,
                           std::unordered_set<uint64_t>& visiting) const;
  /// Tables read by `f` and its dependency closure.
  void CollectReadTables(const Fdq& f,
                         std::unordered_set<std::string>* tables) const;
  /// Recent result of `id` still within recent_result_ttl, or null.
  const common::ResultSet* FreshResult(const ClientSession& session,
                                       uint64_t id, util::SimTime now) const;
  void Trace(obs::TraceEventType type, const ClientSession& session,
             uint64_t template_id,
             obs::SkipReason reason = obs::SkipReason::kNone,
             uint64_t aux = 0) const;
  static void Inc(obs::Counter* c) {
    if (c != nullptr) c->Inc();
  }

  const ApolloConfig& config_;
  const TemplateRegistry* templates_;
  PlannerInstruments inst_;
  ParamMapper mapper_;
  DependencyGraph deps_;
};

}  // namespace apollo::core
