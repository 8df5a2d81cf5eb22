// Checkpoint/Restore for the event-loop middleware (DESIGN.md §11), plus
// the pieces both runtimes share: the sessions-section glue and
// core::PredictionPlanner's param-mapper and dependency-graph sections.
//
// The core members defined here live in this file so the core sources
// never include the persist codecs: they only declare these entry points.
#include <algorithm>

#include "core/apollo_middleware.h"
#include "core/caching_middleware.h"
#include "core/prediction_planner.h"
#include "persist/snapshot.h"
#include "persist/state_codec.h"

namespace apollo::persist {

namespace {

/// The delta-t ladder QueryStream builds from a config (sorted, with the
/// same 15 s fallback); restores validate snapshots against it up front so
/// a sessions section either applies to every session or to none.
std::vector<util::SimDuration> ConfigLadder(
    const core::ApolloConfig& config) {
  std::vector<util::SimDuration> ladder = config.delta_ts;
  std::sort(ladder.begin(), ladder.end());
  if (ladder.empty()) ladder.push_back(util::Seconds(15));
  return ladder;
}

bool LadderMatches(const std::vector<core::TransitionGraph::State>& graphs,
                   const std::vector<util::SimDuration>& ladder) {
  if (graphs.size() != ladder.size()) return false;
  for (size_t i = 0; i < graphs.size(); ++i) {
    if (graphs[i].delta_t != ladder[i]) return false;
  }
  return true;
}

}  // namespace

SessionState ExportSession(core::ClientSession& session, util::SimTime now) {
  session.stream.Process(now);
  SessionState s;
  s.id = session.id;
  s.graphs = session.stream.ExportGraphState();
  s.satisfied.reserve(session.satisfied.size());
  for (const auto& [fdq, deps] : session.satisfied) {
    std::vector<uint64_t> sorted_deps(deps.begin(), deps.end());
    std::sort(sorted_deps.begin(), sorted_deps.end());
    s.satisfied.emplace_back(fdq, std::move(sorted_deps));
  }
  std::sort(s.satisfied.begin(), s.satisfied.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return s;
}

util::Status ImportSession(const SessionState& state,
                           core::ClientSession* session) {
  APOLLO_RETURN_NOT_OK(session->stream.ImportGraphState(state.graphs));
  for (const auto& [fdq, deps] : state.satisfied) {
    session->satisfied[fdq].insert(deps.begin(), deps.end());
  }
  return util::Status::OK();
}

util::Status RestoreSessions(
    std::string_view payload, const core::ApolloConfig& config,
    RestoreStats* stats,
    const std::function<util::Status(const SessionState&)>& import) {
  SessionsState st;
  APOLLO_ASSIGN_OR_RETURN(st, DecodeSessions(payload));
  const auto ladder = ConfigLadder(config);
  for (const auto& s : st.sessions) {
    if (!LadderMatches(s.graphs, ladder)) {
      return util::Status::InvalidArgument(
          "sessions section delta-t ladder differs from config");
    }
  }
  for (const auto& s : st.sessions) APOLLO_RETURN_NOT_OK(import(s));
  stats->sessions += st.sessions.size();
  return util::Status::OK();
}

}  // namespace apollo::persist

namespace apollo::core {

void CachingMiddleware::CollectPersistSections(persist::SnapshotWriter* w) {
  w->AddSection(persist::kSectionTemplates,
                persist::EncodeTemplates(templates().ExportState()));

  persist::SessionsState sessions;
  sessions.sessions.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    sessions.sessions.push_back(persist::ExportSession(*session, loop_->now()));
  }
  std::sort(sessions.sessions.begin(), sessions.sessions.end(),
            [](const persist::SessionState& a, const persist::SessionState& b) {
              return a.id < b.id;
            });
  w->AddSection(persist::kSectionSessions,
                persist::EncodeSessions(sessions));
}

util::Status CachingMiddleware::Checkpoint(const std::string& path) {
  persist::SnapshotWriter w;
  CollectPersistSections(&w);
  const std::string bytes =
      w.Serialize(static_cast<uint64_t>(loop_->now()));
  util::Status s = persist::WriteFileAtomic(path, bytes);
  if (s.ok() && obs_->trace.enabled()) {
    obs_->trace.Record(obs::TraceEventType::kSnapshotSaved, -1, 0,
                       obs::SkipReason::kNone, bytes.size());
  }
  return s;
}

util::Status CachingMiddleware::RestoreSection(
    uint32_t type, const std::string& payload,
    persist::RestoreStats* stats) {
  switch (type) {
    case persist::kSectionTemplates: {
      core::TemplateRegistry::State st;
      APOLLO_ASSIGN_OR_RETURN(st, persist::DecodeTemplates(payload));
      stats->templates += st.templates.size();
      templates().ImportState(st);
      return util::Status::OK();
    }
    case persist::kSectionSessions:
      return persist::RestoreSessions(
          payload, config_, stats, [this](const persist::SessionState& s) {
            return persist::ImportSession(s, &SessionFor(s.id));
          });
    default:
      return util::Status::NotFound("unknown section type " +
                                    std::to_string(type));
  }
}

util::Status CachingMiddleware::Restore(const std::string& path,
                                        persist::RestoreStats* stats) {
  persist::Snapshot snap;
  APOLLO_ASSIGN_OR_RETURN(snap, persist::ReadSnapshotFile(path));
  persist::ApplySections(
      snap, stats, &obs_->trace,
      [this](uint32_t type, const std::string& payload,
             persist::RestoreStats* st) {
        return RestoreSection(type, payload, st);
      });
  return util::Status::OK();
}

void PredictionPlanner::WriteSections(const State& state,
                                      persist::SnapshotWriter* w) {
  w->AddSection(persist::kSectionParamMapper,
                persist::EncodeParamMapper(state.mapper));
  w->AddSection(persist::kSectionDependencyGraph,
                persist::EncodeDependencyGraph(state.deps));
}

util::Status PredictionPlanner::RestoreSection(uint32_t type,
                                               const std::string& payload,
                                               persist::RestoreStats* stats) {
  switch (type) {
    case persist::kSectionParamMapper: {
      core::ParamMapper::State st;
      APOLLO_ASSIGN_OR_RETURN(st, persist::DecodeParamMapper(payload));
      stats->pairs += st.pairs.size();
      mapper_.ImportState(st);
      return util::Status::OK();
    }
    case persist::kSectionDependencyGraph: {
      core::DependencyGraph::State st;
      APOLLO_ASSIGN_OR_RETURN(st, persist::DecodeDependencyGraph(payload));
      stats->fdqs += st.fdqs.size();
      deps_.ImportState(st);
      return util::Status::OK();
    }
    default:
      return util::Status::NotFound("unknown section type " +
                                    std::to_string(type));
  }
}

void ApolloMiddleware::CollectPersistSections(persist::SnapshotWriter* w) {
  CachingMiddleware::CollectPersistSections(w);
  PredictionPlanner::WriteSections(planner_.ExportState(), w);
}

util::Status ApolloMiddleware::RestoreSection(uint32_t type,
                                              const std::string& payload,
                                              persist::RestoreStats* stats) {
  util::Status s = planner_.RestoreSection(type, payload, stats);
  if (s.code() != util::StatusCode::kNotFound) return s;
  return CachingMiddleware::RestoreSection(type, payload, stats);
}

}  // namespace apollo::core
