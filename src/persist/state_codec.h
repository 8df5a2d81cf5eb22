// Codecs between the core learning structures' canonical State forms and
// snapshot section payloads (DESIGN.md §11).
//
// Encoders consume the already-canonical (sorted) State structs, so equal
// learning state always produces identical payload bytes — the snapshot →
// restore → snapshot byte-identity property the round-trip tests assert.
// Decoders run on untrusted bytes: every read is bounds-checked through
// persist::ByteReader, element counts are validated against the payload
// size before any allocation, and trailing garbage is rejected.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dependency_graph.h"
#include "core/middleware.h"
#include "core/param_mapper.h"
#include "core/template_registry.h"
#include "core/transition_graph.h"
#include "util/result.h"

namespace apollo::core {
struct ApolloConfig;
struct ClientSession;
}  // namespace apollo::core

namespace apollo::persist {

std::string EncodeTemplates(const core::TemplateRegistry::State& st);
util::Result<core::TemplateRegistry::State> DecodeTemplates(
    std::string_view payload);

std::string EncodeParamMapper(const core::ParamMapper::State& st);
util::Result<core::ParamMapper::State> DecodeParamMapper(
    std::string_view payload);

std::string EncodeDependencyGraph(const core::DependencyGraph::State& st);
util::Result<core::DependencyGraph::State> DecodeDependencyGraph(
    std::string_view payload);

/// Per-session persisted learning state: the per-delta-t transition
/// graphs plus the Algorithm-4 satisfied-dependency sets. Stream entries,
/// cursors, recent results/params, last-seen times and the version vector
/// are transient (or deliberately untrusted) and never travel.
struct SessionState {
  core::ClientId id = 0;
  std::vector<core::TransitionGraph::State> graphs;  // ascending delta-t
  /// (fdq id, sorted satisfied dependency ids), sorted by fdq id.
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> satisfied;
};

struct SessionsState {
  std::vector<SessionState> sessions;  // sorted by client id
};

std::string EncodeSessions(const SessionsState& st);
util::Result<SessionsState> DecodeSessions(std::string_view payload);

// ---- Sessions-section glue shared by both runtimes (defined in
// src/persist/middleware_persist.cc) ----

struct RestoreStats;

/// Folds every transition window already closed by `now` into the
/// session's graphs (the scanner is lazy), then copies the graphs and the
/// satisfied sets, sorted. Only still-open windows stay out.
SessionState ExportSession(core::ClientSession& session, util::SimTime now);

/// Merges one snapshot entry: graphs are replaced, satisfied sets unioned.
util::Status ImportSession(const SessionState& state,
                           core::ClientSession* session);

/// Decodes a sessions section and applies it to every session or to none:
/// each entry's delta-t ladder must match the one `config` builds.
/// `import` merges one entry into the runtime's session (creating it)
/// under the runtime's own locking.
util::Status RestoreSessions(
    std::string_view payload, const core::ApolloConfig& config,
    RestoreStats* stats,
    const std::function<util::Status(const SessionState&)>& import);

}  // namespace apollo::persist
