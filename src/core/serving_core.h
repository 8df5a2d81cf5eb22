// ServingCore: Apollo's serving rule, written once for every runtime
// (DESIGN.md Section 19): version-vector session consistency over the
// shared cache (paper 3.2) and publish-subscribe single flight (3.3). It
// owns admission timing, template discovery, the compatible lookup,
// subscriber validation, and landing reads, writes and predictions, with
// their counters and lifecycle trace events. It never waits and never
// reads a clock: core::CachingMiddleware (event loop) and
// rt::ConcurrentApollo (threads) keep their transport and pass in the
// round-trip times they measured.
//
// Locking: ClientSession::mu is held only around a vector read or write,
// never while calling out, so the core adds no lock-order edge; the cache
// and registries lock internally.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/kv_cache.h"
#include "cache/version_vector.h"
#include "core/config.h"
#include "core/inflight_registry.h"
#include "core/middleware.h"
#include "core/query_stream.h"
#include "core/template_registry.h"
#include "obs/observability.h"
#include "sql/template_cache.h"

namespace apollo::core {

/// Real (wall) microseconds since `t0`, for the `*_wall_us` instruments.
double WallMicrosSince(std::chrono::steady_clock::time_point t0);

/// Per-client session state (paper Section 3.2). The learning members are
/// populated only by the PredictionPlanner. `pruned_edges` counts the
/// transition edges the stream's caps prune (null: not counted).
struct ClientSession {
  ClientSession(ClientId id_, const ApolloConfig& config,
                obs::Counter* pruned_edges = nullptr)
      : id(id_),
        stream(config.delta_ts, config.max_stream_entries,
               config.max_transition_edges) {
    stream.SetPruneCounter(pruned_edges);
  }

  /// Copies of the vectors below, taken under `mu`.
  cache::VersionVector Vv() {
    std::lock_guard<std::mutex> lock(mu);
    return vv;
  }
  cache::VersionVector WrittenVv() {
    std::lock_guard<std::mutex> lock(mu);
    return written_vv;
  }

  ClientId id;
  /// Guards the vectors (rt also holds it around the learning state).
  std::mutex mu;
  cache::VersionVector vv;
  /// Versions this session has itself written: rt's brownout serve-stale
  /// relaxes monotonic reads, never read-your-writes.
  cache::VersionVector written_vv;

  QueryStream stream;
  struct RecentExecution {
    common::ResultSetPtr result;
    util::SimTime time = 0;
  };
  /// Latest result set per read-only template (pipeline inputs, Section
  /// 2.3-2.4).
  std::unordered_map<uint64_t, RecentExecution> recent;
  /// Last client execution time per template. Mapping observations are
  /// scoped to source executions newer than the destination's previous
  /// execution, so a query is never attributed to a stale source from an
  /// earlier transaction that happens to sit inside delta-t.
  std::unordered_map<uint64_t, util::SimTime> last_seen;
  /// Per-FDQ satisfied-dependency sets (Algorithm 4 state).
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> satisfied;
};

/// One decided prediction (template_id 0: Fido's raw instances).
struct PredictionItem {
  uint64_t template_id = 0;
  std::string sql;
  int depth = 0;             // pipeline depth
  double probability = 1.0;  // transition probability (eviction input)
};

/// A prediction that passed arming; its caller leads the key's flight.
struct ArmedPrediction {
  uint64_t template_id = 0;
  int depth = 0;
  double probability = 1.0;
  sql::AdmittedQuery adm;
};

/// The runtime's instruments; all required. The skip counters may alias
/// one counter (rt's do).
struct ServingInstruments {
  obs::Counter* reads = nullptr;
  obs::Counter* writes = nullptr;
  obs::Counter* cache_hits = nullptr;
  obs::Counter* cache_misses = nullptr;
  obs::Counter* coalesced_waits = nullptr;
  obs::Counter* subscriber_fallbacks = nullptr;
  obs::Counter* predictions_issued = nullptr;
  obs::Counter* skipped_invalid = nullptr;
  obs::Counter* skipped_cached = nullptr;
  obs::Counter* skipped_inflight = nullptr;
  obs::HistogramMetric* admit_fast_wall_us = nullptr;
  obs::HistogramMetric* admit_full_wall_us = nullptr;
  obs::TraceLog* trace = nullptr;
};

class ServingCore {
 public:
  /// Pipelining hook: a prediction's result landed or was published to it.
  using PredictionLanded = std::function<void(
      ClientSession&, uint64_t template_id, common::ResultSetPtr, int depth)>;

  /// What a subscriber does with a leader's published outcome.
  enum class Publication {
    kServe,     // fresh for the session: serve it (vector advanced)
    kFallBack,  // stale stamp or retryable failure: re-issue privately
    kFail,      // non-retryable failure: deliver the leader's error
  };

  /// `config` and `cache` belong to the runtime and must outlive the core.
  ServingCore(const ApolloConfig& config, cache::KvCache* cache,
              PredictionLanded on_prediction_landed);

  /// Wires the runtime's instruments; call before the first query.
  void AttachInstruments(const ServingInstruments& i) { inst_ = i; }

  /// Admits one query (lex fast path, full parse fallback) and records its
  /// wall cost in the admit_fast/admit_full histograms.
  util::Result<sql::AdmittedQuery> Admit(const std::string& sql);

  /// Counts a client read or write and observes its template; the first
  /// observation ever traces template_discovered.
  TemplateMeta* Observe(const ClientSession& session,
                        const sql::AdmittedQuery& adm);

  /// Compatible lookup against the session's vector; a hit goes through
  /// ServeHit, a miss counts nothing yet.
  std::optional<cache::CacheEntry> Lookup(ClientSession& session,
                                          const sql::AdmittedQuery& adm);

  /// Counts a hit and merges the entry's stamp into the session's vector
  /// (only ever advances it, so rt's serve-stale entries are safe too).
  void ServeHit(ClientSession& session, const sql::AdmittedQuery& adm,
                const cache::CacheEntry& entry);

  /// Counts a miss and, with pub/sub on, joins the read's single flight.
  /// True: the caller leads and lands with `publish`. False: the waiter
  /// `make_waiter()` returns gets the leader's outcome for ReceivePublished.
  template <typename MakeWaiter>
  bool JoinFlight(const sql::AdmittedQuery& adm, MakeWaiter&& make_waiter) {
    inst_.cache_misses->Inc();
    return !config_.enable_pubsub_dedup ||
           inflight_.BeginOrSubscribe(adm.canonical_text, make_waiter());
  }

  /// A subscriber's side of a published outcome: serve the result only if
  /// its stamp dominates the session's vector on every table read (the
  /// leader may have run before this session's own write), advancing the
  /// vector. A stale stamp or a retryable failure is a subscriber fallback.
  Publication ReceivePublished(
      ClientSession& session, const sql::AdmittedQuery& adm,
      const util::Result<common::ResultSetPtr>& result,
      const cache::VersionVector& stamp);

  /// Lands a client read's round trip: cache fill (the trip is the miss
  /// cost a hit saves), vector advance, publish when `publish`, execution
  /// time. `put_time_us` is the runtime's clock (0 = unknown).
  util::Result<common::ResultSetPtr> LandRead(
      ClientSession& session, const sql::AdmittedQuery& adm,
      const util::Result<common::ResultSetPtr>& result,
      const std::unordered_map<std::string, uint64_t>& versions,
      util::SimDuration remote_time, int64_t put_time_us, bool publish);

  /// Lands a client write: the session has observed the post-write
  /// versions (paper 3.2), so its vector and own-writes floor advance.
  util::Result<common::ResultSetPtr> LandWrite(
      ClientSession& session, TemplateMeta* meta,
      const util::Result<common::ResultSetPtr>& result,
      const std::unordered_map<std::string, uint64_t>& versions,
      util::SimDuration remote_time);

  /// Arms one prediction. Skips, each counted and traced with the depth as
  /// aux: invalid SQL, usable from the cache under `vv_check`, in flight
  /// (it then pipelines from the published result). A pass is counted and
  /// traced as issued, once, here.
  bool Arm(ClientSession& session, const PredictionItem& item,
           const cache::VersionVector& vv_check, ArmedPrediction* out);

  /// Lands an armed prediction: predicted cache fill, prediction_cached,
  /// execution time, publish, pipelining hook. A failure only publishes.
  void LandPrediction(ClientSession& session, const ArmedPrediction& armed,
                      const util::Result<common::ResultSetPtr>& result,
                      const std::unordered_map<std::string, uint64_t>& versions,
                      util::SimDuration remote_time, int64_t put_time_us);

  TemplateRegistry& templates() { return templates_; }
  const TemplateRegistry& templates() const { return templates_; }
  const sql::TemplateCache& template_cache() const { return tcache_; }
  const InflightRegistry& inflight() const { return inflight_; }

 private:
  void Trace(obs::TraceEventType type, const ClientSession& session,
             uint64_t template_id,
             obs::SkipReason reason = obs::SkipReason::kNone,
             uint64_t aux = 0) const;

  const ApolloConfig& config_;
  cache::KvCache* cache_;
  PredictionLanded on_prediction_landed_;
  ServingInstruments inst_;
  TemplateRegistry templates_;
  sql::TemplateCache tcache_;  // admission fast path (DESIGN.md Section 10)
  InflightRegistry inflight_;
};

}  // namespace apollo::core
