#include "core/serving_core.h"

#include <utility>

namespace apollo::core {

namespace {
cache::VersionVector StampOf(
    const std::unordered_map<std::string, uint64_t>& versions) {
  cache::VersionVector stamp;
  for (const auto& [t, v] : versions) stamp.Set(t, v);
  return stamp;
}
}  // namespace

double WallMicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         1000.0;
}

ServingCore::ServingCore(const ApolloConfig& config, cache::KvCache* cache,
                         PredictionLanded on_prediction_landed)
    : config_(config),
      cache_(cache),
      on_prediction_landed_(std::move(on_prediction_landed)) {}

util::Result<sql::AdmittedQuery> ServingCore::Admit(const std::string& sql) {
  const auto t0 = std::chrono::steady_clock::now();
  auto adm = tcache_.Admit(sql);
  (adm.ok() && adm->via_fast_path ? inst_.admit_fast_wall_us
                                  : inst_.admit_full_wall_us)
      ->Record(WallMicrosSince(t0));
  return adm;
}

TemplateMeta* ServingCore::Observe(const ClientSession& session,
                                   const sql::AdmittedQuery& adm) {
  (adm.read_only() ? inst_.reads : inst_.writes)->Inc();
  TemplateMeta* meta = templates_.Intern(adm);
  // The pre-increment count decides: of racing first sightings exactly one
  // sees 0.
  if (templates_.BumpObservations(meta) == 0) {
    Trace(obs::TraceEventType::kTemplateDiscovered, session,
          adm.fingerprint());
  }
  return meta;
}

std::optional<cache::CacheEntry> ServingCore::Lookup(
    ClientSession& session, const sql::AdmittedQuery& adm) {
  const cache::VersionVector vv = session.Vv();
  auto entry = cache_->GetCompatible(adm.canonical_text, vv, adm.tables_read());
  if (entry.has_value()) ServeHit(session, adm, *entry);
  return entry;
}

void ServingCore::ServeHit(ClientSession& session,
                           const sql::AdmittedQuery& adm,
                           const cache::CacheEntry& entry) {
  inst_.cache_hits->Inc();
  std::lock_guard<std::mutex> lock(session.mu);
  session.vv.MergeMax(entry.stamp, adm.tables_read());
}

ServingCore::Publication ServingCore::ReceivePublished(
    ClientSession& session, const sql::AdmittedQuery& adm,
    const util::Result<common::ResultSetPtr>& result,
    const cache::VersionVector& stamp) {
  inst_.coalesced_waits->Inc();
  if (!result.ok()) {
    // The leader died on a transport fault — often a predictive execution,
    // which carries no retry budget. Client reads keep theirs.
    if (!result.status().IsRetryable()) return Publication::kFail;
    inst_.subscriber_fallbacks->Inc();
    return Publication::kFallBack;
  }
  {
    std::lock_guard<std::mutex> lock(session.mu);
    if (stamp.DominatesFor(session.vv, adm.tables_read())) {
      session.vv.MergeMax(stamp, adm.tables_read());
      return Publication::kServe;
    }
  }
  // Serving it would leak a row older than what the session has already
  // observed (read-your-writes breaks).
  inst_.subscriber_fallbacks->Inc();
  return Publication::kFallBack;
}

util::Result<common::ResultSetPtr> ServingCore::LandRead(
    ClientSession& session, const sql::AdmittedQuery& adm,
    const util::Result<common::ResultSetPtr>& result,
    const std::unordered_map<std::string, uint64_t>& versions,
    util::SimDuration remote_time, int64_t put_time_us, bool publish) {
  const std::string& key = adm.canonical_text;
  if (!result.ok()) {
    if (publish) inflight_.Complete(key, result, {});
    return result.status();
  }
  const cache::VersionVector stamp = StampOf(versions);
  cache::KvCache::PutAttrs attrs;
  attrs.template_id = adm.fingerprint();
  attrs.put_time_us = put_time_us;
  attrs.miss_cost_us = static_cast<double>(remote_time);
  cache_->Put(key, *result, stamp, attrs);
  {
    std::lock_guard<std::mutex> lock(session.mu);
    session.vv.MergeMax(stamp, adm.tables_read());
  }
  if (publish) inflight_.Complete(key, result, stamp);
  if (TemplateMeta* meta = templates_.Get(adm.fingerprint())) {
    meta->RecordExecution(remote_time);
  }
  return result;
}

util::Result<common::ResultSetPtr> ServingCore::LandWrite(
    ClientSession& session, TemplateMeta* meta,
    const util::Result<common::ResultSetPtr>& result,
    const std::unordered_map<std::string, uint64_t>& versions,
    util::SimDuration remote_time) {
  if (!result.ok()) return result.status();
  {
    std::lock_guard<std::mutex> lock(session.mu);
    for (const auto& [t, v] : versions) {
      session.vv.AdvanceTo(t, v);
      session.written_vv.AdvanceTo(t, v);
    }
  }
  if (meta != nullptr) meta->RecordExecution(remote_time);
  return result;
}

bool ServingCore::Arm(ClientSession& session, const PredictionItem& item,
                      const cache::VersionVector& vv_check,
                      ArmedPrediction* out) {
  auto skip = [&](obs::Counter* counter, obs::SkipReason reason) {
    counter->Inc();
    Trace(obs::TraceEventType::kPredictionSkipped, session, item.template_id,
          reason, static_cast<uint64_t>(item.depth));
    return false;
  };
  auto adm = Admit(item.sql);
  if (!adm.ok() || !adm->read_only()) {
    return skip(inst_.skipped_invalid, obs::SkipReason::kInvalidSql);
  }
  const std::string& key = adm->canonical_text;
  // Never predictively execute what is already usable from the cache
  // (paper Section 4.3).
  if (cache_->ContainsCompatible(key, vv_check, adm->tables_read())) {
    return skip(inst_.skipped_cached, obs::SkipReason::kCached);
  }
  if (config_.enable_pubsub_dedup) {
    const bool leader = inflight_.BeginOrSubscribe(
        key, [this, &session, template_id = item.template_id,
              depth = item.depth](
                 const util::Result<common::ResultSetPtr>& result,
                 const cache::VersionVector& /*stamp*/) {
          if (result.ok()) {
            on_prediction_landed_(session, template_id, result.value(),
                                  depth);
          }
        });
    if (!leader) {
      return skip(inst_.skipped_inflight, obs::SkipReason::kInflight);
    }
  }
  inst_.predictions_issued->Inc();
  Trace(obs::TraceEventType::kPredictionIssued, session, item.template_id,
        obs::SkipReason::kNone, static_cast<uint64_t>(item.depth));
  out->template_id = item.template_id;
  out->depth = item.depth;
  out->probability = item.probability;
  out->adm = std::move(*adm);
  return true;
}

void ServingCore::LandPrediction(
    ClientSession& session, const ArmedPrediction& armed,
    const util::Result<common::ResultSetPtr>& result,
    const std::unordered_map<std::string, uint64_t>& versions,
    util::SimDuration remote_time, int64_t put_time_us) {
  const std::string& key = armed.adm.canonical_text;
  if (!result.ok()) {
    inflight_.Complete(key, result, {});
    return;
  }
  const cache::VersionVector stamp = StampOf(versions);
  cache::KvCache::PutAttrs attrs;
  attrs.predicted = true;
  attrs.template_id = armed.template_id;
  attrs.put_time_us = put_time_us;
  attrs.miss_cost_us = static_cast<double>(remote_time);
  attrs.probability = armed.probability;
  cache_->Put(key, *result, stamp, attrs);
  Trace(obs::TraceEventType::kPredictionCached, session, armed.template_id,
        obs::SkipReason::kNone, static_cast<uint64_t>(armed.depth));
  if (TemplateMeta* meta = templates_.Get(armed.template_id)) {
    meta->RecordExecution(remote_time);
  }
  inflight_.Complete(key, result, stamp);
  on_prediction_landed_(session, armed.template_id, *result, armed.depth);
}

void ServingCore::Trace(obs::TraceEventType type,
                        const ClientSession& session, uint64_t template_id,
                        obs::SkipReason reason, uint64_t aux) const {
  if (inst_.trace != nullptr && inst_.trace->enabled()) {
    inst_.trace->Record(type, session.id, template_id, reason, aux);
  }
}

}  // namespace apollo::core
