#include "core/prediction_planner.h"

#include <algorithm>
#include <chrono>

namespace apollo::core {

PredictionPlanner::PredictionPlanner(const ApolloConfig& config,
                                     const TemplateRegistry* templates)
    : config_(config),
      templates_(templates),
      mapper_(config.verification_period, ParamMapper::kDefaultStripes,
              config.max_param_pairs) {}

void PredictionPlanner::AttachInstruments(
    const PlannerInstruments& instruments) {
  inst_ = instruments;
  if (inst_.learning_pruned_pairs != nullptr) {
    mapper_.SetPruneCounter(inst_.learning_pruned_pairs);
  }
}

void PredictionPlanner::Trace(obs::TraceEventType type,
                              const ClientSession& session,
                              uint64_t template_id, obs::SkipReason reason,
                              uint64_t aux) const {
  if (inst_.trace != nullptr && inst_.trace->enabled()) {
    inst_.trace->Record(type, session.id, template_id, reason, aux);
  }
}

uint64_t PredictionPlanner::Learn(ClientSession& session,
                                  uint64_t template_id,
                                  const std::vector<common::Value>& params,
                                  const common::ResultSetPtr& result,
                                  bool read_only, util::SimTime now) {
  // --- Stream + transition graphs (Algorithm 1) ---
  session.stream.Append(template_id, now);
  session.stream.Process(now);

  if (read_only && result != nullptr) {
    session.recent[template_id] = {result, now};
  }

  // --- Parameter-mapping observations (Section 2.3) ---
  // Sources older than this query's own previous execution belong to an
  // earlier transaction; attributing the current parameters to them would
  // produce spurious disproofs (e.g. TPC-C's by-id vs by-name customer
  // lookup variants).
  util::SimTime prev_dst_time = -1;
  {
    auto lit = session.last_seen.find(template_id);
    if (lit != session.last_seen.end()) prev_dst_time = lit->second;
    session.last_seen[template_id] = now;
  }
  if (!read_only || params.empty()) return 0;
  uint64_t removed = 0;
  const util::SimDuration primary_dt = session.stream.primary().delta_t();
  auto entries = session.stream.EntriesWithin(now, primary_dt);
  if (!entries.empty()) entries.pop_back();  // drop the current query
  std::unordered_set<uint64_t> seen;
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (it->qt == template_id) continue;
    if (it->time <= prev_dst_time) break;  // earlier transaction
    if (!seen.insert(it->qt).second) continue;
    auto rit = session.recent.find(it->qt);
    if (rit == session.recent.end()) continue;
    if (rit->second.result == nullptr) continue;
    if (rit->second.time + primary_dt < now) continue;
    if (!mapper_.ObservePair(it->qt, *rit->second.result, template_id,
                             params)) {
      continue;
    }
    Trace(obs::TraceEventType::kMappingDisproven, session, template_id,
          obs::SkipReason::kNone, /*aux=*/it->qt);
    if (!deps_.Contains(template_id)) continue;
    // Drop the FDQ; it may be re-discovered from surviving mappings (the
    // disproven pair itself stays invalid in the mapper). Satisfied sets
    // are keyed by FDQ id, and a re-discovery with different dependencies
    // must not inherit the removed node's counts.
    std::vector<uint64_t> adq_revoked;
    deps_.Remove(template_id, &adq_revoked);
    session.satisfied.erase(template_id);
    removed = template_id;
    Inc(inst_.fdqs_invalidated);
    Trace(obs::TraceEventType::kFdqInvalidated, session, template_id,
          obs::SkipReason::kNone, /*aux=*/it->qt);
    for (uint64_t revoked : adq_revoked) {
      Trace(obs::TraceEventType::kAdqRevoked, session, revoked);
    }
  }
  return removed;
}

void PredictionPlanner::Predict(ClientSession& session, uint64_t qt,
                                util::SimTime now, PredictionSink& sink,
                                uint64_t pending_fresh,
                                std::vector<const Fdq*>* deferred) {
  std::vector<const Fdq*> new_fdqs = FindNewFdqs(session, qt);
  std::vector<const Fdq*> ready = MarkReadyDependency(session, qt);
  for (const Fdq* f : new_fdqs) {
    // A freshly discovered FDQ is runnable right away if its dependencies
    // all have recent results in this session.
    if (DepsFresh(session, *f, now, pending_fresh) &&
        std::find(ready.begin(), ready.end(), f) == ready.end()) {
      ready.push_back(f);
    }
  }
  for (const Fdq* f : ready) {
    TryPredict(session, *f, qt, /*depth=*/0, now, sink, pending_fresh,
               deferred);
  }
}

void PredictionPlanner::OnPredictionCompleted(ClientSession& session,
                                              uint64_t template_id,
                                              common::ResultSetPtr result,
                                              int depth, util::SimTime now,
                                              PredictionSink& sink) {
  session.recent[template_id] = {std::move(result), now};
  if (!config_.enable_pipelining) return;
  if (depth + 1 > config_.max_pipeline_depth) return;
  // A predicted result satisfies dependencies of further FDQs, which now
  // execute with its output as input.
  for (const Fdq* f : MarkReadyDependency(session, template_id)) {
    TryPredict(session, *f, template_id, depth + 1, now, sink);
  }
}

std::vector<const Fdq*> PredictionPlanner::FindNewFdqs(
    const ClientSession& session, uint64_t qt) {
  const bool timed = inst_.find_fdq_calls != nullptr;
  std::chrono::steady_clock::time_point t0;
  if (timed) t0 = std::chrono::steady_clock::now();
  std::vector<const Fdq*> out;

  auto related = session.stream.primary().Successors(qt, config_.tau);
  std::vector<uint64_t> candidates;
  candidates.reserve(related.size() + 1);
  for (const auto& [id, _] : related) candidates.push_back(id);
  candidates.push_back(qt);

  for (uint64_t id : candidates) {
    if (deps_.Contains(id)) continue;  // already_seen_deps
    const TemplateMeta* meta = templates_->Get(id);
    if (meta == nullptr || !meta->read_only) continue;
    auto sources = mapper_.GetSources(id, meta->num_placeholders);
    if (!sources.complete) continue;

    std::chrono::steady_clock::time_point c0;
    if (timed) c0 = std::chrono::steady_clock::now();
    std::vector<SourceRef> chosen;
    chosen.reserve(sources.per_param.size());
    for (const auto& options : sources.per_param) {
      // Prefer a source that is already a known FDQ/ADQ (deepens
      // pipelines); otherwise take the first confirmed mapping.
      const SourceRef* pick = &options.front();
      for (const auto& opt : options) {
        const Fdq* src_fdq = deps_.Get(opt.src);
        if (src_fdq != nullptr && !src_fdq->invalid) {
          pick = &opt;
          break;
        }
      }
      chosen.push_back(*pick);
    }
    std::vector<uint64_t> upgraded;
    const Fdq* f = deps_.Add(id, std::move(chosen), &upgraded);
    Inc(inst_.fdqs_discovered);
    Trace(obs::TraceEventType::kFdqTagged, session, id,
          obs::SkipReason::kNone, /*aux=*/f->deps.size());
    if (f->is_adq) Trace(obs::TraceEventType::kAdqTagged, session, id);
    for (uint64_t up : upgraded) {
      Trace(obs::TraceEventType::kAdqTagged, session, up);
    }
    if (timed) {
      inst_.construct_fdq_wall_us->Add(WallMicrosSince(c0));
      inst_.construct_fdq_calls->Inc();
    }
    out.push_back(f);
  }

  if (timed) {
    inst_.find_fdq_wall_us->Add(WallMicrosSince(t0));
    inst_.find_fdq_calls->Inc();
  }
  return out;
}

std::vector<const Fdq*> PredictionPlanner::MarkReadyDependency(
    ClientSession& session, uint64_t qt) {
  std::vector<const Fdq*> ready;
  for (const Fdq* f : deps_.DependentsOf(qt)) {
    if (f->invalid) continue;
    auto& sat = session.satisfied[f->id];
    sat.insert(qt);
    if (sat.size() >= f->deps.size()) {
      ready.push_back(f);
      sat.clear();  // reset: must be satisfied again next time
    }
  }
  return ready;
}

const common::ResultSet* PredictionPlanner::FreshResult(
    const ClientSession& session, uint64_t id, util::SimTime now) const {
  auto it = session.recent.find(id);
  if (it == session.recent.end() || it->second.result == nullptr ||
      it->second.time + config_.recent_result_ttl < now) {
    return nullptr;
  }
  return it->second.result.get();
}

bool PredictionPlanner::DepsFresh(const ClientSession& session, const Fdq& f,
                                  util::SimTime now,
                                  uint64_t pending_fresh) const {
  for (uint64_t dep : f.deps) {
    if (dep == pending_fresh) continue;  // result lands on this round trip
    if (FreshResult(session, dep, now) == nullptr) return false;
  }
  return true;
}

void PredictionPlanner::TryPredict(ClientSession& session, const Fdq& f,
                                   uint64_t trigger, int depth,
                                   util::SimTime now, PredictionSink& sink,
                                   uint64_t pending_fresh,
                                   std::vector<const Fdq*>* deferred) {
  if (f.invalid) return;
  if (pending_fresh != 0 &&
      (f.id == pending_fresh ||
       std::any_of(f.sources.begin(), f.sources.end(),
                   [&](const SourceRef& s) {
                     return s.src == pending_fresh;
                   }))) {
    // The decision needs the trigger's own (pending) result — its rows as
    // a source, or its cache entry when `f` is the trigger itself. Park
    // the FDQ; the caller re-runs it once the result has landed.
    deferred->push_back(&f);
    return;
  }
  const TemplateMeta* meta = templates_->Get(f.id);
  if (meta == nullptr) return;

  if (config_.enable_freshness_check &&
      !FreshnessAllows(session, f, trigger, now, pending_fresh)) {
    Inc(inst_.skipped_fresh);
    Trace(obs::TraceEventType::kPredictionSkipped, session, f.id,
          obs::SkipReason::kFreshness, /*aux=*/trigger);
    return;
  }
  if (sink.Veto(session, f, trigger)) return;

  // Confidence of this prediction — the observed probability the client
  // issues f within delta-t of the trigger — rides into the cache entry
  // so cost-aware eviction can weigh it (DESIGN.md §13).
  const double probability =
      session.stream.primary().TransitionProbability(trigger, f.id);

  // One prediction per source row (bounded fan-out). Row r of every source
  // feeds fan-out instance r; sources are usually single-row lookups, so
  // the common case is one prediction from row 0.
  std::string sql;  // instantiation buffer reused across fan-out rows
  for (int row = 0; row < config_.max_fanout_rows; ++row) {
    std::vector<common::Value> params(f.sources.size());
    bool instantiable = true;
    for (size_t p = 0; p < f.sources.size(); ++p) {
      const SourceRef& s = f.sources[p];
      const common::ResultSet* rs = FreshResult(session, s.src, now);
      if (rs == nullptr || static_cast<size_t>(row) >= rs->num_rows() ||
          static_cast<size_t>(s.col) >= rs->num_columns()) {
        instantiable = false;  // no source row `row` (or bad column)
        break;
      }
      params[p] = rs->At(static_cast<size_t>(row),
                         static_cast<size_t>(s.col));
    }
    if (!instantiable) {
      // Row 0 failing means no instance could be built at all; rows > 0
      // simply exhaust the fan-out.
      if (row == 0) {
        Inc(inst_.skipped_incomplete);
        Trace(obs::TraceEventType::kPredictionSkipped, session, f.id,
              obs::SkipReason::kIncompleteSources, /*aux=*/trigger);
      }
      break;
    }
    if (!sql::InstantiateTo(meta->template_text, params, &sql).ok()) {
      Inc(inst_.skipped_invalid);
      Trace(obs::TraceEventType::kPredictionSkipped, session, f.id,
            obs::SkipReason::kInvalidSql, /*aux=*/trigger);
      break;
    }
    sink.Issue(f.id, sql, depth, probability);
    if (f.sources.empty()) break;  // parameterless: exactly one instance
  }
}

double PredictionPlanner::MeanExecUs(uint64_t id) const {
  const TemplateMeta* meta = templates_->Get(id);
  const double mean = meta != nullptr ? meta->mean_exec_us.load() : 0.0;
  return mean > 0 ? mean : kDefaultRuntimeUs;
}

double PredictionPlanner::EstimateRuntimeUs(
    const ClientSession& session, const Fdq& f, util::SimTime now,
    uint64_t pending_fresh, std::unordered_set<uint64_t>& visiting) const {
  if (!visiting.insert(f.id).second) return 0.0;  // dependency loop
  double dep_max = 0.0;
  for (uint64_t dep : f.deps) {
    // A dependency with a fresh (or pending) result contributes nothing:
    // its output is already available to forward.
    if (dep == pending_fresh || FreshResult(session, dep, now) != nullptr) {
      continue;
    }
    const Fdq* d = deps_.Get(dep);
    dep_max = std::max(
        dep_max, (d != nullptr && !d->invalid)
                     ? EstimateRuntimeUs(session, *d, now, pending_fresh,
                                         visiting)
                     : MeanExecUs(dep));
  }
  visiting.erase(f.id);
  return MeanExecUs(f.id) + dep_max;
}

void PredictionPlanner::CollectReadTables(
    const Fdq& f, std::unordered_set<std::string>* tables) const {
  std::vector<uint64_t> frontier = {f.id};
  std::unordered_set<uint64_t> visited;
  while (!frontier.empty()) {
    uint64_t id = frontier.back();
    frontier.pop_back();
    if (!visited.insert(id).second) continue;
    const TemplateMeta* meta = templates_->Get(id);
    if (meta != nullptr) {
      for (const auto& t : meta->tables_read) tables->insert(t);
    }
    const Fdq* node = deps_.Get(id);
    if (node != nullptr) {
      for (uint64_t dep : node->deps) frontier.push_back(dep);
    }
  }
}

bool PredictionPlanner::FreshnessAllows(const ClientSession& session,
                                        const Fdq& f, uint64_t trigger,
                                        util::SimTime now,
                                        uint64_t pending_fresh) const {
  std::unordered_set<uint64_t> visiting;
  double est_us = EstimateRuntimeUs(session, f, now, pending_fresh, visiting);
  const TransitionGraph& graph = session.stream.GraphCovering(
      static_cast<util::SimDuration>(est_us));

  std::unordered_set<std::string> read_tables;
  CollectReadTables(f, &read_tables);

  double invalidation_mass = graph.SuccessorProbabilityMass(
      trigger, [&](uint64_t succ) {
        const TemplateMeta* meta = templates_->Get(succ);
        if (meta == nullptr || meta->read_only) return false;
        for (const auto& t : meta->tables_written) {
          if (read_tables.count(t) > 0) return true;
        }
        return false;
      });
  // < tau, matching Successors' >= tau: invalidation mass at exactly tau
  // is significant and vetoes the prediction.
  return invalidation_mass < config_.tau;
}

void PredictionPlanner::ReloadAdqs(
    ClientSession& session, uint64_t write_template,
    const std::vector<std::string>& tables_written, util::SimTime now,
    PredictionSink& sink) {
  const uint64_t total =
      std::max<uint64_t>(1, templates_->total_observations());

  for (const Fdq* f : deps_.Adqs()) {
    const TemplateMeta* meta = templates_->Get(f->id);
    if (meta == nullptr) continue;

    // Only hierarchies whose data was just written need reloading.
    std::unordered_set<std::string> read_tables;
    CollectReadTables(*f, &read_tables);
    if (std::none_of(tables_written.begin(), tables_written.end(),
                     [&](const std::string& t) {
                       return read_tables.count(t) > 0;
                     })) {
      continue;
    }

    // cost(Qt) = P(Qt) * mean_rt(Qt)  [Section 3.4.2], in probability x ms.
    double p = static_cast<double>(meta->observations) /
               static_cast<double>(total);
    double cost = p * meta->mean_exec_us / 1000.0;
    if (cost < config_.alpha) continue;

    Inc(inst_.adq_reloads);
    Trace(obs::TraceEventType::kAdqReload, session, f->id,
          obs::SkipReason::kNone, /*aux=*/write_template);
    // Execute the hierarchy's roots; pipelining fills in dependents as
    // their inputs land.
    std::vector<const Fdq*> frontier = {f};
    std::unordered_set<uint64_t> visited;
    while (!frontier.empty()) {
      const Fdq* node = frontier.back();
      frontier.pop_back();
      if (!visited.insert(node->id).second) continue;
      if (node->deps.empty()) {
        TryPredict(session, *node, write_template, /*depth=*/0, now, sink);
        continue;
      }
      bool all_known = true;
      for (uint64_t dep : node->deps) {
        const Fdq* d = deps_.Get(dep);
        if (d == nullptr) {
          all_known = false;
          continue;
        }
        frontier.push_back(d);
      }
      if (!all_known && DepsFresh(session, *node, now, /*pending_fresh=*/0)) {
        // Cannot regenerate inputs, but recent results still instantiate it.
        TryPredict(session, *node, write_template, /*depth=*/0, now, sink);
      }
    }
  }
}

}  // namespace apollo::core
