// TemplateRegistry: system-wide catalog of query templates.
//
// Templates are keyed by the 64-bit fingerprint of their
// constant-independent parse tree (paper Section 3). The registry also
// accumulates per-template runtime statistics: execution counts (for the
// ADQ cost model's P(Qt)) and mean observed execution time (for the
// freshness model's runtime estimates).
//
// Thread safety: the intern map is guarded by a mutex; TemplateMeta
// records are allocated once and never freed, so returned pointers stay
// valid for the registry's lifetime. The statistics fields are atomics
// (reads via implicit conversion stay source-compatible with the plain
// fields); RecordExecution folds the running mean with a CAS loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sql/template.h"
#include "sql/template_cache.h"
#include "util/sim_time.h"

namespace apollo::core {

struct TemplateMeta {
  uint64_t id = 0;  // fingerprint
  std::string template_text;
  int num_placeholders = 0;
  bool read_only = false;
  std::vector<std::string> tables_read;
  std::vector<std::string> tables_written;
  /// Shared immutable template entry (set when interned through the
  /// admission cache); carries the parameterized statement the prepared
  /// execution path runs. May be null for templates interned from a plain
  /// TemplateInfo.
  sql::CachedTemplatePtr cached;

  // Runtime statistics.
  std::atomic<uint64_t> executions{0};   // completed remote executions
  std::atomic<double> mean_exec_us{0.0}; // mean observed DB round-trip time
  std::atomic<uint64_t> observations{0}; // times seen in any client stream

  /// Record one completed execution's response time (cumulative mean).
  /// The count is claimed with fetch_add, then the mean folds in via CAS;
  /// concurrent updates may fold in a slightly different order, which is
  /// acceptable for an estimate. Single-threaded, this computes exactly
  /// the sequential cumulative mean.
  void RecordExecution(util::SimDuration exec_time) {
    uint64_t n = executions.fetch_add(1, std::memory_order_relaxed) + 1;
    double sample = static_cast<double>(exec_time);
    double cur = mean_exec_us.load(std::memory_order_relaxed);
    double next;
    do {
      next = cur + (sample - cur) / static_cast<double>(n);
    } while (!mean_exec_us.compare_exchange_weak(cur, next,
                                                 std::memory_order_relaxed));
  }
};

class TemplateRegistry {
 public:
  /// Interns a template, creating the meta record on first sight.
  TemplateMeta* Intern(const sql::TemplateInfo& info);

  /// Interns an admitted query's template, additionally retaining the
  /// shared CachedTemplate (prepared statement) on the meta record.
  TemplateMeta* Intern(const sql::AdmittedQuery& adm);

  /// Lookup by fingerprint; nullptr if unknown.
  TemplateMeta* Get(uint64_t id);
  const TemplateMeta* Get(uint64_t id) const;

  /// Total stream observations across all templates (denominator for
  /// P(Qt) in the ADQ reload cost function).
  uint64_t total_observations() const {
    return total_observations_.load(std::memory_order_relaxed);
  }
  /// Counts one stream observation of `meta`; returns the count before
  /// it, so of racing first sightings exactly one caller sees 0.
  uint64_t BumpObservations(TemplateMeta* meta) {
    total_observations_.fetch_add(1, std::memory_order_relaxed);
    return meta->observations.fetch_add(1, std::memory_order_relaxed);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return templates_.size();
  }

  /// Approximate memory footprint of the registry (overhead reporting).
  size_t ApproximateBytes() const;

  // ---- Snapshot support (src/persist/, DESIGN.md §11) ----

  /// Canonical exported form (sorted by id). The cached prepared
  /// statement is admission-path state and does not travel: a restored
  /// meta re-acquires it the first time the template is admitted.
  struct ExportedTemplate {
    uint64_t id = 0;
    std::string template_text;
    int num_placeholders = 0;
    bool read_only = false;
    std::vector<std::string> tables_read;
    std::vector<std::string> tables_written;
    uint64_t executions = 0;
    double mean_exec_us = 0.0;
    uint64_t observations = 0;
  };
  struct State {
    std::vector<ExportedTemplate> templates;
  };

  State ExportState() const;

  /// Installs `state`'s templates, skipping ids already interned (live
  /// state wins). total_observations() absorbs the imported counts.
  void ImportState(const State& state);

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::unique_ptr<TemplateMeta>> templates_;
  std::atomic<uint64_t> total_observations_{0};
};

}  // namespace apollo::core
