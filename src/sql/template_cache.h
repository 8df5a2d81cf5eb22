// Concurrent template cache (parse-once admission, DESIGN.md Section 10).
//
// Memoizes one immutable CachedTemplate per template fingerprint: the
// TemplateInfo produced by the full parse plus the parameterized Statement
// re-parsed from the template text. Admission goes through Admit(): the lex
// fast path (fast_path.h) resolves repeat queries to their cached template
// without building an AST; first sights and lexically ambiguous queries fall
// back to the full parse and seed the cache.
//
// Admission contract: every admitted query is a bound statement — a cached
// template whose `statement` is non-null plus one value per placeholder —
// and that is the only form in which a statement travels to the origin
// (net::RemoteDatabase, rt::DbGateway; both execute it through
// db::Database::ExecuteStamped). Admit() fails instead of returning
// anything else: client SQL that already carries '?' or '@name'
// placeholders is InvalidArgument, and a template whose text does not
// re-parse fails admission with the parse error.
//
// Invariants:
//  - CachedTemplate instances are immutable after insertion and published as
//    shared_ptr<const CachedTemplate>; readers may hold them indefinitely.
//  - Equal lex keys imply equal fingerprints (enforced by construction: a
//    lex key is only mapped after a successful full parse of a query with
//    that key, and the scanner's normalization mirrors the tokenizer's).
//  - `statement` is parsed from template_text, so its placeholder indices
//    are in template print order == the params vector order.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/value.h"
#include "sql/ast.h"
#include "sql/fast_path.h"
#include "sql/template.h"
#include "util/result.h"

namespace apollo::sql {

/// One immutable, shareable template: the constant-independent TemplateInfo
/// plus the parameterized statement used by the prepared execution path.
struct CachedTemplate {
  /// Template-level metadata. `params` and `canonical_text` are cleared —
  /// they are per-query, not per-template (see AdmittedQuery).
  TemplateInfo info;
  /// Statement parsed from info.template_text, every literal a placeholder
  /// whose index is the position in a query's params vector. Never null:
  /// a template whose text does not re-parse is never cached.
  std::unique_ptr<const Statement> statement;
};

using CachedTemplatePtr = std::shared_ptr<const CachedTemplate>;

/// A statement as it travels to the origin: a cached template plus one
/// bound value per placeholder. The origin executes `tpl->statement` with
/// `params`; nothing re-parses SQL text.
struct BoundStatement {
  CachedTemplatePtr tpl;
  std::vector<common::Value> params;
};

/// One admitted query: its (shared, immutable) template plus the per-query
/// state — bound parameters and the canonical cache-key text.
struct AdmittedQuery {
  CachedTemplatePtr tpl;
  std::vector<common::Value> params;
  /// Canonical text with constants in place (the KvCache key / trace text).
  std::string canonical_text;
  /// True when the lex fast path resolved this query (no AST was built).
  bool via_fast_path = false;

  uint64_t fingerprint() const { return tpl->info.fingerprint; }
  const std::string& template_text() const { return tpl->info.template_text; }
  bool read_only() const { return tpl->info.read_only; }
  int num_placeholders() const { return tpl->info.num_placeholders; }
  const std::vector<std::string>& tables_read() const {
    return tpl->info.tables_read;
  }
  const std::vector<std::string>& tables_written() const {
    return tpl->info.tables_written;
  }
  /// True when the template has a statement and every placeholder a bound
  /// value — which the admission contract guarantees for every query
  /// Admit() returns.
  bool preparable() const {
    return tpl->statement != nullptr &&
           static_cast<int>(params.size()) == tpl->info.num_placeholders;
  }
  /// The statement to ship to the origin.
  BoundStatement bound() const { return {tpl, params}; }
};

/// Thread-safe fingerprint-keyed template cache. Entries are interned once
/// and never evicted (the template universe is the workload's statement set,
/// bounded and small — same lifetime policy as core::TemplateRegistry).
class TemplateCache {
 public:
  /// Admits one query: lex fast path when possible, full parse otherwise.
  /// Returns the same fingerprint/params/canonical text the full
  /// parse+print route would produce, or an error: the parse error,
  /// InvalidArgument for client SQL with its own placeholders, or the
  /// template's re-parse error (see the admission contract above).
  util::Result<AdmittedQuery> Admit(const std::string& sql);

  uint64_t fast_hits() const {
    return fast_hits_.load(std::memory_order_relaxed);
  }
  uint64_t fallbacks() const {
    return fallbacks_.load(std::memory_order_relaxed);
  }
  size_t size() const;

 private:
  /// Inserts (or finds) the entry for `info`, parsing the template text into
  /// the prepared statement on first insertion; fails, caching nothing, if
  /// the template text does not re-parse. Caller must hold `mu_`.
  util::Result<CachedTemplatePtr> InternLocked(TemplateInfo&& info);

  mutable std::shared_mutex mu_;
  std::unordered_map<uint64_t, CachedTemplatePtr> by_fingerprint_;
  std::unordered_map<std::string, CachedTemplatePtr> by_lex_key_;
  std::atomic<uint64_t> fast_hits_{0};
  std::atomic<uint64_t> fallbacks_{0};
};

}  // namespace apollo::sql
