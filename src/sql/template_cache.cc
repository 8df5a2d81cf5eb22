#include "sql/template_cache.h"

#include <mutex>
#include <utility>

#include "sql/parser.h"

namespace apollo::sql {

namespace {

/// Type-strict equality: the lex-key → template mapping is only recorded
/// when the scanner extracted exactly what the full parse extracted, so a
/// fast-path hit is bit-identical by construction. Value::operator== is too
/// lenient here (INT 3 == DOUBLE 3.0 would mask a divergence).
bool SameParams(const std::vector<common::Value>& a,
                const std::vector<common::Value>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type() != b[i].type() || a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

util::Result<AdmittedQuery> TemplateCache::Admit(const std::string& sql) {
  // Scratch reused across admissions on this thread: the key buffer keeps
  // its capacity (params are moved out on every hit, so only the small
  // reserve recurs).
  thread_local LexTemplateResult lex;
  const bool lex_ok = LexTemplatize(sql, &lex);
  if (lex_ok) {
    CachedTemplatePtr tpl;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      auto it = by_lex_key_.find(lex.key);
      if (it != by_lex_key_.end()) tpl = it->second;
    }
    if (tpl != nullptr &&
        static_cast<int>(lex.params.size()) == tpl->info.num_placeholders) {
      AdmittedQuery q;
      q.tpl = std::move(tpl);
      q.params = std::move(lex.params);
      q.via_fast_path = true;
      APOLLO_RETURN_NOT_OK(
          InstantiateTo(q.tpl->info.template_text, q.params,
                        &q.canonical_text));
      fast_hits_.fetch_add(1, std::memory_order_relaxed);
      return q;
    }
  }

  // First sight / bail: full parse, then seed the cache so the next query
  // with this lex key takes the fast path.
  auto info = Templatize(sql);
  if (!info.ok()) return info.status();
  if (static_cast<int>(info->params.size()) != info->num_placeholders) {
    // A client statement is outside input with every value in place; one
    // that brings its own placeholders could never be bound.
    return util::Status::InvalidArgument(
        "client SQL must not contain placeholders: " + sql);
  }
  fallbacks_.fetch_add(1, std::memory_order_relaxed);

  AdmittedQuery q;
  q.params = std::move(info->params);
  q.canonical_text = std::move(info->canonical_text);
  info->params.clear();
  info->canonical_text.clear();
  const bool map_lex_key = lex_ok && SameParams(lex.params, q.params);
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto tpl = InternLocked(std::move(*info));
    if (!tpl.ok()) return tpl.status();
    q.tpl = std::move(*tpl);
    if (map_lex_key) by_lex_key_.emplace(std::move(lex.key), q.tpl);
  }
  return q;
}

size_t TemplateCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return by_fingerprint_.size();
}

util::Result<CachedTemplatePtr> TemplateCache::InternLocked(
    TemplateInfo&& info) {
  auto it = by_fingerprint_.find(info.fingerprint);
  if (it != by_fingerprint_.end()) return it->second;
  // Re-parse the template text once to get the parameterized statement. The
  // parser assigns placeholder indices in token order, which is template
  // print order — i.e. the order of every admitted query's params vector.
  auto stmt = Parse(info.template_text);
  if (!stmt.ok()) return stmt.status();
  auto entry = std::make_shared<CachedTemplate>();
  entry->info = std::move(info);
  entry->statement = std::move(*stmt);
  CachedTemplatePtr shared = std::move(entry);
  by_fingerprint_.emplace(shared->info.fingerprint, shared);
  return shared;
}

}  // namespace apollo::sql
