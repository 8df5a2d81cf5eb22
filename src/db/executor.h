// Query executor for the Apollo SQL dialect.
//
// Planning is deliberately simple but index-aware: equality predicates
// (column = literal, or column = column already bound by an earlier join
// step) drive hash-index lookups; everything else falls back to filtered
// scans. Joins are processed in FROM order with index-nested-loop where an
// index applies. Aggregation supports COUNT/COUNT DISTINCT/SUM/MIN/MAX/AVG
// with GROUP BY, plus DISTINCT, ORDER BY and LIMIT.
//
// Invariant: the fast paths below change physical work only. Every
// statement enumerates the same candidate rows in the same order through
// the same index as the reference plan, returns the same rows in the same
// order with the same errors, and reports the reference plan's
// `rows_examined` — the count the simulator's cost model
// (rows_examined x exec_per_row) consumes — so the figures do not move.
// tests/executor_parity_test.cc pins this against digests of the
// reference executor.
//
// Fast paths and when they apply:
//  - Compiled expressions (always): each statement's expressions are
//    compiled once — column references resolved to (relation, column)
//    slots, literals and bound placeholders pointed at. Evaluation borrows
//    leaf values in place; a comparison or LIKE over leaves is tested
//    inline, so no value is copied to filter, compare, hash a group key or
//    feed an aggregate. Resolution errors are deferred to evaluation,
//    where the reference evaluator raised them.
//  - Compiled LIKE (pattern is a string literal or bound placeholder):
//    util::LikePattern's exact / prefix / suffix / substring match, with
//    util::LikeMatch as the fallback for other shapes.
//  - Join loop (always): a templated loop over the step plans, full scans
//    walking the table's slots in place and testing a leading leaf
//    predicate there, before entering the join step.
//  - Top-N (always): ORDER BY keys are borrowed and rows partially sorted
//    up to LIMIT with an emission-order tie-break, which equals a stable
//    sort. When there is no DISTINCT and every select item is a resolved
//    column, literal or bound placeholder, rows are kept as join tuples
//    and only the LIMIT survivors are projected; otherwise every row is
//    projected as produced, so its errors surface.
//  - Aggregates (always): one group without hashing when there is no
//    GROUP BY; extremes tracked only for MIN/MAX; finalized values in one
//    reused array. Under ORDER BY ... LIMIT, when every other select item
//    is an aggregate, resolved column or literal, only the ORDER BY
//    columns are finalized for every group.
//  - Single-table aggregate kernel (one relation, no WHERE/JOIN/GROUP BY,
//    every aggregate COUNT(*) or MIN/MAX of a resolvable column):
//    COUNT(*) is the live-row count, MIN/MAX one pass over live slots;
//    rows_examined still adds the live-row count, as the scan does.
#pragma once

#include <vector>

#include "common/result_set.h"
#include "common/value.h"
#include "db/catalog.h"
#include "sql/ast.h"
#include "util/result.h"

namespace apollo::db {

class Executor {
 public:
  explicit Executor(Catalog* catalog) : catalog_(catalog) {}

  /// Executes one statement. For writes the result set is empty but
  /// `affected_rows` is populated. `rows_examined` is always populated and
  /// feeds the simulator's execution-cost model.
  util::Result<common::ResultSetPtr> Execute(const sql::Statement& stmt);

  /// Prepared execution: `stmt` may contain placeholder expressions, which
  /// are bound to `params` by placeholder index. Placeholder equality
  /// predicates drive index probes exactly like literals, so a prepared
  /// statement plans identically to its instantiated text. `params` may be
  /// null (then any placeholder is an error, as in Execute above).
  util::Result<common::ResultSetPtr> Execute(
      const sql::Statement& stmt, const std::vector<common::Value>* params);

  /// Enables the semijoin pre-filter for leading-relation scans (see
  /// SelectRunner::PlanSemijoin). Off by default: the simulator's
  /// execution-cost model (rows_examined x exec_per_row) is calibrated
  /// against the scan plan, so the figure harnesses keep the legacy plan
  /// while real-thread runtimes opt in.
  void set_semijoin_prefilter(bool on) { semijoin_prefilter_ = on; }
  bool semijoin_prefilter() const { return semijoin_prefilter_; }

 private:
  Catalog* catalog_;
  bool semijoin_prefilter_ = false;
};

}  // namespace apollo::db
