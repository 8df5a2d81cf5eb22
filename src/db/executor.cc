#include "db/executor.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "sql/printer.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace apollo::db {

namespace {

using common::ResultSet;
using common::ResultSetPtr;
using common::Row;
using common::Value;
using sql::BinOp;
using sql::Expr;
using sql::ExprKind;
using util::Result;
using util::Status;

/// One relation participating in a statement: the table plus its effective
/// (alias-resolved) name.
struct Relation {
  std::string name;  // effective name used by qualified refs
  const Table* table;
};

/// A join tuple: one live RowId per relation (only the first `bound` are
/// meaningful during the join).
using Tuple = std::vector<RowId>;

/// Column reference resolved to (relation slot, column position).
struct ResolvedColumn {
  int rel = -1;
  int col = -1;
  bool ok() const { return rel >= 0; }
};

Result<ResolvedColumn> ResolveColumn(const std::vector<Relation>& relations,
                                     const Expr& e) {
  ResolvedColumn rc;
  for (size_t r = 0; r < relations.size(); ++r) {
    const auto& rel = relations[r];
    if (!e.table.empty() && e.table != rel.name &&
        e.table != rel.table->schema().table_name()) {
      continue;
    }
    int c = rel.table->schema().ColumnIndex(e.column);
    if (c >= 0) {
      if (rc.ok() && e.table.empty()) {
        return Status::InvalidArgument("ambiguous column " + e.column);
      }
      rc.rel = static_cast<int>(r);
      rc.col = c;
      if (!e.table.empty()) break;
    }
  }
  if (!rc.ok()) {
    return Status::NotFound("unknown column " +
                            (e.table.empty() ? e.column
                                             : e.table + "." + e.column));
  }
  return rc;
}

bool Truthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.is_int()) return v.AsInt() != 0;
  if (v.is_double()) return v.AsDoubleRaw() != 0.0;
  return !v.AsString().empty();
}

/// True if the expression tree contains an aggregate call.
bool HasAggregate(const Expr& e) {
  if (e.kind == ExprKind::kFuncCall) return true;
  for (const auto& c : e.children) {
    if (HasAggregate(*c)) return true;
  }
  return false;
}

/// Flattens an AND tree into conjuncts.
void FlattenConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->op == BinOp::kAnd) {
    FlattenConjuncts(e->children[0].get(), out);
    FlattenConjuncts(e->children[1].get(), out);
    return;
  }
  out->push_back(e);
}

enum class AggFunc { kCount, kMin, kMax, kSum, kAvg, kOther };

AggFunc ParseAggFunc(const std::string& f) {
  if (f == "COUNT") return AggFunc::kCount;
  if (f == "MIN") return AggFunc::kMin;
  if (f == "MAX") return AggFunc::kMax;
  if (f == "SUM") return AggFunc::kSum;
  if (f == "AVG") return AggFunc::kAvg;
  return AggFunc::kOther;
}

/// Value::Compare with the same-type INT and STRING cases inline.
inline int CompareValues(const Value& a, const Value& b) {
  if (a.is_int() && b.is_int()) {
    return a.AsInt() < b.AsInt() ? -1 : (a.AsInt() > b.AsInt() ? 1 : 0);
  }
  if (a.is_string() && b.is_string()) {
    return a.AsString().compare(b.AsString());
  }
  return a.Compare(b);
}

bool IsArithmetic(BinOp op) {
  return op == BinOp::kAdd || op == BinOp::kSub || op == BinOp::kMul ||
         op == BinOp::kDiv;
}

/// One expression node compiled for a query: column references resolved
/// to a (relation, column) slot, literals and bound placeholders pointed
/// at, constant LIKE patterns compiled. Resolution and binding errors are
/// recorded, not raised: they surface when (and only if) the node is
/// evaluated, exactly where the reference evaluator raised them.
struct Node {
  const Expr* expr = nullptr;
  ExprKind kind = ExprKind::kLiteral;
  BinOp op = BinOp::kEq;
  bool negated = false;
  // A literal, bound placeholder or resolved column: evaluation borrows a
  // value in place and cannot fail.
  bool leaf = false;
  // A comparison or LIKE over leaves: tested inline, cannot fail.
  bool leaf_pred = false;
  bool distinct = false;         // kFuncCall: COUNT(DISTINCT x)
  AggFunc func = AggFunc::kOther;  // kFuncCall
  int first_kid = 0;             // children are nodes [first_kid, +num_kids)
  int num_kids = 0;
  int rel = -1;                  // kColumnRef: relation slot
  int col = -1;                  // kColumnRef: column position
  const Table* table = nullptr;  // kColumnRef: relation's table
  int agg = -1;                  // kFuncCall: aggregate slot, if collected
  int like = -1;                 // kLike with a constant pattern: its slot
  int error = -1;                // deferred resolution/binding error slot
  const Value* value = nullptr;  // kLiteral / bound kPlaceholder
};

const Value kOne = Value::Int(1);  // COUNT(*)'s per-row input

/// The compiled expressions of one statement plus their evaluator.
///
/// Evaluation borrows: a leaf yields a pointer to the row cell, literal or
/// bound parameter, and only computed values (arithmetic, predicates used
/// as values) are written to a caller-provided scratch Value. Predicates
/// are tested straight to a truth value. Errors return null / -1 and leave
/// the Status in error().
class ExprTable {
 public:
  ExprTable(const std::vector<Relation>* relations,
            const std::vector<Value>* params)
      : relations_(relations), params_(params) {}

  /// Compiles `e` (and its subtree) against the current relations; returns
  /// the node id.
  int Add(const Expr& e) {
    const int id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    Fill(id, e);
    return id;
  }

  const Node& node(int id) const { return nodes_[id]; }
  Node& mutable_node(int id) { return nodes_[id]; }
  const Node& kid(const Node& n, int i) const {
    return nodes_[n.first_kid + i];
  }
  int kid_id(const Node& n, int i) const { return n.first_kid + i; }

  /// The borrowed value of a leaf node.
  static const Value* Leaf(const Node& n, const RowId* tuple) {
    return n.value != nullptr ? n.value : &n.table->At(tuple[n.rel])[n.col];
  }

  const Status& error() const { return error_; }
  const Status& deferred_error(const Node& n) const {
    return errors_[n.error];
  }

  /// Finalized aggregate values (indexed by aggregate slot) visible to
  /// kFuncCall nodes; null outside aggregate finalization.
  void set_agg_values(const Value* values) { agg_values_ = values; }

  /// The value of `n` over `tuple`; see class comment.
  const Value* Eval(const Node& n, const RowId* tuple, Value* scratch) {
    if (n.leaf) return Leaf(n, tuple);
    switch (n.kind) {
      case ExprKind::kPlaceholder:
      case ExprKind::kColumnRef:
        return Fail(errors_[n.error]);  // unresolved or unbound
      case ExprKind::kStar:
        return Fail(
            Status::InvalidArgument("'*' outside select list / COUNT"));
      case ExprKind::kUnaryMinus: {
        const Value* v = Eval(kid(n, 0), tuple, scratch);
        if (v == nullptr) return nullptr;
        if (v->is_null()) {
          *scratch = Value::Null();
        } else if (v->is_int()) {
          *scratch = Value::Int(-v->AsInt());
        } else if (v->is_double()) {
          *scratch = Value::Double(-v->AsDoubleRaw());
        } else {
          return Fail(Status::TypeError("unary minus on non-numeric"));
        }
        return scratch;
      }
      case ExprKind::kFuncCall:
        if (agg_values_ != nullptr && n.agg >= 0) return &agg_values_[n.agg];
        return Fail(Status::InvalidArgument(
            "aggregate function outside aggregation context"));
      case ExprKind::kBinary:
        if (IsArithmetic(n.op)) return Arithmetic(n, tuple, scratch);
        break;
      default:
        break;
    }
    const int t = Test(n, tuple);
    if (t < 0) return nullptr;
    *scratch = Value::Int(t);
    return scratch;
  }

  /// Test() with leaf predicates — most WHERE/ON conjuncts — decided
  /// inline.
  int Check(const Node& n, const RowId* tuple) {
    if (!n.leaf_pred) return Test(n, tuple);
    const Value& a = *Leaf(kid(n, 0), tuple);
    return n.like >= 0 ? MatchLike(n, a)
                       : Decide(n, a, *Leaf(kid(n, 1), tuple));
  }

  /// Truth of `n` as a predicate over `tuple`: 1, 0, or -1 on error.
  int Test(const Node& n, const RowId* tuple) {
    switch (n.kind) {
      case ExprKind::kBinary:
        return TestBinary(n, tuple);
      case ExprKind::kNot: {
        const int t = Test(kid(n, 0), tuple);
        return t < 0 ? -1 : (t == 0 ? 1 : 0);
      }
      case ExprKind::kInList: {
        Value sv;
        Value si;
        const Value* v = Eval(kid(n, 0), tuple, &sv);
        if (v == nullptr) return -1;
        if (v->is_null()) return 0;
        bool found = false;
        for (int i = 1; i < n.num_kids; ++i) {
          const Value* item = Eval(kid(n, i), tuple, &si);
          if (item == nullptr) return -1;
          if (CompareValues(*v, *item) == 0) {
            found = true;
            break;
          }
        }
        return found != n.negated ? 1 : 0;
      }
      case ExprKind::kBetween: {
        Value sv;
        Value slo;
        Value shi;
        const Value* v = Eval(kid(n, 0), tuple, &sv);
        if (v == nullptr) return -1;
        const Value* lo = Eval(kid(n, 1), tuple, &slo);
        if (lo == nullptr) return -1;
        const Value* hi = Eval(kid(n, 2), tuple, &shi);
        if (hi == nullptr) return -1;
        if (v->is_null() || lo->is_null() || hi->is_null()) return 0;
        const bool in =
            CompareValues(*v, *lo) >= 0 && CompareValues(*v, *hi) <= 0;
        return in != n.negated ? 1 : 0;
      }
      case ExprKind::kIsNull: {
        Value sv;
        const Value* v = Eval(kid(n, 0), tuple, &sv);
        if (v == nullptr) return -1;
        return v->is_null() != n.negated ? 1 : 0;
      }
      default: {
        if (n.leaf) return Truthy(*Leaf(n, tuple)) ? 1 : 0;
        Value sv;
        const Value* v = Eval(n, tuple, &sv);
        if (v == nullptr) return -1;
        return Truthy(*v) ? 1 : 0;
      }
    }
  }

 private:
  void Fill(int id, const Expr& e) {
    const int first = static_cast<int>(nodes_.size());
    nodes_.resize(nodes_.size() + e.children.size());
    {
      Node& n = nodes_[id];
      n.expr = &e;
      n.kind = e.kind;
      n.op = e.op;
      n.negated = e.negated;
      n.distinct = e.distinct;
      n.first_kid = first;
      n.num_kids = static_cast<int>(e.children.size());
      switch (e.kind) {
        case ExprKind::kLiteral:
          n.value = &e.literal;
          n.leaf = true;
          break;
        case ExprKind::kPlaceholder:
          if (params_ != nullptr && e.placeholder_index >= 0 &&
              static_cast<size_t>(e.placeholder_index) < params_->size()) {
            n.value = &(*params_)[e.placeholder_index];
            n.leaf = true;
          } else {
            n.error = Defer(Status::InvalidArgument(
                "unbound placeholder in execution"));
          }
          break;
        case ExprKind::kColumnRef: {
          auto rc = ResolveColumn(*relations_, e);
          if (rc.ok()) {
            n.rel = rc->rel;
            n.col = rc->col;
            n.table = (*relations_)[rc->rel].table;
            n.leaf = true;
          } else {
            n.error = Defer(rc.status());
          }
          break;
        }
        case ExprKind::kFuncCall:
          n.func = ParseAggFunc(e.func);
          break;
        default:
          break;
      }
    }
    for (size_t i = 0; i < e.children.size(); ++i) {
      Fill(first + static_cast<int>(i), *e.children[i]);
    }
    if (e.kind == ExprKind::kBinary && e.op == BinOp::kLike) {
      const Node& pattern = nodes_[first + 1];
      if (pattern.leaf && pattern.value != nullptr &&
          pattern.value->is_string()) {
        nodes_[id].like = static_cast<int>(likes_.size());
        likes_.emplace_back(pattern.value->AsString());
      }
    }
    if (e.kind == ExprKind::kBinary && e.op != BinOp::kAnd &&
        e.op != BinOp::kOr && !IsArithmetic(e.op)) {
      nodes_[id].leaf_pred = nodes_[first].leaf && nodes_[first + 1].leaf;
    }
  }

  int Defer(Status st) {
    errors_.push_back(std::move(st));
    return static_cast<int>(errors_.size()) - 1;
  }

  const Value* Fail(const Status& st) {
    error_ = st;
    return nullptr;
  }

  const Value* Arithmetic(const Node& n, const RowId* tuple, Value* scratch) {
    Value sa;
    const Value* a = Eval(kid(n, 0), tuple, &sa);
    if (a == nullptr) return nullptr;
    const Value* b = Eval(kid(n, 1), tuple, scratch);
    if (b == nullptr) return nullptr;
    if (a->is_null() || b->is_null()) {
      *scratch = Value::Null();
      return scratch;
    }
    if (!a->is_numeric() || !b->is_numeric()) {
      return Fail(Status::TypeError("arithmetic on non-numeric value"));
    }
    if (a->is_int() && b->is_int() && n.op != BinOp::kDiv) {
      const int64_t x = a->AsInt();
      const int64_t y = b->AsInt();
      switch (n.op) {
        case BinOp::kAdd: *scratch = Value::Int(x + y); return scratch;
        case BinOp::kSub: *scratch = Value::Int(x - y); return scratch;
        case BinOp::kMul: *scratch = Value::Int(x * y); return scratch;
        default: break;
      }
    }
    const double x = a->ToDouble();
    const double y = b->ToDouble();
    switch (n.op) {
      case BinOp::kAdd: *scratch = Value::Double(x + y); break;
      case BinOp::kSub: *scratch = Value::Double(x - y); break;
      case BinOp::kMul: *scratch = Value::Double(x * y); break;
      default:  // kDiv
        *scratch = y == 0.0 ? Value::Null() : Value::Double(x / y);
        break;
    }
    return scratch;
  }

  int TestBinary(const Node& n, const RowId* tuple) {
    // AND/OR short-circuit.
    if (n.op == BinOp::kAnd || n.op == BinOp::kOr) {
      const int l = Test(kid(n, 0), tuple);
      if (l < 0) return -1;
      if (n.op == BinOp::kAnd && l == 0) return 0;
      if (n.op == BinOp::kOr && l == 1) return 1;
      return Test(kid(n, 1), tuple);
    }
    if (n.leaf_pred) return Check(n, tuple);
    Value sa;
    if (IsArithmetic(n.op)) {
      const Value* v = Arithmetic(n, tuple, &sa);
      if (v == nullptr) return -1;
      return Truthy(*v) ? 1 : 0;
    }
    const Value* a = Eval(kid(n, 0), tuple, &sa);
    if (a == nullptr) return -1;
    // A compiled LIKE pattern is a constant: nothing to evaluate on the
    // right.
    if (n.like >= 0) return MatchLike(n, *a);
    Value sb;
    const Value* b = Eval(kid(n, 1), tuple, &sb);
    if (b == nullptr) return -1;
    return Decide(n, *a, *b);
  }

  int MatchLike(const Node& n, const Value& a) const {
    if (!a.is_string()) return 0;
    return likes_[n.like].Matches(a.AsString()) != n.negated ? 1 : 0;
  }

  /// Comparison / LIKE verdict over evaluated operands.
  int Decide(const Node& n, const Value& a, const Value& b) {
    if (n.op == BinOp::kLike) {
      if (!a.is_string() || !b.is_string()) return 0;
      return util::LikeMatch(a.AsString(), b.AsString()) != n.negated ? 1
                                                                       : 0;
    }
    if (a.is_null() || b.is_null()) return 0;
    const int c = CompareValues(a, b);
    switch (n.op) {
      case BinOp::kEq: return c == 0 ? 1 : 0;
      case BinOp::kNe: return c != 0 ? 1 : 0;
      case BinOp::kLt: return c < 0 ? 1 : 0;
      case BinOp::kLe: return c <= 0 ? 1 : 0;
      case BinOp::kGt: return c > 0 ? 1 : 0;
      case BinOp::kGe: return c >= 0 ? 1 : 0;
      default: break;
    }
    Fail(Status::Internal("unexpected binary op in eval"));
    return -1;
  }

  const std::vector<Relation>* relations_;
  const std::vector<Value>* params_;
  std::vector<Node> nodes_;
  std::vector<Status> errors_;
  std::vector<util::LikePattern> likes_;
  const Value* agg_values_ = nullptr;
  Status error_;
};

/// Aggregator state for one aggregate call of one group.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool sum_is_int = true;
  int64_t isum = 0;
  Value extreme;  // MIN / MAX only
  bool any = false;
  std::unordered_set<uint64_t> distinct;
};

/// Folds one input value into an aggregate (SQL aggregates skip NULLs).
void Accumulate(const Node& e, const Value& v, AggState* agg) {
  if (v.is_null()) return;
  if (e.distinct && !agg->distinct.insert(v.Hash()).second) return;
  ++agg->count;
  if (v.is_numeric()) {
    if (v.is_int() && agg->sum_is_int) {
      agg->isum += v.AsInt();
    } else {
      if (agg->sum_is_int) {
        agg->sum = static_cast<double>(agg->isum);
        agg->sum_is_int = false;
      }
      agg->sum += v.ToDouble();
    }
  }
  if ((e.func == AggFunc::kMin &&
       (!agg->any || CompareValues(v, agg->extreme) < 0)) ||
      (e.func == AggFunc::kMax &&
       (!agg->any || CompareValues(v, agg->extreme) > 0))) {
    agg->extreme = v;
  }
  agg->any = true;
}

Result<Value> FinalizeAgg(const Node& e, const AggState& agg) {
  if (e.func == AggFunc::kCount) return Value::Int(agg.count);
  if (!agg.any) return Value::Null();
  switch (e.func) {
    case AggFunc::kMin:
    case AggFunc::kMax:
      return agg.extreme;
    case AggFunc::kSum:
      return agg.sum_is_int ? Value::Int(agg.isum) : Value::Double(agg.sum);
    case AggFunc::kAvg: {
      double total = agg.sum_is_int ? static_cast<double>(agg.isum) : agg.sum;
      return Value::Double(total / static_cast<double>(agg.count));
    }
    default:
      return Status::Unimplemented("unknown aggregate " + e.expr->func);
  }
}

struct Conjunct {
  int node;       // compiled expression
  uint64_t mask;  // relations referenced
  int max_rel;    // highest relation slot referenced (-1 if none)
};

std::string OutputName(const sql::SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  const Expr& e = *item.expr;
  if (e.kind == ExprKind::kColumnRef) return e.column;
  return sql::PrintExpr(e);
}

/// Key describing one equality `column = <source>` usable for index probes.
struct EqKey {
  int col;         // column position in the target relation
  int value_node;  // literal, placeholder or bound column-ref expression
};

/// A key of borrowed values: part i points at a row cell, literal or bound
/// parameter, or at scratch[i] when it had to be computed.
struct BorrowedKey {
  std::vector<const Value*> parts;
  std::vector<Value> scratch;
};

/// Points `key` at the values of nodes srcs[0, n) evaluated over `tuple`.
/// Returns false on an evaluation error.
bool BuildKey(ExprTable& exprs, const int* srcs, size_t n, const RowId* tuple,
              BorrowedKey* key) {
  key->parts.resize(n);
  key->scratch.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Value* v = exprs.Eval(exprs.node(srcs[i]), tuple, &key->scratch[i]);
    if (v == nullptr) return false;
    key->parts[i] = v;
  }
  return true;
}

class SelectRunner {
 public:
  SelectRunner(Catalog* catalog, const sql::SelectStmt& sel,
               const std::vector<Value>* params, bool semijoin_prefilter)
      : catalog_(catalog),
        sel_(sel),
        exprs_(&relations_, params),
        semijoin_prefilter_(semijoin_prefilter) {}

  Result<ResultSetPtr> Run() {
    APOLLO_RETURN_NOT_OK(SetupRelations());
    APOLLO_RETURN_NOT_OK(SetupPredicates());
    bool aggregate = !sel_.group_by.empty();
    for (const auto& item : sel_.items) {
      if (HasAggregate(*item.expr)) aggregate = true;
    }
    return aggregate ? RunAggregate() : RunProjection();
  }

 private:
  Status SetupRelations() {
    auto add = [&](const sql::TableRef& tr) -> Status {
      const Table* t = catalog_->GetTable(tr.table);
      if (t == nullptr) {
        return Status::NotFound("unknown table " + tr.table);
      }
      relations_.push_back({tr.EffectiveName(), t});
      return Status::OK();
    };
    for (const auto& tr : sel_.tables) APOLLO_RETURN_NOT_OK(add(tr));
    for (const auto& j : sel_.joins) APOLLO_RETURN_NOT_OK(add(j.table));
    if (relations_.size() > 64) {
      return Status::Unimplemented("too many relations");
    }
    return Status::OK();
  }

  /// Relations referenced by a compiled subtree (as a bitmask; supports up
  /// to 64 relations, far beyond the dialect's practical use). Fails with
  /// the first unresolvable column in pre-order.
  Result<uint64_t> RelMask(int id) const {
    const Node& n = exprs_.node(id);
    uint64_t mask = 0;
    if (n.kind == ExprKind::kColumnRef) {
      if (n.error >= 0) return exprs_.deferred_error(n);
      mask |= 1ull << n.rel;
    }
    for (int i = 0; i < n.num_kids; ++i) {
      auto m = RelMask(exprs_.kid_id(n, i));
      if (!m.ok()) return m;
      mask |= *m;
    }
    return mask;
  }

  Status SetupPredicates() {
    std::vector<const Expr*> conjuncts;
    FlattenConjuncts(sel_.where.get(), &conjuncts);
    for (const auto& j : sel_.joins) {
      FlattenConjuncts(j.on.get(), &conjuncts);
    }
    for (const Expr* c : conjuncts) {
      const int id = exprs_.Add(*c);
      auto mask = RelMask(id);
      if (!mask.ok()) return mask.status();
      int max_rel = -1;
      uint64_t m = *mask;
      for (int r = 0; r < 64; ++r) {
        if (m & (1ull << r)) max_rel = r;
      }
      conjuncts_.push_back({id, m, max_rel});
    }
    return BuildStepPlans();
  }

  Status BuildStepPlans() {
    step_plans_.resize(relations_.size());
    for (int step = 0; step < static_cast<int>(relations_.size()); ++step) {
      StepPlan& plan = step_plans_[step];
      const Table* table = relations_[step].table;
      std::vector<EqKey> keys;
      CollectEqKeys(step, &keys);
      if (!keys.empty()) {
        std::vector<int> eq_cols;
        for (const auto& k : keys) eq_cols.push_back(k.col);
        plan.index = table->FindUsableIndex(eq_cols);
        if (plan.index >= 0) {
          for (int pos : table->IndexColumns(plan.index)) {
            for (const auto& k : keys) {
              if (k.col == pos) {
                plan.probe.push_back(k.value_node);
                break;
              }
            }
          }
        }
      }
      for (size_t ci = 0; ci < conjuncts_.size(); ++ci) {
        if (conjuncts_[ci].max_rel != step) continue;
        plan.conjuncts.push_back(static_cast<int>(ci));
        // Step 0 visits each candidate once, so a memo would never hit.
        if (step > 0 && conjuncts_[ci].mask == (1ull << step)) {
          plan.memo_slot.push_back(static_cast<int>(plan.memo.size()));
          plan.memo.emplace_back();
        } else {
          plan.memo_slot.push_back(-1);
        }
      }
    }
    if (semijoin_prefilter_) {
      PlanInListProbes();
      PlanSemijoin();
    }
    return Status::OK();
  }

  /// Turns `col IN (v1, ..., vn)` over an indexed column into n index
  /// probes when every list element is a literal or placeholder (so the
  /// probe keys need no bound relations). Same gate and same result-
  /// identity argument as the semijoin pre-filter.
  void PlanInListProbes() {
    for (int step = 0; step < static_cast<int>(relations_.size()); ++step) {
      StepPlan& plan = step_plans_[step];
      if (plan.index >= 0) continue;
      const Table* table = relations_[step].table;
      for (int ci : plan.conjuncts) {
        const Node& e = exprs_.node(conjuncts_[ci].node);
        if (e.kind != ExprKind::kInList || e.negated) continue;
        if (conjuncts_[ci].mask != (1ull << step)) continue;
        const Node& col = exprs_.kid(e, 0);
        if (col.kind != ExprKind::kColumnRef) continue;
        bool probeable = e.num_kids > 1;
        for (int i = 1; i < e.num_kids; ++i) {
          const auto k = exprs_.kid(e, i).kind;
          if (k != ExprKind::kLiteral && k != ExprKind::kPlaceholder) {
            probeable = false;
            break;
          }
        }
        if (!probeable || col.error >= 0) continue;
        int idx = table->FindUsableIndex({col.col});
        if (idx < 0) continue;
        plan.in_index = idx;
        for (int i = 1; i < e.num_kids; ++i) {
          plan.in_items.push_back(exprs_.kid_id(e, i));
        }
        break;
      }
    }
  }

  /// Considers a semijoin pre-filter for the leading relation: applicable
  /// when it would otherwise be fully scanned and some inner relation has
  /// its own filter conjunct plus a column-equality join that the leading
  /// relation indexes. The sim cost model is calibrated against the scan
  /// plan, so this is gated behind Database::set_semijoin_prefilter.
  void PlanSemijoin() {
    if (relations_.size() < 2) return;
    StepPlan& plan = step_plans_[0];
    if (plan.index >= 0) return;  // already index-driven
    for (int r = 1; r < static_cast<int>(relations_.size()); ++r) {
      bool has_own_filter = false;
      for (const auto& c : conjuncts_) {
        if (c.mask == (1ull << r)) has_own_filter = true;
      }
      if (!has_own_filter) continue;  // unselective: scan is as good
      for (const auto& c : conjuncts_) {
        if (c.mask != ((1ull << 0) | (1ull << r))) continue;
        const Node& e = exprs_.node(c.node);
        if (e.kind != ExprKind::kBinary || e.op != BinOp::kEq) continue;
        const Node& l = exprs_.kid(e, 0);
        const Node& rr = exprs_.kid(e, 1);
        if (l.kind != ExprKind::kColumnRef ||
            rr.kind != ExprKind::kColumnRef) {
          continue;
        }
        int outer_col;
        int inner_node;
        if (l.rel == 0 && rr.rel == r) {
          outer_col = l.col;
          inner_node = exprs_.kid_id(e, 1);
        } else if (rr.rel == 0 && l.rel == r) {
          outer_col = rr.col;
          inner_node = exprs_.kid_id(e, 0);
        } else {
          continue;
        }
        int idx = relations_[0].table->FindUsableIndex({outer_col});
        if (idx < 0) continue;
        plan.semi_rel = r;
        plan.semi_index = idx;
        plan.semi_probe = inner_node;
        return;
      }
    }
  }

  /// Per-step access plan, computed once per query so the join does no
  /// planning work per outer row.
  struct StepPlan {
    int index = -1;                // usable index on this relation, or -1
    std::vector<int> probe;        // probe source node per index column
    std::vector<int> conjuncts;    // conjuncts_ slots with max_rel == step
    // For conjuncts[i] referencing ONLY this relation (inner steps): slot
    // into memo, else -1. Their verdict depends on tuple[step] alone, so
    // it is cached per RowId — a LIKE over the probed side runs once per
    // distinct row instead of once per outer row.
    std::vector<int> memo_slot;
    // Tri-state per memoized conjunct per RowId: 0 unknown, 1 pass, 2 fail.
    std::vector<std::vector<int8_t>> memo;
    // Semijoin pre-filter (opt-in, leading relation only): instead of a
    // full scan, drive candidates from inner relation `semi_rel`'s rows
    // that pass its single-relation conjuncts, probing this relation's
    // `semi_index` with the inner join column. Candidates are sorted and
    // deduplicated, which IS full-scan order, and rows skipped this way
    // provably emit nothing (they fail the join/filter conjuncts later),
    // so results are identical to the scan plan.
    int semi_rel = -1;
    int semi_index = -1;
    int semi_probe = -1;  // inner-side join column node
    // IN-list probe (opt-in, same gate as the semijoin): `col IN (values)`
    // on an indexed column turns the scan into one index probe per list
    // element. Candidates are sorted + deduplicated (full-scan order);
    // skipped rows fail the IN conjunct by definition.
    int in_index = -1;
    std::vector<int> in_items;
  };

  /// Collects equality keys usable to probe relation `step` given the
  /// relations [0, step) are bound.
  void CollectEqKeys(int step, std::vector<EqKey>* keys) {
    for (const auto& c : conjuncts_) {
      const Node& e = exprs_.node(c.node);
      if (e.kind != ExprKind::kBinary || e.op != BinOp::kEq) continue;
      for (int side = 0; side < 2; ++side) {
        const Node& col = exprs_.kid(e, side);
        const int other = exprs_.kid_id(e, 1 - side);
        if (col.kind != ExprKind::kColumnRef) continue;
        if (col.error >= 0 || col.rel != step) continue;
        // The other side must be computable from bound relations only.
        auto omask = RelMask(other);
        if (!omask.ok()) continue;
        uint64_t bound = (step == 0) ? 0 : ((1ull << step) - 1);
        if ((*omask & ~bound) != 0) continue;
        if (HasAggregate(*exprs_.node(other).expr)) continue;
        keys->push_back({col.col, other});
        break;
      }
    }
  }

  /// Calls `visit(id)` for each candidate row of relation `step` under the
  /// current partially-bound tuple, following the precomputed step plan,
  /// and counts the candidates into rows_examined. A full scan walks the
  /// table's slots directly. Returns false on error (visit's or a probe
  /// key's).
  template <typename Visit>
  bool ForEachCandidate(int step, Visit&& visit) {
    const Table* table = relations_[step].table;
    const StepPlan& plan = step_plans_[step];
    std::vector<RowId>& cands = cand_buf_[step];
    cands.clear();
    bool listed = false;
    if (step == 0 && plan.semi_rel >= 0) {
      listed = SemijoinCandidates(&cands);
      // On an eval error, fall back to the scan so error surfacing stays
      // on the original path.
      if (!listed) cands.clear();
    }
    if (!listed && plan.in_index >= 0) {
      listed = true;
      for (int item : plan.in_items) {
        if (!BuildKey(exprs_, &item, 1, tuple_.data(), &probe_buf_)) {
          listed = false;  // unbound placeholder: surface via the scan path
          break;
        }
        table->IndexLookup(plan.in_index, probe_buf_.parts.data(), &cands);
      }
      if (listed) {
        std::sort(cands.begin(), cands.end());
        cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
        rows_examined_ += cands.size();
      } else {
        cands.clear();
      }
    }
    if (!listed && plan.index >= 0) {
      if (!BuildKey(exprs_, plan.probe.data(), plan.probe.size(),
                    tuple_.data(), &probe_buf_)) {
        return false;
      }
      table->IndexLookup(plan.index, probe_buf_.parts.data(), &cands);
      rows_examined_ += cands.size();
      listed = true;
    }
    if (listed) {
      for (RowId id : cands) {
        if (!visit(id)) return false;
      }
      return true;
    }
    rows_examined_ += table->num_rows();
    const size_t slots = table->NumSlots();
    // A leading leaf predicate cannot fail, so rows it rejects are skipped
    // here without entering the join step.
    const Node* first = nullptr;
    if (!plan.conjuncts.empty()) {
      first = &exprs_.node(conjuncts_[plan.conjuncts[0]].node);
      if (!first->leaf_pred) first = nullptr;
    }
    for (size_t i = 0; i < slots; ++i) {
      const RowId id = static_cast<RowId>(i);
      if (!table->IsLive(id)) continue;
      if (first != nullptr) {
        tuple_[step] = id;
        if (exprs_.Check(*first, tuple_.data()) == 0) continue;
      }
      if (!visit(id)) return false;
    }
    return true;
  }

  /// Evaluates conjunct `i` of `step` for the row bound at tuple[step],
  /// through the per-RowId memo when the conjunct is memoized.
  int EvalStepConjunct(int step, size_t i, const RowId* tuple) {
    StepPlan& plan = step_plans_[step];
    const Node& c = exprs_.node(conjuncts_[plan.conjuncts[i]].node);
    const int slot = plan.memo_slot[i];
    if (slot < 0) return exprs_.Check(c, tuple);
    std::vector<int8_t>& memo = plan.memo[slot];
    const RowId id = tuple[step];
    if (memo.empty()) memo.resize(relations_[step].table->NumSlots(), 0);
    if (id < memo.size() && memo[id] != 0) return memo[id] == 1 ? 1 : 0;
    const int pass = exprs_.Check(c, tuple);
    if (pass >= 0 && id < memo.size()) memo[id] = pass == 1 ? 1 : 2;
    return pass;
  }

  /// Applies all conjuncts whose highest referenced relation == step, in
  /// original conjunct order (short-circuit and error semantics
  /// preserved): 1 pass, 0 fail, -1 error.
  int StepPredicatesPass(int step, const RowId* tuple) {
    const size_t n = step_plans_[step].conjuncts.size();
    for (size_t i = 0; i < n; ++i) {
      const int pass = EvalStepConjunct(step, i, tuple);
      if (pass <= 0) return pass;
    }
    return 1;
  }

  /// Runs the semijoin pre-filter for the leading relation: enumerates the
  /// inner relation, keeps rows passing its single-relation conjuncts, and
  /// probes the leading relation's index with the join column. Sorted,
  /// deduplicated RowIds == full-scan enumeration order. Returns false
  /// if any evaluation errors: the caller falls back to the scan so error
  /// surfacing stays on the original path.
  bool SemijoinCandidates(std::vector<RowId>* out) {
    const StepPlan& plan = step_plans_[0];
    const int r = plan.semi_rel;
    const StepPlan& rplan = step_plans_[r];
    const Table* rtable = relations_[r].table;
    const Table* table = relations_[0].table;
    Tuple tmp(relations_.size(), 0);
    for (size_t i = 0; i < rtable->NumSlots(); ++i) {
      RowId id = static_cast<RowId>(i);
      if (!rtable->IsLive(id)) continue;
      ++rows_examined_;
      tmp[r] = id;
      bool pass = true;
      for (size_t ci = 0; ci < rplan.conjuncts.size(); ++ci) {
        if (rplan.memo_slot[ci] < 0) continue;  // needs other relations
        const int v = EvalStepConjunct(r, ci, tmp.data());
        if (v < 0) return false;
        if (v == 0) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      if (!BuildKey(exprs_, &plan.semi_probe, 1, tmp.data(), &probe_buf_)) {
        return false;
      }
      table->IndexLookup(plan.semi_index, probe_buf_.parts.data(), out);
    }
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
    rows_examined_ += out->size();
    return true;
  }

  /// Runs the join, calling `emit(tuple)` on each fully-bound surviving
  /// tuple (emit returns false on error). Returns false on error, with the
  /// Status in exprs_.error().
  template <typename Emit>
  bool RunJoin(Emit&& emit) {
    tuple_.assign(relations_.size(), 0);
    cand_buf_.resize(relations_.size());
    // Conjuncts that reference no relation at all (constant predicates).
    for (const auto& c : conjuncts_) {
      if (c.max_rel != -1) continue;
      const int pass = exprs_.Test(exprs_.node(c.node), tuple_.data());
      if (pass <= 0) return pass == 0;
    }
    return JoinStep(0, emit);
  }

  template <typename Emit>
  bool JoinStep(int step, Emit& emit) {
    if (step == static_cast<int>(relations_.size())) {
      return emit(tuple_.data());
    }
    return ForEachCandidate(step, [&](RowId id) {
      tuple_[step] = id;
      const int pass = StepPredicatesPass(step, tuple_.data());
      if (pass <= 0) return pass == 0;
      return JoinStep(step + 1, emit);
    });
  }

  /// Expands the select list into compiled output expressions + names.
  /// '*' expands to every column of every relation.
  void ExpandItems(std::vector<int>* items, std::vector<std::string>* names) {
    for (const auto& item : sel_.items) {
      if (item.expr->kind == ExprKind::kStar) {
        for (const auto& rel : relations_) {
          if (!item.expr->table.empty() && item.expr->table != rel.name) {
            continue;
          }
          for (const auto& col : rel.table->schema().columns()) {
            owned_.push_back(Expr::MakeColumn(rel.name, col.name));
            items->push_back(exprs_.Add(*owned_.back()));
            names->push_back(col.name);
          }
        }
        continue;
      }
      items->push_back(exprs_.Add(*item.expr));
      names->push_back(OutputName(item));
    }
  }

  /// Rows of `picks` put in ORDER BY order (ties keep emission order, so
  /// the result equals a stable sort), sorted only as far as `limit`.
  template <typename Less>
  static void TopN(std::vector<uint32_t>* picks, size_t limit, Less less) {
    auto cmp = [&](uint32_t a, uint32_t b) {
      const int c = less(a, b);
      return c != 0 ? c < 0 : a < b;
    };
    if (limit < picks->size()) {
      std::partial_sort(picks->begin(), picks->begin() + limit, picks->end(),
                        cmp);
    } else {
      std::sort(picks->begin(), picks->end(), cmp);
    }
  }

  Result<ResultSetPtr> RunProjection() {
    std::vector<int> items;
    std::vector<std::string> names;
    ExpandItems(&items, &names);
    std::vector<int> order;
    for (const auto& oi : sel_.order_by) order.push_back(exprs_.Add(*oi.expr));

    // When no select item can fail (resolved columns, literals, bound
    // parameters) rows are kept as join tuples and only the rows LIMIT
    // keeps are projected. Otherwise — or under DISTINCT, which compares
    // projected rows — every row is projected as it is produced, so its
    // errors surface exactly as before.
    bool late = !sel_.distinct;
    for (int id : items) {
      if (!exprs_.node(id).leaf) late = false;
    }
    const size_t nr = relations_.size();
    const size_t nk = order.size();
    std::vector<Row> rows;            // projected rows (early projection)
    std::vector<RowId> tuples;        // nr per row (late projection)
    std::vector<const Value*> keys;   // nk borrowed order keys per row
    std::vector<std::unique_ptr<Value>> computed_keys;
    size_t n = 0;
    Value scratch;
    auto emit = [&](const RowId* tuple) {
      if (late) {
        tuples.insert(tuples.end(), tuple, tuple + nr);
      } else {
        Row out;
        out.reserve(items.size());
        for (int id : items) {
          const Value* v = exprs_.Eval(exprs_.node(id), tuple, &scratch);
          if (v == nullptr) return false;
          out.push_back(*v);
        }
        rows.push_back(std::move(out));
      }
      for (int id : order) {
        const Value* v = exprs_.Eval(exprs_.node(id), tuple, &scratch);
        if (v == nullptr) return false;
        if (v == &scratch) {
          computed_keys.push_back(std::make_unique<Value>(std::move(scratch)));
          v = computed_keys.back().get();
        }
        keys.push_back(v);
      }
      ++n;
      return true;
    };
    if (!RunJoin(emit)) return exprs_.error();

    std::vector<uint32_t> picks;
    if (sel_.distinct) {
      std::unordered_set<uint64_t> seen;
      for (size_t i = 0; i < n; ++i) {
        uint64_t h = 0x9e37;
        for (const auto& v : rows[i]) h = util::HashCombine(h, v.Hash());
        if (seen.insert(h).second) picks.push_back(static_cast<uint32_t>(i));
      }
    } else {
      picks.resize(n);
      std::iota(picks.begin(), picks.end(), 0u);
    }
    const size_t limit =
        sel_.limit >= 0 ? std::min(static_cast<size_t>(sel_.limit),
                                   picks.size())
                        : picks.size();
    if (nk > 0) {
      TopN(&picks, limit, [&](uint32_t a, uint32_t b) {
        for (size_t i = 0; i < nk; ++i) {
          int c = CompareValues(*keys[a * nk + i], *keys[b * nk + i]);
          if (c != 0) return sel_.order_by[i].desc ? (c > 0 ? -1 : 1) : c;
        }
        return 0;
      });
    }
    auto rs = std::make_shared<ResultSet>(names);
    rs->Reserve(limit);
    for (size_t i = 0; i < limit; ++i) {
      const uint32_t r = picks[i];
      if (!late) {
        rs->AddRow(std::move(rows[r]));
        continue;
      }
      Row out;
      out.reserve(items.size());
      for (int id : items) {
        out.push_back(*exprs_.Eval(exprs_.node(id), tuples.data() + r * nr,
                                   &scratch));
      }
      rs->AddRow(std::move(out));
    }
    rs->set_rows_examined(rows_examined_);
    return ResultSetPtr(rs);
  }

  /// Collects every aggregate call node reachable from `id`, assigning
  /// aggregate slots (aggregates cannot nest, so recursion stops at a
  /// FuncCall).
  void CollectAggNodes(int id, std::vector<int>* out) {
    Node& n = exprs_.mutable_node(id);
    if (n.kind == ExprKind::kFuncCall) {
      n.agg = static_cast<int>(out->size());
      out->push_back(id);
      return;
    }
    for (int i = 0; i < n.num_kids; ++i) {
      CollectAggNodes(exprs_.kid_id(n, i), out);
    }
  }

  /// Single-relation aggregate with no WHERE/GROUP BY whose aggregates are
  /// all COUNT(*) or MIN/MAX over a column: accumulates straight from the
  /// table (COUNT(*) from the live-row count, MIN/MAX in one tight pass
  /// over live slots) instead of running the scan's per-row pipeline.
  /// rows_examined still counts every live row, as the scan plan does.
  /// Returns false (touching nothing) when the query does not qualify.
  bool SingleTableAggregate(const std::vector<int>& aggs,
                            std::vector<AggState>* states,
                            std::vector<RowId>* reps, size_t* groups) {
    if (relations_.size() != 1 || !conjuncts_.empty() ||
        !sel_.group_by.empty()) {
      return false;
    }
    for (int id : aggs) {
      const Node& e = exprs_.node(id);
      if (e.num_kids != 1) return false;
      const Node& arg = exprs_.kid(e, 0);
      const bool count_star = e.func == AggFunc::kCount && !e.distinct &&
                              arg.kind == ExprKind::kStar;
      const bool extreme =
          (e.func == AggFunc::kMin || e.func == AggFunc::kMax) &&
          arg.kind == ExprKind::kColumnRef && arg.error < 0;
      if (!count_star && !extreme) return false;
    }
    const Table* table = relations_[0].table;
    rows_examined_ += table->num_rows();
    if (table->num_rows() == 0) return true;  // no group: synthetic row
    const size_t slots = table->NumSlots();
    RowId first = 0;
    while (!table->IsLive(first)) ++first;
    reps->push_back(first);
    states->resize(aggs.size());
    *groups = 1;
    for (size_t a = 0; a < aggs.size(); ++a) {
      const Node& e = exprs_.node(aggs[a]);
      AggState& agg = (*states)[a];
      if (e.func == AggFunc::kCount) {
        agg.count = static_cast<int64_t>(table->num_rows());
        agg.any = true;
        continue;
      }
      const int col = exprs_.kid(e, 0).col;
      const bool want_min = e.func == AggFunc::kMin;
      const Value* best = nullptr;
      for (size_t i = first; i < slots; ++i) {
        const RowId id = static_cast<RowId>(i);
        if (!table->IsLive(id)) continue;
        const Value& v = table->At(id)[col];
        if (v.is_null()) continue;
        if (best == nullptr) {
          best = &v;
          continue;
        }
        const int c = CompareValues(v, *best);
        if (want_min ? c < 0 : c > 0) best = &v;
      }
      if (best != nullptr) {
        agg.extreme = *best;
        agg.any = true;
      }
    }
    return true;
  }

  Result<ResultSetPtr> RunAggregate() {
    // Select items may be aggregate calls, group-by expressions, or any
    // scalar expression over them (e.g. MAX(O_ID) - 3333). Functional
    // dependence of bare columns on the group key is assumed, as in
    // MySQL's traditional behaviour.
    std::vector<std::string> names;
    std::vector<int> items;
    std::vector<bool> item_has_agg;
    for (const auto& item : sel_.items) {
      names.push_back(OutputName(item));
      items.push_back(exprs_.Add(*item.expr));
      item_has_agg.push_back(HasAggregate(*item.expr));
    }
    std::vector<int> aggs;
    for (int id : items) CollectAggNodes(id, &aggs);
    std::vector<int> group_by;
    for (const auto& g : sel_.group_by) group_by.push_back(exprs_.Add(*g));

    // Groups in creation order: aggregate states (na per group) and a
    // representative input tuple (nr per group). Without GROUP BY all rows
    // fold into one group, no hashing; with it, groups are keyed by the
    // hash of the group-by values, read in place.
    const size_t na = aggs.size();
    const size_t nr = relations_.size();
    std::vector<AggState> states;
    std::vector<RowId> reps;
    size_t groups = 0;
    if (!SingleTableAggregate(aggs, &states, &reps, &groups)) {
      std::unordered_map<uint64_t, uint32_t> group_of;
      Value scratch;
      auto emit = [&](const RowId* tuple) {
        size_t g = 0;
        bool create = groups == 0;
        if (!group_by.empty()) {
          uint64_t h = 0x51ab;
          for (int id : group_by) {
            const Value* v = exprs_.Eval(exprs_.node(id), tuple, &scratch);
            if (v == nullptr) return false;
            h = util::HashCombine(h, v->Hash());
          }
          auto [it, inserted] =
              group_of.try_emplace(h, static_cast<uint32_t>(groups));
          create = inserted;
          g = it->second;
        }
        if (create) {
          reps.insert(reps.end(), tuple, tuple + nr);
          states.resize(states.size() + na);
          ++groups;
        }
        AggState* st = states.data() + g * na;
        for (size_t a = 0; a < na; ++a) {
          const Node& e = exprs_.node(aggs[a]);
          const Node& arg = exprs_.kid(e, 0);
          const Value* v = &kOne;
          if (arg.kind != ExprKind::kStar) {
            v = exprs_.Eval(arg, tuple, &scratch);
            if (v == nullptr) return false;
          }
          Accumulate(e, *v, &st[a]);
        }
        return true;
      };
      if (!RunJoin(emit)) return exprs_.error();
    }

    // With no GROUP BY and no input rows, aggregates still yield one row
    // (over an empty representative tuple; bare column refs yield NULL
    // only through aggregate args, which do not run in this case).
    bool synthetic_empty_group = false;
    if (sel_.group_by.empty() && groups == 0) {
      reps.assign(nr, 0);
      states.assign(na, AggState{});
      groups = 1;
      synthetic_empty_group = true;
    }

    // Map ORDER BY expressions onto output columns (by alias, by column
    // name, or by identical printed text).
    std::vector<int> order_cols;
    for (const auto& oi : sel_.order_by) {
      std::string txt = sql::PrintExpr(*oi.expr);
      int found = -1;
      for (size_t i = 0; i < sel_.items.size(); ++i) {
        if (!sel_.items[i].alias.empty() &&
            (txt == sel_.items[i].alias ||
             (oi.expr->kind == ExprKind::kColumnRef &&
              oi.expr->column == sel_.items[i].alias))) {
          found = static_cast<int>(i);
          break;
        }
        if (sql::PrintExpr(*sel_.items[i].expr) == txt) {
          found = static_cast<int>(i);
          break;
        }
        if (oi.expr->kind == ExprKind::kColumnRef &&
            sel_.items[i].expr->kind == ExprKind::kColumnRef &&
            sel_.items[i].expr->column == oi.expr->column) {
          found = static_cast<int>(i);
          break;
        }
      }
      if (found < 0) {
        return Status::Unimplemented(
            "ORDER BY expression not in aggregate select list: " + txt);
      }
      order_cols.push_back(found);
    }

    const size_t limit =
        sel_.limit >= 0 ? std::min(static_cast<size_t>(sel_.limit), groups)
                        : groups;
    // Under ORDER BY ... LIMIT, when every item outside the ORDER BY
    // columns cannot fail (aggregates, resolved columns, literals), only
    // the ORDER BY columns are finalized for every group; the other items
    // are finalized for the LIMIT survivors alone.
    std::vector<bool> sort_col(items.size(), false);
    for (int c : order_cols) sort_col[c] = true;
    bool lazy = !order_cols.empty() && limit < groups;
    for (size_t i = 0; i < items.size() && lazy; ++i) {
      const Node& n = exprs_.node(items[i]);
      if (!sort_col[i] && !n.leaf &&
          !(n.kind == ExprKind::kFuncCall && n.agg >= 0)) {
        lazy = false;
      }
    }

    std::vector<Value> agg_values(na);
    std::vector<Row> rows(groups, Row(items.size()));
    Value scratch;
    auto finalize = [&](size_t g, bool all) -> Status {
      for (size_t a = 0; a < na; ++a) {
        auto v = FinalizeAgg(exprs_.node(aggs[a]), states[g * na + a]);
        if (!v.ok()) return v.status();
        agg_values[a] = std::move(*v);
      }
      for (size_t i = 0; i < items.size(); ++i) {
        if (!all && !sort_col[i]) continue;
        if (!item_has_agg[i] && synthetic_empty_group) {
          // No rows: bare expressions have no value.
          rows[g][i] = Value::Null();
          continue;
        }
        exprs_.set_agg_values(agg_values.data());
        const Value* v =
            exprs_.Eval(exprs_.node(items[i]), reps.data() + g * nr, &scratch);
        exprs_.set_agg_values(nullptr);
        if (v == nullptr) return exprs_.error();
        rows[g][i] = *v;
      }
      return Status::OK();
    };
    for (size_t g = 0; g < groups; ++g) {
      APOLLO_RETURN_NOT_OK(finalize(g, !lazy));
    }

    std::vector<uint32_t> picks(groups);
    std::iota(picks.begin(), picks.end(), 0u);
    if (!order_cols.empty()) {
      TopN(&picks, limit, [&](uint32_t a, uint32_t b) {
        for (size_t i = 0; i < order_cols.size(); ++i) {
          int c = CompareValues(rows[a][order_cols[i]], rows[b][order_cols[i]]);
          if (c != 0) return sel_.order_by[i].desc ? (c > 0 ? -1 : 1) : c;
        }
        return 0;
      });
    }
    auto rs = std::make_shared<ResultSet>(names);
    rs->Reserve(limit);
    for (size_t i = 0; i < limit; ++i) {
      if (lazy) APOLLO_RETURN_NOT_OK(finalize(picks[i], true));
      rs->AddRow(std::move(rows[picks[i]]));
    }
    rs->set_rows_examined(rows_examined_);
    return ResultSetPtr(rs);
  }

  Catalog* catalog_;
  const sql::SelectStmt& sel_;
  std::vector<Relation> relations_;
  ExprTable exprs_;
  const bool semijoin_prefilter_;
  std::vector<std::unique_ptr<Expr>> owned_;  // '*' expansions
  std::vector<Conjunct> conjuncts_;
  std::vector<StepPlan> step_plans_;
  Tuple tuple_;                        // the join's current tuple
  BorrowedKey probe_buf_;              // reused index-probe key
  std::vector<std::vector<RowId>> cand_buf_;  // per-step candidate buffers
  uint64_t rows_examined_ = 0;
};

/// Shared row-matching for UPDATE / DELETE: single relation, index-aware.
/// `relations` receives the target relation, so `exprs` (built over it)
/// can compile the statement's other expressions afterwards.
Result<std::vector<RowId>> MatchRows(Catalog* catalog,
                                     const std::string& table_name,
                                     const Expr* where,
                                     std::vector<Relation>* relations,
                                     ExprTable& exprs,
                                     const std::vector<Value>* params,
                                     uint64_t* rows_examined) {
  Table* table = catalog->GetTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("unknown table " + table_name);
  }
  relations->push_back({table->schema().table_name(), table});

  std::vector<const Expr*> conjunct_exprs;
  FlattenConjuncts(where, &conjunct_exprs);
  std::vector<int> conjuncts;
  for (const Expr* c : conjunct_exprs) conjuncts.push_back(exprs.Add(*c));

  // Equality keys on literals.
  std::vector<EqKey> keys;
  for (int id : conjuncts) {
    const Node& c = exprs.node(id);
    if (c.kind != ExprKind::kBinary || c.op != BinOp::kEq) continue;
    for (int side = 0; side < 2; ++side) {
      const Node& col = exprs.kid(c, side);
      const Node& other = exprs.kid(c, 1 - side);
      if (col.kind != ExprKind::kColumnRef) continue;
      bool bindable =
          other.kind == ExprKind::kLiteral ||
          (other.kind == ExprKind::kPlaceholder && params != nullptr);
      if (!bindable || col.error >= 0) continue;
      keys.push_back({col.col, exprs.kid_id(c, 1 - side)});
      break;
    }
  }

  std::vector<RowId> candidates;
  RowId tuple[1] = {0};
  bool used_index = false;
  if (!keys.empty()) {
    std::vector<int> eq_cols;
    for (const auto& k : keys) eq_cols.push_back(k.col);
    int idx = table->FindUsableIndex(eq_cols);
    if (idx >= 0) {
      std::vector<int> srcs;
      for (int pos : table->IndexColumns(idx)) {
        for (const auto& k : keys) {
          if (k.col == pos) {
            srcs.push_back(k.value_node);
            break;
          }
        }
      }
      BorrowedKey probe;
      if (!BuildKey(exprs, srcs.data(), srcs.size(), tuple, &probe)) {
        return exprs.error();
      }
      table->IndexLookup(idx, probe.parts.data(), &candidates);
      used_index = true;
    }
  }
  if (!used_index) {
    for (size_t i = 0; i < table->NumSlots(); ++i) {
      RowId id = static_cast<RowId>(i);
      if (table->IsLive(id)) candidates.push_back(id);
    }
  }
  *rows_examined += candidates.size();

  std::vector<RowId> matched;
  for (RowId id : candidates) {
    tuple[0] = id;
    bool pass = true;
    for (int c : conjuncts) {
      const int t = exprs.Check(exprs.node(c), tuple);
      if (t < 0) return exprs.error();
      if (t == 0) {
        pass = false;
        break;
      }
    }
    if (pass) matched.push_back(id);
  }
  return matched;
}

Result<ResultSetPtr> RunInsert(Catalog* catalog, const sql::InsertStmt& ins,
                               const std::vector<Value>* params) {
  Table* table = catalog->GetTable(ins.table);
  if (table == nullptr) {
    return Status::NotFound("unknown table " + ins.table);
  }
  const Schema& schema = table->schema();

  // Map insert columns to schema positions.
  std::vector<int> positions;
  if (ins.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      positions.push_back(static_cast<int>(i));
    }
  } else {
    for (const auto& c : ins.columns) {
      int pos = schema.ColumnIndex(c);
      if (pos < 0) {
        return Status::NotFound("unknown column " + c + " in INSERT");
      }
      positions.push_back(pos);
    }
  }

  const std::vector<Relation> no_relations;
  ExprTable exprs(&no_relations, params);
  Value scratch;
  uint64_t affected = 0;
  for (const auto& row_exprs : ins.rows) {
    if (row_exprs.size() != positions.size()) {
      return Status::InvalidArgument("INSERT arity mismatch");
    }
    Row row(schema.num_columns(), Value::Null());
    for (size_t i = 0; i < row_exprs.size(); ++i) {
      const Value* v =
          exprs.Eval(exprs.node(exprs.Add(*row_exprs[i])), nullptr, &scratch);
      if (v == nullptr) return exprs.error();
      row[positions[i]] = *v;
    }
    APOLLO_RETURN_NOT_OK(table->Insert(std::move(row)));
    ++affected;
  }
  auto rs = std::make_shared<ResultSet>();
  rs->set_affected_rows(affected);
  rs->set_rows_examined(affected);
  return ResultSetPtr(rs);
}

Result<ResultSetPtr> RunUpdate(Catalog* catalog, const sql::UpdateStmt& upd,
                               const std::vector<Value>* params) {
  std::vector<Relation> relations;
  ExprTable exprs(&relations, params);
  uint64_t rows_examined = 0;
  auto matched = MatchRows(catalog, upd.table, upd.where.get(), &relations,
                           exprs, params, &rows_examined);
  if (!matched.ok()) return matched.status();
  Table* table = catalog->GetTable(upd.table);

  std::vector<int> col_indexes;
  std::vector<int> value_nodes;
  for (const auto& [col, expr] : upd.assignments) {
    int pos = table->schema().ColumnIndex(col);
    if (pos < 0) {
      return Status::NotFound("unknown column " + col + " in UPDATE");
    }
    col_indexes.push_back(pos);
    value_nodes.push_back(exprs.Add(*expr));
  }
  BorrowedKey computed;
  std::vector<Value> new_values(value_nodes.size());
  for (RowId id : *matched) {
    if (!BuildKey(exprs, value_nodes.data(), value_nodes.size(), &id,
                  &computed)) {
      return exprs.error();
    }
    // Copied before the write: a value may borrow a cell of this row.
    for (size_t i = 0; i < new_values.size(); ++i) {
      new_values[i] = *computed.parts[i];
    }
    table->UpdateRow(id, col_indexes, new_values);
  }
  auto rs = std::make_shared<ResultSet>();
  rs->set_affected_rows(matched->size());
  rs->set_rows_examined(rows_examined);
  return ResultSetPtr(rs);
}

Result<ResultSetPtr> RunDelete(Catalog* catalog, const sql::DeleteStmt& del,
                               const std::vector<Value>* params) {
  std::vector<Relation> relations;
  ExprTable exprs(&relations, params);
  uint64_t rows_examined = 0;
  auto matched = MatchRows(catalog, del.table, del.where.get(), &relations,
                           exprs, params, &rows_examined);
  if (!matched.ok()) return matched.status();
  Table* table = catalog->GetTable(del.table);
  for (RowId id : *matched) table->DeleteRow(id);
  auto rs = std::make_shared<ResultSet>();
  rs->set_affected_rows(matched->size());
  rs->set_rows_examined(rows_examined);
  return ResultSetPtr(rs);
}

}  // namespace

util::Result<common::ResultSetPtr> Executor::Execute(
    const sql::Statement& stmt) {
  return Execute(stmt, nullptr);
}

util::Result<common::ResultSetPtr> Executor::Execute(
    const sql::Statement& stmt, const std::vector<common::Value>* params) {
  switch (stmt.kind) {
    case sql::StatementKind::kSelect: {
      SelectRunner runner(catalog_, *stmt.select, params,
                          semijoin_prefilter_);
      return runner.Run();
    }
    case sql::StatementKind::kInsert:
      return RunInsert(catalog_, *stmt.insert, params);
    case sql::StatementKind::kUpdate:
      return RunUpdate(catalog_, *stmt.update, params);
    case sql::StatementKind::kDelete:
      return RunDelete(catalog_, *stmt.del, params);
  }
  return util::Status::Internal("unreachable statement kind");
}

}  // namespace apollo::db
