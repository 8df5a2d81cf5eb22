// Golden parity of the query executor.
//
// The executor's fast paths may change only physical work: every result
// (column names, rows in order) and every statement's `rows_examined` — the
// reference plan's count that the simulator's cost model consumes — must be
// what the reference executor produced. The workload tests below drive
// fixed-seed TPC-W and TPC-C clients straight against a Database and fold
// every statement's outcome into a digest; the constants were recorded from
// the reference executor and must never be re-recorded to make a change
// pass. Each statement runs through the text path and, for reads, also
// through the prepared path (template + bound parameters), with the
// semijoin pre-filter off and on.
//
// The edge-case tests pin behaviour the workloads do not reach: stable
// ORDER BY ties, LIMIT 0 / LIMIT beyond the row count, NULLs in aggregates
// and ordering, tombstoned rows, empty tables, and error text.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/middleware.h"
#include "db/database.h"
#include "sim/event_loop.h"
#include "sql/template_cache.h"
#include "workload/client_driver.h"
#include "workload/tpcc.h"
#include "workload/tpcw.h"

namespace apollo {
namespace {

using common::ResultSetPtr;
using common::ValueType;

/// FNV-1a over a byte string.
uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Running digest of statement outcomes.
struct Digest {
  uint64_t statements = 0;
  uint64_t rows_examined = 0;
  uint64_t hash = 14695981039346656037ull;

  void Fold(const std::string& sql,
            const util::Result<ResultSetPtr>& result) {
    ++statements;
    hash = Fnv(hash, sql);
    if (!result.ok()) {
      hash = Fnv(hash, "error:" + result.status().ToString());
      return;
    }
    const common::ResultSet& rs = **result;
    rows_examined += rs.rows_examined();
    hash = Fnv(hash, "examined:" + std::to_string(rs.rows_examined()) +
                         " affected:" + std::to_string(rs.affected_rows()));
    for (const auto& c : rs.columns()) hash = Fnv(hash, "col:" + c);
    for (const auto& row : rs.rows()) {
      hash = Fnv(hash, "row");
      for (const auto& v : row) hash = Fnv(hash, v.ToSqlLiteral());
    }
  }
};

/// Executes every submitted statement directly against the database,
/// folding the text-path outcome into `text` and the prepared-path outcome
/// into `prepared`. Writes run once (prepared when possible) and fold into
/// both digests.
class ParityMiddleware : public core::Middleware {
 public:
  ParityMiddleware(sim::EventLoop* loop, db::Database* db)
      : loop_(loop), db_(db) {}

  void SubmitQuery(core::ClientId, const std::string& sql,
                   QueryCallback callback) override {
    ++stats_.queries;
    auto adm = tcache_.Admit(sql);
    const bool preparable = adm.ok() && adm->preparable();
    if (adm.ok()) templates_.insert(adm->fingerprint());
    util::Result<ResultSetPtr> result = util::Status::Internal("unset");
    if (adm.ok() && !adm->read_only()) {
      result = preparable ? db_->ExecutePrepared(*adm->tpl->statement,
                                                 adm->params)
                          : db_->Execute(sql);
      text.Fold(sql, result);
      prepared.Fold(sql, result);
    } else {
      result = db_->Execute(sql);
      text.Fold(sql, result);
      if (preparable) {
        prepared.Fold(sql,
                      db_->ExecutePrepared(*adm->tpl->statement, adm->params));
      }
    }
    if (!result.ok()) ++errors;
    loop_->After(util::Millis(1),
                 [result = std::move(result),
                  callback = std::move(callback)]() { callback(result); });
  }

  const core::MiddlewareStats& stats() const override { return stats_; }
  std::string name() const override { return "parity"; }

  Digest text;
  Digest prepared;
  uint64_t errors = 0;
  size_t num_templates() const { return templates_.size(); }

 private:
  sim::EventLoop* loop_;
  db::Database* db_;
  sql::TemplateCache tcache_;
  std::set<uint64_t> templates_;
  core::MiddlewareStats stats_;
};

struct ParityRun {
  Digest text;
  Digest prepared;
  size_t templates = 0;
  uint64_t errors = 0;
};

ParityRun RunWorkload(workload::Workload* w, bool prefilter, int clients,
                      util::SimTime duration) {
  db::Database db;
  db.set_semijoin_prefilter(prefilter);
  EXPECT_TRUE(w->Setup(&db).ok());
  sim::EventLoop loop;
  ParityMiddleware mw(&loop, &db);
  std::vector<std::unique_ptr<workload::ClientDriver>> drivers;
  for (int i = 0; i < clients; ++i) {
    drivers.push_back(std::make_unique<workload::ClientDriver>(
        &loop, &mw, i, w->MakeClient(i, 700 + i), 900 + i));
    drivers.back()->Start(duration);
  }
  loop.RunUntil(duration + util::Minutes(1));
  return {mw.text, mw.prepared, mw.num_templates(), mw.errors};
}

std::string Describe(const Digest& d) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{statements=%llu, rows_examined=%llu, hash=0x%016llxull}",
                static_cast<unsigned long long>(d.statements),
                static_cast<unsigned long long>(d.rows_examined),
                static_cast<unsigned long long>(d.hash));
  return buf;
}

void ExpectDigest(const Digest& got, const Digest& want, const char* what) {
  EXPECT_EQ(got.statements, want.statements) << what << " " << Describe(got);
  EXPECT_EQ(got.rows_examined, want.rows_examined)
      << what << " " << Describe(got);
  EXPECT_EQ(got.hash, want.hash) << what << " " << Describe(got);
}

workload::TpcwConfig ParityTpcw() {
  workload::TpcwConfig cfg;
  cfg.num_items = 2000;
  cfg.num_customers = 1000;
  cfg.num_authors = 500;
  cfg.num_orders = 900;
  cfg.seed = 7;
  return cfg;
}

workload::TpccConfig ParityTpcc() {
  workload::TpccConfig cfg;
  cfg.num_warehouses = 4;
  cfg.districts_per_warehouse = 3;
  cfg.customers_per_district = 30;
  cfg.num_items = 200;
  cfg.orders_per_district = 20;
  return cfg;
}

/// Both paths must reproduce the same reference digest: the prepared path
/// plans identically to the instantiated text.
struct Golden {
  Digest digest;
  size_t templates;
};

void CheckWorkload(workload::Workload* w, bool prefilter, int clients,
                   util::SimTime duration, const Golden& golden) {
  ParityRun run = RunWorkload(w, prefilter, clients, duration);
  EXPECT_EQ(run.errors, 0u);
  EXPECT_EQ(run.templates, golden.templates);
  ExpectDigest(run.text, golden.digest, "text path");
  ExpectDigest(run.prepared, golden.digest, "prepared path");
}

// Recorded from the reference executor (see file comment).
TEST(ExecutorParityTest, TpcwScanPlan) {
  workload::TpcwWorkload w(ParityTpcw());
  CheckWorkload(&w, /*prefilter=*/false, 8, util::Minutes(40),
                {{5070, 3697281, 0xc7f9f504dcaafde5ull}, 31});
}

TEST(ExecutorParityTest, TpcwSemijoinPrefilter) {
  workload::TpcwWorkload w(ParityTpcw());
  CheckWorkload(&w, /*prefilter=*/true, 8, util::Minutes(40),
                {{5070, 1831167, 0xedabb6f6c59df05aull}, 31});
}

TEST(ExecutorParityTest, TpccScanPlan) {
  workload::TpccWorkload w(ParityTpcc());
  CheckWorkload(&w, /*prefilter=*/false, 6, util::Minutes(40),
                {{6077, 100432, 0x2b60a800ffb4ebcbull}, 13});
}

TEST(ExecutorParityTest, TpccSemijoinPrefilter) {
  workload::TpccWorkload w(ParityTpcc());
  CheckWorkload(&w, /*prefilter=*/true, 6, util::Minutes(40),
                {{6077, 100432, 0x2b60a800ffb4ebcbull}, 13});
}

// ---------------------------------------------------------------------------
// Edge cases
// ---------------------------------------------------------------------------

class ExecutorEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Schema t("T", {{"ID", ValueType::kInt},
                       {"K", ValueType::kInt},
                       {"S", ValueType::kString},
                       {"N", ValueType::kInt}});
    t.AddIndex("PRIMARY", {"ID"});
    ASSERT_TRUE(db_.CreateTable(std::move(t)).ok());
    db::Schema e("E", {{"ID", ValueType::kInt}, {"V", ValueType::kInt}});
    ASSERT_TRUE(db_.CreateTable(std::move(e)).ok());
    // K has ties; N has NULLs.
    Exec("INSERT INTO T (ID, K, S, N) VALUES "
         "(1, 2, 'b', 10), (2, 1, 'a', NULL), (3, 2, 'c', 30), "
         "(4, 1, 'd', NULL), (5, 2, 'e', 5), (6, 3, 'f', 20)");
  }

  ResultSetPtr Exec(const std::string& sql) {
    auto rs = db_.Execute(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
    return rs.ok() ? *rs : nullptr;
  }

  std::vector<int64_t> Ints(const ResultSetPtr& rs, size_t col = 0) {
    std::vector<int64_t> out;
    for (size_t r = 0; r < rs->num_rows(); ++r) {
      out.push_back(rs->At(r, col).is_null() ? -1 : rs->At(r, col).AsInt());
    }
    return out;
  }

  db::Database db_;
};

TEST_F(ExecutorEdgeTest, OrderByTiesKeepScanOrder) {
  auto asc = Exec("SELECT ID FROM T ORDER BY K LIMIT 4");
  EXPECT_EQ(Ints(asc), (std::vector<int64_t>{2, 4, 1, 3}));
  EXPECT_EQ(asc->rows_examined(), 6u);
  auto desc = Exec("SELECT ID FROM T ORDER BY K DESC LIMIT 3");
  EXPECT_EQ(Ints(desc), (std::vector<int64_t>{6, 1, 3}));
  auto all = Exec("SELECT ID, S FROM T ORDER BY K DESC");
  EXPECT_EQ(Ints(all), (std::vector<int64_t>{6, 1, 3, 5, 2, 4}));
}

TEST_F(ExecutorEdgeTest, LimitZeroAndLimitBeyondRowCount) {
  auto zero = Exec("SELECT ID FROM T ORDER BY K LIMIT 0");
  EXPECT_EQ(zero->num_rows(), 0u);
  EXPECT_EQ(zero->columns(), (std::vector<std::string>{"ID"}));
  EXPECT_EQ(zero->rows_examined(), 6u);
  auto big = Exec("SELECT ID FROM T WHERE K = 2 ORDER BY S DESC LIMIT 100");
  EXPECT_EQ(Ints(big), (std::vector<int64_t>{5, 3, 1}));
  auto agg_zero =
      Exec("SELECT K, COUNT(*) AS C FROM T GROUP BY K ORDER BY C LIMIT 0");
  EXPECT_EQ(agg_zero->num_rows(), 0u);
}

TEST_F(ExecutorEdgeTest, NullsInAggregatesAndOrdering) {
  auto rs = Exec("SELECT MIN(N), MAX(N), COUNT(N), COUNT(*) FROM T");
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->At(0, 0).AsInt(), 5);
  EXPECT_EQ(rs->At(0, 1).AsInt(), 30);
  EXPECT_EQ(rs->At(0, 2).AsInt(), 4);
  EXPECT_EQ(rs->At(0, 3).AsInt(), 6);
  EXPECT_EQ(rs->rows_examined(), 6u);
  // NULL sorts first ascending, last descending; ties keep scan order.
  auto asc = Exec("SELECT ID, N FROM T ORDER BY N LIMIT 3");
  EXPECT_EQ(Ints(asc), (std::vector<int64_t>{2, 4, 5}));
  auto desc = Exec("SELECT ID FROM T ORDER BY N DESC");
  EXPECT_EQ(Ints(desc), (std::vector<int64_t>{3, 6, 1, 5, 2, 4}));
  auto all_null = Exec("SELECT MIN(N), MAX(N), COUNT(N) FROM T WHERE K = 1");
  EXPECT_TRUE(all_null->At(0, 0).is_null());
  EXPECT_TRUE(all_null->At(0, 1).is_null());
  EXPECT_EQ(all_null->At(0, 2).AsInt(), 0);
  auto grouped = Exec(
      "SELECT K, MAX(N) AS M, COUNT(N) AS C FROM T GROUP BY K ORDER BY K");
  ASSERT_EQ(grouped->num_rows(), 3u);
  EXPECT_TRUE(grouped->At(0, 1).is_null());
  EXPECT_EQ(grouped->At(0, 2).AsInt(), 0);
  EXPECT_EQ(grouped->At(1, 1).AsInt(), 30);
}

TEST_F(ExecutorEdgeTest, CountAndMaxSkipTombstones) {
  Exec("DELETE FROM T WHERE ID = 3");
  Exec("DELETE FROM T WHERE ID = 6");
  auto rs = Exec("SELECT COUNT(*) AS C FROM T");
  EXPECT_EQ(rs->At(0, 0).AsInt(), 4);
  EXPECT_EQ(rs->columns(), (std::vector<std::string>{"C"}));
  EXPECT_EQ(rs->rows_examined(), 4u);
  auto mx = Exec("SELECT MAX(N) AS M, MIN(ID) FROM T");
  EXPECT_EQ(mx->At(0, 0).AsInt(), 10);
  EXPECT_EQ(mx->At(0, 1).AsInt(), 1);
  EXPECT_EQ(mx->rows_examined(), 4u);
  auto mx_id = Exec("SELECT MAX(ID) FROM T");
  EXPECT_EQ(mx_id->At(0, 0).AsInt(), 5);
}

TEST_F(ExecutorEdgeTest, AggregatesOnEmptyTable) {
  auto rs = Exec("SELECT COUNT(*), MAX(V), MIN(V), SUM(V) FROM E");
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->At(0, 0).AsInt(), 0);
  EXPECT_TRUE(rs->At(0, 1).is_null());
  EXPECT_TRUE(rs->At(0, 2).is_null());
  EXPECT_TRUE(rs->At(0, 3).is_null());
  EXPECT_EQ(rs->rows_examined(), 0u);
  auto grouped = Exec("SELECT V, COUNT(*) FROM E GROUP BY V");
  EXPECT_EQ(grouped->num_rows(), 0u);
}

TEST_F(ExecutorEdgeTest, TopNErrorsKeepTheirText) {
  auto unknown = db_.Execute("SELECT BOGUS FROM T ORDER BY K LIMIT 2");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().message(), "unknown column BOGUS");
  // The select list is evaluated for every row, so LIMIT 0 still reports
  // it.
  auto unknown0 = db_.Execute("SELECT BOGUS FROM T ORDER BY K LIMIT 0");
  ASSERT_FALSE(unknown0.ok());
  EXPECT_EQ(unknown0.status().message(), "unknown column BOGUS");
  auto arith = db_.Execute("SELECT ID + S FROM T ORDER BY K LIMIT 1");
  ASSERT_FALSE(arith.ok());
  EXPECT_EQ(arith.status().message(), "arithmetic on non-numeric value");
  auto order_arith = db_.Execute("SELECT ID FROM T ORDER BY S * 2 LIMIT 1");
  ASSERT_FALSE(order_arith.ok());
  EXPECT_EQ(order_arith.status().message(),
            "arithmetic on non-numeric value");
  auto where_unknown = db_.Execute("SELECT ID FROM T WHERE NOPE = 1");
  ASSERT_FALSE(where_unknown.ok());
  EXPECT_EQ(where_unknown.status().message(), "unknown column NOPE");
  // No row reaches the select list: no error, as before.
  auto no_rows = Exec("SELECT BOGUS FROM T WHERE ID = 99 ORDER BY K LIMIT 1");
  EXPECT_EQ(no_rows->num_rows(), 0u);
  auto agg_unknown = db_.Execute("SELECT MAX(BOGUS) FROM T");
  ASSERT_FALSE(agg_unknown.ok());
  EXPECT_EQ(agg_unknown.status().message(), "unknown column BOGUS");
  auto agg_unknown_empty = Exec("SELECT MAX(BOGUS) FROM E");
  EXPECT_TRUE(agg_unknown_empty->At(0, 0).is_null());
}

}  // namespace
}  // namespace apollo
