// Database: the engine front-end Apollo talks to.
//
// Wraps a Catalog + Executor behind a thread-safe SQL interface and
// maintains a monotonically increasing version per table, bumped on every
// write. Apollo's client-session consistency (paper Section 3.2) is built
// on these versions: ExecuteStamped returns each result with the versions
// that stamp it, and both origin ports (net::RemoteDatabase, rt::DbGateway)
// execute through it.
#pragma once

#include <atomic>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result_set.h"
#include "db/catalog.h"
#include "db/executor.h"
#include "sql/ast.h"
#include "sql/template_cache.h"
#include "util/result.h"

namespace apollo::db {

/// Execution statistics exposed for the experiments' overhead reporting.
struct DatabaseStats {
  uint64_t queries_executed = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t rows_examined = 0;
};

/// One executed statement plus the table versions that stamp its result
/// (cache entries, session vectors).
struct StampedResult {
  util::Result<common::ResultSetPtr> result =
      util::Result<common::ResultSetPtr>(nullptr);
  std::unordered_map<std::string, uint64_t> versions;
};

class Database {
 public:
  Database();

  /// Creates a table; fails if it already exists.
  util::Status CreateTable(Schema schema);

  /// Direct table access for data loaders (not thread-safe against
  /// concurrent Execute calls; loaders run before the simulation starts).
  Table* GetTable(const std::string& name);

  /// Opt-in executor optimization; see Executor::set_semijoin_prefilter.
  /// Call before concurrent execution starts (not synchronized).
  void set_semijoin_prefilter(bool on) {
    executor_.set_semijoin_prefilter(on);
  }

  /// Parses and executes one statement.
  util::Result<common::ResultSetPtr> Execute(const std::string& sql);

  /// Prepared execution: runs a cached parameterized statement with the
  /// given bound values — no SQL text, no parse. Semantically identical to
  /// executing the instantiated text.
  util::Result<common::ResultSetPtr> ExecutePrepared(
      const sql::Statement& stmt, const std::vector<common::Value>& params);

  /// Executes a bound statement the way the origin serves the edge, and
  /// stamps the result. A read stamps the versions of its tables_read as
  /// of just before it ran, so a stamp can never be newer than the data
  /// and a stale result can never look fresh. A successful write stamps
  /// its tables_written after its own bump: exactly the versions the
  /// writing client has observed. A failed write carries no versions.
  /// Both snapshots are taken under the lock the statement runs under, so
  /// no other write lands between the statement and its stamp.
  StampedResult ExecuteStamped(const sql::BoundStatement& stmt);

  /// Current version of a table (0 if never written).
  uint64_t TableVersion(const std::string& name) const;

  /// Versions of several tables at once (a consistent snapshot).
  std::unordered_map<std::string, uint64_t> VersionsOf(
      const std::vector<std::string>& tables) const;

  DatabaseStats stats() const;

  /// Approximate bytes of data stored (for the "5% of DB size" cache rule).
  size_t ApproximateDataBytes() const;

 private:
  /// Executes under the table lock. With `stamp_tables` set it also fills
  /// *versions per the ExecuteStamped rule.
  util::Result<common::ResultSetPtr> RunStatement(
      const sql::Statement& stmt, const std::vector<common::Value>* params,
      const std::vector<std::string>* stamp_tables = nullptr,
      std::unordered_map<std::string, uint64_t>* versions = nullptr);
  /// VersionsOf without taking the lock; caller holds mu_.
  void VersionsOfLocked(const std::vector<std::string>& tables,
                        std::unordered_map<std::string, uint64_t>* out) const;

  mutable std::shared_mutex mu_;
  Catalog catalog_;
  Executor executor_;
  std::unordered_map<std::string, uint64_t> versions_;
  // Stats are relaxed atomics so the read path can count under the shared
  // lock instead of re-acquiring the unique lock per query (which made the
  // stats update the read path's only contention point).
  std::atomic<uint64_t> queries_executed_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> rows_examined_{0};
};

}  // namespace apollo::db
