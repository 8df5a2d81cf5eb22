#include "db/database.h"

#include <mutex>

#include "sql/parser.h"
#include "util/string_util.h"

namespace apollo::db {

Database::Database() : executor_(&catalog_) {}

util::Status Database::CreateTable(Schema schema) {
  std::unique_lock lock(mu_);
  std::string name = schema.table_name();
  APOLLO_RETURN_NOT_OK(catalog_.CreateTable(std::move(schema)));
  versions_[name] = 1;
  return util::Status::OK();
}

Table* Database::GetTable(const std::string& name) {
  return catalog_.GetTable(name);
}

util::Result<common::ResultSetPtr> Database::Execute(const std::string& sql) {
  auto stmt = sql::Parse(sql);
  if (!stmt.ok()) return stmt.status();
  return RunStatement(**stmt, nullptr);
}

util::Result<common::ResultSetPtr> Database::ExecutePrepared(
    const sql::Statement& stmt, const std::vector<common::Value>& params) {
  return RunStatement(stmt, &params);
}

StampedResult Database::ExecuteStamped(const sql::BoundStatement& stmt) {
  const sql::TemplateInfo& info = stmt.tpl->info;
  StampedResult out;
  out.result = RunStatement(
      *stmt.tpl->statement, &stmt.params,
      info.read_only ? &info.tables_read : &info.tables_written,
      &out.versions);
  return out;
}

util::Result<common::ResultSetPtr> Database::RunStatement(
    const sql::Statement& stmt, const std::vector<common::Value>* params,
    const std::vector<std::string>* stamp_tables,
    std::unordered_map<std::string, uint64_t>* versions) {
  const bool read_only = stmt.IsReadOnly();
  constexpr auto relaxed = std::memory_order_relaxed;
  if (read_only) {
    std::shared_lock lock(mu_);
    // Reads stamp before running: an understamp is safe, a stale result
    // stamped as fresh is not.
    if (stamp_tables != nullptr) VersionsOfLocked(*stamp_tables, versions);
    auto rs = executor_.Execute(stmt, params);
    if (rs.ok()) {
      // Relaxed counting under the shared lock: exact totals, no unique
      // lock on the read path.
      queries_executed_.fetch_add(1, relaxed);
      reads_.fetch_add(1, relaxed);
      rows_examined_.fetch_add((*rs)->rows_examined(), relaxed);
    }
    return rs;
  }
  std::unique_lock lock(mu_);
  auto rs = executor_.Execute(stmt, params);
  if (rs.ok()) {
    queries_executed_.fetch_add(1, relaxed);
    writes_.fetch_add(1, relaxed);
    rows_examined_.fetch_add((*rs)->rows_examined(), relaxed);
    for (const auto& t : stmt.TablesWritten()) {
      ++versions_[util::ToUpperAscii(t)];
    }
    // Writes stamp after their own bump.
    if (stamp_tables != nullptr) VersionsOfLocked(*stamp_tables, versions);
  }
  return rs;
}

uint64_t Database::TableVersion(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = versions_.find(util::ToUpperAscii(name));
  return it == versions_.end() ? 0 : it->second;
}

std::unordered_map<std::string, uint64_t> Database::VersionsOf(
    const std::vector<std::string>& tables) const {
  std::shared_lock lock(mu_);
  std::unordered_map<std::string, uint64_t> out;
  VersionsOfLocked(tables, &out);
  return out;
}

void Database::VersionsOfLocked(
    const std::vector<std::string>& tables,
    std::unordered_map<std::string, uint64_t>* out) const {
  for (const auto& t : tables) {
    std::string up = util::ToUpperAscii(t);
    auto it = versions_.find(up);
    (*out)[up] = it == versions_.end() ? 0 : it->second;
  }
}

DatabaseStats Database::stats() const {
  constexpr auto relaxed = std::memory_order_relaxed;
  DatabaseStats s;
  s.queries_executed = queries_executed_.load(relaxed);
  s.reads = reads_.load(relaxed);
  s.writes = writes_.load(relaxed);
  s.rows_examined = rows_examined_.load(relaxed);
  return s;
}

size_t Database::ApproximateDataBytes() const {
  std::shared_lock lock(mu_);
  return catalog_.ApproximateDataBytes();
}

}  // namespace apollo::db
