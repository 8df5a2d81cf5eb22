#include "db/catalog.h"

#include "util/string_util.h"

namespace apollo::db {

util::Status Catalog::CreateTable(Schema schema) {
  std::string name = schema.table_name();
  if (tables_.count(name) > 0) {
    return util::Status::AlreadyExists("table " + name + " already exists");
  }
  tables_.emplace(name, std::make_unique<Table>(std::move(schema)));
  return util::Status::OK();
}

Table* Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(util::ToUpperAscii(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(util::ToUpperAscii(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, _] : tables_) out.push_back(name);
  return out;
}

size_t Catalog::ApproximateDataBytes() const {
  size_t total = 0;
  for (const auto& [_, table] : tables_) {
    const size_t columns = table->schema().num_columns();
    for (size_t i = 0; i < table->NumSlots(); ++i) {
      const RowId id = static_cast<RowId>(i);
      if (!table->IsLive(id)) continue;
      const common::Value* row = table->At(id);
      for (size_t c = 0; c < columns; ++c) total += row[c].ByteSize();
    }
  }
  return total;
}

}  // namespace apollo::db
