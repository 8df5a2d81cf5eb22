#include "db/table.h"

#include <algorithm>
#include <new>

#include "util/hash.h"

namespace apollo::db {

namespace {

using common::Value;

/// Value equality (Compare() == 0) with the same-type INT and STRING cases
/// inline.
inline bool SameValue(const Value& a, const Value& b) {
  if (a.is_int() && b.is_int()) return a.AsInt() == b.AsInt();
  if (a.is_string() && b.is_string()) return a.AsString() == b.AsString();
  return a.Compare(b) == 0;
}

/// Coerces a numeric value to the declared column type where loss-free.
void CoerceNumeric(common::ValueType want, Value* v) {
  if (want == common::ValueType::kDouble && v->is_int()) {
    *v = Value::Double(static_cast<double>(v->AsInt()));
  } else if (want == common::ValueType::kInt && v->is_double()) {
    *v = Value::Int(static_cast<int64_t>(v->AsDoubleRaw()));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// FlatIndex
// ---------------------------------------------------------------------------

size_t Table::FlatIndex::Probe(uint64_t key) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = key & mask;; i = (i + 1) & mask) {
    if (slots_[i].ref == kFree || slots_[i].key == key) return i;
  }
}

void Table::FlatIndex::Grow() {
  // Sized for the keys that still have rows, at most half full; keys whose
  // rows all left are dropped here.
  size_t cap = 16;
  while (cap < 2 * (keys_ + 1)) cap *= 2;
  std::vector<Slot> old(cap);
  old.swap(slots_);
  for (const Slot& s : old) {
    if (s.ref == kFree || s.count == 0) continue;
    slots_[Probe(s.key)] = s;
  }
  used_ = keys_;
}

void Table::FlatIndex::Insert(uint64_t key, RowId id) {
  if (slots_.empty()) Grow();
  Slot* s = &slots_[Probe(key)];
  if (s->ref == kFree) {
    if ((used_ + 1) * 4 > slots_.size() * 3) {
      Grow();
      s = &slots_[Probe(key)];
    }
    ++used_;
    s->key = key;
  }
  switch (s->count) {
    case 0:
      ++keys_;
      s->ref = id;
      break;
    case 1: {
      uint32_t p;
      if (free_postings_.empty()) {
        p = static_cast<uint32_t>(postings_.size());
        postings_.emplace_back();
      } else {
        p = free_postings_.back();
        free_postings_.pop_back();
      }
      postings_[p] = {s->ref, id};
      s->ref = p;
      break;
    }
    default:
      postings_[s->ref].push_back(id);
  }
  ++s->count;
}

void Table::FlatIndex::Erase(uint64_t key, RowId id) {
  if (slots_.empty()) return;
  Slot* s = &slots_[Probe(key)];
  if (s->count == 0) return;  // absent, or its rows all left
  if (s->count == 1) {
    if (s->ref != id) return;
    s->count = 0;
    s->ref = 0;
    --keys_;
    return;
  }
  std::vector<RowId>& list = postings_[s->ref];
  // First match newest-first; ids are unique within a key, so this only
  // decides where the search starts.
  auto it = std::find(list.rbegin(), list.rend(), id);
  if (it == list.rend()) return;
  list.erase(std::next(it).base());
  if (--s->count == 1) {
    free_postings_.push_back(s->ref);
    s->ref = list[0];
    std::vector<RowId>().swap(list);
  }
}

std::span<const RowId> Table::FlatIndex::Find(uint64_t key) const {
  if (slots_.empty()) return {};
  const Slot& s = slots_[Probe(key)];
  if (s.count == 0) return {};
  if (s.count == 1) return {&s.ref, 1};
  return {postings_[s.ref].data(), s.count};
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

Table::Table(Schema schema)
    : schema_(std::move(schema)), num_columns_(schema_.num_columns()) {
  indexes_.resize(schema_.indexes().size());
  for (const auto& def : schema_.indexes()) {
    std::vector<int> positions;
    for (const auto& col : def.columns) {
      positions.push_back(schema_.ColumnIndex(col));
    }
    index_col_positions_.push_back(std::move(positions));
  }
}

Table::~Table() {
  for (size_t i = 0; i < NumSlots(); ++i) {
    Value* row = MutableRow(static_cast<RowId>(i));
    for (size_t c = 0; c < num_columns_; ++c) row[c].~Value();
  }
  for (Value* chunk : chunks_) ::operator delete(chunk);
}

uint64_t Table::IndexKeyHash(int idx, const Value* row) const {
  uint64_t h = 0x12345;
  for (int pos : index_col_positions_[idx]) {
    h = util::HashCombine(h, row[pos].Hash());
  }
  return h;
}

util::Status Table::Insert(common::Row row) {
  if (row.size() != num_columns_) {
    return util::Status::InvalidArgument(
        "row arity mismatch for table " + schema_.table_name() + ": got " +
        std::to_string(row.size()) + ", want " +
        std::to_string(num_columns_));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const auto want = schema_.columns()[i].type;
    auto& v = row[i];
    if (v.is_null()) continue;
    CoerceNumeric(want, &v);
    if (want != v.type()) {
      return util::Status::TypeError(
          "type mismatch for column " + schema_.columns()[i].name +
          " of table " + schema_.table_name());
    }
  }
  const RowId id = static_cast<RowId>(live_.size());
  if ((id & (kChunkRows - 1)) == 0) {
    chunks_.push_back(static_cast<Value*>(
        ::operator new(kChunkRows * num_columns_ * sizeof(Value))));
  }
  Value* cells = MutableRow(id);
  for (size_t c = 0; c < num_columns_; ++c) {
    new (cells + c) Value(std::move(row[c]));
  }
  live_.push_back(1);
  ++live_count_;
  for (size_t idx = 0; idx < indexes_.size(); ++idx) {
    indexes_[idx].Insert(IndexKeyHash(static_cast<int>(idx), cells), id);
  }
  return util::Status::OK();
}

void Table::UpdateRow(RowId id, const std::vector<int>& col_indexes,
                      const std::vector<Value>& new_values) {
  // Unlink from indexes whose columns change; relink after the write.
  std::vector<bool> index_touched(indexes_.size(), false);
  for (size_t idx = 0; idx < indexes_.size(); ++idx) {
    for (int pos : index_col_positions_[idx]) {
      if (std::find(col_indexes.begin(), col_indexes.end(), pos) !=
          col_indexes.end()) {
        index_touched[idx] = true;
        break;
      }
    }
  }
  Value* row = MutableRow(id);
  for (size_t idx = 0; idx < indexes_.size(); ++idx) {
    if (!index_touched[idx]) continue;
    indexes_[idx].Erase(IndexKeyHash(static_cast<int>(idx), row), id);
  }
  for (size_t i = 0; i < col_indexes.size(); ++i) {
    Value nv = new_values[i];
    if (!nv.is_null()) {
      CoerceNumeric(schema_.columns()[col_indexes[i]].type, &nv);
    }
    row[col_indexes[i]] = std::move(nv);
  }
  for (size_t idx = 0; idx < indexes_.size(); ++idx) {
    if (!index_touched[idx]) continue;
    indexes_[idx].Insert(IndexKeyHash(static_cast<int>(idx), row), id);
  }
}

void Table::DeleteRow(RowId id) {
  if (!IsLive(id)) return;
  const Value* row = At(id);
  for (size_t idx = 0; idx < indexes_.size(); ++idx) {
    indexes_[idx].Erase(IndexKeyHash(static_cast<int>(idx), row), id);
  }
  live_[id] = 0;
  --live_count_;
}

int Table::FindUsableIndex(const std::vector<int>& equality_cols) const {
  int best = -1;
  size_t best_len = 0;
  for (size_t idx = 0; idx < index_col_positions_.size(); ++idx) {
    const auto& cols = index_col_positions_[idx];
    bool usable = !cols.empty();
    for (int pos : cols) {
      if (std::find(equality_cols.begin(), equality_cols.end(), pos) ==
          equality_cols.end()) {
        usable = false;
        break;
      }
    }
    if (usable && cols.size() > best_len) {
      best = static_cast<int>(idx);
      best_len = cols.size();
    }
  }
  return best;
}

void Table::IndexLookup(int idx, const Value* const* key,
                        std::vector<RowId>* out) const {
  const auto& cols = index_col_positions_[idx];
  uint64_t h = 0x12345;
  for (size_t i = 0; i < cols.size(); ++i) {
    h = util::HashCombine(h, key[i]->Hash());
  }
  const std::span<const RowId> ids = indexes_[idx].Find(h);
  // Newest first: postings are kept oldest first.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    const RowId id = *it;
    if (!IsLive(id)) continue;
    const Value* row = At(id);
    bool match = true;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (!SameValue(row[cols[i]], *key[i])) {
        match = false;
        break;
      }
    }
    if (match) out->push_back(id);
  }
}

}  // namespace apollo::db
