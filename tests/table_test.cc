// Model-based tests of db::Table's row arena and flat indexes.
//
// The index oracle is the container the flat index replaced: a
// std::unordered_multimap from key to row id, maintained the way the table
// used to maintain it (insert = emplace, delete = erase the first equal-key
// entry holding the id, update = erase + emplace). With libstdc++ a new
// equal-key entry goes in front of its equals, so walking equal_range is the
// newest-first order the executor's plans and rows_examined depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/table.h"

namespace apollo::db {
namespace {

using common::Value;

Schema KeyedSchema() {
  Schema s("T", {{"ID", common::ValueType::kInt},
                 {"K", common::ValueType::kInt},
                 {"S", common::ValueType::kString}});
  s.AddIndex("PRIMARY", {"ID"});
  s.AddIndex("K_IDX", {"K"});
  return s;
}

std::vector<RowId> Probe(const Table& t, int idx, const Value& v) {
  const Value* key[1] = {&v};
  std::vector<RowId> out;
  t.IndexLookup(idx, key, &out);
  return out;
}

class TableModelTest : public ::testing::Test {
 protected:
  using Oracle = std::unordered_multimap<uint64_t, RowId>;

  static void OracleErase(Oracle* oracle, uint64_t key, RowId id) {
    auto range = oracle->equal_range(key);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == id) {
        oracle->erase(it);
        return;
      }
    }
  }

  static std::vector<RowId> OracleIds(const Oracle& oracle, uint64_t key) {
    std::vector<RowId> ids;
    auto range = oracle.equal_range(key);
    for (auto it = range.first; it != range.second; ++it) {
      ids.push_back(it->second);
    }
    return ids;
  }

  void ExpectKey(int64_t k) {
    ASSERT_EQ(Probe(table_, kKeyIdx, Value::Int(k)),
              OracleIds(by_key_, static_cast<uint64_t>(k)))
        << "K = " << k;
  }

  static constexpr int kPrimaryIdx = 0;
  static constexpr int kKeyIdx = 1;
  Table table_{KeyedSchema()};
  Oracle by_key_;
};

TEST_F(TableModelTest, RandomWritesMatchMultimapOrder) {
  std::mt19937_64 rng(20240917);
  constexpr int64_t kHotKeys = 4;  // grow long posting lists
  int64_t next_id = 0;
  int64_t next_unique = 1000;  // unique keys force regrowth
  std::vector<RowId> live;
  std::vector<int64_t> key_of;  // by RowId
  std::vector<int64_t> used_keys;
  auto pick_key = [&]() -> int64_t {
    const uint64_t r = rng() % 100;
    if (r < 40) return static_cast<int64_t>(rng() % kHotKeys);
    if (r < 55 && !used_keys.empty()) {
      return used_keys[rng() % used_keys.size()];
    }
    return next_unique++;
  };
  for (int op = 0; op < 30000; ++op) {
    const uint64_t r = rng() % 100;
    int64_t touched = -1;
    int64_t previous = -1;
    if (r < 60 || live.empty()) {
      const int64_t k = pick_key();
      const RowId id = static_cast<RowId>(table_.NumSlots());
      ASSERT_TRUE(table_
                      .Insert({Value::Int(next_id++), Value::Int(k),
                               Value::Str("s" + std::to_string(k))})
                      .ok());
      by_key_.emplace(static_cast<uint64_t>(k), id);
      live.push_back(id);
      key_of.push_back(k);
      used_keys.push_back(k);
      touched = k;
    } else if (r < 80) {
      const RowId id = live[rng() % live.size()];
      const int64_t k = pick_key();
      previous = key_of[id];
      OracleErase(&by_key_, static_cast<uint64_t>(previous), id);
      table_.UpdateRow(id, {1}, {Value::Int(k)});
      by_key_.emplace(static_cast<uint64_t>(k), id);
      key_of[id] = k;
      used_keys.push_back(k);
      touched = k;
    } else {
      const size_t pos = rng() % live.size();
      const RowId id = live[pos];
      live[pos] = live.back();
      live.pop_back();
      touched = key_of[id];
      OracleErase(&by_key_, static_cast<uint64_t>(touched), id);
      table_.DeleteRow(id);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectKey(touched));
    if (previous >= 0) {
      ASSERT_NO_FATAL_FAILURE(ExpectKey(previous));
    }
    ASSERT_NO_FATAL_FAILURE(ExpectKey(used_keys[rng() % used_keys.size()]));
    if (op % 5000 == 0) {
      for (int64_t k = 0; k < kHotKeys; ++k) {
        ASSERT_NO_FATAL_FAILURE(ExpectKey(k));
      }
    }
  }
  ASSERT_EQ(table_.num_rows(), live.size());
  for (int64_t k = 0; k < kHotKeys; ++k) {
    EXPECT_GT(OracleIds(by_key_, static_cast<uint64_t>(k)).size(), 500u);
  }
  // Every key ever used, and the unique primary key of every live row.
  std::sort(used_keys.begin(), used_keys.end());
  used_keys.erase(std::unique(used_keys.begin(), used_keys.end()),
                  used_keys.end());
  for (int64_t k : used_keys) ASSERT_NO_FATAL_FAILURE(ExpectKey(k));
  for (RowId id : live) {
    EXPECT_EQ(Probe(table_, kPrimaryIdx, table_.At(id)[0]),
              std::vector<RowId>{id});
  }
  EXPECT_GT(next_unique - 1000, 5000);  // many regrowths of K_IDX
}

TEST_F(TableModelTest, KeyDeletedToZeroPostingsIsFoundAfterReinsert) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        table_.Insert({Value::Int(i), Value::Int(7), Value::Str("x")}).ok());
  }
  EXPECT_EQ(Probe(table_, kKeyIdx, Value::Int(7)),
            (std::vector<RowId>{2, 1, 0}));
  for (RowId id = 0; id < 3; ++id) table_.DeleteRow(id);
  EXPECT_TRUE(Probe(table_, kKeyIdx, Value::Int(7)).empty());
  ASSERT_TRUE(
      table_.Insert({Value::Int(3), Value::Int(7), Value::Str("y")}).ok());
  EXPECT_EQ(Probe(table_, kKeyIdx, Value::Int(7)), std::vector<RowId>{3});
  // Updating a row onto and off the key moves it to the newest position.
  ASSERT_TRUE(
      table_.Insert({Value::Int(4), Value::Int(7), Value::Str("z")}).ok());
  table_.UpdateRow(3, {1}, {Value::Int(8)});
  table_.UpdateRow(3, {1}, {Value::Int(7)});
  EXPECT_EQ(Probe(table_, kKeyIdx, Value::Int(7)),
            (std::vector<RowId>{3, 4}));
}

TEST_F(TableModelTest, ProbeMatchesAcrossNumericTypes) {
  ASSERT_TRUE(
      table_.Insert({Value::Int(1), Value::Int(3), Value::Str("a")}).ok());
  // INT 3 == DOUBLE 3.0 hash and compare equal, as Value defines them.
  EXPECT_EQ(Probe(table_, kKeyIdx, Value::Double(3.0)), std::vector<RowId>{0});
  EXPECT_TRUE(Probe(table_, kKeyIdx, Value::Double(3.5)).empty());
}

TEST(TableArenaTest, RowAddressesStayStableAcrossChunks) {
  Table t(KeyedSchema());
  ASSERT_TRUE(t.Insert({Value::Int(0), Value::Int(0), Value::Str("first")})
                  .ok());
  const Value* first = t.At(0);
  const size_t rows = 2 * Table::kChunkRows + 5;
  for (size_t i = 1; i < rows; ++i) {
    ASSERT_TRUE(t.Insert({Value::Int(static_cast<int64_t>(i)),
                          Value::Int(static_cast<int64_t>(i % 10)),
                          Value::Str("row" + std::to_string(i))})
                    .ok());
  }
  EXPECT_EQ(t.At(0), first);
  EXPECT_EQ(first[2].AsString(), "first");
  // A row's cells are contiguous.
  const Value* last = t.At(static_cast<RowId>(rows - 1));
  EXPECT_EQ(last[0].AsInt(), static_cast<int64_t>(rows - 1));
  EXPECT_EQ(last[2].AsString(), "row" + std::to_string(rows - 1));
  EXPECT_EQ(t.NumSlots(), rows);
}

TEST(TableArenaTest, TombstonedRowKeepsItsCells) {
  Table t(KeyedSchema());
  ASSERT_TRUE(
      t.Insert({Value::Int(10), Value::Int(1), Value::Str("kept")}).ok());
  ASSERT_TRUE(
      t.Insert({Value::Int(11), Value::Int(1), Value::Str("other")}).ok());
  t.DeleteRow(0);
  EXPECT_FALSE(t.IsLive(0));
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.NumSlots(), 2u);
  EXPECT_EQ(t.At(0)[0].AsInt(), 10);
  EXPECT_EQ(t.At(0)[2].AsString(), "kept");
  EXPECT_EQ(Probe(t, 1, Value::Int(1)), std::vector<RowId>{1});
}

}  // namespace
}  // namespace apollo::db
