// Table: a chunked row arena plus flat hash indexes for equality lookups.
//
// Rows live in fixed-size chunks of kChunkRows rows x num_columns Values, so
// a row's cells are contiguous and never move: growth appends a chunk and
// never copies a row. A RowId is the row's slot number (insertion order).
// Deletes tombstone the slot, whose cells stay readable, and unlink the row
// from every index.
//
// Each index is an open-addressing table (linear probing) keyed by the
// combined hash of the indexed column values, verified against the row on
// probe. A key's slot holds its one row id inline (the unique-key case) or
// refers to a contiguous posting list. Probes enumerate a key's rows
// newest-first, and an update re-appends the row as the newest: the order
// every plan's candidate enumeration, ORDER BY tie-break and rows_examined
// were recorded against (DESIGN.md §18).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result_set.h"
#include "db/schema.h"
#include "util/result.h"

namespace apollo::db {

using RowId = uint32_t;

class Table {
 public:
  /// Rows per arena chunk (a power of two).
  static constexpr int kChunkShift = 10;
  static constexpr size_t kChunkRows = size_t{1} << kChunkShift;

  explicit Table(Schema schema);
  ~Table();
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const Schema& schema() const { return schema_; }

  /// Number of live rows.
  size_t num_rows() const { return live_count_; }

  /// Appends a row (must match schema arity). Values are coerced to the
  /// column type where loss-free (int <-> double).
  util::Status Insert(common::Row row);

  /// True if the row id is live.
  bool IsLive(RowId id) const { return id < live_.size() && live_[id] != 0; }

  /// Total slots (live + tombstoned); iterate [0, NumSlots()) with IsLive.
  size_t NumSlots() const { return live_.size(); }

  /// The row's schema().num_columns() contiguous cells. The address is
  /// stable for the table's lifetime; a tombstoned row keeps its cells.
  const common::Value* At(RowId id) const {
    return chunks_[id >> kChunkShift] + (id & (kChunkRows - 1)) * num_columns_;
  }

  /// Replaces column values of a live row, maintaining indexes.
  void UpdateRow(RowId id, const std::vector<int>& col_indexes,
                 const std::vector<common::Value>& new_values);

  /// Tombstones a live row and removes it from all indexes.
  void DeleteRow(RowId id);

  /// Finds the index (position in schema().indexes()) whose columns are a
  /// subset of `equality_cols`, preferring the most selective (most
  /// columns). Returns -1 if none.
  int FindUsableIndex(const std::vector<int>& equality_cols) const;

  /// Probes index `idx`: key[i] points at the value for index column i (in
  /// index column order) and is only borrowed. Appends the matching live
  /// row ids to `out`, newest-first.
  void IndexLookup(int idx, const common::Value* const* key,
                   std::vector<RowId>* out) const;

  /// Columns (schema positions) of index `idx`.
  const std::vector<int>& IndexColumns(int idx) const {
    return index_col_positions_[idx];
  }

 private:
  /// Open-addressing multimap from key hash to row ids.
  class FlatIndex {
   public:
    void Insert(uint64_t key, RowId id);
    /// Removes `id` from `key`'s postings (no-op if absent).
    void Erase(uint64_t key, RowId id);
    /// The ids under `key`, oldest first; valid until the next write.
    std::span<const RowId> Find(uint64_t key) const;

   private:
    static constexpr uint32_t kFree = 0xffffffffu;  // never-used slot
    struct Slot {
      uint64_t key = 0;
      uint32_t count = 0;  // ids under key; 0 = key whose rows all left
      uint32_t ref = kFree;  // count 1: the row id; >1: postings_ index
    };
    /// The slot holding `key`, else the free slot that ends its probe run.
    size_t Probe(uint64_t key) const;
    void Grow();

    std::vector<Slot> slots_;  // power-of-two capacity
    size_t used_ = 0;          // slots ever claimed since the last Grow
    size_t keys_ = 0;          // slots with count > 0
    std::vector<std::vector<RowId>> postings_;
    std::vector<uint32_t> free_postings_;
  };

  common::Value* MutableRow(RowId id) {
    return const_cast<common::Value*>(At(id));
  }
  uint64_t IndexKeyHash(int idx, const common::Value* row) const;

  Schema schema_;
  size_t num_columns_;
  std::vector<common::Value*> chunks_;  // each kChunkRows * num_columns_
  std::vector<uint8_t> live_;
  size_t live_count_ = 0;

  std::vector<FlatIndex> indexes_;
  std::vector<std::vector<int>> index_col_positions_;
};

}  // namespace apollo::db
