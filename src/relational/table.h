#ifndef MCSM_RELATIONAL_TABLE_H_
#define MCSM_RELATIONAL_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/column_store.h"
#include "relational/value.h"

namespace mcsm::relational {

/// Definition of a single column: name and declared type.
struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kText;
};

/// \brief Ordered list of column definitions with name lookup.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnDef> columns) : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const ColumnDef& column(size_t i) const { return columns_[i]; }
  const std::vector<ColumnDef>& columns() const { return columns_; }

  /// Case-insensitive column lookup; returns nullopt when absent.
  std::optional<size_t> FindColumn(std::string_view name) const;

 private:
  std::vector<ColumnDef> columns_;
};

/// Storage configuration for one Table (DESIGN.md §13).
struct TableOptions {
  /// When nonzero, sealed text segments spill to a temp file and fault back
  /// through an LRU cache capped at this many bytes (MCSM_PAGE_BUDGET).
  uint64_t page_budget_bytes = 0;
  /// Sealed-segment size in bytes; 0 means kDefaultSegmentBytes
  /// (MCSM_PAGE_BYTES).
  size_t segment_bytes = 0;

  /// Reads MCSM_PAGE_BUDGET / MCSM_PAGE_BYTES.
  static TableOptions FromEnv();
};

/// Storage accounting for one Table (see /v1/tables/{name}).
struct TableStats {
  uint64_t rows = 0;
  uint64_t columns = 0;
  /// Bytes held in RAM right now: row metadata, null bitmaps, numeric
  /// arrays, open tails, resident sealed segments.
  uint64_t resident_bytes = 0;
  /// Bytes of live sealed segments whose home is the spill file.
  uint64_t spilled_bytes = 0;
  /// Live sealed segments currently in RAM (unpaged or cache-resident).
  uint64_t resident_pages = 0;
  /// Live sealed segments currently only on disk.
  uint64_t spilled_pages = 0;
  /// "columnar" | "columnar+paged".
  std::string encoding;
};

/// \brief Column-oriented table over arena-backed columnar storage
/// (ColumnStore; optionally paged to disk).
///
/// Appends validate value types against the schema (integers are accepted
/// into REAL columns and widened). Reads go through the span-based view API:
/// `Column()` returns a ColumnView, `TextAt()`/`ValueAt()` are per-cell
/// conveniences. The old reference-returning accessors
/// (`cell()`/`column()`/`CellText()`) are gone — lint rule TS001 keeps them
/// out.
///
/// Copying a Table deep-copies row metadata but shares sealed (immutable)
/// text segments and the spill file; both copies may keep appending —
/// sealed pages are never rewritten, so they can never disagree.
class Table {
 public:
  Table() : Table(Schema(), TableOptions::FromEnv()) {}
  explicit Table(Schema schema) : Table(std::move(schema), TableOptions::FromEnv()) {}
  Table(Schema schema, const TableOptions& options);

  /// Convenience: builds an all-TEXT schema from column names.
  static Table WithTextColumns(const std::vector<std::string>& names);
  static Table WithTextColumns(const std::vector<std::string>& names,
                               const TableOptions& options);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_columns(); }

  /// Appends a row; `row.size()` must equal num_columns() and each value must
  /// be NULL or match the column type.
  Status AppendRow(std::vector<Value> row);

  /// Appends a row of TEXT values (schema must be all-TEXT).
  Status AppendTextRow(const std::vector<std::string>& row);

  /// Replaces one cell; the value must be NULL or match the column type
  /// (integers widen into REAL columns).
  Status SetCell(size_t row, size_t col, Value value);

  /// Read surface: one column as a view (cheap value type; the table must
  /// outlive it and not be mutated while views/cursors are read).
  ColumnView Column(size_t col) const;

  /// TEXT cell as a pinned view; empty view for NULL or non-text cells.
  TextView TextAt(size_t row, size_t col) const {
    return Column(col).GetText(row);
  }

  /// Cell materialized as a Value (copies text payloads).
  Value ValueAt(size_t row, size_t col) const {
    return Column(col).GetValue(row);
  }

  bool IsNull(size_t row, size_t col) const { return Column(col).IsNull(row); }

  /// Returns a materialized copy of row `row`.
  std::vector<Value> GetRow(size_t row) const;

  /// Removes the rows whose indices appear in `rows` (need not be sorted;
  /// duplicates ignored). Used by match-and-remove re-runs (Section 4.1).
  /// Columnar text columns rebuild into fresh segments, which can fail on
  /// spill I/O.
  Status RemoveRows(const std::vector<size_t>& rows);

  /// Keeps only rows [0, n) — used by the scaling benchmark (Fig. 3).
  void Truncate(size_t n);

  /// Storage accounting (resident vs spilled bytes/pages, encoding).
  TableStats Stats() const;

  /// First storage-layer failure observed (pager creation or page read);
  /// OK when healthy. Failed page reads degrade to empty views — this is
  /// how callers detect that it happened.
  Status storage_status() const;

  const TableOptions& options() const { return options_; }

 private:
  /// Validates/widens one value against column `col`'s declared type.
  Status CheckValue(size_t col, Value* value) const;

  Schema schema_;
  TableOptions options_;
  size_t num_rows_ = 0;  ///< explicit: correct even for zero-column schemas
  ColumnStore store_;
};

}  // namespace mcsm::relational

#endif  // MCSM_RELATIONAL_TABLE_H_
