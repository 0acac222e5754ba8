#ifndef MCSM_RELATIONAL_COLUMN_STORE_H_
#define MCSM_RELATIONAL_COLUMN_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/pager.h"
#include "relational/value.h"

namespace mcsm::relational {

/// \file
/// \brief Arena-backed columnar storage (DESIGN.md §13).
///
/// TEXT columns store their payload in sealed append-only segments (byte
/// arenas) addressed by per-row {segment, offset, length} metadata — no
/// per-cell std::string. INTEGER/REAL columns are packed typed arrays.
/// NULLs live in a per-column bitmap. With a Pager attached, sealed text
/// segments spill to a temp file and are faulted back through a byte-budgeted
/// LRU cache; only text payload ever spills — metadata, bitmaps and numeric
/// arrays stay resident, so random row access is always one (possibly
/// cached) page load.
///
/// Read surface: `ColumnView` (type + nulls + typed getters), `TextView`
/// (a string_view plus the page pin that keeps it valid), `TextCursor`
/// (amortizes pinning for ordered scans) and `PinnedColumn` (pins a whole
/// column for code that retains many views at once).

/// Default sealed-segment size. Small enough that a tight MCSM_PAGE_BUDGET
/// still holds a useful working set, large enough that per-segment overhead
/// (one pread, one cache entry) amortizes.
inline constexpr size_t kDefaultSegmentBytes = 64 * 1024;

/// \brief A text cell: the view plus the pin that keeps its bytes alive.
///
/// The view is valid for the lifetime of the TextView object (the pin holds
/// the segment against cache eviction). Views of the unsealed tail carry no
/// pin and stay valid until the table is next mutated —
/// the same contract the old reference-returning accessors had.
class TextView {
 public:
  TextView() = default;
  TextView(std::string_view view, PagePin pin)
      : view_(view), pin_(std::move(pin)) {}

  std::string_view view() const { return view_; }
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for string_view
  // arguments; the pin outlives the full expression, so in-call use is safe.
  operator std::string_view() const { return view_; }

  const char* data() const { return view_.data(); }
  size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }

 private:
  std::string_view view_;
  PagePin pin_;
};

/// \brief Packed validity bitmap: one bit per row, 1 = NULL.
class NullBitmap {
 public:
  void Append(bool is_null) {
    if (size_ % 64 == 0) words_.push_back(0);
    if (is_null) words_[size_ / 64] |= uint64_t{1} << (size_ % 64);
    ++size_;
  }
  bool Get(size_t i) const {
    return (words_[i / 64] >> (i % 64)) & 1;
  }
  void Set(size_t i, bool is_null) {
    const uint64_t mask = uint64_t{1} << (i % 64);
    if (is_null) {
      words_[i / 64] |= mask;
    } else {
      words_[i / 64] &= ~mask;
    }
  }
  void Truncate(size_t n) {
    if (n >= size_) return;
    size_ = n;
    words_.resize((n + 63) / 64);
    if (n % 64 != 0) {  // clear the dead tail bits of the last word
      words_.back() &= (uint64_t{1} << (n % 64)) - 1;
    }
  }
  size_t size() const { return size_; }
  uint64_t byte_size() const { return words_.size() * sizeof(uint64_t); }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

/// \brief TEXT column payload: sealed byte segments + per-row addressing.
///
/// Appends accumulate in an open tail buffer; once the tail reaches the
/// segment size it seals — kept resident (no pager) or written to the spill
/// file (pager attached). A value larger than the segment size gets a
/// segment of its own. Row metadata is three packed u32 arrays
/// (segment / offset / length): 12 bytes per row, always resident.
class TextColumn {
 public:
  TextColumn() = default;

  void Configure(std::shared_ptr<PagerSource> source, size_t segment_bytes) {
    source_ = std::move(source);
    segment_bytes_ = segment_bytes == 0 ? kDefaultSegmentBytes : segment_bytes;
  }

  /// Appends one value's bytes (NULL rows append an empty payload; the
  /// bitmap, not the payload, is what records nullness).
  Status Append(std::string_view text);

  /// Points `row` at freshly appended bytes. The old bytes are abandoned in
  /// place (segments are append-only); RemoveRows compaction reclaims them.
  Status Set(size_t row, std::string_view text);

  size_t size() const { return seg_.size(); }

  /// The row's bytes plus the pin keeping them alive. Empty view for empty
  /// payloads; empty view (with the error latched in the pager) when a
  /// spilled segment fails to load.
  TextView Get(size_t row) const;

  void Truncate(size_t n);

  /// Live payload bytes (what a compacted copy would occupy).
  uint64_t live_text_bytes() const;

  /// Stats: always-resident overhead (row metadata + open tail).
  uint64_t meta_bytes() const {
    return seg_.capacity() * 3 * sizeof(uint32_t) + tail_.capacity();
  }
  size_t num_sealed_segments() const { return segments_.size(); }
  /// Per-segment residency/bytes for Table::Stats().
  bool SegmentSpilled(size_t k) const {
    return segments_[k].page_id != kNoPage;
  }
  bool SegmentResident(size_t k) const;
  uint32_t SegmentBytes(size_t k) const { return segments_[k].bytes; }

 private:
  friend class ColumnView;
  friend class TextCursor;
  friend class PinnedColumn;

  static constexpr uint32_t kNoPage = UINT32_MAX;

  struct Segment {
    PagePin resident;            ///< set when unpaged (owned in memory)
    uint32_t page_id = kNoPage;  ///< set when spilled through the pager
    uint32_t bytes = 0;
  };

  /// Seals the open tail into a segment (spilling it when paged).
  Status Seal();

  /// Loads sealed segment `k` (resident fast path or pager fault).
  PagePin LoadSegment(uint32_t k) const;

  std::shared_ptr<PagerSource> source_;  ///< spill config (may be null)
  /// The actual pager, bound on the first successful spill. Only mutated
  /// during (single-threaded) ingest; concurrent readers see it fixed.
  std::shared_ptr<Pager> pager_;
  size_t segment_bytes_ = kDefaultSegmentBytes;
  // Row addressing (struct-of-arrays): segment id, offset in segment, length.
  // seg_[r] == segments_.size() means "in the open tail".
  std::vector<uint32_t> seg_;
  std::vector<uint32_t> off_;
  std::vector<uint32_t> len_;
  std::vector<Segment> segments_;
  std::string tail_;
};

/// One column of a ColumnStore: type tag + nulls + the typed payload.
struct ColumnData {
  ColumnType type = ColumnType::kText;
  NullBitmap nulls;
  TextColumn text;             ///< engaged iff type == kText
  std::vector<int64_t> ints;   ///< engaged iff type == kInteger
  std::vector<double> reals;   ///< engaged iff type == kReal
};

/// \brief Read access to one column of a ColumnStore.
///
/// A lightweight value type (pointer + row count); callers hold it by value.
/// The table must outlive the view. `GetText` returns an empty view for NULLs
/// and non-text columns — the exact semantics the old CellText() had.
class ColumnView {
 public:
  ColumnView(const ColumnData* col, size_t rows) : col_(col), rows_(rows) {}

  ColumnType type() const { return col_->type; }
  size_t size() const { return rows_; }

  bool IsNull(size_t row) const { return col_->nulls.Get(row); }

  /// True when the cell holds a TEXT value (the old `cell().is_text()`).
  bool IsText(size_t row) const {
    return type() == ColumnType::kText && !IsNull(row);
  }

  TextView GetText(size_t row) const;

  /// Batch fetch: one pin lookup per segment transition instead of per row.
  /// Appends `n` views to `out` in input order.
  void GetTexts(const uint32_t* rows, size_t n,
                std::vector<TextView>* out) const;

  int64_t GetInt(size_t row) const { return col_->ints[row]; }
  double GetReal(size_t row) const { return col_->reals[row]; }

  /// Materializes the cell as a Value (copies text payloads).
  Value GetValue(size_t row) const;

 private:
  friend class TextCursor;
  friend class PinnedColumn;

  const ColumnData* col_;
  size_t rows_;
};

/// \brief Ordered-scan accessor: caches the current segment's pin so a scan
/// pays one load per segment instead of one per row.
///
/// Returned views are valid while the cursor stays within the same segment
/// (i.e. until a Get() that crosses a segment boundary) — callers that
/// retain views across rows must copy or use PinnedColumn. The column must
/// not be mutated while a cursor is live.
class TextCursor {
 public:
  explicit TextCursor(const ColumnView& view) : view_(view) {}

  std::string_view Get(size_t row);

 private:
  ColumnView view_;
  uint32_t cached_seg_ = UINT32_MAX;
  PagePin pin_;
  const char* base_ = nullptr;
};

/// \brief Pins every sealed segment of a text column for its own lifetime,
/// making all returned views simultaneously valid.
///
/// This is the tool for call sites that build maps over a whole column
/// (coverage counting): memory cost is the whole column resident, scoped to
/// the pin's lifetime.
class PinnedColumn {
 public:
  explicit PinnedColumn(const ColumnView& view);

  /// NULL and non-text cells yield an empty view (CellText semantics).
  std::string_view at(size_t row) const;

  size_t size() const { return view_.size(); }

 private:
  ColumnView view_;
  std::vector<PagePin> pins_;  ///< one per sealed segment
};

/// \brief The columnar table backend: one ColumnData per schema column.
///
/// Values are validated/widened by Table before they arrive here; this layer
/// only stores. Rows are tracked explicitly so zero-column stores still
/// count appends.
class ColumnStore {
 public:
  ColumnStore() = default;
  ColumnStore(const std::vector<ColumnType>& types,
              std::shared_ptr<PagerSource> pager_source, size_t segment_bytes);

  size_t num_rows() const { return rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// Appends one pre-validated row (arity and types already checked).
  Status AppendRow(const std::vector<Value>& row);

  /// Replaces one pre-validated cell.
  Status Set(size_t row, size_t col, const Value& value);

  /// Drops rows flagged in `remove` (size == num_rows). Text columns are
  /// rebuilt into fresh segments (reclaiming abandoned bytes); numeric
  /// columns compact in place.
  Status RemoveRows(const std::vector<bool>& remove);

  void Truncate(size_t n);

  ColumnView View(size_t col) const {
    return ColumnView(&columns_[col], rows_);
  }

  const std::shared_ptr<PagerSource>& pager_source() const { return source_; }
  size_t segment_bytes() const { return segment_bytes_; }
  const ColumnData& column_data(size_t col) const { return columns_[col]; }

 private:
  std::vector<ColumnData> columns_;
  std::shared_ptr<PagerSource> source_;
  size_t segment_bytes_ = kDefaultSegmentBytes;
  size_t rows_ = 0;
};

}  // namespace mcsm::relational

#endif  // MCSM_RELATIONAL_COLUMN_STORE_H_
