#ifndef MCSM_RELATIONAL_COLUMN_SUMMARY_H_
#define MCSM_RELATIONAL_COLUMN_SUMMARY_H_

#include <cstddef>
#include <string>
#include <vector>

#include "relational/table.h"

namespace mcsm::relational {

/// \brief What the search reads of a source column: its sorted distinct
/// values (the "B-tree cursor" that Algorithms 2-3 sample equidistantly
/// from), their count, and the lengths of its instances (Eq. 5 divides by the
/// average; Section 3.3.3's fixed-width case compares minimum and maximum).
///
/// Built in one pass over a PinnedColumn. The distinct values are owned
/// copies, so a summary holds no reference into the table once constructed.
/// Immutable and safe to share across threads: the service's IndexCache
/// hands one summary to many jobs. ColumnIndex derives from it, so a target
/// index answers the same accessors.
class ColumnSummary {
 public:
  ColumnSummary(const Table& table, size_t col);
  virtual ~ColumnSummary() = default;
  ColumnSummary(const ColumnSummary&) = default;
  ColumnSummary& operator=(const ColumnSummary&) = default;
  ColumnSummary(ColumnSummary&&) = default;
  ColumnSummary& operator=(ColumnSummary&&) = default;

  size_t column() const { return col_; }
  size_t row_count() const { return row_count_; }

  /// Number of distinct non-null values.
  size_t distinct_count() const { return sorted_distinct_.size(); }

  /// Distinct non-null values in sorted order.
  const std::vector<std::string>& sorted_distinct() const {
    return sorted_distinct_;
  }

  /// Average length of non-null instances (0 when the column has none).
  double avg_length() const { return avg_length_; }
  /// Shortest and longest non-null instance (0 when the column has none).
  size_t min_length() const { return min_length_; }
  size_t max_length() const { return max_length_; }

  /// True when every non-null instance has the same (non-zero) length —
  /// a fixed-width column (Section 3.3.3's fixed-field case).
  bool fixed_width() const {
    return min_length_ == max_length_ && max_length_ > 0;
  }

  /// Rough heap footprint in bytes, stable across calls: what the service's
  /// byte-budgeted cache charges per entry. Deliberately an estimate: exact
  /// malloc accounting is allocator-specific and not worth plumbing.
  virtual size_t ApproxMemoryBytes() const;

 protected:
  /// Bytes of the distinct-value strings (objects plus their heap).
  size_t DistinctValueBytes() const;

 private:
  size_t col_;
  size_t row_count_ = 0;
  double avg_length_ = 0;
  size_t min_length_ = 0;
  size_t max_length_ = 0;
  std::vector<std::string> sorted_distinct_;
};

}  // namespace mcsm::relational

#endif  // MCSM_RELATIONAL_COLUMN_SUMMARY_H_
