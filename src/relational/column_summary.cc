#include "relational/column_summary.h"

#include <algorithm>
#include <string_view>

namespace mcsm::relational {

ColumnSummary::ColumnSummary(const Table& table, size_t col)
    : col_(col), row_count_(table.num_rows()) {
  size_t non_null = 0;
  size_t total_length = 0;
  // Views into the column's segment bytes, kept resident by the pin until
  // the distinct ones are copied out below; sort + unique over the views
  // needs no per-value allocation.
  std::vector<std::string_view> values;
  values.reserve(row_count_);
  const ColumnView view = table.Column(col);
  const PinnedColumn pinned(view);
  for (size_t row = 0; row < row_count_; ++row) {
    if (!view.IsText(row)) continue;
    const std::string_view s = pinned.at(row);
    ++non_null;
    total_length += s.size();
    if (non_null == 1) {
      min_length_ = max_length_ = s.size();
    } else {
      min_length_ = std::min(min_length_, s.size());
      max_length_ = std::max(max_length_, s.size());
    }
    values.push_back(s);
  }
  avg_length_ = non_null == 0 ? 0.0
                              : static_cast<double>(total_length) /
                                    static_cast<double>(non_null);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  sorted_distinct_.reserve(values.size());
  for (std::string_view value : values) sorted_distinct_.emplace_back(value);
}

size_t ColumnSummary::DistinctValueBytes() const {
  size_t bytes = 0;
  for (const std::string& value : sorted_distinct_) {
    bytes += sizeof(std::string) + value.capacity();
  }
  return bytes;
}

size_t ColumnSummary::ApproxMemoryBytes() const {
  return sizeof(*this) + DistinctValueBytes();
}

}  // namespace mcsm::relational
