#include "relational/table.h"

#include <algorithm>
#include <utility>

#include "common/env.h"
#include "common/string_util.h"

namespace mcsm::relational {

std::optional<size_t> Schema::FindColumn(std::string_view name) const {
  std::string lowered = ToLower(name);
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (ToLower(columns_[i].name) == lowered) return i;
  }
  return std::nullopt;
}

TableOptions TableOptions::FromEnv() {
  TableOptions options;
  options.page_budget_bytes =
      static_cast<uint64_t>(std::max<int64_t>(0, GetEnvInt("MCSM_PAGE_BUDGET", 0)));
  options.segment_bytes =
      static_cast<size_t>(std::max<int64_t>(0, GetEnvInt("MCSM_PAGE_BYTES", 0)));
  return options;
}

Table::Table(Schema schema, const TableOptions& options)
    : schema_(std::move(schema)), options_(options) {
  // The PagerSource is lazy: the spill file only gets created when a text
  // column seals its first segment, so small tables under a global
  // MCSM_PAGE_BUDGET stay purely in-memory.
  std::shared_ptr<PagerSource> source;
  if (options_.page_budget_bytes > 0) {
    source = std::make_shared<PagerSource>(options_.page_budget_bytes);
  }
  std::vector<ColumnType> types;
  types.reserve(schema_.num_columns());
  for (const ColumnDef& def : schema_.columns()) types.push_back(def.type);
  store_ = ColumnStore(types, std::move(source), options_.segment_bytes);
}

Table Table::WithTextColumns(const std::vector<std::string>& names) {
  return WithTextColumns(names, TableOptions::FromEnv());
}

Table Table::WithTextColumns(const std::vector<std::string>& names,
                             const TableOptions& options) {
  std::vector<ColumnDef> defs;
  defs.reserve(names.size());
  for (const auto& n : names) defs.push_back({n, ColumnType::kText});
  return Table(Schema(std::move(defs)), options);
}

Status Table::CheckValue(size_t col, Value* value) const {
  if (value->is_null()) return Status::OK();
  switch (schema_.column(col).type) {
    case ColumnType::kText:
      if (!value->is_text()) {
        return Status::TypeError("non-text value for TEXT column " +
                                 schema_.column(col).name);
      }
      break;
    case ColumnType::kInteger:
      if (!value->is_integer()) {
        return Status::TypeError("non-integer value for INTEGER column " +
                                 schema_.column(col).name);
      }
      break;
    case ColumnType::kReal:
      if (value->is_integer()) {
        *value = Value(static_cast<double>(value->integer()));
      } else if (!value->is_real()) {
        return Status::TypeError("non-numeric value for REAL column " +
                                 schema_.column(col).name);
      }
      break;
  }
  return Status::OK();
}

Status Table::AppendRow(std::vector<Value> row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("row has %zu values, table has %zu columns", row.size(),
                  schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    MCSM_RETURN_IF_ERROR(CheckValue(i, &row[i]));
  }
  MCSM_RETURN_IF_ERROR(store_.AppendRow(row));
  ++num_rows_;
  return Status::OK();
}

Status Table::AppendTextRow(const std::vector<std::string>& row) {
  std::vector<Value> values;
  values.reserve(row.size());
  for (const auto& s : row) values.emplace_back(s);
  return AppendRow(std::move(values));
}

Status Table::SetCell(size_t row, size_t col, Value value) {
  if (col >= schema_.num_columns() || row >= num_rows_) {
    return Status::OutOfRange("cell index out of range");
  }
  MCSM_RETURN_IF_ERROR(CheckValue(col, &value));
  return store_.Set(row, col, value);
}

ColumnView Table::Column(size_t col) const { return store_.View(col); }

std::vector<Value> Table::GetRow(size_t row) const {
  std::vector<Value> out;
  out.reserve(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    out.push_back(ValueAt(row, c));
  }
  return out;
}

Status Table::RemoveRows(const std::vector<size_t>& rows) {
  if (rows.empty()) return Status::OK();
  std::vector<bool> remove(num_rows_, false);
  size_t flagged = 0;
  for (size_t r : rows) {
    if (r < remove.size() && !remove[r]) {
      remove[r] = true;
      ++flagged;
    }
  }
  if (flagged == 0) return Status::OK();
  MCSM_RETURN_IF_ERROR(store_.RemoveRows(remove));
  num_rows_ -= flagged;
  return Status::OK();
}

void Table::Truncate(size_t n) {
  if (n >= num_rows_) return;
  store_.Truncate(n);
  num_rows_ = n;
}

TableStats Table::Stats() const {
  TableStats stats;
  stats.rows = num_rows_;
  stats.columns = schema_.num_columns();
  stats.encoding =
      store_.pager_source() != nullptr ? "columnar+paged" : "columnar";
  for (size_t c = 0; c < store_.num_columns(); ++c) {
    const ColumnData& col = store_.column_data(c);
    stats.resident_bytes += col.nulls.byte_size();
    switch (col.type) {
      case ColumnType::kText: {
        stats.resident_bytes += col.text.meta_bytes();
        for (size_t k = 0; k < col.text.num_sealed_segments(); ++k) {
          const uint32_t bytes = col.text.SegmentBytes(k);
          if (!col.text.SegmentSpilled(k)) {
            stats.resident_pages += 1;
            stats.resident_bytes += bytes;
          } else {
            stats.spilled_bytes += bytes;
            if (col.text.SegmentResident(k)) {
              stats.resident_pages += 1;
              stats.resident_bytes += bytes;
            } else {
              stats.spilled_pages += 1;
            }
          }
        }
        break;
      }
      case ColumnType::kInteger:
        stats.resident_bytes += col.ints.capacity() * sizeof(int64_t);
        break;
      case ColumnType::kReal:
        stats.resident_bytes += col.reals.capacity() * sizeof(double);
        break;
    }
  }
  return stats;
}

Status Table::storage_status() const {
  if (store_.pager_source() == nullptr) return Status::OK();
  const PagerSource& source = *store_.pager_source();
  MCSM_RETURN_IF_ERROR(source.status());  // spill-file creation failure
  std::shared_ptr<Pager> pager = source.TryGet();
  if (pager != nullptr) return pager->first_error();
  return Status::OK();
}

}  // namespace mcsm::relational
