#include "relational/column_store.h"

#include <utility>

#include "common/check.h"

namespace mcsm::relational {

// ---------------------------------------------------------------------------
// TextColumn

Status TextColumn::Append(std::string_view text) {
  MCSM_CHECK(text.size() <= UINT32_MAX);
  MCSM_CHECK(seg_.size() < UINT32_MAX);
  // Seal a tail that this value would overflow; an oversized value then
  // lands in a fresh tail and seals alone (a segment of its own).
  if (!tail_.empty() && tail_.size() + text.size() > segment_bytes_) {
    MCSM_RETURN_IF_ERROR(Seal());
  }
  seg_.push_back(static_cast<uint32_t>(segments_.size()));
  off_.push_back(static_cast<uint32_t>(tail_.size()));
  len_.push_back(static_cast<uint32_t>(text.size()));
  tail_.append(text);
  if (tail_.size() >= segment_bytes_) {
    MCSM_RETURN_IF_ERROR(Seal());
  }
  return Status::OK();
}

Status TextColumn::Set(size_t row, std::string_view text) {
  MCSM_CHECK(row < seg_.size());
  MCSM_CHECK(text.size() <= UINT32_MAX);
  if (!tail_.empty() && tail_.size() + text.size() > segment_bytes_) {
    MCSM_RETURN_IF_ERROR(Seal());
  }
  seg_[row] = static_cast<uint32_t>(segments_.size());
  off_[row] = static_cast<uint32_t>(tail_.size());
  len_[row] = static_cast<uint32_t>(text.size());
  tail_.append(text);
  if (tail_.size() >= segment_bytes_) {
    MCSM_RETURN_IF_ERROR(Seal());
  }
  return Status::OK();
}

Status TextColumn::Seal() {
  if (tail_.empty()) return Status::OK();
  // Bind the pager on first spill. A failed spill-file creation latches in
  // the source and we degrade to resident segments from then on.
  if (pager_ == nullptr && source_ != nullptr) {
    pager_ = source_->GetOrCreate();
  }
  Segment s;
  s.bytes = static_cast<uint32_t>(tail_.size());
  if (pager_ != nullptr) {
    MCSM_ASSIGN_OR_RETURN(s.page_id, pager_->Write(tail_.data(), tail_.size()));
  } else {
    s.resident = std::make_shared<const PageData>(tail_.begin(), tail_.end());
  }
  segments_.push_back(std::move(s));
  tail_.clear();  // keeps capacity for the next segment
  return Status::OK();
}

PagePin TextColumn::LoadSegment(uint32_t k) const {
  const Segment& s = segments_[k];
  if (s.resident != nullptr) return s.resident;
  MCSM_CHECK(pager_ != nullptr && s.page_id != kNoPage);
  Result<PagePin> pin = pager_->Load(s.page_id);
  // A failed load (I/O error, pager.read failpoint) degrades to an empty
  // pin — readers see empty views and the error stays latched in the pager
  // (Table::storage_status()).
  if (!pin.ok()) return nullptr;
  return *std::move(pin);
}

TextView TextColumn::Get(size_t row) const {
  MCSM_CHECK(row < seg_.size());
  const uint32_t len = len_[row];
  if (len == 0) return TextView();
  const uint32_t k = seg_[row];
  if (k == segments_.size()) {
    // Open tail: unpinned view, valid until the next mutation.
    return TextView(std::string_view(tail_.data() + off_[row], len), nullptr);
  }
  PagePin pin = LoadSegment(k);
  if (pin == nullptr) return TextView();
  std::string_view view(pin->data() + off_[row], len);
  return TextView(view, std::move(pin));
}

void TextColumn::Truncate(size_t n) {
  if (n >= seg_.size()) return;
  seg_.resize(n);
  off_.resize(n);
  len_.resize(n);
  // Sealed segments and tail bytes past the cut are abandoned in place;
  // RemoveRows-style rebuilds reclaim them if it ever matters.
}

uint64_t TextColumn::live_text_bytes() const {
  uint64_t total = 0;
  for (uint32_t len : len_) total += len;
  return total;
}

bool TextColumn::SegmentResident(size_t k) const {
  const Segment& s = segments_[k];
  if (s.resident != nullptr) return true;
  return pager_ != nullptr && s.page_id != kNoPage && pager_->Resident(s.page_id);
}

// ---------------------------------------------------------------------------
// ColumnView

TextView ColumnView::GetText(size_t row) const {
  if (col_->type != ColumnType::kText || col_->nulls.Get(row)) {
    return TextView();
  }
  return col_->text.Get(row);
}

void ColumnView::GetTexts(const uint32_t* rows, size_t n,
                          std::vector<TextView>* out) const {
  out->reserve(out->size() + n);
  if (col_->type != ColumnType::kText) {
    out->resize(out->size() + n);
    return;
  }
  // Reuse the previous row's pin while the segment id repeats —
  // sorted row lists (the common case: posting lists) pay one load per
  // segment touched.
  const TextColumn& text = col_->text;
  uint32_t cached_seg = UINT32_MAX;
  PagePin pin;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = rows[i];
    if (col_->nulls.Get(row) || text.len_[row] == 0) {
      out->push_back(TextView());
      continue;
    }
    const uint32_t k = text.seg_[row];
    if (k == text.segments_.size()) {
      out->push_back(TextView(
          std::string_view(text.tail_.data() + text.off_[row],
                           text.len_[row]),
          nullptr));
      continue;
    }
    if (k != cached_seg) {
      pin = text.LoadSegment(k);
      cached_seg = k;
    }
    if (pin == nullptr) {
      out->push_back(TextView());
      continue;
    }
    out->push_back(TextView(
        std::string_view(pin->data() + text.off_[row], text.len_[row]), pin));
  }
}

Value ColumnView::GetValue(size_t row) const {
  if (col_->nulls.Get(row)) return Value::MakeNull();
  switch (col_->type) {
    case ColumnType::kText: {
      TextView v = col_->text.Get(row);
      return Value(std::string(v.view()));
    }
    case ColumnType::kInteger:
      return Value(col_->ints[row]);
    case ColumnType::kReal:
      return Value(col_->reals[row]);
  }
  return Value::MakeNull();  // unreachable
}

// ---------------------------------------------------------------------------
// TextCursor

std::string_view TextCursor::Get(size_t row) {
  const ColumnData* col = view_.col_;
  if (col->type != ColumnType::kText || col->nulls.Get(row)) {
    return {};
  }
  const TextColumn& text = col->text;
  const uint32_t len = text.len_[row];
  if (len == 0) return {};
  const uint32_t k = text.seg_[row];
  if (k == text.segments_.size()) {
    return {text.tail_.data() + text.off_[row], len};
  }
  if (k != cached_seg_) {
    pin_ = text.LoadSegment(k);
    cached_seg_ = k;
    base_ = pin_ != nullptr ? pin_->data() : nullptr;
  }
  if (base_ == nullptr) return {};
  return {base_ + text.off_[row], len};
}

// ---------------------------------------------------------------------------
// PinnedColumn

PinnedColumn::PinnedColumn(const ColumnView& view) : view_(view) {
  const ColumnData* col = view_.col_;
  if (col->type != ColumnType::kText) return;
  const TextColumn& text = col->text;
  pins_.resize(text.segments_.size());
  for (size_t k = 0; k < text.segments_.size(); ++k) {
    pins_[k] = text.LoadSegment(static_cast<uint32_t>(k));
  }
}

std::string_view PinnedColumn::at(size_t row) const {
  const ColumnData* col = view_.col_;
  if (col->type != ColumnType::kText || col->nulls.Get(row)) {
    return {};
  }
  const TextColumn& text = col->text;
  const uint32_t len = text.len_[row];
  if (len == 0) return {};
  const uint32_t k = text.seg_[row];
  if (k == text.segments_.size()) {
    return {text.tail_.data() + text.off_[row], len};
  }
  const PagePin& pin = pins_[k];
  if (pin == nullptr) return {};
  return {pin->data() + text.off_[row], len};
}

// ---------------------------------------------------------------------------
// ColumnStore

ColumnStore::ColumnStore(const std::vector<ColumnType>& types,
                         std::shared_ptr<PagerSource> pager_source,
                         size_t segment_bytes)
    : source_(std::move(pager_source)),
      segment_bytes_(segment_bytes == 0 ? kDefaultSegmentBytes
                                        : segment_bytes) {
  columns_.resize(types.size());
  for (size_t i = 0; i < types.size(); ++i) {
    columns_[i].type = types[i];
    if (types[i] == ColumnType::kText) {
      columns_[i].text.Configure(source_, segment_bytes_);
    }
  }
}

Status ColumnStore::AppendRow(const std::vector<Value>& row) {
  MCSM_CHECK(row.size() == columns_.size());
  for (size_t i = 0; i < row.size(); ++i) {
    ColumnData& col = columns_[i];
    const Value& v = row[i];
    col.nulls.Append(v.is_null());
    switch (col.type) {
      case ColumnType::kText:
        MCSM_RETURN_IF_ERROR(
            col.text.Append(v.is_null() ? std::string_view() : v.text()));
        break;
      case ColumnType::kInteger:
        col.ints.push_back(v.is_null() ? 0 : v.integer());
        break;
      case ColumnType::kReal:
        col.reals.push_back(v.is_null() ? 0.0 : v.real());
        break;
    }
  }
  ++rows_;
  return Status::OK();
}

Status ColumnStore::Set(size_t row, size_t col, const Value& value) {
  MCSM_CHECK(col < columns_.size() && row < rows_);
  ColumnData& c = columns_[col];
  c.nulls.Set(row, value.is_null());
  switch (c.type) {
    case ColumnType::kText:
      return c.text.Set(row, value.is_null() ? std::string_view()
                                             : value.text());
    case ColumnType::kInteger:
      c.ints[row] = value.is_null() ? 0 : value.integer();
      break;
    case ColumnType::kReal:
      c.reals[row] = value.is_null() ? 0.0 : value.real();
      break;
  }
  return Status::OK();
}

Status ColumnStore::RemoveRows(const std::vector<bool>& remove) {
  MCSM_CHECK(remove.size() == rows_);
  size_t kept = 0;
  for (size_t r = 0; r < rows_; ++r) {
    if (!remove[r]) ++kept;
  }
  if (kept == rows_) return Status::OK();
  for (ColumnData& col : columns_) {
    NullBitmap nulls;
    switch (col.type) {
      case ColumnType::kText: {
        // Rebuild into fresh segments: survivors copy over, abandoned bytes
        // (removed rows, dead Set() payloads) are reclaimed.
        TextColumn fresh;
        fresh.Configure(source_, segment_bytes_);
        TextCursor cursor(ColumnView(&col, rows_));
        for (size_t r = 0; r < rows_; ++r) {
          if (remove[r]) continue;
          const bool is_null = col.nulls.Get(r);
          nulls.Append(is_null);
          MCSM_RETURN_IF_ERROR(
              fresh.Append(is_null ? std::string_view() : cursor.Get(r)));
        }
        col.text = std::move(fresh);
        break;
      }
      case ColumnType::kInteger: {
        size_t write = 0;
        for (size_t r = 0; r < rows_; ++r) {
          if (remove[r]) continue;
          nulls.Append(col.nulls.Get(r));
          col.ints[write++] = col.ints[r];
        }
        col.ints.resize(write);
        break;
      }
      case ColumnType::kReal: {
        size_t write = 0;
        for (size_t r = 0; r < rows_; ++r) {
          if (remove[r]) continue;
          nulls.Append(col.nulls.Get(r));
          col.reals[write++] = col.reals[r];
        }
        col.reals.resize(write);
        break;
      }
    }
    col.nulls = std::move(nulls);
  }
  rows_ = kept;
  return Status::OK();
}

void ColumnStore::Truncate(size_t n) {
  if (n >= rows_) return;
  for (ColumnData& col : columns_) {
    col.nulls.Truncate(n);
    switch (col.type) {
      case ColumnType::kText:
        col.text.Truncate(n);
        break;
      case ColumnType::kInteger:
        col.ints.resize(n);
        break;
      case ColumnType::kReal:
        col.reals.resize(n);
        break;
    }
  }
  rows_ = n;
}

}  // namespace mcsm::relational
