#include "service/registry.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/failpoint.h"
#include "common/string_util.h"

namespace mcsm::service {

uint64_t FingerprintBytes(std::string_view bytes) {
  Fingerprinter fp;
  fp.Update(bytes);
  return fp.Digest();
}

namespace {

/// Chunk size for the streaming fingerprint + parse passes. Small enough to
/// exercise the chunked parser on real bodies, large enough to amortize the
/// per-chunk call overhead.
constexpr size_t kIngestChunkBytes = 256 * 1024;

}  // namespace

Result<TableEntry> TableRegistry::RegisterCsv(
    const std::string& name, std::string_view csv_text,
    const relational::CsvOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument("table name must be non-empty");
  }
  // Pass 1 — incremental fingerprint (chunked exactly like the parse pass):
  // cheap relative to parsing, and it lets a byte-identical re-registration
  // skip the parse entirely.
  Fingerprinter fp;
  for (size_t pos = 0; pos < csv_text.size(); pos += kIngestChunkBytes) {
    fp.Update(csv_text.substr(pos, kIngestChunkBytes));
  }
  const uint64_t fingerprint = fp.Digest();
  {
    ReaderLock lock(mu_);
    auto it = tables_.find(name);
    if (it != tables_.end() && it->second.fingerprint == fingerprint) {
      return it->second;  // byte-identical re-registration: no reparse
    }
  }

  // Pass 2 — streaming parse. The body arrives in memory today (HTTP), but
  // the table it builds streams into columnar storage and spills under
  // MCSM_PAGE_BUDGET as it grows. Same failpoint semantics as the ReadCsv
  // path this replaces: one kCsvRead trigger per actual parse (a dedup hit
  // above never parses, so it never trips).
  MCSM_FAILPOINT(failpoint::kCsvRead);
  relational::CsvReadReport report;
  relational::CsvStreamParser parser(options, &report);
  for (size_t pos = 0; pos < csv_text.size(); pos += kIngestChunkBytes) {
    MCSM_RETURN_IF_ERROR(parser.Feed(csv_text.substr(pos, kIngestChunkBytes)));
  }
  MCSM_ASSIGN_OR_RETURN(relational::Table parsed, parser.Finish());
  TableEntry entry;
  entry.name = name;
  entry.fingerprint = fingerprint;
  entry.table =
      std::make_shared<const relational::Table>(std::move(parsed));
  entry.rows = entry.table->num_rows();
  entry.columns = entry.table->num_columns();
  entry.rows_dropped = report.rows_dropped;

  WriterLock lock(mu_);
  tables_[name] = entry;  // replaces any previous binding for the name
  return entry;
}

TableEntry TableRegistry::Find(const std::string& name) const {
  ReaderLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return TableEntry{};
  return it->second;
}

std::vector<TableEntry> TableRegistry::List() const {
  ReaderLock lock(mu_);
  std::vector<TableEntry> out;
  out.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) out.push_back(entry);
  std::sort(out.begin(), out.end(),
            [](const TableEntry& a, const TableEntry& b) {
              return a.name < b.name;
            });
  return out;
}

size_t TableRegistry::size() const {
  ReaderLock lock(mu_);
  return tables_.size();
}

IndexCache::IndexCache(size_t byte_budget) : byte_budget_(byte_budget) {}

namespace {

std::string CacheKey(uint64_t fingerprint, size_t column,
                     const relational::ColumnIndex::Options& options) {
  return StrFormat("%016llx/c%zu/q%zu/p%d",
                   static_cast<unsigned long long>(fingerprint), column,
                   options.q, options.build_postings ? 1 : 0);
}

std::string SummaryKey(uint64_t fingerprint, size_t column) {
  return StrFormat("%016llx/c%zu/s",
                   static_cast<unsigned long long>(fingerprint), column);
}

}  // namespace

std::shared_ptr<const relational::ColumnSummary> IndexCache::GetOrBuildEntry(
    const std::string& key, std::shared_ptr<const relational::Table> table,
    const std::function<std::shared_ptr<const relational::ColumnSummary>()>&
        build) {
  {
    ReaderLock lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      // LRU touch without the exclusive lock: a relaxed store of a fresh
      // global sequence number. Ties/races between concurrent hits only
      // perturb eviction order among entries touched in the same instant.
      // ordering: relaxed — last_used/use_clock order eviction heuristically,
      // they never publish data; hits_ is a monotonic counter.
      it->second->last_used.store(
          use_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second->value;
    }
  }
  // ordering: relaxed — monotonic counter (metrics only).
  misses_.fetch_add(1, std::memory_order_relaxed);

  // Build outside any lock: construction is the expensive part and must not
  // serialize unrelated cache reads.
  auto entry = std::make_unique<Entry>();
  entry->table = std::move(table);
  entry->value = build();
  entry->bytes = entry->value->ApproxMemoryBytes();
  // ordering: relaxed — eviction-heuristic sequence number, see the hit path.
  entry->last_used.store(use_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);

  WriterLock lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Lost the build race; adopt the winner and drop our copy.
    return it->second->value;
  }
  bytes_ += entry->bytes;
  auto value = entry->value;
  entries_.emplace(key, std::move(entry));
  EvictUnderLock();
  return value;
}

std::shared_ptr<const relational::ColumnIndex> IndexCache::GetOrBuild(
    const std::shared_ptr<const relational::Table>& table,
    uint64_t fingerprint, size_t column,
    const relational::ColumnIndex::Options& options) {
  if (table == nullptr || column >= table->num_columns()) return nullptr;
  // An index key only ever holds a ColumnIndex.
  return std::static_pointer_cast<const relational::ColumnIndex>(
      GetOrBuildEntry(CacheKey(fingerprint, column, options), table, [&] {
        return std::make_shared<const relational::ColumnIndex>(*table, column,
                                                               options);
      }));
}

std::shared_ptr<const relational::ColumnSummary> IndexCache::GetOrBuildSummary(
    const std::shared_ptr<const relational::Table>& table,
    uint64_t fingerprint, size_t column) {
  if (table == nullptr || column >= table->num_columns()) return nullptr;
  return GetOrBuildEntry(SummaryKey(fingerprint, column), nullptr, [&] {
    return std::make_shared<const relational::ColumnSummary>(*table, column);
  });
}

void IndexCache::EvictUnderLock() {
  // Evict lowest last-used until the budget holds. The newest entry is
  // always the freshest sequence number, so a single oversized insert evicts
  // everything else and then stops (entries_.size() > 1 guard).
  while (bytes_ > byte_budget_ && entries_.size() > 1) {
    auto victim = entries_.end();
    uint64_t oldest = std::numeric_limits<uint64_t>::max();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      // ordering: relaxed — heuristic LRU scan; a stale value only perturbs
      // which entry is evicted, never correctness.
      uint64_t used = it->second->last_used.load(std::memory_order_relaxed);
      if (used < oldest) {
        oldest = used;
        victim = it;
      }
    }
    if (victim == entries_.end()) break;
    bytes_ -= victim->second->bytes;
    entries_.erase(victim);
    // ordering: relaxed — monotonic counter (metrics only).
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

IndexCacheStats IndexCache::stats() const {
  IndexCacheStats stats;
  // ordering: relaxed — monotonic counter reads (metrics only).
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  ReaderLock lock(mu_);
  stats.bytes = bytes_;
  stats.entries = entries_.size();
  return stats;
}

}  // namespace mcsm::service
