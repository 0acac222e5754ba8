#ifndef MCSM_SERVICE_REGISTRY_H_
#define MCSM_SERVICE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "relational/column_index.h"
#include "relational/csv.h"
#include "relational/table.h"

namespace mcsm::service {

/// \brief Incremental FNV-1a content fingerprint.
///
/// Byte-stream hashing is associative over chunk boundaries, so feeding a
/// body in arbitrary pieces (streaming ingest) yields exactly the digest
/// FingerprintBytes computes over the whole — the property RegisterCsv's
/// single-pass fingerprint-while-parse path depends on.
class Fingerprinter {
 public:
  void Update(std::string_view bytes) {
    for (char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ull;  // FNV prime
    }
  }
  uint64_t Digest() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;  // FNV offset basis
};

/// FNV-1a over raw bytes — the content fingerprint that keys both table
/// dedup and the index cache. Not cryptographic; collisions would only cost
/// a spurious cache share between tables an operator uploaded with identical
/// 64-bit fingerprints, which FNV makes vanishingly unlikely for this
/// workload (dozens of tables, not billions).
uint64_t FingerprintBytes(std::string_view bytes);

/// One registered table, as returned to handlers and listings.
struct TableEntry {
  std::string name;
  uint64_t fingerprint = 0;
  std::shared_ptr<const relational::Table> table;
  size_t rows = 0;
  size_t columns = 0;
  size_t rows_dropped = 0;  ///< permissive-CSV rows skipped at registration
};

/// \brief Named table store for the service. Tables are immutable once
/// registered (shared_ptr<const Table>); re-registering a name with
/// byte-identical content is a no-op returning the existing entry, while new
/// content replaces the binding (in-flight jobs keep the old table alive
/// through their shared_ptr). The registry never evicts — tables are the
/// operator's working set; only derived indexes face a byte budget.
class TableRegistry {
 public:
  /// Parses `csv_text` and registers it under `name`. Fingerprint-identical
  /// re-registration returns the existing entry without reparsing.
  Result<TableEntry> RegisterCsv(const std::string& name,
                                 std::string_view csv_text,
                                 const relational::CsvOptions& options = {});

  /// nullopt-style lookup: empty entry (null table) when the name is absent.
  TableEntry Find(const std::string& name) const;

  std::vector<TableEntry> List() const;
  size_t size() const;

 private:
  mutable SharedMutex mu_;
  std::unordered_map<std::string, TableEntry> tables_ MCSM_GUARDED_BY(mu_);
};

/// Cache observability counters (monotonic; read by GET /metrics).
struct IndexCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t bytes = 0;    ///< current charged bytes
  uint64_t entries = 0;  ///< current entry count
};

/// \brief Byte-budgeted memoization of the column structures a search
/// reads: target-column ColumnIndexes, keyed by (table fingerprint, column,
/// q, postings), and source-column ColumnSummaries, keyed by (table
/// fingerprint, column) under their own key. The hot path — a repeat job
/// against an already-indexed table — takes a shared lock and one relaxed
/// atomic store; builds happen outside any lock, with a double-checked
/// insert so concurrent first-users race benignly (one build wins, the
/// loser's work is dropped).
///
/// Both kinds share one budget and one LRU. Eviction is by a global
/// use-clock: entries carry an atomic last-used sequence number (bumped on
/// hit without taking the exclusive lock), and inserts evict lowest-sequence
/// entries until the budget holds. Evicted entries stay alive for any job
/// still holding the shared_ptr; "evicted" only means "next user rebuilds".
class IndexCache {
 public:
  /// `byte_budget` caps the sum of ApproxMemoryBytes over cached entries.
  /// One oversized entry still caches (the alternative — rebuilding it for
  /// every job — is strictly worse); it just evicts everything else.
  explicit IndexCache(size_t byte_budget);

  /// Returns the cached index for (fingerprint, column, options) or builds,
  /// inserts and returns it. `table` is retained alongside the index: a
  /// ColumnIndex references its Table, so cache entries keep their table
  /// alive even if the registry re-binds the name.
  std::shared_ptr<const relational::ColumnIndex> GetOrBuild(
      const std::shared_ptr<const relational::Table>& table,
      uint64_t fingerprint, size_t column,
      const relational::ColumnIndex::Options& options);

  /// Returns the cached summary of (fingerprint, column) or builds, inserts
  /// and returns it. A summary owns its values and has no q, so the entry
  /// retains no table and serves every q.
  std::shared_ptr<const relational::ColumnSummary> GetOrBuildSummary(
      const std::shared_ptr<const relational::Table>& table,
      uint64_t fingerprint, size_t column);

  IndexCacheStats stats() const;

 private:
  struct Entry {
    /// Set for index entries only (see GetOrBuild).
    std::shared_ptr<const relational::Table> table;
    /// A ColumnIndex under an index key, a ColumnSummary under a summary
    /// key: the key names the type.
    std::shared_ptr<const relational::ColumnSummary> value;
    size_t bytes = 0;
    std::atomic<uint64_t> last_used{0};
  };

  /// The lookup-or-build path both kinds share: on a miss, `build` runs
  /// outside any lock and the result is inserted under `key`, charged by its
  /// ApproxMemoryBytes, retaining `table` when given.
  std::shared_ptr<const relational::ColumnSummary> GetOrBuildEntry(
      const std::string& key, std::shared_ptr<const relational::Table> table,
      const std::function<std::shared_ptr<const relational::ColumnSummary>()>&
          build);

  void EvictUnderLock() MCSM_REQUIRES(mu_);

  const size_t byte_budget_;
  mutable SharedMutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_
      MCSM_GUARDED_BY(mu_);
  size_t bytes_ MCSM_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> use_clock_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace mcsm::service

#endif  // MCSM_SERVICE_REGISTRY_H_
