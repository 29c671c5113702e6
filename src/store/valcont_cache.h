#ifndef XVM_STORE_VALCONT_CACHE_H_
#define XVM_STORE_VALCONT_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"

namespace xvm {

/// Index of a node inside a Document's arena (mirrors xml/document.h; this
/// header stays below the document layer so both can include it).
using ValContCacheKey = uint32_t;

/// Delta-aware memoization cache for the two derived payloads of the
/// canonical relations: `val` (text concatenation of a subtree) and `cont`
/// (serialized subtree). Both are O(|subtree|) to recompute, and maintenance
/// passes touch the same nodes over and over — every view's leaf scan, the
/// PIMT/PDMT tuple-modification passes and snowcap rebuilds all re-derive
/// them from scratch. Entries are keyed by node handle, populated on first
/// access and invalidated *precisely* by update deltas (see
/// StoreIndex::Val/Cont and InvalidateStoreValCont in update/update.h):
/// a deleted node's entry is dropped, and each Δ anchor plus all its cached
/// ancestors are invalidated, because their val/cont embed the changed
/// subtree. No full flushes on update.
///
/// Thread safety: the parallel ViewManager fans propagation out over
/// workers that share one StoreIndex, so lookups/inserts are striped over
/// kShards mutex-guarded maps (a node's shard is handle % kShards).
/// Invalidation runs on the coordinator thread between fan-outs but takes
/// the same locks, so it is safe even if a caller overlaps it with reads.
///
/// Memory: a byte budget (default 64 MiB, XVM_CONT_CACHE_BYTES) bounds the
/// cache; a shard that outgrows its slice evicts arbitrary entries until it
/// is back under. The cache starts enabled; set_enabled(false) turns it
/// off, making Val/Cont plain recomputation (bench_cache's baseline).
class ValContCache {
 public:
  enum class Kind : uint8_t { kVal, kCont };

  /// Monotonic counters; surfaced through MetricsRegistry by ViewManager.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;  // entries dropped by delta invalidation
    uint64_t evictions = 0;      // entries dropped by the byte budget
  };

  /// One live entry, copied out for the debug-mode audit cross-check.
  struct AuditEntry {
    ValContCacheKey node = 0;
    bool has_val = false;
    bool has_cont = false;
    std::string val;
    std::string cont;
  };

  /// Enabled, with the byte budget from XVM_CONT_CACHE_BYTES (default
  /// 64 MiB).
  ValContCache();

  ValContCache(const ValContCache&) = delete;
  ValContCache& operator=(const ValContCache&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Flipping the gate clears the cache (a disabled cache holds nothing).
  /// Callers must quiesce concurrent readers/writers around the flip — an
  /// insert in flight past the gate check could otherwise land after the
  /// clear. All current callers (store Build, tests, bench setup) flip
  /// between statements.
  void set_enabled(bool enabled);

  size_t budget_bytes() const {
    return budget_bytes_.load(std::memory_order_relaxed);
  }
  void set_budget_bytes(size_t bytes);

  /// On hit copies the payload into *out and returns true; counts the
  /// hit/miss either way.
  bool Lookup(ValContCacheKey node, Kind kind, std::string* out) const;

  /// Stores a freshly computed payload (overwrites the slot if racing
  /// inserts computed it twice — both computed the same current value).
  void Insert(ValContCacheKey node, Kind kind, const std::string& value);

  /// Drops the entry for `node` if present (delta invalidation).
  void Erase(ValContCacheKey node);

  void Clear();

  Stats stats() const;
  size_t ApproxBytes() const;
  size_t EntryCount() const;

  /// Copies every live entry (audit use only; takes each shard lock once).
  std::vector<AuditEntry> SnapshotForAudit() const;

  /// Overwrites cached payloads of `node` with garbage so tests can assert
  /// the audit cross-check reports it. Never used by production code.
  void PoisonForTesting(ValContCacheKey node);

  /// Rough per-entry bookkeeping cost (map node + strings' headers) counted
  /// into a shard's byte total. Public so the `cache.bytes` audit invariant
  /// (store/audit.cc) and the accounting regression test can recompute a
  /// shard's expected footprint from a snapshot.
  static constexpr size_t kEntryOverhead = 96;

 private:
  struct Entry {
    bool has_val = false;
    bool has_cont = false;
    std::string val;
    std::string cont;

    size_t bytes() const { return kEntryOverhead + val.size() + cont.size(); }
  };

  static constexpr size_t kShards = 16;

  struct Shard {
    mutable Mutex mu;
    std::unordered_map<ValContCacheKey, Entry> map XVM_GUARDED_BY(mu);
    size_t bytes XVM_GUARDED_BY(mu) = 0;  // == Σ map entry bytes(), exactly
  };

  Shard& shard(ValContCacheKey node) const {
    return shards_[node % kShards];
  }
  /// Evicts entries from `s` until it fits its slice of the budget.
  void EvictLocked(Shard* s) const XVM_REQUIRES(s->mu);

  // atomic: the gate is read lock-free on every Lookup/Insert while
  // set_enabled flips it from setup/test code; it carries no payload (the
  // entries it guards live behind the shard locks), so relaxed is enough —
  // a stale read costs one bypassed lookup or one insert into a cache about
  // to be cleared, both benign under the quiesced-flip contract above.
  std::atomic<bool> enabled_{true};
  // atomic: read by EvictLocked under a *shard* lock while set_budget_bytes
  // stores it with no lock of its own; the budget is advisory (eviction
  // pressure), so relaxed suffices — a shard evicting against a stale budget
  // converges on the next insert.
  std::atomic<size_t> budget_bytes_;
  mutable std::array<Shard, kShards> shards_;
  // atomic: monotonic counters bumped on hot paths from many workers and
  // only ever read as a statistics snapshot; relaxed increments are exact
  // for totals and no ordering with the cached payloads is implied.
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> invalidations_{0};
  mutable std::atomic<uint64_t> evictions_{0};
};

/// Process-wide default byte budget: XVM_CONT_CACHE_BYTES, else 64 MiB.
size_t ContCacheDefaultBudgetBytes();

}  // namespace xvm

#endif  // XVM_STORE_VALCONT_CACHE_H_
