#ifndef XVM_VIEW_VIEW_STORE_H_
#define XVM_VIEW_VIEW_STORE_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algebra/operators.h"
#include "algebra/value.h"
#include "common/status.h"

namespace xvm {

/// Entries per chunk at most. A statement that changes one tuple copies one
/// chunk (two when it splits), so publication costs O(|Δ| · kChunkCapacity)
/// pointer copies plus O(|view| / kChunkCapacity) chunk pointers.
inline constexpr size_t kChunkCapacity = 64;
/// Shards of the id-key hash index; a changed tuple copies one shard.
inline constexpr size_t kIndexShards = 64;

/// One stored tuple: its derivation count and its ID key. Shared, by
/// pointer, between the writer and every snapshot whose content holds it;
/// nobody writes it once a snapshot may see it (see MaterializedView).
struct ViewEntry {
  CountedTuple ct;
  std::string id_key;  // EncodeTupleCols(ct.tuple, id_cols)
  size_t hash = 0;     // std::hash of id_key: picks the shard and the slot
  uint64_t epoch = 0;  // writer epoch that created it
};

/// A run of consecutive entries in canonical order, 1..kChunkCapacity long.
struct ViewChunk {
  std::vector<std::shared_ptr<ViewEntry>> entries;
  uint64_t epoch = 0;  // writer epoch that created it
};

/// One shard of the id-key index: open addressing with linear probing over a
/// power-of-two slot array, at most half full. Slots point into the entries
/// the chunks own.
struct IndexShard {
  struct Slot {
    size_t hash = 0;
    const ViewEntry* entry = nullptr;  // nullptr: empty slot
  };
  std::vector<Slot> slots;
  size_t size = 0;
  uint64_t epoch = 0;  // writer epoch that created it

  const ViewEntry* Find(size_t hash, std::string_view key) const;
  void Insert(const ViewEntry* e);  // e's key must be absent
  void Replace(const ViewEntry* old_e, const ViewEntry* new_e);
  void Erase(const ViewEntry* e);
};

/// The content of a view at one version, the persistent structure both the
/// maintained view and its published snapshots read: (tuple, count) entries
/// in canonical `Tuple <` order, cut into chunks, plus an id-key hash index
/// split into kIndexShards shards. Chunks, shards and entries sit behind
/// shared_ptr, so a snapshot is a copy of the two pointer vectors and shares
/// every chunk the writer has not rewritten since.
///
/// Canonical order equals ID-column order: every val/cont column follows its
/// own node's ID column, and the ID projection identifies a tuple. Upkeep
/// relies on it: the tuples an update can reach share leading ID columns,
/// so they form contiguous position ranges found by binary search over
/// operator[] (view/upkeep.h).
class ViewContent {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = CountedTuple;
    using difference_type = std::ptrdiff_t;
    using pointer = const CountedTuple*;
    using reference = const CountedTuple&;

    const_iterator() = default;
    reference operator*() const {
      return content_->chunks_[chunk_]->entries[pos_]->ct;
    }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      if (++pos_ == content_->chunks_[chunk_]->entries.size()) {
        ++chunk_;
        pos_ = 0;
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator out = *this;
      ++*this;
      return out;
    }
    bool operator==(const const_iterator& o) const {
      return chunk_ == o.chunk_ && pos_ == o.pos_;
    }

   private:
    friend class ViewContent;
    const_iterator(const ViewContent* c, size_t chunk, size_t pos)
        : content_(c), chunk_(chunk), pos_(pos) {}
    const ViewContent* content_ = nullptr;
    size_t chunk_ = 0;
    size_t pos_ = 0;
  };

  ViewContent() : shards_(kIndexShards) {}
  ViewContent& operator=(const ViewContent&) = delete;
  ViewContent(ViewContent&&) noexcept = default;
  ViewContent& operator=(ViewContent&&) noexcept = default;

  /// Distinct tuples.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Sum of derivation counts.
  int64_t total_derivations() const { return total_derivations_; }

  /// The i-th tuple in canonical order: O(log #chunks).
  const CountedTuple& operator[](size_t i) const;
  const_iterator begin() const { return const_iterator(this, 0, 0); }
  const_iterator end() const { return const_iterator(this, chunks_.size(), 0); }

  /// Point lookup by stored-ID key (EncodeTupleCols over the ID columns):
  /// one hash, one shard probe. Returns the same object operator[] does.
  const CountedTuple* FindByIdKey(std::string_view id_key) const;

  /// Structure, for audits and tests.
  const std::vector<std::shared_ptr<ViewChunk>>& chunks() const {
    return chunks_;
  }
  const std::vector<std::shared_ptr<IndexShard>>& shards() const {
    return shards_;
  }

 private:
  friend class MaterializedView;
  // Only MaterializedView::Freeze copies content: a copy shares every chunk,
  // and the writer must know it may no longer write them in place.
  ViewContent(const ViewContent&) = default;

  std::vector<std::shared_ptr<ViewChunk>> chunks_;
  std::vector<size_t> starts_;  // position of each chunk's first entry
  std::vector<std::shared_ptr<IndexShard>> shards_;  // null: empty shard
  size_t size_ = 0;
  int64_t total_derivations_ = 0;
};

/// The materialized content of a view: projected tuples with their
/// derivation counts (paper §2.2). A tuple lives in the view while its
/// count is positive; maintenance adds derivations (PINT), removes them
/// (PDDT) and rewrites the val/cont payloads of the tuples PIMT/PDMT found
/// by position (ReplaceEntries).
///
/// The writer of a ViewContent. Copy-on-write by epoch: every chunk, shard
/// and entry records the epoch that created it, and Freeze() — the only way
/// to share content — starts a new epoch. An object of the current epoch is
/// private to the writer and changes in place; an older one may be held by
/// a snapshot, so the writer copies it first. A statement therefore copies
/// only the chunks and shards its Δ touches.
class MaterializedView {
 public:
  MaterializedView() = default;
  explicit MaterializedView(Schema schema);
  // A copy would share chunks the two writers both think private.
  MaterializedView(const MaterializedView&) = delete;
  MaterializedView& operator=(const MaterializedView&) = delete;
  MaterializedView(MaterializedView&&) noexcept = default;
  MaterializedView& operator=(MaterializedView&&) noexcept = default;

  const Schema& schema() const { return schema_; }
  const std::vector<int>& id_cols() const { return id_cols_; }

  /// Distinct tuples currently in the view.
  size_t size() const { return content_.size(); }
  /// Sum of derivation counts.
  int64_t total_derivations() const { return content_.total_derivations(); }
  /// The current content, in canonical order.
  const ViewContent& content() const { return content_; }

  /// Mutation version: bumped by every call that actually changes content.
  /// Two reads observing the same version observed identical content — the
  /// serving layer uses this to re-stamp an unchanged view's snapshot
  /// instead of rebuilding it.
  uint64_t version() const { return version_; }

  /// Adds each tuple's derivations (inserting tuples that are absent) in one
  /// merge pass over the chunks it touches. `batch` is expected in canonical
  /// order, as DupElimWithCounts produces it (it is sorted otherwise). A
  /// tuple whose ID projection is already stored keeps the stored payload.
  void AddDerivations(std::vector<CountedTuple> batch);
  void AddDerivations(const Tuple& tuple, int64_t count);

  /// Removes each row's derivations from the tuple whose ID columns equal
  /// the row (ID values in id_cols() order). `batch` must be strictly
  /// increasing, as DupElimWithCounts produces it. A tuple
  /// disappears when its count reaches zero. Rows matching no tuple are
  /// ignored (the caller may have filtered a candidate that never satisfied
  /// the view's predicates); removal below zero clamps and is reported by
  /// returning false.
  bool RemoveDerivations(const std::vector<CountedTuple>& batch);
  bool RemoveDerivations(const Tuple& ids, int64_t count);

  /// Encodes a tuple's ID-column projection (the index key).
  std::string IdKeyOf(const Tuple& tuple) const;
  /// The ID-column projection of a stored tuple (the removal key).
  Tuple IdsOf(const Tuple& tuple) const;
  /// Orders stored tuples canonically (by their ID columns).
  bool IdLess(const Tuple& a, const Tuple& b) const;

  /// Derivation count of `tuple`, 0 if absent.
  int64_t CountOf(const Tuple& tuple) const;
  /// Looks a tuple up by ID key; nullptr if absent.
  const CountedTuple* FindByIdKey(std::string_view id_key) const {
    return content_.FindByIdKey(id_key);
  }

  /// Replaces the tuples at the given positions (canonical order, strictly
  /// increasing) by the paired tuples, which must have the same ID columns
  /// (PIMT/PDMT rewrite payloads only); counts are kept. Each position is
  /// located through the chunk start table, so this costs O(k log #chunks)
  /// and never visits the other tuples. Only a chunk holding a replaced
  /// tuple is copied, and only the index shards of replaced entries a
  /// snapshot shares. Returns the number replaced.
  size_t ReplaceEntries(std::vector<std::pair<size_t, Tuple>> replacements);

  /// Ordered copy of the content, O(|view|): for tests and diffs.
  std::vector<CountedTuple> Snapshot() const {
    return {content_.begin(), content_.end()};
  }

  /// Bulk-loads the whole content (Initialize, full recomputation,
  /// checkpoint load). Rows in strictly increasing canonical order are
  /// chunked as they come; otherwise they are sorted first and rows with
  /// equal ID columns merged (the first payload wins, counts add up).
  void Reset(std::vector<CountedTuple> content);
  void Clear() { Reset({}); }

  /// The current content, to publish: O(#chunks + kIndexShards) pointer
  /// copies. Starts a new epoch, so later writes copy what it shares.
  /// Logically const: the content does not change.
  std::shared_ptr<const ViewContent> Freeze() const;

  /// Monotonic totals of chunks the writer allocated while mutating (copies
  /// of shared chunks and the pieces of split ones) and of index shards it
  /// copied because a snapshot shared them.
  uint64_t chunks_copied() const { return chunks_copied_; }
  uint64_t index_shards_copied() const { return shards_copied_; }

  /// Structural problems of the content, empty when sound: an empty or
  /// oversized chunk, canonical order broken within or across chunks, an
  /// index that does not hold exactly the chunks' entries, or counts that
  /// do not add up to total_derivations().
  std::vector<std::string> CheckStructure() const;

  /// Test-only corruption hook: swaps the entries at positions i and j
  /// (copying their chunks first), breaking canonical order.
  void SwapEntriesForTesting(size_t i, size_t j);

 private:
  using EntryPtr = std::shared_ptr<ViewEntry>;

  /// Compares the ID columns of stored tuple `a` against `key`, which is a
  /// stored tuple (`key_is_ids` false) or an ID projection (true).
  std::strong_ordering CompareIds(const Tuple& a, const Tuple& key,
                                  bool key_is_ids) const;
  /// Index of the first chunk at or after `from` whose last entry is not
  /// less than `key`; chunks_.size() when every entry is less.
  size_t ChunkFor(const Tuple& key, bool key_is_ids, size_t from) const;

  EntryPtr NewEntry(Tuple tuple, int64_t count, std::string id_key,
                    size_t hash) const;
  /// A chunk of the current epoch; counts as a chunk copy.
  std::shared_ptr<ViewChunk> NewChunk(std::vector<EntryPtr> entries);
  /// Chunk `c`, copied first unless the current epoch created it.
  ViewChunk* MutableChunk(size_t c);
  /// The shard of `hash`, created or copied first unless the current epoch
  /// created it.
  IndexShard* MutableShard(size_t hash);
  /// `e` with its count set to `count`: in place when `e` is private to the
  /// writer, else a fresh entry the index points to instead.
  EntryPtr WithCount(const EntryPtr& e, int64_t count);
  /// Replaces chunk `c` by `entries` cut into pieces of at most
  /// kChunkCapacity (none if empty), merging an underfull result with the
  /// next chunk. Returns the index of the first chunk after the result.
  size_t ReplaceChunk(size_t c, std::vector<EntryPtr> entries);
  /// Recomputes starts_ from chunk `c` on.
  void FixStarts(size_t c);
  /// The chunk holding canonical position `pos` and the slot within it.
  std::pair<size_t, size_t> Locate(size_t pos) const;

  Schema schema_;
  std::vector<int> id_cols_;
  ViewContent content_;
  uint64_t version_ = 0;
  mutable uint64_t epoch_ = 1;  // Freeze() moves it on
  uint64_t chunks_copied_ = 0;
  uint64_t shards_copied_ = 0;
};

}  // namespace xvm

#endif  // XVM_VIEW_VIEW_STORE_H_
