#include "view/view_store.h"

#include <algorithm>
#include <utility>

namespace xvm {

namespace {

/// Bulk loads fill chunks to three quarters, so the first insert into a
/// loaded chunk copies it without splitting it.
constexpr size_t kLoadFill = kChunkCapacity * 3 / 4;
/// A chunk left below this after a change is merged with its successor.
constexpr size_t kMinFill = kChunkCapacity / 4;
constexpr size_t kMinShardSlots = 8;

size_t HashKey(std::string_view key) {
  return std::hash<std::string_view>{}(key);
}

/// The shard takes the low bits of the hash, the slot the bits above them.
size_t ShardOf(size_t hash) { return hash % kIndexShards; }
size_t HomeSlot(size_t hash, size_t mask) {
  return (hash / kIndexShards) & mask;
}

}  // namespace

// ---------------------------------------------------------------- IndexShard

const ViewEntry* IndexShard::Find(size_t hash, std::string_view key) const {
  if (slots.empty()) return nullptr;
  const size_t mask = slots.size() - 1;
  for (size_t i = HomeSlot(hash, mask);; i = (i + 1) & mask) {
    const Slot& s = slots[i];
    if (s.entry == nullptr) return nullptr;
    if (s.hash == hash && s.entry->id_key == key) return s.entry;
  }
}

void IndexShard::Insert(const ViewEntry* e) {
  if ((size + 1) * 2 > slots.size()) {
    std::vector<Slot> old = std::move(slots);
    slots.assign(std::max(kMinShardSlots, old.size() * 2), Slot{});
    size = 0;
    for (const Slot& s : old) {
      if (s.entry != nullptr) Insert(s.entry);
    }
  }
  const size_t mask = slots.size() - 1;
  size_t i = HomeSlot(e->hash, mask);
  while (slots[i].entry != nullptr) i = (i + 1) & mask;
  slots[i] = Slot{e->hash, e};
  ++size;
}

void IndexShard::Replace(const ViewEntry* old_e, const ViewEntry* new_e) {
  const size_t mask = slots.size() - 1;
  size_t i = HomeSlot(old_e->hash, mask);
  while (slots[i].entry != old_e) i = (i + 1) & mask;
  slots[i].entry = new_e;
}

void IndexShard::Erase(const ViewEntry* e) {
  const size_t mask = slots.size() - 1;
  size_t hole = HomeSlot(e->hash, mask);
  while (slots[hole].entry != e) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull later slots of the probe run into the
  // hole when their home slot does not lie strictly between hole and them.
  for (size_t j = (hole + 1) & mask; slots[j].entry != nullptr;
       j = (j + 1) & mask) {
    const size_t home = HomeSlot(slots[j].hash, mask);
    const bool stays = hole <= j ? (hole < home && home <= j)
                                 : (hole < home || home <= j);
    if (stays) continue;
    slots[hole] = slots[j];
    hole = j;
  }
  slots[hole] = Slot{};
  --size;
}

// --------------------------------------------------------------- ViewContent

const CountedTuple& ViewContent::operator[](size_t i) const {
  XVM_CHECK(i < size_);
  const size_t c = static_cast<size_t>(
      std::upper_bound(starts_.begin(), starts_.end(), i) - starts_.begin() -
      1);
  return chunks_[c]->entries[i - starts_[c]]->ct;
}

const CountedTuple* ViewContent::FindByIdKey(std::string_view id_key) const {
  const size_t hash = HashKey(id_key);
  const IndexShard* shard = shards_[ShardOf(hash)].get();
  if (shard == nullptr) return nullptr;
  const ViewEntry* e = shard->Find(hash, id_key);
  return e == nullptr ? nullptr : &e->ct;
}

// ---------------------------------------------------------- MaterializedView

MaterializedView::MaterializedView(Schema schema)
    : schema_(std::move(schema)) {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (schema_.col(i).kind == ValueKind::kId) {
      id_cols_.push_back(static_cast<int>(i));
    }
  }
  XVM_CHECK(!id_cols_.empty());
}

std::string MaterializedView::IdKeyOf(const Tuple& tuple) const {
  return EncodeTupleCols(tuple, id_cols_);
}

Tuple MaterializedView::IdsOf(const Tuple& tuple) const {
  Tuple ids;
  ids.reserve(id_cols_.size());
  for (int c : id_cols_) ids.push_back(tuple[static_cast<size_t>(c)]);
  return ids;
}

std::strong_ordering MaterializedView::CompareIds(const Tuple& a,
                                                  const Tuple& key,
                                                  bool key_is_ids) const {
  for (size_t j = 0; j < id_cols_.size(); ++j) {
    const size_t col = static_cast<size_t>(id_cols_[j]);
    auto cmp = a[col] <=> key[key_is_ids ? j : col];
    if (cmp != std::strong_ordering::equal) return cmp;
  }
  return std::strong_ordering::equal;
}

bool MaterializedView::IdLess(const Tuple& a, const Tuple& b) const {
  return CompareIds(a, b, /*key_is_ids=*/false) < 0;
}

size_t MaterializedView::ChunkFor(const Tuple& key, bool key_is_ids,
                                  size_t from) const {
  const auto& chunks = content_.chunks_;
  auto it = std::partition_point(
      chunks.begin() + static_cast<ptrdiff_t>(from), chunks.end(),
      [&](const std::shared_ptr<ViewChunk>& c) {
        // Only AddDerivations' placeholder for an empty view is empty.
        return !c->entries.empty() &&
               CompareIds(c->entries.back()->ct.tuple, key, key_is_ids) < 0;
      });
  return static_cast<size_t>(it - chunks.begin());
}

MaterializedView::EntryPtr MaterializedView::NewEntry(Tuple tuple,
                                                      int64_t count,
                                                      std::string id_key,
                                                      size_t hash) const {
  auto e = std::make_shared<ViewEntry>();
  e->ct = CountedTuple{std::move(tuple), count};
  e->id_key = std::move(id_key);
  e->hash = hash;
  e->epoch = epoch_;
  return e;
}

std::shared_ptr<ViewChunk> MaterializedView::NewChunk(
    std::vector<EntryPtr> entries) {
  auto chunk = std::make_shared<ViewChunk>();
  chunk->entries = std::move(entries);
  chunk->epoch = epoch_;
  ++chunks_copied_;
  return chunk;
}

ViewChunk* MaterializedView::MutableChunk(size_t c) {
  std::shared_ptr<ViewChunk>& chunk = content_.chunks_[c];
  if (chunk->epoch != epoch_) {
    auto copy = std::make_shared<ViewChunk>(*chunk);
    copy->epoch = epoch_;
    chunk = std::move(copy);
    ++chunks_copied_;
  }
  return chunk.get();
}

IndexShard* MaterializedView::MutableShard(size_t hash) {
  std::shared_ptr<IndexShard>& shard = content_.shards_[ShardOf(hash)];
  if (shard == nullptr) {
    shard = std::make_shared<IndexShard>();
    shard->epoch = epoch_;
  } else if (shard->epoch != epoch_) {
    auto copy = std::make_shared<IndexShard>(*shard);
    copy->epoch = epoch_;
    shard = std::move(copy);
    ++shards_copied_;
  }
  return shard.get();
}

MaterializedView::EntryPtr MaterializedView::WithCount(const EntryPtr& e,
                                                       int64_t count) {
  if (e->epoch == epoch_) {
    e->ct.count = count;
    return e;
  }
  EntryPtr fresh = NewEntry(e->ct.tuple, count, e->id_key, e->hash);
  MutableShard(e->hash)->Replace(e.get(), fresh.get());
  return fresh;
}

size_t MaterializedView::ReplaceChunk(size_t c, std::vector<EntryPtr> entries) {
  auto& chunks = content_.chunks_;
  // An underfull result absorbs its successor, so removals cannot leave a
  // trail of near-empty chunks behind.
  if (entries.size() < kMinFill && c + 1 < chunks.size() &&
      entries.size() + chunks[c + 1]->entries.size() <= kChunkCapacity) {
    const auto& next = chunks[c + 1]->entries;
    entries.insert(entries.end(), next.begin(), next.end());
    chunks.erase(chunks.begin() + static_cast<ptrdiff_t>(c) + 1);
  }
  if (entries.empty()) {
    chunks.erase(chunks.begin() + static_cast<ptrdiff_t>(c));
    return c;
  }
  const size_t pieces = (entries.size() + kChunkCapacity - 1) / kChunkCapacity;
  if (pieces == 1) {
    if (chunks[c]->epoch == epoch_) {
      chunks[c]->entries = std::move(entries);
    } else {
      chunks[c] = NewChunk(std::move(entries));
    }
    return c + 1;
  }
  // Equal pieces, so a split chunk has room on both sides.
  std::vector<std::shared_ptr<ViewChunk>> out(pieces);
  size_t begin = 0;
  for (size_t p = 0; p < pieces; ++p) {
    const size_t end = entries.size() * (p + 1) / pieces;
    out[p] = NewChunk(std::vector<EntryPtr>(
        std::make_move_iterator(entries.begin() + static_cast<ptrdiff_t>(begin)),
        std::make_move_iterator(entries.begin() + static_cast<ptrdiff_t>(end))));
    begin = end;
  }
  chunks[c] = std::move(out[0]);
  chunks.insert(chunks.begin() + static_cast<ptrdiff_t>(c) + 1,
                std::make_move_iterator(out.begin() + 1),
                std::make_move_iterator(out.end()));
  return c + pieces;
}

void MaterializedView::FixStarts(size_t c) {
  const auto& chunks = content_.chunks_;
  auto& starts = content_.starts_;
  starts.resize(chunks.size());
  size_t pos = c == 0 ? 0 : starts[c - 1] + chunks[c - 1]->entries.size();
  for (size_t k = c; k < chunks.size(); ++k) {
    starts[k] = pos;
    pos += chunks[k]->entries.size();
  }
  XVM_CHECK(pos == content_.size_);
}

std::pair<size_t, size_t> MaterializedView::Locate(size_t pos) const {
  XVM_CHECK(pos < content_.size_);
  const auto& starts = content_.starts_;
  const size_t c = static_cast<size_t>(
      std::upper_bound(starts.begin(), starts.end(), pos) - starts.begin() -
      1);
  return {c, pos - starts[c]};
}

void MaterializedView::AddDerivations(std::vector<CountedTuple> batch) {
  if (batch.empty()) return;
  auto less = [this](const CountedTuple& a, const CountedTuple& b) {
    return IdLess(a.tuple, b.tuple);
  };
  // Canonical order is ID order unless two rows disagree on a payload; a
  // stable sort then keeps the first of them first.
  if (!std::is_sorted(batch.begin(), batch.end(), less)) {
    std::stable_sort(batch.begin(), batch.end(), less);
  }
  auto& chunks = content_.chunks_;
  if (chunks.empty()) chunks.push_back(NewChunk({}));
  const size_t first_touched =
      std::min(ChunkFor(batch.front().tuple, false, 0), chunks.size() - 1);
  size_t c = 0;
  size_t i = 0;
  while (i < batch.size()) {
    c = std::min(ChunkFor(batch[i].tuple, false, c), chunks.size() - 1);
    // Rows up to the chunk's last entry (or all, past the last chunk) merge
    // into this chunk.
    size_t j = i + 1;
    if (c + 1 == chunks.size()) {
      j = batch.size();
    } else {
      const Tuple& last = chunks[c]->entries.back()->ct.tuple;
      while (j < batch.size() && CompareIds(batch[j].tuple, last, false) <= 0) {
        ++j;
      }
    }
    const std::vector<EntryPtr>& old = chunks[c]->entries;
    std::vector<EntryPtr> merged;
    merged.reserve(old.size() + (j - i));
    size_t o = 0;
    for (; i < j; ++i) {
      CountedTuple& row = batch[i];
      XVM_CHECK(row.count > 0);
      XVM_CHECK(row.tuple.size() == schema_.size());
      while (o < old.size() && IdLess(old[o]->ct.tuple, row.tuple)) {
        merged.push_back(old[o++]);
      }
      content_.total_derivations_ += row.count;
      if (o < old.size() && !IdLess(row.tuple, old[o]->ct.tuple)) {
        merged.push_back(WithCount(old[o], old[o]->ct.count + row.count));
        ++o;
      } else if (!merged.empty() &&
                 CompareIds(merged.back()->ct.tuple, row.tuple, false) == 0) {
        // An earlier row of this batch had the same IDs, so the entry is
        // of this epoch and changes in place.
        merged.back()->ct.count += row.count;
      } else {
        std::string key = IdKeyOf(row.tuple);
        const size_t hash = HashKey(key);
        EntryPtr e =
            NewEntry(std::move(row.tuple), row.count, std::move(key), hash);
        MutableShard(hash)->Insert(e.get());
        merged.push_back(std::move(e));
        ++content_.size_;
      }
    }
    merged.insert(merged.end(), old.begin() + static_cast<ptrdiff_t>(o),
                  old.end());
    // Resume at the last chunk written: it may have absorbed its successor.
    c = ReplaceChunk(c, std::move(merged)) - 1;
  }
  FixStarts(first_touched);
  ++version_;
}

void MaterializedView::AddDerivations(const Tuple& tuple, int64_t count) {
  std::vector<CountedTuple> batch;
  batch.push_back(CountedTuple{tuple, count});
  AddDerivations(std::move(batch));
}

bool MaterializedView::RemoveDerivations(
    const std::vector<CountedTuple>& batch) {
  XVM_CHECK(std::adjacent_find(batch.begin(), batch.end(),
                               [](const CountedTuple& a,
                                  const CountedTuple& b) {
                                 return !(a.tuple < b.tuple);
                               }) == batch.end());
  auto& chunks = content_.chunks_;
  bool exact = true;
  bool changed = false;
  size_t first_touched = chunks.size();
  size_t c = 0;
  size_t i = 0;
  while (i < batch.size()) {
    c = ChunkFor(batch[i].tuple, true, c);
    if (c == chunks.size()) break;  // every remaining row is past the end
    first_touched = std::min(first_touched, c);
    const Tuple& last = chunks[c]->entries.back()->ct.tuple;
    size_t j = i + 1;
    while (j < batch.size() && CompareIds(last, batch[j].tuple, true) >= 0) {
      ++j;
    }
    const std::vector<EntryPtr>& old = chunks[c]->entries;
    std::vector<EntryPtr> kept;
    kept.reserve(old.size());
    bool touched = false;
    size_t o = 0;
    for (; i < j; ++i) {
      const CountedTuple& row = batch[i];
      while (o < old.size() && CompareIds(old[o]->ct.tuple, row.tuple, true) < 0) {
        kept.push_back(old[o++]);
      }
      if (o == old.size() ||
          CompareIds(old[o]->ct.tuple, row.tuple, true) != 0) {
        continue;  // never satisfied the view
      }
      const EntryPtr& e = old[o++];
      const int64_t removed = std::min(row.count, e->ct.count);
      exact = exact && removed == row.count;
      if (removed == 0) {
        kept.push_back(e);
        continue;
      }
      touched = true;
      content_.total_derivations_ -= removed;
      if (removed == e->ct.count) {
        MutableShard(e->hash)->Erase(e.get());
        --content_.size_;
      } else {
        kept.push_back(WithCount(e, e->ct.count - removed));
      }
    }
    if (!touched) {
      ++c;
      continue;
    }
    changed = true;
    kept.insert(kept.end(), old.begin() + static_cast<ptrdiff_t>(o), old.end());
    // Resume at the last chunk written: it may have absorbed its successor.
    const size_t next = ReplaceChunk(c, std::move(kept));
    c = next == 0 ? 0 : next - 1;
  }
  if (changed) {
    FixStarts(first_touched);
    ++version_;
  }
  return exact;
}

bool MaterializedView::RemoveDerivations(const Tuple& ids, int64_t count) {
  return RemoveDerivations(
      std::vector<CountedTuple>{CountedTuple{ids, count}});
}

int64_t MaterializedView::CountOf(const Tuple& tuple) const {
  const size_t c = ChunkFor(tuple, false, 0);
  if (c == content_.chunks_.size()) return 0;
  for (const EntryPtr& e : content_.chunks_[c]->entries) {
    if (e->ct.tuple == tuple) return e->ct.count;
  }
  return 0;
}

size_t MaterializedView::ReplaceEntries(
    std::vector<std::pair<size_t, Tuple>> replacements) {
  for (auto& [pos, tuple] : replacements) {
    const auto [c, k] = Locate(pos);
    EntryPtr& slot = MutableChunk(c)->entries[k];
    if (slot->epoch == epoch_) {
      slot->ct.tuple = std::move(tuple);
      continue;
    }
    EntryPtr fresh =
        NewEntry(std::move(tuple), slot->ct.count, slot->id_key, slot->hash);
    MutableShard(slot->hash)->Replace(slot.get(), fresh.get());
    slot = std::move(fresh);
  }
  if (!replacements.empty()) ++version_;
  return replacements.size();
}

void MaterializedView::Reset(std::vector<CountedTuple> content) {
  bool strictly_sorted = true;
  for (size_t i = 1; i < content.size() && strictly_sorted; ++i) {
    strictly_sorted = IdLess(content[i - 1].tuple, content[i].tuple);
  }
  if (!strictly_sorted) {
    std::stable_sort(content.begin(), content.end(),
                     [this](const CountedTuple& a, const CountedTuple& b) {
                       return IdLess(a.tuple, b.tuple);
                     });
    size_t out = 0;
    for (size_t i = 0; i < content.size(); ++i) {
      if (out > 0 && !IdLess(content[out - 1].tuple, content[i].tuple)) {
        content[out - 1].count += content[i].count;
      } else {
        if (out != i) content[out] = std::move(content[i]);
        ++out;
      }
    }
    content.resize(out);
  }
  ViewContent fresh;
  for (size_t begin = 0; begin < content.size(); begin += kLoadFill) {
    const size_t end = std::min(content.size(), begin + kLoadFill);
    std::vector<EntryPtr> entries;
    entries.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      CountedTuple& ct = content[i];
      XVM_CHECK(ct.count > 0);
      XVM_CHECK(ct.tuple.size() == schema_.size());
      std::string key = IdKeyOf(ct.tuple);
      const size_t hash = HashKey(key);
      fresh.total_derivations_ += ct.count;
      entries.push_back(
          NewEntry(std::move(ct.tuple), ct.count, std::move(key), hash));
    }
    auto chunk = std::make_shared<ViewChunk>();
    chunk->entries = std::move(entries);
    chunk->epoch = epoch_;
    fresh.starts_.push_back(begin);
    fresh.chunks_.push_back(std::move(chunk));
  }
  fresh.size_ = content.size();
  for (const auto& chunk : fresh.chunks_) {
    for (const EntryPtr& e : chunk->entries) {
      std::shared_ptr<IndexShard>& shard = fresh.shards_[ShardOf(e->hash)];
      if (shard == nullptr) {
        shard = std::make_shared<IndexShard>();
        shard->epoch = epoch_;
      }
      shard->Insert(e.get());
    }
  }
  content_ = std::move(fresh);
  ++version_;
}

std::shared_ptr<const ViewContent> MaterializedView::Freeze() const {
  ++epoch_;
  return std::shared_ptr<const ViewContent>(new ViewContent(content_));
}

std::vector<std::string> MaterializedView::CheckStructure() const {
  std::vector<std::string> problems;
  const auto& chunks = content_.chunks_;
  if (content_.starts_.size() != chunks.size()) {
    problems.push_back("chunk start table has " +
                       std::to_string(content_.starts_.size()) +
                       " entries for " + std::to_string(chunks.size()) +
                       " chunks");
  }
  size_t pos = 0;
  int64_t total = 0;
  const Tuple* prev = nullptr;
  for (size_t c = 0; c < chunks.size(); ++c) {
    const auto& entries = chunks[c]->entries;
    if (entries.empty() || entries.size() > kChunkCapacity) {
      problems.push_back("chunk " + std::to_string(c) + " holds " +
                         std::to_string(entries.size()) + " entries");
    }
    if (c < content_.starts_.size() && content_.starts_[c] != pos) {
      problems.push_back("chunk " + std::to_string(c) + " starts at " +
                         std::to_string(content_.starts_[c]) + ", not " +
                         std::to_string(pos));
    }
    for (size_t k = 0; k < entries.size(); ++k, ++pos) {
      const ViewEntry& e = *entries[k];
      if (prev != nullptr && !IdLess(*prev, e.ct.tuple)) {
        problems.push_back("entry " + std::to_string(pos) + " (chunk " +
                           std::to_string(c) + ", slot " + std::to_string(k) +
                           ") is not above its predecessor in ID order");
      }
      prev = &e.ct.tuple;
      total += e.ct.count;
      if (e.id_key != IdKeyOf(e.ct.tuple) || e.hash != HashKey(e.id_key)) {
        problems.push_back("entry " + std::to_string(pos) +
                           " carries a stale ID key");
      } else if (content_.FindByIdKey(e.id_key) != &e.ct) {
        problems.push_back("entry " + std::to_string(pos) +
                           " is missing from the index");
      }
    }
  }
  if (pos != content_.size_) {
    problems.push_back("chunks hold " + std::to_string(pos) +
                       " entries but size() is " +
                       std::to_string(content_.size_));
  }
  size_t indexed = 0;
  for (size_t s = 0; s < content_.shards_.size(); ++s) {
    if (content_.shards_[s] != nullptr) indexed += content_.shards_[s]->size;
  }
  if (indexed != pos) {
    problems.push_back("index holds " + std::to_string(indexed) +
                       " entries, chunks " + std::to_string(pos));
  }
  if (total != content_.total_derivations_) {
    problems.push_back("counts sum to " + std::to_string(total) +
                       " but total_derivations() is " +
                       std::to_string(content_.total_derivations_));
  }
  return problems;
}

void MaterializedView::SwapEntriesForTesting(size_t i, size_t j) {
  const auto [ci, ki] = Locate(i);
  const auto [cj, kj] = Locate(j);
  std::swap(MutableChunk(ci)->entries[ki], MutableChunk(cj)->entries[kj]);
  ++version_;
}

}  // namespace xvm
