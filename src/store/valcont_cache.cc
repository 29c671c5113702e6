#include "store/valcont_cache.h"

#include <cstdlib>

namespace xvm {

namespace {

constexpr size_t kDefaultBudgetBytes = 64u << 20;  // 64 MiB

}  // namespace

size_t ContCacheDefaultBudgetBytes() {
  const char* env = std::getenv("XVM_CONT_CACHE_BYTES");
  if (env == nullptr || env[0] == '\0') return kDefaultBudgetBytes;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') return kDefaultBudgetBytes;
  return static_cast<size_t>(parsed);
}

ValContCache::ValContCache() : budget_bytes_(ContCacheDefaultBudgetBytes()) {}

void ValContCache::set_enabled(bool enabled) {
  if (enabled_.exchange(enabled, std::memory_order_relaxed) == enabled) {
    return;
  }
  Clear();
}

void ValContCache::set_budget_bytes(size_t bytes) {
  budget_bytes_.store(bytes, std::memory_order_relaxed);
  for (Shard& s : shards_) {
    MutexLock lock(s.mu);
    EvictLocked(&s);
  }
}

bool ValContCache::Lookup(ValContCacheKey node, Kind kind,
                          std::string* out) const {
  if (!enabled()) return false;
  Shard& s = shard(node);
  {
    MutexLock lock(s.mu);
    auto it = s.map.find(node);
    if (it != s.map.end()) {
      const Entry& e = it->second;
      if (kind == Kind::kVal ? e.has_val : e.has_cont) {
        *out = (kind == Kind::kVal) ? e.val : e.cont;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void ValContCache::Insert(ValContCacheKey node, Kind kind,
                          const std::string& value) {
  if (!enabled()) return;
  Shard& s = shard(node);
  MutexLock lock(s.mu);
  auto [it, inserted] = s.map.try_emplace(node);
  Entry& e = it->second;
  if (!inserted) s.bytes -= e.bytes();
  if (kind == Kind::kVal) {
    e.has_val = true;
    e.val = value;
  } else {
    e.has_cont = true;
    e.cont = value;
  }
  s.bytes += e.bytes();
  EvictLocked(&s);
}

void ValContCache::Erase(ValContCacheKey node) {
  Shard& s = shard(node);
  MutexLock lock(s.mu);
  auto it = s.map.find(node);
  if (it == s.map.end()) return;
  s.bytes -= it->second.bytes();
  s.map.erase(it);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

void ValContCache::Clear() {
  for (Shard& s : shards_) {
    MutexLock lock(s.mu);
    s.map.clear();
    s.bytes = 0;
  }
}

void ValContCache::EvictLocked(Shard* s) const {
  const size_t slice = budget_bytes() / kShards;
  while (s->bytes > slice && !s->map.empty()) {
    auto it = s->map.begin();
    s->bytes -= it->second.bytes();
    s->map.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

ValContCache::Stats ValContCache::stats() const {
  Stats st;
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.invalidations = invalidations_.load(std::memory_order_relaxed);
  st.evictions = evictions_.load(std::memory_order_relaxed);
  return st;
}

size_t ValContCache::ApproxBytes() const {
  size_t total = 0;
  for (const Shard& s : shards_) {
    MutexLock lock(s.mu);
    total += s.bytes;
  }
  return total;
}

size_t ValContCache::EntryCount() const {
  size_t total = 0;
  for (const Shard& s : shards_) {
    MutexLock lock(s.mu);
    total += s.map.size();
  }
  return total;
}

std::vector<ValContCache::AuditEntry> ValContCache::SnapshotForAudit() const {
  std::vector<AuditEntry> entries;
  for (const Shard& s : shards_) {
    MutexLock lock(s.mu);
    for (const auto& [node, e] : s.map) {
      AuditEntry a;
      a.node = node;
      a.has_val = e.has_val;
      a.has_cont = e.has_cont;
      a.val = e.val;
      a.cont = e.cont;
      entries.push_back(std::move(a));
    }
  }
  return entries;
}

void ValContCache::PoisonForTesting(ValContCacheKey node) {
  Shard& s = shard(node);
  MutexLock lock(s.mu);
  auto it = s.map.find(node);
  if (it == s.map.end()) return;
  if (it->second.has_val) it->second.val += "\x01poison";
  if (it->second.has_cont) it->second.cont += "\x01poison";
}

}  // namespace xvm
