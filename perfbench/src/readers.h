#ifndef XVM_PERFBENCH_READERS_H_
#define XVM_PERFBENCH_READERS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "stats.h"
#include "view/snapshot.h"

namespace xvm::perfbench {

/// What a reader pool observed between its start and Stop().
struct ReadResult {
  uint64_t ops = 0;
  uint64_t bad_lookups = 0;  // FindByIdKey missed the tuple it was given
  double seconds = 0;
  /// Latency (acquire + lookup) of every kSampleStride-th op, in ns.
  std::vector<uint32_t> op_ns;
  double acquire_ns_sum = 0;  // over all ops
  double lookup_ns_sum = 0;   // over all ops that found a non-empty view
  uint64_t lookups = 0;
};

/// Closed-loop snapshot readers. One op is an acquisition of the current
/// cut-consistent snapshot set plus one FindByIdKey of a key taken from a
/// random tuple of a random non-empty view of that set; the lookup must
/// return that very tuple. Readers read from construction until Stop(),
/// except while paused; `seconds` in the result counts only unpaused time.
class ReaderPool {
 public:
  using AcquireFn = std::function<SnapshotSetPtr()>;

  /// Every kSampleStride-th op's latency is kept as a raw sample.
  static constexpr uint64_t kSampleStride = 8;

  ReaderPool(AcquireFn acquire, size_t threads, uint64_t seed,
             bool start_paused = false);
  ~ReaderPool();

  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;

  /// Pause() returns once no reader is inside an op; paused readers sleep.
  void Pause();
  void Resume();

  /// Stops and joins the readers and merges their observations. Call once.
  ReadResult Stop();

 private:
  /// One reader's own counters, on cache lines no other reader writes.
  struct alignas(64) Lane {
    std::atomic<bool> busy{false};  // inside an op (see Pause)
    uint64_t ops = 0;
    uint64_t bad_lookups = 0;
    uint64_t lookups = 0;
    double acquire_ns_sum = 0;
    double lookup_ns_sum = 0;
    std::vector<uint32_t> op_ns;
  };

  void Run(Lane* lane, uint64_t seed);

  AcquireFn acquire_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_;
  Clock::time_point resumed_at_;
  double active_seconds_ = 0;
  std::vector<Lane> lanes_;
  std::vector<std::thread> threads_;  // last: joined before the lanes die
};

}  // namespace xvm::perfbench

#endif  // XVM_PERFBENCH_READERS_H_
