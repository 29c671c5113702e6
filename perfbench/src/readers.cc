#include "readers.h"

#include <utility>

#include "common/rng.h"

namespace xvm::perfbench {

namespace {

// Bounds the raw-sample memory of one reader (16 MiB), so peak RSS does not
// follow how fast the readers ran.
constexpr size_t kMaxSamplesPerLane = 4u << 20;

double NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

}  // namespace

ReaderPool::ReaderPool(AcquireFn acquire, size_t threads, uint64_t seed,
                       bool start_paused)
    : acquire_(std::move(acquire)),
      paused_(start_paused),
      resumed_at_(Clock::now()),
      lanes_(threads) {
  threads_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    threads_.emplace_back(&ReaderPool::Run, this, &lanes_[i],
                          seed * 1000003ULL + i);
  }
}

ReaderPool::~ReaderPool() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ReaderPool::Pause() {
  if (paused_.exchange(true)) return;
  active_seconds_ += MsBetween(resumed_at_, Clock::now()) / 1000.0;
  for (const Lane& lane : lanes_) {
    while (lane.busy.load()) std::this_thread::yield();
  }
}

void ReaderPool::Resume() {
  if (!paused_.load()) return;
  resumed_at_ = Clock::now();
  paused_.store(false);
}

ReadResult ReaderPool::Stop() {
  Pause();
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  ReadResult out;
  out.seconds = active_seconds_;
  for (const Lane& lane : lanes_) {
    out.ops += lane.ops;
    out.bad_lookups += lane.bad_lookups;
    out.lookups += lane.lookups;
    out.acquire_ns_sum += lane.acquire_ns_sum;
    out.lookup_ns_sum += lane.lookup_ns_sum;
    out.op_ns.insert(out.op_ns.end(), lane.op_ns.begin(), lane.op_ns.end());
  }
  return out;
}

void ReaderPool::Run(Lane* lane, uint64_t seed) {
  Rng rng(seed);
  lane->op_ns.reserve(kMaxSamplesPerLane);
  while (!stop_.load(std::memory_order_relaxed)) {
    // Mark the op before re-checking the gate (both seq_cst), so Pause()
    // either stops this op or waits for it: no op straddles a pause.
    lane->busy.store(true);
    if (paused_.load()) {
      lane->busy.store(false);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    const SnapshotSetPtr set = acquire_();
    const Clock::time_point t1 = Clock::now();
    double op_ns = NsBetween(t0, t1);
    lane->acquire_ns_sum += op_ns;

    const size_t n = set->views.size();
    const ViewSnapshot* view = nullptr;
    const size_t first = n == 0 ? 0 : rng.Uniform(n);
    for (size_t k = 0; k < n && view == nullptr; ++k) {
      const ViewSnapshot* cand = set->views[(first + k) % n].get();
      if (cand != nullptr && !cand->empty()) view = cand;
    }
    if (view != nullptr) {
      const CountedTuple& probe = view->tuples()[rng.Uniform(view->size())];
      const std::string key = view->IdKeyOf(probe.tuple);
      const Clock::time_point t2 = Clock::now();
      const CountedTuple* hit = view->FindByIdKey(key);
      const Clock::time_point t3 = Clock::now();
      if (hit != &probe) ++lane->bad_lookups;
      const double lookup_ns = NsBetween(t2, t3);
      lane->lookup_ns_sum += lookup_ns;
      ++lane->lookups;
      op_ns += lookup_ns;
    }
    if (lane->ops % kSampleStride == 0 &&
        lane->op_ns.size() < kMaxSamplesPerLane) {
      lane->op_ns.push_back(static_cast<uint32_t>(op_ns));
    }
    ++lane->ops;
    lane->busy.store(false);
  }
}

}  // namespace xvm::perfbench
