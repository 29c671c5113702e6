#ifndef XVM_COMMON_GALLOP_H_
#define XVM_COMMON_GALLOP_H_

#include <algorithm>
#include <cstddef>

namespace xvm {

/// First position in [from, n) where `pred` fails, for a `pred` that holds
/// on a prefix of it: steps of 1, 2, 4, ... from `from`, then a binary
/// search in the last step. O(log(result - from)) calls, so a sorted batch
/// of searches that each start where the last one ended costs about
/// O(k log(n / k)) in total.
template <typename Pred>
size_t Gallop(size_t from, size_t n, const Pred& pred) {
  if (from >= n || !pred(from)) return from;
  size_t good = from;  // pred(good) holds
  size_t step = 1;
  while (good + step < n && pred(good + step)) {
    good += step;
    step *= 2;
  }
  size_t bad = std::min(good + step, n);
  while (bad - good > 1) {
    const size_t mid = good + (bad - good) / 2;
    (pred(mid) ? good : bad) = mid;
  }
  return bad;
}

}  // namespace xvm

#endif  // XVM_COMMON_GALLOP_H_
