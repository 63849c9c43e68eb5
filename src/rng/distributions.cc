#include "rng/distributions.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace gtpl::rng {

UniformInt::UniformInt(int64_t lo, int64_t hi) : lo_(lo), hi_(hi) {
  GTPL_CHECK_LE(lo, hi);
}

namespace {

/// The positions of a virtual identity pool that a partial Fisher-Yates
/// shuffle moved, with the values now at them: an open-addressing table of
/// at least twice as many slots as positions can be moved, on the stack
/// for the small samples transactions draw.
class MovedPositions {
 public:
  explicit MovedPositions(int32_t max_moved) {
    size_t capacity = kInlineSlots;
    while (capacity < 2 * static_cast<size_t>(max_moved)) capacity *= 2;
    if (capacity > kInlineSlots) {
      heap_.resize(capacity);
      slots_ = heap_.data();
    }
    mask_ = capacity - 1;
  }

  MovedPositions(const MovedPositions&) = delete;
  MovedPositions& operator=(const MovedPositions&) = delete;

  /// Value at `pos`: its own index unless a swap moved another value there.
  int32_t ValueAt(int32_t pos) {
    const Slot& slot = Probe(pos);
    return slot.pos == pos ? slot.value : pos;
  }

  void Set(int32_t pos, int32_t value) {
    Slot& slot = Probe(pos);
    slot.pos = pos;
    slot.value = value;
  }

 private:
  struct Slot {
    int32_t pos = -1;  // -1: empty
    int32_t value = 0;
  };
  static constexpr size_t kInlineSlots = 32;

  Slot& Probe(int32_t pos) {
    size_t i = (static_cast<uint32_t>(pos) * 0x9E3779B1u) & mask_;
    while (slots_[i].pos != -1 && slots_[i].pos != pos) i = (i + 1) & mask_;
    return slots_[i];
  }

  Slot inline_[kInlineSlots];
  std::vector<Slot> heap_;
  Slot* slots_ = inline_;
  size_t mask_ = 0;
};

}  // namespace

std::vector<int32_t> SampleDistinct(Rng& rng, int32_t n, int32_t k) {
  GTPL_CHECK_GE(n, k);
  GTPL_CHECK_GE(k, 0);
  // Partial Fisher-Yates over the identity pool [0, n): step i swaps
  // positions i and j (j drawn from [i, n)) and keeps the value that lands
  // at i. Only the positions a swap wrote can differ from the identity, so
  // the pool is never materialized; the draws and the result are those of
  // the shuffle over a real n-item pool.
  std::vector<int32_t> sample(static_cast<size_t>(k));
  MovedPositions moved(k);
  for (int32_t i = 0; i < k; ++i) {
    const auto j = static_cast<int32_t>(rng.UniformInt(i, n - 1));
    const int32_t at_j = moved.ValueAt(j);
    moved.Set(j, moved.ValueAt(i));  // position i is never read again
    sample[static_cast<size_t>(i)] = at_j;
  }
  return sample;
}

Zipf::Zipf(int32_t n, double theta) : n_(n), theta_(theta) {
  GTPL_CHECK_GT(n, 0);
  GTPL_CHECK_GE(theta, 0.0);
  cdf_.resize(n);
  double total = 0.0;
  for (int32_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding
}

int32_t Zipf::Sample(Rng& rng) const {
  const double u = rng.UniformDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int32_t>(it - cdf_.begin());
}

}  // namespace gtpl::rng
