#ifndef GTPL_SIM_CALLBACK_SLAB_H_
#define GTPL_SIM_CALLBACK_SLAB_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace gtpl::sim {

/// Storage for one-shot closures, so that scheduling an event or sending a
/// message does not heap-allocate the closure.
///
/// A closure of up to kCellBytes is moved into a fixed-size cell; the cells
/// live in chunks that are never freed or moved before the slab dies, and
/// free cells form an intrusive LIFO list. Emplace returns a 16-byte
/// Handle, which is trivially copyable and therefore fits
/// std::function<void()>'s inline buffer.
///
/// One-shot contract: invoking a Handle runs its closure exactly once in
/// place, destroys it, and returns the cell to the free list. Every cell
/// carries a generation that changes when its closure starts running, and
/// a Handle remembers the generation it was issued under, so invoking a
/// Handle again (a copy, or from inside its own closure) is a GTPL_CHECK
/// failure, never a silent run of whatever closure reuses the cell.
/// Closures that never ran are destroyed with the slab.
///
/// Not thread-safe: a slab belongs to one simulator, and every Handle must
/// be invoked on the thread that owns it.
class CallbackSlab {
 public:
  static constexpr size_t kCellBytes = 64;
  static constexpr size_t kCellAlign = alignof(std::max_align_t);
  static constexpr uint32_t kCellsPerChunk = 256;

  /// True iff a closure of type F can live in a cell.
  template <typename F>
  static constexpr bool kFits =
      sizeof(F) <= kCellBytes && alignof(F) <= kCellAlign;

  class Handle {
   public:
    void operator()() const { slab_->Invoke(cell_, generation_); }

   private:
    friend class CallbackSlab;
    Handle(CallbackSlab* slab, uint32_t cell, uint32_t generation)
        : slab_(slab), cell_(cell), generation_(generation) {}

    CallbackSlab* slab_;
    uint32_t cell_;
    uint32_t generation_;
  };

  CallbackSlab() = default;
  ~CallbackSlab();

  CallbackSlab(const CallbackSlab&) = delete;
  CallbackSlab& operator=(const CallbackSlab&) = delete;

  /// Moves (or copies) `closure` into a free cell; the returned Handle runs
  /// it once.
  template <typename F>
  Handle Emplace(F&& closure);

  /// Chunks allocated so far (each holds kCellsPerChunk cells).
  size_t num_chunks() const { return chunks_.size(); }
  /// Closures stored and not yet run.
  size_t live() const { return live_; }

 private:
  static constexpr uint32_t kNoCell = ~uint32_t{0};

  struct Cell {
    alignas(kCellAlign) unsigned char storage[kCellBytes];
    /// Runs the stored closure when `run` is true, then destroys it.
    /// nullptr while the cell is free.
    void (*finish)(void* storage, bool run) = nullptr;
    uint32_t generation = 0;
    uint32_t next_free = kNoCell;
  };

  template <typename T>
  static void Finish(void* storage, bool run) {
    T* closure = std::launder(static_cast<T*>(storage));
    if (run) (*closure)();
    closure->~T();
  }

  Cell& At(uint32_t cell) {
    return chunks_[cell / kCellsPerChunk][cell % kCellsPerChunk];
  }
  /// Index of a free cell, taken off the free list (adds a chunk if none).
  uint32_t Acquire();
  void Invoke(uint32_t cell, uint32_t generation);

  std::vector<std::unique_ptr<Cell[]>> chunks_;
  uint32_t free_head_ = kNoCell;
  size_t live_ = 0;
};

template <typename F>
CallbackSlab::Handle CallbackSlab::Emplace(F&& closure) {
  using T = std::decay_t<F>;
  static_assert(kFits<T>, "closure does not fit a slab cell");
  const uint32_t index = Acquire();
  Cell& cell = At(index);
  ::new (static_cast<void*>(cell.storage)) T(std::forward<F>(closure));
  cell.finish = &Finish<T>;
  ++live_;
  return Handle(this, index, cell.generation);
}

inline void CallbackSlab::Invoke(uint32_t index, uint32_t generation) {
  Cell& cell = At(index);
  GTPL_CHECK(cell.finish != nullptr && cell.generation == generation)
      << "slab closure " << index << " invoked more than once";
  // Changed before the run, so a nested invocation of this handle fails
  // too. The cell is not free while its closure runs, and chunks never
  // move, so the closure may schedule (and add chunks) from its body.
  ++cell.generation;
  cell.finish(cell.storage, /*run=*/true);
  cell.finish = nullptr;
  cell.next_free = free_head_;
  free_head_ = index;
  --live_;
}

/// Closures the scheduling front-ends take; a std::function goes to the
/// std::function overloads unchanged.
template <typename F>
inline constexpr bool kIsClosure =
    !std::is_same_v<std::decay_t<F>, std::function<void()>>;

/// Packs `closure` into a std::function<void()> without a heap allocation
/// where possible:
///   - trivially copyable and at most 16 bytes (a pointer and an id): as
///     is, since it already fits std::function's inline buffer;
///   - otherwise, if it fits a cell: a slab Handle to it (run once only);
///   - anything larger: a plain std::function.
template <typename F>
std::function<void()> PackClosure(CallbackSlab& slab, F&& closure) {
  using T = std::decay_t<F>;
  if constexpr (std::is_trivially_copyable_v<T> &&
                sizeof(T) <= sizeof(CallbackSlab::Handle)) {
    return std::function<void()>(std::forward<F>(closure));
  } else if constexpr (CallbackSlab::kFits<T>) {
    return std::function<void()>(slab.Emplace(std::forward<F>(closure)));
  } else {
    return std::function<void()>(std::forward<F>(closure));
  }
}

}  // namespace gtpl::sim

#endif  // GTPL_SIM_CALLBACK_SLAB_H_
