#include "sim/callback_slab.h"

namespace gtpl::sim {

CallbackSlab::~CallbackSlab() {
  for (const std::unique_ptr<Cell[]>& chunk : chunks_) {
    for (uint32_t i = 0; i < kCellsPerChunk; ++i) {
      Cell& cell = chunk[i];
      if (cell.finish != nullptr) cell.finish(cell.storage, /*run=*/false);
    }
  }
}

uint32_t CallbackSlab::Acquire() {
  if (free_head_ == kNoCell) {
    const auto first = static_cast<uint32_t>(chunks_.size() * kCellsPerChunk);
    chunks_.push_back(std::make_unique<Cell[]>(kCellsPerChunk));
    // Thread the new cells onto the free list in index order.
    Cell* chunk = chunks_.back().get();
    for (uint32_t i = 0; i + 1 < kCellsPerChunk; ++i) {
      chunk[i].next_free = first + i + 1;
    }
    free_head_ = first;
  }
  const uint32_t index = free_head_;
  free_head_ = At(index).next_free;
  return index;
}

}  // namespace gtpl::sim
