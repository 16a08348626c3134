#include "src/la/workspace.hpp"

#include <algorithm>

namespace ardbt::la {

Matrix Workspace::acquire(index_t rows, index_t cols) {
  ++stats_.acquires;
  const auto need = static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  auto it = pool_.lower_bound(need);  // smallest capacity >= need
  if (it == pool_.end()) {
    ++stats_.slab_allocs;
    stats_.slab_bytes += need * sizeof(double);
    loaned_bytes_ += need * sizeof(double);
    stats_.high_water_bytes = std::max(stats_.high_water_bytes, pooled_bytes_ + loaned_bytes_);
    return Matrix(rows, cols);
  }
  Storage storage = std::move(it->second);
  const std::uint64_t cap_bytes = it->first * sizeof(double);
  pool_.erase(it);
  pooled_bytes_ -= cap_bytes;
  loaned_bytes_ += cap_bytes;
  stats_.high_water_bytes = std::max(stats_.high_water_bytes, pooled_bytes_ + loaned_bytes_);
  return Matrix(rows, cols, std::move(storage));
}

void Workspace::release(Matrix&& m) {
  ++stats_.releases;
  Storage storage = std::move(m).take_storage();
  const std::size_t cap = storage.capacity();
  if (cap == 0) return;
  const std::uint64_t cap_bytes = cap * sizeof(double);
  // Loan sizes are tracked by capacity, which can grow while on loan
  // (caller resize); clamp so the estimate never underflows.
  loaned_bytes_ -= std::min<std::uint64_t>(loaned_bytes_, cap_bytes);
  pooled_bytes_ += cap_bytes;
  stats_.high_water_bytes = std::max(stats_.high_water_bytes, pooled_bytes_ + loaned_bytes_);
  pool_.emplace(cap, std::move(storage));
}

}  // namespace ardbt::la
