// CrpmAllocator — the STL allocator adapter of Section 5.2.1.
//
// The paper enables recoverable STL data structures by passing a wrapper
// allocator as a template parameter ("a single line of code change"); the
// instantiated container code is then instrumented by the compiler pass.
// Without the pass, this adapter still places all element storage inside a
// crpm container (so it is checkpointed and recovered), but interior
// mutations made by the STL implementation itself are NOT traced — use it
// for containers whose elements you mutate through crpm::p<T> fields or
// explicit crpm_annotate() calls, or use the fully-instrumented
// crpm::PMap / PHashMap instead.
//
//   std::vector<double, crpm::CrpmAllocator<double>> v{
//       crpm::CrpmAllocator<double>(heap)};
#pragma once

#include <cstddef>

#include "core/heap.h"

namespace crpm {

template <typename T>
class CrpmAllocator {
 public:
  using value_type = T;

  explicit CrpmAllocator(Heap& heap) : heap_(&heap) {}

  template <typename U>
  CrpmAllocator(const CrpmAllocator<U>& other)  // NOLINT
      : heap_(other.heap()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(heap_->allocate(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    heap_->deallocate(p, n * sizeof(T));
  }

  Heap* heap() const { return heap_; }

  bool operator==(const CrpmAllocator& other) const {
    return heap_ == other.heap_;
  }
  bool operator!=(const CrpmAllocator& other) const {
    return !(*this == other);
  }

 private:
  template <typename U>
  friend class CrpmAllocator;

  Heap* heap_;
};

}  // namespace crpm
