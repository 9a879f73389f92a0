// Per-call scratch array: up to kInline elements live inline (on the caller's
// stack), larger sizes spill to one heap block. The read pipeline sizes its
// per-key scratch with it, so a batch of up to kInline keys -- every Lookup,
// Scan and absorb presence check among them -- allocates nothing.
#ifndef PACTREE_SRC_COMMON_SCRATCH_ARRAY_H_
#define PACTREE_SRC_COMMON_SCRATCH_ARRAY_H_

#include <cstddef>
#include <vector>

namespace pactree {

template <typename T, size_t kInline = 16>
class ScratchArray {
 public:
  // Inline elements are default-initialized, so trivial ones start
  // indeterminate; spilled ones are value-initialized.
  explicit ScratchArray(size_t n) {
    if (n > kInline) {
      heap_.resize(n);
      data_ = heap_.data();
    }
  }
  ScratchArray(const ScratchArray&) = delete;
  ScratchArray& operator=(const ScratchArray&) = delete;

  T* data() { return data_; }
  T& operator[](size_t i) { return data_[i]; }

 private:
  T inline_[kInline];
  std::vector<T> heap_;
  T* data_ = inline_;
};

}  // namespace pactree

#endif  // PACTREE_SRC_COMMON_SCRATCH_ARRAY_H_
