// Per-call scratch array: up to kInline elements live inline (on the caller's
// stack), larger sizes spill to one heap block. The read pipeline sizes its
// per-key scratch with it, so a batch of up to kInline keys -- every Lookup,
// Scan and absorb presence check among them -- allocates nothing. Grow keeps
// a collection whose size is only known as it fills (the scan overlay's staged
// ops) inline until it outgrows kInline.
#ifndef PACTREE_SRC_COMMON_SCRATCH_ARRAY_H_
#define PACTREE_SRC_COMMON_SCRATCH_ARRAY_H_

#include <algorithm>
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

  // Makes room for at least |n| elements, keeping the first |used|.
  void Grow(size_t n, size_t used) {
    const size_t cap = heap_.empty() ? kInline : heap_.size();
    if (n <= cap) {
      return;
    }
    std::vector<T> bigger(std::max(n, 2 * cap));
    std::copy(data_, data_ + used, bigger.begin());
    heap_.swap(bigger);
    data_ = heap_.data();
  }

  T* data() { return data_; }
  T& operator[](size_t i) { return data_[i]; }

 private:
  T inline_[kInline];
  std::vector<T> heap_;
  T* data_ = inline_;
};

}  // namespace pactree

#endif  // PACTREE_SRC_COMMON_SCRATCH_ARRAY_H_
