// Bounded, binary-comparable key type shared by all indexes in this repository.
//
// PACTree (SOSP'21, §5.2) stores at most 32 key bytes inline in a data node; integer
// keys are encoded big-endian so that byte-lexicographic order equals numeric order,
// which is what a radix trie requires. Keys are canonicalized by stripping trailing
// zero bytes: the zero-padded 32-byte image is then a bijective representation, so
// trie traversal over the padded view and memcmp over the padded image agree for
// every pair of distinct keys.
#ifndef PACTREE_SRC_COMMON_KEY_H_
#define PACTREE_SRC_COMMON_KEY_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

namespace pactree {

class Key {
 public:
  static constexpr size_t kMaxLen = 32;
  static constexpr size_t kIntLen = 8;

  Key() = default;

  // Builds a key whose byte order sorts like the unsigned integer value.
  static Key FromInt(uint64_t value) {
    Key k;
    for (size_t i = 0; i < kIntLen; ++i) {
      k.data_[i] = static_cast<uint8_t>(value >> (8 * (kIntLen - 1 - i)));
    }
    k.len_ = kIntLen;
    k.Canonicalize();
    return k;
  }

  // Builds a key from raw bytes; input longer than kMaxLen is truncated.
  static Key FromBytes(const void* bytes, size_t len) {
    Key k;
    k.len_ = static_cast<uint32_t>(len < kMaxLen ? len : kMaxLen);
    // GCC 12 false positive (-Warray-bounds, then -Wstringop-overread) when
    // inlined from FromString on a short std::string temporary: it pairs the
    // string's 16-byte in-object buffer with len_'s [0, 32] range, but that
    // buffer holds the bytes only while size() <= 15, and then len_ == size().
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wstringop-overread"
#endif
    std::memcpy(k.data_, bytes, k.len_);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    k.Canonicalize();
    return k;
  }

  static Key FromString(std::string_view s) { return FromBytes(s.data(), s.size()); }

  // Smallest possible key (empty); anchors the head data node.
  static Key Min() { return Key(); }

  // Largest representable key (32 x 0xff).
  static Key Max() {
    Key k;
    std::memset(k.data_, 0xff, kMaxLen);
    k.len_ = kMaxLen;
    return k;
  }

  uint64_t ToInt() const {
    uint64_t v = 0;
    for (size_t i = 0; i < kIntLen; ++i) {
      v = (v << 8) | data_[i];
    }
    return v;
  }

  std::string_view View() const {
    return std::string_view(reinterpret_cast<const char*>(data_), len_);
  }
  std::string ToString() const { return std::string(View()); }

  size_t size() const { return len_; }
  const uint8_t* data() const { return data_; }
  bool empty() const { return len_ == 0; }

  // Byte at position |i| of the zero-padded image; valid for any i < kMaxLen.
  uint8_t At(size_t i) const { return i < kMaxLen ? data_[i] : 0; }

  int Compare(const Key& o) const { return std::memcmp(data_, o.data_, kMaxLen); }

  bool operator==(const Key& o) const { return Compare(o) == 0; }
  bool operator!=(const Key& o) const { return Compare(o) != 0; }
  bool operator<(const Key& o) const { return Compare(o) < 0; }
  bool operator<=(const Key& o) const { return Compare(o) <= 0; }
  bool operator>(const Key& o) const { return Compare(o) > 0; }
  bool operator>=(const Key& o) const { return Compare(o) >= 0; }

  // One-byte fingerprint used by the data-node fingerprint array (FP-Tree style).
  uint8_t Fingerprint() const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < kMaxLen; i += 8) {
      uint64_t w;
      std::memcpy(&w, data_ + i, 8);
      h = (h ^ w) * 0x100000001b3ULL;
    }
    h ^= h >> 32;
    h ^= h >> 16;
    h ^= h >> 8;
    return static_cast<uint8_t>(h);
  }

  uint64_t Hash() const {
    uint64_t h = 14695981039346656037ULL;
    for (size_t i = 0; i < kMaxLen; i += 8) {
      uint64_t w;
      std::memcpy(&w, data_ + i, 8);
      h = (h ^ w) * 1099511628211ULL;
    }
    return h;
  }

 private:
  // Trailing zero bytes are semantically padding; strip them so that the padded
  // 32-byte image uniquely identifies a key.
  void Canonicalize() {
    while (len_ > 0 && data_[len_ - 1] == 0) {
      --len_;
    }
  }

  uint32_t len_ = 0;
  uint8_t data_[kMaxLen] = {};
};

static_assert(sizeof(Key) == 36, "Key layout is load-bearing for data-node sizing");

}  // namespace pactree

namespace std {
template <>
struct hash<pactree::Key> {
  size_t operator()(const pactree::Key& k) const { return k.Hash(); }
};
}  // namespace std

#endif  // PACTREE_SRC_COMMON_KEY_H_
