#include "src/pactree/data_node.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <iterator>

#if defined(PACTREE_AVX2)
#include <immintrin.h>
#endif

#include "src/common/compiler.h"
#include "src/nvm/persist.h"

namespace pactree {

namespace {

// Descriptor packing: | plen:6 @18 | slen:6 @12 | arena off:12 @0 |.
constexpr uint32_t MakeDesc(size_t plen, size_t slen, size_t off) {
  return static_cast<uint32_t>((plen << 18) | (slen << 12) | off);
}

struct DescFields {
  size_t plen;
  size_t slen;
  size_t off;
};

// Decodes with defensive clamps: a torn or racing descriptor must never make
// a reader index past the arena (observations are discarded on validation
// failure, but the read itself has to stay in bounds).
DescFields DecodeDesc(uint32_t d) {
  DescFields f;
  f.plen = std::min<size_t>((d >> 18) & 0x3f, Key::kMaxLen);
  f.slen = std::min<size_t>((d >> 12) & 0x3f, Key::kMaxLen - f.plen);
  f.off = d & 0xfff;
  if (f.off + f.slen > kCompactArenaBytes) {
    f.slen = 0;
    f.off = 0;
  }
  return f;
}

// Arena suffix bytes deliberately race: optimistic readers (KeyAt/KeyEquals)
// may follow a stale descriptor into a region PlaceSuffix or
// CompactArenaLocked is writing, and discard the observation when the version
// check fails. TSan's libc interceptors report memcmp/memcpy even when the
// calling function carries PACTREE_NO_TSAN, so under TSan the arena accesses
// go through these uninstrumented plain loops; other builds keep libc.
#if defined(__SANITIZE_THREAD__)
#define PACTREE_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PACTREE_TSAN_BUILD 1
#endif
#endif
#if defined(PACTREE_TSAN_BUILD)
PACTREE_NO_TSAN bool ArenaBytesEqual(const uint8_t* a, const uint8_t* b,
                                     size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}
PACTREE_NO_TSAN void ArenaBytesCopy(uint8_t* dst, const uint8_t* src,
                                    size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = src[i];
  }
}
#else
bool ArenaBytesEqual(const uint8_t* a, const uint8_t* b, size_t n) {
  return std::memcmp(a, b, n) == 0;
}
void ArenaBytesCopy(uint8_t* dst, const uint8_t* src, size_t n) {
  std::memcpy(dst, src, n);
}
#endif

}  // namespace

uint64_t DataNode::Bitmap() const {
  return std::atomic_ref<uint64_t>(const_cast<DataNode*>(this)->bitmap)
      .load(std::memory_order_acquire);
}

int DataNode::CountLive() const { return __builtin_popcountll(Bitmap()); }

uint32_t DataNode::LoadDesc(int slot) const {
  return std::atomic_ref<uint32_t>(
             const_cast<DataNode*>(this)->compact.kdesc[slot])
      .load(std::memory_order_acquire);
}

void DataNode::StoreDesc(int slot, uint32_t desc) {
  std::atomic_ref<uint32_t>(compact.kdesc[slot])
      .store(desc, std::memory_order_release);
}

PACTREE_NO_TSAN
Key DataNode::KeyAt(int slot) const {
  if (Format() == NodeFormat::kClassic) {
    return classic.keys[slot];
  }
  DescFields f = DecodeDesc(LoadDesc(slot));
  uint8_t buf[Key::kMaxLen];
  std::memcpy(buf, anchor.data(), f.plen);
  ArenaBytesCopy(buf + f.plen, compact.arena + f.off, f.slen);
  return Key::FromBytes(buf, f.plen + f.slen);
}

PACTREE_NO_TSAN
bool DataNode::KeyEquals(int slot, const Key& key) const {
  if (Format() == NodeFormat::kClassic) {
    return classic.keys[slot] == key;
  }
  DescFields f = DecodeDesc(LoadDesc(slot));
  if (key.size() != f.plen + f.slen) {
    return false;
  }
  // Truncated compare: the anchor-shared prefix first (usually short), then
  // the packed suffix bytes -- never the full 32-byte padded image.
  if (f.plen != 0 && std::memcmp(key.data(), anchor.data(), f.plen) != 0) {
    return false;
  }
  return f.slen == 0 ||
         ArenaBytesEqual(key.data() + f.plen, compact.arena + f.off, f.slen);
}

// Optimistic probe: runs under a version-lock read token and deliberately
// races with FillSlot on slots outside the live bitmap (or being recycled);
// the caller's Validate() discards any observation made during a write.
PACTREE_NO_TSAN
int DataNode::FindKey(const Key& key, uint8_t fingerprint,
                      bool will_read_value) const {
  uint64_t live = Bitmap();
  uint64_t candidates;
#if defined(PACTREE_AVX2)
  // 64-byte fingerprint match in two 32-byte compares (the paper uses one
  // AVX-512 compare; two AVX2 compares are the portable equivalent).
  __m256i needle = _mm256_set1_epi8(static_cast<char>(fingerprint));
  __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fp));
  __m256i hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fp + 32));
  uint32_t mlo = static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, needle)));
  uint32_t mhi = static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, needle)));
  candidates = (static_cast<uint64_t>(mhi) << 32 | mlo) & live;
#else
  candidates = 0;
  for (size_t i = 0; i < kDataNodeEntries; ++i) {
    if (fp[i] == fingerprint) {
      candidates |= 1ULL << i;
    }
  }
  candidates &= live;
#endif
  const bool is_compact = Format() == NodeFormat::kCompact;
  // The candidate's key read; its value line's address is known as soon as
  // the fingerprint matches, so a value-reading caller's load rides along.
  auto read_key = [&](int i, const void* k, size_t n) {
    if (will_read_value) {
      AnnotateNvmReadPair(k, n, ValueSlot(i), sizeof(uint64_t));
    } else {
      AnnotateNvmRead(k, n);
    }
  };
  while (candidates != 0) {
    int i = __builtin_ctzll(candidates);
    if (is_compact) {
      // All 64 descriptors share one XPLine; the suffix read touches only the
      // bytes the truncated compare needs.
      AnnotateNvmRead(&compact.kdesc[i], sizeof(uint32_t));
      DescFields f = DecodeDesc(LoadDesc(i));
      if (f.slen != 0) {
        read_key(i, &compact.arena[f.off], f.slen);
      }
    } else {
      read_key(i, &classic.keys[i], sizeof(Key));
    }
    if (KeyEquals(i, key)) {
      return i;
    }
    candidates &= candidates - 1;
  }
  return -1;
}

int DataNode::FindFreeSlot() const {
  uint64_t live = Bitmap();
  if (live == ~0ULL) {
    return -1;
  }
  return __builtin_ctzll(~live);
}

uint64_t* DataNode::ValueSlot(int slot) {
  return Format() == NodeFormat::kClassic ? &classic.values[slot]
                                          : &compact.values[slot];
}

uint64_t DataNode::ValueAt(int slot) const {
  return std::atomic_ref<uint64_t>(
             *const_cast<DataNode*>(this)->ValueSlot(slot))
      .load(std::memory_order_acquire);
}

// Suffix placement for a compact slot. Sharing scan: an UPDATE of a live key
// re-fills a fresh slot with the same bytes, and without sharing every such
// churn would leak one suffix until the next compaction. Only slots in
// |live_mask| are candidates -- a dead slot's descriptor may point at bytes a
// past compaction has reclaimed.
PACTREE_NO_TSAN
uint32_t DataNode::PlaceSuffix(const Key& key, uint64_t live_mask,
                               uint16_t* arena_lo, uint16_t* arena_hi) {
  const size_t plen = std::min(CommonPrefixLen(key, anchor), key.size());
  const size_t slen = key.size() - plen;
  if (slen == 0) {
    return MakeDesc(plen, 0, 0);
  }
  const uint8_t* suffix = key.data() + plen;
  while (live_mask != 0) {
    int i = __builtin_ctzll(live_mask);
    live_mask &= live_mask - 1;
    DescFields f = DecodeDesc(LoadDesc(i));
    if (f.slen == slen &&
        std::memcmp(compact.arena + f.off, suffix, slen) == 0) {
      return MakeDesc(plen, slen, f.off);  // share the live copy
    }
  }
  if (arena_cursor + slen > kCompactArenaBytes) {
    return ~0u;  // out of room: caller compacts and/or splits
  }
  const uint16_t off = arena_cursor;
  ArenaBytesCopy(compact.arena + off, suffix, slen);
  arena_cursor = static_cast<uint16_t>(off + slen);
  *arena_lo = std::min(*arena_lo, off);
  *arena_hi = std::max<uint16_t>(*arena_hi, arena_cursor);
  return MakeDesc(plen, slen, off);
}

PACTREE_NO_TSAN
bool DataNode::SuffixRoomFor(const Key& key) const {
  if (Format() == NodeFormat::kClassic) {
    return true;
  }
  const size_t plen = std::min(CommonPrefixLen(key, anchor), key.size());
  const size_t slen = key.size() - plen;
  if (slen == 0 || arena_cursor + slen <= kCompactArenaBytes) {
    return true;
  }
  // No cursor room; a live identical suffix still admits the key (mirrors
  // PlaceSuffix's sharing scan).
  const uint8_t* suffix = key.data() + plen;
  uint64_t live = Bitmap();
  while (live != 0) {
    int i = __builtin_ctzll(live);
    live &= live - 1;
    DescFields f = DecodeDesc(LoadDesc(i));
    if (f.slen == slen &&
        std::memcmp(compact.arena + f.off, suffix, slen) == 0) {
      return true;
    }
  }
  return false;
}

// Writer side of the optimistic-probe pattern (see FindKey): fills a slot that
// is not yet (or no longer) in the live bitmap while readers may be scanning.
PACTREE_NO_TSAN
void DataNode::FillSlot(int slot, const Key& key, uint8_t fingerprint, uint64_t value) {
  if (Format() == NodeFormat::kClassic) {
    classic.keys[slot] = key;
    classic.values[slot] = value;
    fp[slot] = fingerprint;
    PersistRange(&classic.keys[slot], sizeof(Key));
    PersistRange(&classic.values[slot], sizeof(uint64_t));
    PersistRange(&fp[slot], 1);
    Fence();
    return;
  }
  uint16_t lo = kCompactArenaBytes;
  uint16_t hi = 0;
  uint32_t d = PlaceSuffix(key, Bitmap(), &lo, &hi);
  assert(d != ~0u && "caller must check SuffixRoomFor under the write lock");
  compact.values[slot] = value;
  StoreDesc(slot, d);
  fp[slot] = fingerprint;
  if (hi > lo) {
    PersistRange(&compact.arena[lo], hi - lo);
    // Cursor durable with the bytes, BEFORE the caller's bitmap publish: a
    // recovered image never has a live descriptor above the recovered cursor.
    PersistRange(&arena_cursor, sizeof(arena_cursor));
  }
  PersistRange(&compact.values[slot], sizeof(uint64_t));
  PersistRange(&compact.kdesc[slot], sizeof(uint32_t));
  PersistRange(&fp[slot], 1);
  Fence();
}

PACTREE_NO_TSAN
void DataNode::StageSlot(int slot, const Key& key, uint8_t fingerprint,
                         uint64_t value, uint16_t* arena_lo, uint16_t* arena_hi) {
  if (Format() == NodeFormat::kClassic) {
    classic.keys[slot] = key;
    classic.values[slot] = value;
    fp[slot] = fingerprint;
    return;
  }
  uint32_t d = PlaceSuffix(key, Bitmap(), arena_lo, arena_hi);
  assert(d != ~0u && "caller must check SuffixRoomFor under the write lock");
  compact.values[slot] = value;
  StoreDesc(slot, d);
  fp[slot] = fingerprint;
}

size_t DataNode::CompactArenaLocked() {
  if (Format() == NodeFormat::kClassic) {
    return 0;
  }
  // Live set = the PUBLISHED bitmap: anything a crash right now would recover
  // live. Callers with batch-local bitmap state publish it first.
  struct Ref {
    uint16_t off;
    uint16_t slen;
    uint8_t slot;
  };
  Ref refs[kDataNodeEntries];
  int nrefs = 0;
  uint64_t live = Bitmap();
  while (live != 0) {
    int i = __builtin_ctzll(live);
    live &= live - 1;
    DescFields f = DecodeDesc(LoadDesc(i));
    if (f.slen != 0) {
      refs[nrefs++] = {static_cast<uint16_t>(f.off),
                       static_cast<uint16_t>(f.slen), static_cast<uint8_t>(i)};
    }
  }
  std::sort(refs, refs + nrefs, [](const Ref& a, const Ref& b) {
    return a.off < b.off || (a.off == b.off && a.slot < b.slot);
  });
  uint16_t p = 0;  // pack cursor
  for (int g = 0; g < nrefs;) {
    // Slots sharing one suffix copy (PlaceSuffix sharing) form one group.
    int gend = g + 1;
    while (gend < nrefs && refs[gend].off == refs[g].off &&
           refs[gend].slen == refs[g].slen) {
      ++gend;
    }
    const uint16_t off = refs[g].off;
    const uint16_t slen = refs[g].slen;
    if (off == p) {
      p = static_cast<uint16_t>(off + slen);
      g = gend;
      continue;
    }
    if (p + slen <= off) {
      // Destination is fully free and disjoint from the source: copy, make the
      // bytes durable, THEN swing each 4-B descriptor atomically. A crash at
      // any point leaves every live descriptor pointing at valid bytes.
      ArenaBytesCopy(compact.arena + p, compact.arena + off, slen);
      PersistFence(&compact.arena[p], slen);
      for (int j = g; j < gend; ++j) {
        DescFields f = DecodeDesc(LoadDesc(refs[j].slot));
        StoreDesc(refs[j].slot, MakeDesc(f.plen, slen, p));
        PersistRange(&compact.kdesc[refs[j].slot], sizeof(uint32_t));
      }
      Fence();  // swings durable before the cursor drop below
      p = static_cast<uint16_t>(p + slen);
    } else {
      // Destination would overlap the source: moving could tear the bytes a
      // crash-recovered descriptor still points at. Leave it in place.
      p = static_cast<uint16_t>(off + slen);
    }
    g = gend;
  }
  const uint16_t old_cursor = arena_cursor;
  if (p < old_cursor) {
    arena_cursor = p;
    PersistFence(&arena_cursor, sizeof(arena_cursor));
  }
  return p < old_cursor ? old_cursor - p : 0;
}

namespace {
// True when |pv| is a building marker of the current incarnation: a live
// publisher owns perm[]. A marker from an earlier generation is void.
bool PermHeld(uint64_t pv) {
  return (pv & 3) == 3 && static_cast<uint32_t>(pv >> 32) == GlobalGeneration();
}
}  // namespace

uint64_t DataNode::PermState() const {
  return PermWord().load(std::memory_order_acquire);
}

void DataNode::CopyPerm(uint8_t* order) const {
  for (size_t w = 0; w < std::size(perm); ++w) {
    uint64_t word = std::atomic_ref<uint64_t>(const_cast<uint64_t&>(perm[w]))
                        .load(std::memory_order_relaxed);
    std::memcpy(order + 8 * w, &word, sizeof(word));
  }
}

void DataNode::StorePerm(const uint8_t* order) {
  // Release stores: a reader that loads a word from this publish and then
  // validates (acquire fence) also sees the lock state this publisher saw,
  // so it cannot pass validation with a token older than the publisher's.
  for (size_t w = 0; w < std::size(perm); ++w) {
    uint64_t word;
    std::memcpy(&word, order + 8 * w, sizeof(word));
    std::atomic_ref<uint64_t>(perm[w]).store(word, std::memory_order_release);
  }
}

void DataNode::PublishPerm(uint64_t seen, uint64_t version, const uint8_t* order) {
  // Validate BEFORE claiming: a stale token must not evict an entry current
  // readers use. |seen| was loaded before the caller's reads, so the CAS
  // also fails if any publish landed since.
  if (PermHeld(seen) || !lock.Validate(version)) {
    return;
  }
  uint64_t mine = PermBuilding(GlobalGeneration());
  if (!PermWord().compare_exchange_strong(seen, mine, std::memory_order_acq_rel)) {
    return;
  }
  StorePerm(order);
  // Only the holder clears the marker, hence a CAS from our own marker.
  PermWord().compare_exchange_strong(
      mine, lock.Validate(version) ? version : kPermNone,
      std::memory_order_release);
}

void DataNode::StorePermLocked(const uint8_t* order) {
  uint64_t mine = PermBuilding(GlobalGeneration());
  uint64_t seen = PermWord().load(std::memory_order_relaxed);
  while (true) {
    if (PermHeld(seen)) {
      CpuRelax();  // a reader mid-publish: it fails its validate and clears
      seen = PermWord().load(std::memory_order_relaxed);
    } else if (PermWord().compare_exchange_weak(seen, mine,
                                                std::memory_order_acquire)) {
      break;
    }
  }
  StorePerm(order);
  PersistFence(perm, sizeof(perm));
  PermWord().compare_exchange_strong(mine, lock.RawWord() + 1,  // post-unlock
                                     std::memory_order_release);
}

void DataNode::PublishBitmap(uint64_t new_bitmap) {
  AtomicStorePersist(reinterpret_cast<std::atomic<uint64_t>*>(&bitmap), new_bitmap);
}

// Reads live-slot keys optimistically; callers version-check the result.
PACTREE_NO_TSAN
int DataNode::ComputeSortedOrder(uint8_t* out) const {
  uint64_t live = Bitmap();
  int n = 0;
  while (live != 0) {
    out[n++] = static_cast<uint8_t>(__builtin_ctzll(live));
    live &= live - 1;
  }
  if (Format() == NodeFormat::kClassic) {
    std::sort(out, out + n,
              [this](uint8_t a, uint8_t b) { return classic.keys[a] < classic.keys[b]; });
  } else {
    Key keys[kDataNodeEntries];
    for (int i = 0; i < n; ++i) {
      keys[out[i]] = KeyAt(out[i]);
    }
    std::sort(out, out + n,
              [&keys](uint8_t a, uint8_t b) { return keys[a] < keys[b]; });
  }
  std::fill(out + n, out + kDataNodeEntries, 0);
  return n;
}

uint64_t DataNode::NextRaw() const {
  return std::atomic_ref<uint64_t>(const_cast<DataNode*>(this)->next_raw)
      .load(std::memory_order_acquire);
}

uint64_t DataNode::PrevRaw() const {
  return std::atomic_ref<uint64_t>(const_cast<DataNode*>(this)->prev_raw)
      .load(std::memory_order_acquire);
}

void DataNode::StoreNextPersist(uint64_t raw) {
  std::atomic_ref<uint64_t>(next_raw).store(raw, std::memory_order_release);
  PersistFence(&next_raw, sizeof(uint64_t));
}

void DataNode::StorePrevPersist(uint64_t raw) {
  std::atomic_ref<uint64_t>(prev_raw).store(raw, std::memory_order_release);
  PersistFence(&prev_raw, sizeof(uint64_t));
}

bool DataNode::IsDeleted() const {
  return std::atomic_ref<uint32_t>(const_cast<DataNode*>(this)->deleted)
             .load(std::memory_order_acquire) != 0;
}

}  // namespace pactree
