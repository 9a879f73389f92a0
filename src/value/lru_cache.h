// Sharded DRAM hot-value cache for the log-structured value tier.
//
// Caches the *dereference*, not the index lookup: an entry is (key -> handle,
// bytes) and a Get hit requires the caller to present the handle the index
// currently maps the key to. A stale entry -- left behind by a concurrent
// overwrite, remove, or GC relocation racing the read-side fill -- therefore
// can never be served: the current handle no longer matches and the probe
// misses. That makes the classic invalidate-vs-refill race harmless, so
// Invalidate() on the write paths is an eviction (reclaiming bytes early),
// not a correctness requirement.
//
// Handle comparison alone leaves one hole: a handle is a raw pmem address, so
// once a GC-retired segment's block is reallocated, a NEW record for the same
// key could land at the SAME raw+offset and a surviving stale entry would
// revalidate (ABA). ValueStorage closes it by calling EvictHandleRange over a
// retired segment's address range from the epoch-retire callback -- after the
// grace period (no reader can still Put an old handle in the range) and
// before the block is freed for reuse.
//
// A hit must cost less than the log read it saves, so the read side writes no
// shared state (DESIGN.md §6h):
//   * Entries are immutable once published: one allocation holds key, handle,
//     length and bytes. Replacing or evicting one unlinks it from its slot
//     and parks it on the shard's limbo list; full limbo batches go to the
//     EpochManager as callback-only retirements, so an entry is freed only
//     after every reader that could have loaded it has left its epoch.
//   * Get takes no lock on a hit or a plain miss. It hashes the key to one
//     8-way bucket, matches a 16-bit tag, then the entry's key and handle,
//     copies the bytes out and sets the slot's CLOCK reference byte only when
//     it is clear. Only a probe that meets the key under another handle locks
//     the shard, to drop that stale entry. Get must run inside the caller's
//     EpochGuard (ResolveValue holds one).
//   * Put, Invalidate and eviction take the shard mutex. A CLOCK hand sweeps
//     the shard's slots, clearing set reference bytes and evicting clear ones,
//     until the shard's payload bytes fit its budget.
//   * Hit/miss counts live in per-thread cells; Stats() sums them.
#ifndef PACTREE_SRC_VALUE_LRU_CACHE_H_
#define PACTREE_SRC_VALUE_LRU_CACHE_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/key.h"
#include "src/pmem/pptr.h"
#include "src/runtime/thread_context.h"
#include "src/sync/epoch.h"

namespace pactree {

struct ValueCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;      // probes that found nothing or a stale handle
  uint64_t evictions = 0;   // entries dropped for space or by Invalidate
  uint64_t bytes = 0;       // resident payload bytes (all shards)
  uint64_t entries = 0;
};

class ValueLruCache {
 public:
  // |capacity_bytes| is the total payload budget across |shards| shards
  // (each shard gets an equal slice). A zero capacity disables the cache:
  // every probe misses and Put is a no-op.
  ValueLruCache(size_t capacity_bytes, uint32_t shards)
      : shard_capacity_(capacity_bytes / std::max<uint32_t>(shards, 1)),
        shards_(std::max<uint32_t>(shards, 1)),
        table_(shards_) {
    if (shard_capacity_ == 0) {
      return;
    }
    // One slot per kPayloadPerSlot budget bytes: the value-tier mix (mostly
    // 64 B, some 1 KiB) fills about half the slots when the bytes are full.
    const size_t slots =
        std::bit_ceil(std::max(kMinSlots, shard_capacity_ / kPayloadPerSlot));
    for (Shard& sh : table_) {
      sh.buckets = std::make_unique<Bucket[]>(slots / kWays);
      sh.meta = std::make_unique<SlotMeta[]>(slots);
      sh.slots = slots;
      sh.limbo.reserve(kLimboBatch);
    }
  }

  ~ValueLruCache() {
    for (Shard& sh : table_) {
      for (size_t i = 0; i < sh.slots; ++i) {
        FreeEntry(sh.buckets[i / kWays].entry[i % kWays].load(std::memory_order_relaxed));
      }
      for (Entry* e : sh.limbo) {
        FreeEntry(e);
      }
    }
  }

  ValueLruCache(const ValueLruCache&) = delete;
  ValueLruCache& operator=(const ValueLruCache&) = delete;

  // Hit iff the key is cached under exactly |handle|; copies the bytes out
  // and marks the entry referenced. Takes no lock: the caller must hold an
  // EpochGuard (an entry it loads is freed only after the guard ends). A
  // handle mismatch (the index moved on) misses and drops the stale entry.
  bool Get(const Key& key, uint64_t handle, std::string* out) {
    StatCell& st = Cell();
    if (shard_capacity_ != 0) {
      const uint64_t h = HashOf(key);
      Shard& sh = table_[h % shards_];
      const size_t b = BucketOf(h, sh);
      Bucket& bk = sh.buckets[b];
      const uint16_t tag = TagOf(h);
      for (uint32_t w = 0; w < kWays; ++w) {
        if (bk.tag[w].load(std::memory_order_relaxed) != tag) {
          continue;
        }
        const Entry* e = bk.entry[w].load(std::memory_order_acquire);
        if (e == nullptr || e->key != key) {
          continue;
        }
        if (e->handle != handle) {
          DropStale(sh, b, w, e);  // superseded by an overwrite/remove/GC move
          break;
        }
        out->assign(e->bytes(), e->len);
        if (bk.ref[w].load(std::memory_order_relaxed) == 0) {
          bk.ref[w].store(1, std::memory_order_relaxed);
        }
        st.hits.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    st.misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // Installs (or replaces) the key's entry under |handle|. Values larger
  // than a shard's whole budget are not cached.
  void Put(const Key& key, uint64_t handle, std::string_view bytes) {
    if (shard_capacity_ == 0 || bytes.size() > shard_capacity_) {
      return;
    }
    Entry* fresh = NewEntry(key, handle, bytes);  // built outside the lock
    const uint64_t h = HashOf(key);
    Shard& sh = table_[h % shards_];
    const size_t b = BucketOf(h, sh);
    Bucket& bk = sh.buckets[b];
    const uint16_t tag = TagOf(h);
    std::lock_guard<std::mutex> lock(sh.mu);
    uint32_t slot = kWays;  // none yet
    for (uint32_t w = 0; w < kWays; ++w) {
      const Entry* e = bk.entry[w].load(std::memory_order_relaxed);
      if (e == nullptr) {
        slot = std::min(slot, w);
      } else if (bk.tag[w].load(std::memory_order_relaxed) == tag && e->key == key) {
        if (e->handle == handle) {  // a racing miss filled it first
          FreeEntry(fresh);
          return;
        }
        Unlink(sh, b, w, /*evicted=*/false);
        slot = w;
        break;
      }
    }
    if (slot == kWays) {
      slot = BucketVictim(bk);
      Unlink(sh, b, slot, /*evicted=*/true);
    }
    sh.meta[b * kWays + slot] = {handle, fresh->len};
    bk.ref[slot].store(0, std::memory_order_relaxed);
    bk.tag[slot].store(tag, std::memory_order_relaxed);
    bk.entry[slot].store(fresh, std::memory_order_release);
    sh.bytes += fresh->len;
    sh.entries++;
    while (sh.bytes > shard_capacity_) {
      AdvanceHand(sh);
    }
    MaybeRetireLimbo(sh);
  }

  // Drops every entry whose handle lies in [lo, hi). Called from a retired
  // value-log segment's epoch callback (see the header comment); correctness
  // against recycled-block ABA DOES depend on this one, unlike Invalidate.
  // Scans each shard's slot metadata; entries are never dereferenced.
  void EvictHandleRange(uint64_t lo, uint64_t hi) {
    if (shard_capacity_ == 0) {
      return;
    }
    for (Shard& sh : table_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      for (size_t i = 0; i < sh.slots; ++i) {
        const uint64_t h = sh.meta[i].handle;
        if (h >= lo && h < hi &&
            sh.buckets[i / kWays].entry[i % kWays].load(std::memory_order_relaxed) !=
                nullptr) {
          Unlink(sh, i / kWays, i % kWays, /*evicted=*/true);
        }
      }
      MaybeRetireLimbo(sh);
    }
  }

  // Early eviction on overwrite/remove (correctness does not depend on it;
  // see the header comment).
  void Invalidate(const Key& key) {
    if (shard_capacity_ == 0) {
      return;
    }
    const uint64_t h = HashOf(key);
    Shard& sh = table_[h % shards_];
    const size_t b = BucketOf(h, sh);
    Bucket& bk = sh.buckets[b];
    std::lock_guard<std::mutex> lock(sh.mu);
    for (uint32_t w = 0; w < kWays; ++w) {
      const Entry* e = bk.entry[w].load(std::memory_order_relaxed);
      if (e != nullptr && bk.tag[w].load(std::memory_order_relaxed) == TagOf(h) &&
          e->key == key) {
        Unlink(sh, b, w, /*evicted=*/true);
        MaybeRetireLimbo(sh);
        return;
      }
    }
  }

  ValueCacheStats Stats() const {
    ValueCacheStats s;
    for (const StatCell& c : cells_) {
      s.hits += c.hits.load(std::memory_order_relaxed);
      s.misses += c.misses.load(std::memory_order_relaxed);
    }
    for (const auto& sh : table_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      s.evictions += sh.evictions;
      s.bytes += sh.bytes;
      s.entries += sh.entries;
    }
    return s;
  }

  size_t capacity_bytes() const { return shard_capacity_ * shards_; }

 private:
  static constexpr uint32_t kWays = 8;
  static constexpr size_t kMinSlots = 64;
  static constexpr size_t kPayloadPerSlot = 128;
  // Unlinked entries handed to the epoch manager per retirement: keeps the
  // shared retire list at a small fraction of the miss rate.
  static constexpr size_t kLimboBatch = 64;
  static constexpr size_t kStatCells = 64;

  // Immutable once published; the value bytes follow the header.
  struct Entry {
    Key key;
    uint32_t len;
    uint64_t handle;
    const char* bytes() const { return reinterpret_cast<const char*>(this + 1); }
  };
  static_assert(std::is_trivially_destructible_v<Entry>);

  // One bucket of kWays slots, tags and reference bytes first so a probe
  // usually reads one line; every probe, locked or not, compares the tag
  // before dereferencing an entry. Slot handles and lengths live in
  // Shard::meta.
  struct alignas(64) Bucket {
    std::atomic<uint16_t> tag[kWays] = {};
    std::atomic<uint8_t> ref[kWays] = {};  // CLOCK reference bytes
    std::atomic<Entry*> entry[kWays] = {};
  };

  struct SlotMeta {
    uint64_t handle;
    uint64_t len;
  };

  struct Shard {
    mutable std::mutex mu;  // Put, Invalidate and every unlink
    std::unique_ptr<Bucket[]> buckets;
    // Each slot's entry handle and length, so unlinking and EvictHandleRange
    // never dereference an entry; written and read under mu only.
    std::unique_ptr<SlotMeta[]> meta;
    size_t slots = 0;
    size_t hand = 0;  // CLOCK hand: next slot index to inspect
    size_t bytes = 0;
    size_t entries = 0;
    uint64_t evictions = 0;
    std::vector<Entry*> limbo;  // unlinked, not yet handed to the epoch manager
    size_t limbo_bytes = 0;
  };

  // Single-thread-per-cell in the common case; fetch_add keeps totals exact
  // when two threads' tids share a cell.
  struct alignas(64) StatCell {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
  };

  static Entry* NewEntry(const Key& key, uint64_t handle, std::string_view bytes) {
    void* mem = ::operator new(sizeof(Entry) + bytes.size());
    auto* e = new (mem) Entry{key, static_cast<uint32_t>(bytes.size()), handle};
    std::memcpy(e + 1, bytes.data(), bytes.size());
    return e;
  }
  static void FreeEntry(Entry* e) { ::operator delete(e); }

  static uint64_t HashOf(const Key& key) { return MixBits64(key.Hash()); }
  static size_t BucketOf(uint64_t h, const Shard& sh) {
    return (h >> 8) & (sh.slots / kWays - 1);
  }
  static uint16_t TagOf(uint64_t h) { return static_cast<uint16_t>(h >> 48); }

  StatCell& Cell() { return cells_[ThreadContext::Current().tid() % kStatCells]; }

  // First slot whose reference byte is clear, clearing set ones on the way;
  // when every slot was referenced, slot 0 (now cleared like the rest).
  static uint32_t BucketVictim(Bucket& bk) {
    for (uint32_t w = 0; w < kWays; ++w) {
      if (bk.ref[w].load(std::memory_order_relaxed) == 0) {
        return w;
      }
      bk.ref[w].store(0, std::memory_order_relaxed);
    }
    return 0;
  }

  // One CLOCK step: a referenced slot gets a second chance, an unreferenced
  // one is evicted. mu held.
  void AdvanceHand(Shard& sh) {
    const size_t i = sh.hand;
    sh.hand = (i + 1) & (sh.slots - 1);
    Bucket& bk = sh.buckets[i / kWays];
    const uint32_t w = i % kWays;
    if (bk.entry[w].load(std::memory_order_relaxed) == nullptr) {
      return;
    }
    if (bk.ref[w].load(std::memory_order_relaxed) != 0) {
      bk.ref[w].store(0, std::memory_order_relaxed);
      return;
    }
    Unlink(sh, i / kWays, w, /*evicted=*/true);
  }

  // Empties a slot and parks its entry in limbo (readers may still hold it).
  // mu held; the slot must be occupied.
  void Unlink(Shard& sh, size_t b, uint32_t w, bool evicted) {
    Bucket& bk = sh.buckets[b];
    SlotMeta& m = sh.meta[b * kWays + w];
    sh.limbo.push_back(bk.entry[w].load(std::memory_order_relaxed));
    bk.entry[w].store(nullptr, std::memory_order_relaxed);
    bk.ref[w].store(0, std::memory_order_relaxed);
    sh.bytes -= m.len;
    sh.limbo_bytes += m.len;
    m = {0, 0};
    sh.entries--;
    sh.evictions += evicted ? 1 : 0;
  }

  // Hands a full limbo batch to the epoch manager: the callback frees the
  // entries once every reader that could have loaded one has left its epoch.
  // mu held.
  void MaybeRetireLimbo(Shard& sh) {
    if (sh.limbo.size() < kLimboBatch && sh.limbo_bytes < shard_capacity_ / 8) {
      return;
    }
    auto* batch = new std::vector<Entry*>();
    batch->swap(sh.limbo);
    sh.limbo.reserve(kLimboBatch);
    sh.limbo_bytes = 0;
    EpochManager::Instance().Retire(
        PPtr<void>(),
        [](void* arg) {
          auto* entries = static_cast<std::vector<Entry*>*>(arg);
          for (Entry* e : *entries) {
            FreeEntry(e);
          }
          delete entries;
        },
        batch);
  }

  // The mismatch path of Get: unlinks |e| if it is still in the slot.
  void DropStale(Shard& sh, size_t b, uint32_t w, const Entry* e) {
    std::lock_guard<std::mutex> lock(sh.mu);
    if (sh.buckets[b].entry[w].load(std::memory_order_relaxed) == e) {
      Unlink(sh, b, w, /*evicted=*/true);
      MaybeRetireLimbo(sh);
    }
  }

  const size_t shard_capacity_;
  const uint32_t shards_;
  std::vector<Shard> table_;
  StatCell cells_[kStatCells];
};

}  // namespace pactree

#endif  // PACTREE_SRC_VALUE_LRU_CACHE_H_
