// PACTree data node (paper Figure 8): a B+-tree-style slotted leaf.
//
// 64 unsorted key-value slots; an 8-byte valid bitmap whose atomic persisted
// update is the linearization AND durability point for every common-case write
// (§5.5); a cache-line-aligned fingerprint array matched with SIMD; a
// permutation array that is deliberately NOT persisted (selective persistence,
// §4.4) and is regenerated on demand, version-checked (the permutation cache,
// DESIGN.md §6k); anchor key fixed at creation; doubly-linked siblings.
//
// Two on-media layouts share one header (DESIGN.md §6i):
//
//   kClassic -- 3072 B = 12 XPLines, full 36-B Key per slot, the paper's
//   layout (§5.2).
//
//   kCompact -- 2048 B = 8 XPLines. Every key in a node is >= its immutable
//   anchor and typically shares a long prefix with it, so a slot stores only a
//   4-B descriptor (prefix length vs the anchor, suffix length, arena offset)
//   and the suffix bytes live in a packed append-only arena at the node tail
//   (PaC-trees' compressed blocks, arXiv 2204.06077). The fingerprint array,
//   bitmap-publish linearization, and 64-slot concurrency protocol are exactly
//   the classic ones; only the slot bytes changed shape.
//
// The first 256 bytes (metadata, anchor, fingerprints, permutation) are
// byte-identical in both formats; a per-node format byte written at creation
// lets every method self-dispatch, so classic and compact nodes can coexist
// in one pool (a pre-existing classic image reopened under a compact-default
// build keeps its nodes classic; new nodes follow the tree's format knob).
#ifndef PACTREE_SRC_PACTREE_DATA_NODE_H_
#define PACTREE_SRC_PACTREE_DATA_NODE_H_

#include <atomic>
#include <cstdint>

#include "src/common/key.h"
#include "src/nvm/persist.h"
#include "src/pmem/pptr.h"
#include "src/sync/version_lock.h"

namespace pactree {

inline constexpr size_t kDataNodeEntries = 64;

// On-media slot layout of a data node. Persisted per node (one byte in the
// header) and per tree (PacRoot); the tree-level knob only selects the format
// of NEW nodes, every method reads the node's own byte.
enum class NodeFormat : uint8_t {
  kClassic = 0,  // full Key per slot (also what a legacy zeroed byte decodes to)
  kCompact = 1,  // anchor-prefix-truncated suffixes in a packed arena
};

// Suffix-arena capacity of a compact node: 16 B/slot on average. Incompressible
// key sets exhaust the arena before the bitmap fills; writers then compact the
// arena in place and, if that is not enough, split the node early -- compact
// nodes trade worst-case fan-out for 2/3 the media footprint.
inline constexpr size_t kCompactArenaBytes = 1024;

// Common prefix length of two keys' zero-padded 32-byte images.
inline size_t CommonPrefixLen(const Key& a, const Key& b) {
  const uint8_t* x = a.data();
  const uint8_t* y = b.data();
  size_t i = 0;
  while (i < Key::kMaxLen && x[i] == y[i]) {
    ++i;
  }
  return i;
}

// Permutation-cache states of DataNode::perm_version (DESIGN.md §6k):
//   kPermNone          nothing cached. Odd, and ReadLock tokens are always
//                      even, so it never matches a reader's token. Every node
//                      is created in this state.
//   PermBuilding(gen)  a publisher owns perm[] (bits 0-1 set, the holder's
//                      generation above). Only the holder clears it. A marker
//                      whose generation is not the current one was left by an
//                      earlier incarnation and is void, exactly like a lock
//                      word captured held by a crash.
//   a lock token       perm[] is the sorted live-slot order at that version.
inline constexpr uint64_t kPermNone = 1;
inline constexpr uint64_t PermBuilding(uint32_t generation) {
  return (static_cast<uint64_t>(generation) << 32) | 3;
}

struct DataNode {
  // --- cache line 0: mutable metadata (persisted, except perm_version) ---
  OptVersionLock lock;     // 0
  uint64_t bitmap;         // 8   valid-slot bitmap: the durability pivot
  uint64_t next_raw;       // 16  PPtr of right sibling (0 = tail)
  uint64_t prev_raw;       // 24  PPtr of left sibling (0 = head)
  uint32_t deleted;        // 32  logical-delete mark set by merge
  uint8_t format_byte;     // 36  NodeFormat, written at creation (legacy: 0)
  uint8_t pad0[3];         // 37
  uint64_t perm_version;   // 40  volatile: version the perm array matches
  uint16_t arena_cursor;   // 48  compact: first free arena byte (<= capacity)
  uint8_t pad1[14];        // 50
  // --- cache line 1: anchor key (immutable after creation, persisted) ---
  Key anchor;              // 64
  uint8_t pad2[28];        // 100
  // --- cache line 2: fingerprints (persisted) ---
  uint8_t fp[kDataNodeEntries];    // 128
  // --- cache line 3: permutation array (NOT persisted) ---
  // Slot indices in key order, 8 per word; only ever loaded and stored as
  // whole atomic words, so a reader racing a publisher sees each word either
  // old or new (and then fails its version validation).
  uint64_t perm[kDataNodeEntries / 8];  // 192
  // --- slots (format-dependent tail; access through the helpers) ---
  struct ClassicTail {
    Key keys[kDataNodeEntries];        // 256
    uint64_t values[kDataNodeEntries]; // 2560
  };
  struct CompactTail {
    uint64_t values[kDataNodeEntries]; // 256
    // Per-slot key descriptor: | plen:6 @18 | slen:6 @12 | arena off:12 @0 |.
    // The key is anchor-image[0, plen) ++ arena[off, off+slen), canonical
    // length plen+slen. Stored/loaded as one 4-B atomic word so a descriptor
    // swing (arena compaction) is indivisible to optimistic readers.
    uint32_t kdesc[kDataNodeEntries];  // 768
    uint8_t arena[kCompactArenaBytes]; // 1024
  };
  union {
    ClassicTail classic;
    CompactTail compact;
  };

  // ---- format ----

  NodeFormat Format() const {
    return format_byte == 0 ? NodeFormat::kClassic : NodeFormat::kCompact;
  }
  // On-media node size by format: what allocation, whole-node persists, and
  // sequential-read annotation must use. sizeof(DataNode) stays the classic
  // (max) size; a compact node simply never touches bytes past 2048.
  static constexpr size_t NodeBytes(NodeFormat f) {
    return f == NodeFormat::kCompact ? 2048 : 3072;
  }
  size_t NodeBytes() const { return NodeBytes(Format()); }

  // Everything a FindKey probe reads before the slot compare -- metadata,
  // anchor, fingerprints (the permutation line rides along: XPLine granularity)
  // -- derived from the layout so a tail change cannot desync the prefetch
  // annotation from what the probe actually touches.
  static constexpr size_t kProbeSpanBytes = 256;  // == offsetof(DataNode, classic)

  // ---- helpers (all assume the caller handles concurrency) ----

  uint64_t Bitmap() const;
  int CountLive() const;

  // Slot of |key| (fingerprint-filtered full compare) or -1. A caller that
  // will read the matching slot's value passes |will_read_value|: each
  // candidate's key read (classic: the Key line; compact: the arena suffix)
  // is then issued as a paired demand read with that candidate's value line,
  // so the probe waits once for both instead of the caller stalling on the
  // value line after the compare (DESIGN.md §6j). The caller still performs
  // its own value read after the compare; it hits the modeled cache. A
  // compact candidate with an empty suffix has no key read to pair with, so
  // its value stays the caller's plain demand read.
  int FindKey(const Key& key, uint8_t fingerprint,
              bool will_read_value = false) const;

  // First free slot or -1.
  int FindFreeSlot() const;

  // Reconstructs the key of |slot| (classic: a copy of the slot key; compact:
  // anchor prefix + arena suffix). Optimistic callers version-validate.
  Key KeyAt(int slot) const;

  // True when the slot holds exactly |key| (what FindKey's compare uses).
  bool KeyEquals(int slot, const Key& key) const;

  // Address of the slot's 8-B value word (position depends on the format).
  uint64_t* ValueSlot(int slot);
  const uint64_t* ValueSlot(int slot) const {
    return const_cast<DataNode*>(this)->ValueSlot(slot);
  }
  // Acquire-load of the slot value (optimistic-reader idiom).
  uint64_t ValueAt(int slot) const;

  // Writes slot contents + fingerprint and persists them (bitmap untouched:
  // callers flip the bit afterwards as the linearization point). Compact
  // nodes: the caller must have checked SuffixRoomFor(key) under the write
  // lock; the suffix append and cursor advance are persisted with the slot,
  // BEFORE the caller's bitmap publish, so a recovered live descriptor always
  // sits below the recovered cursor.
  void FillSlot(int slot, const Key& key, uint8_t fingerprint, uint64_t value);

  // FillSlot without any persist (absorb drains coalesce flushes; split builds
  // persist the whole node once). Compact: arena bytes consumed here are
  // reported through |arena_lo|/|arena_hi| (dirty watermark, grown in place)
  // so the caller can flush them together with the slot.
  void StageSlot(int slot, const Key& key, uint8_t fingerprint, uint64_t value,
                 uint16_t* arena_lo, uint16_t* arena_hi);

  // Classic: always true. Compact: true when |key|'s suffix can be placed --
  // an identical live suffix exists to share, or the arena has cursor room.
  bool SuffixRoomFor(const Key& key) const;

  // Compact only: in-place crash-safe arena compaction under the node's write
  // lock. Live = the PUBLISHED bitmap, so callers must publish any pending
  // batch-local bitmap first. Each live suffix is only ever copied into a
  // fully-free region before its 4-B descriptor atomically swings (a crash
  // leaves every live descriptor pointing at valid, persisted bytes); moves
  // whose destination overlaps the source are skipped, then the cursor drops
  // to the end of the highest live suffix. Returns bytes reclaimed.
  size_t CompactArenaLocked();

  // Atomically stores+persists a new bitmap value (linearization point).
  void PublishBitmap(uint64_t new_bitmap);

  // Computes the sorted order of live slots into |out| (64 entries; those
  // past the returned count are 0, so every entry is a valid slot index).
  // Pure function of the current slot contents.
  int ComputeSortedOrder(uint8_t* out) const;

  // ---- permutation cache (DESIGN.md §6k) ----

  // Current perm_version word. A reader holding read token |version| hits
  // when this equals |version|; otherwise it passes the word it saw to
  // PublishPerm as the CAS expectation.
  uint64_t PermState() const;
  // Copies the cached order (all 64 entries) into |order|. Only meaningful
  // after PermState() returned the caller's token; the caller validates.
  void CopyPerm(uint8_t* order) const;
  // Reader-side publish of |order| (64 entries, each < 64) as the order under
  // read token |version|: validates the token, CASes |seen| -> building (so
  // an entry that changed since |seen| was loaded is never evicted), stores
  // the words, and clears the marker to |version|, or to kPermNone when the
  // token went stale meanwhile. A no-op when another publisher holds the
  // marker or the token is already stale.
  void PublishPerm(uint64_t seen, uint64_t version, const uint8_t* order);
  // Writer-side store under the node's write lock (!selective_persistence):
  // waits out any current holder, stores and persists |order|, and clears
  // the marker to the token readers get once the lock drops -- so the
  // caller must not modify the node before unlocking.
  void StorePermLocked(const uint8_t* order);

  // Software-prefetches everything a FindKey probe reads before the slot
  // compare (kProbeSpanBytes: the node's first XPLine). The batched read
  // pipeline issues this one node ahead of the probe so the modeled media
  // fetch overlaps useful work (see AnnotateNvmPrefetch). Compact nodes also
  // prefetch the descriptor array -- 64 x 4 B = exactly one XPLine -- because
  // every key materialization reads a descriptor before it can touch the
  // arena; without this the compact layout pays one more serial media stall
  // per probe than classic (whose keys the probe span's successor lines
  // cover). The arena line itself stays a demand miss: its offset is unknown
  // until the descriptor is read, the same data dependency classic has on
  // its key line.
  void PrefetchProbe() const {
    AnnotateNvmPrefetch(this, kProbeSpanBytes);
    PrefetchDescs();
  }

  // The descriptor-line half of PrefetchProbe, for paths that demand-read the
  // probe span itself (JumpWalk arrival): issued before that read, the
  // descriptor fetch overlaps the probe stall instead of serializing after
  // the fingerprint match. No-op for classic nodes.
  void PrefetchDescs() const {
    if (Format() == NodeFormat::kCompact) {
      AnnotateNvmPrefetch(compact.kdesc, sizeof(compact.kdesc));
    }
  }

  DataNode* Next() const { return PPtr<DataNode>(NextRaw()).get(); }
  DataNode* Prev() const { return PPtr<DataNode>(PrevRaw()).get(); }
  uint64_t NextRaw() const;
  uint64_t PrevRaw() const;
  void StoreNextPersist(uint64_t raw);
  void StorePrevPersist(uint64_t raw);
  bool IsDeleted() const;

 private:
  // Permutation-cache internals (data_node.cc).
  std::atomic_ref<uint64_t> PermWord() const {
    return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(perm_version));
  }
  // Stores |order| word by word; the caller holds the building marker.
  void StorePerm(const uint8_t* order);
  // Compact internals (data_node.cc).
  uint32_t LoadDesc(int slot) const;
  void StoreDesc(int slot, uint32_t desc);
  // Places |key|'s suffix: shares an identical live suffix among |live_mask|
  // slots when possible, appends at the cursor otherwise. Returns the packed
  // descriptor, or ~0u when the arena is out of room. Appended bytes are NOT
  // persisted here; [*arena_lo, *arena_hi) grows over them.
  uint32_t PlaceSuffix(const Key& key, uint64_t live_mask, uint16_t* arena_lo,
                       uint16_t* arena_hi);
};

static_assert(sizeof(DataNode) == 3072, "classic node must be exactly 12 XPLines");
static_assert(offsetof(DataNode, fp) == 128, "fingerprints on their own line");
static_assert(offsetof(DataNode, classic) == 256, "slot tail XPLine-aligned");
static_assert(offsetof(DataNode, classic) == DataNode::kProbeSpanBytes,
              "probe span must cover exactly the shared header");
static_assert(offsetof(DataNode::ClassicTail, values) == 2304,
              "classic values after 64 full keys");
static_assert(offsetof(DataNode::CompactTail, kdesc) == 512,
              "compact descriptors after the value array");
static_assert(offsetof(DataNode::CompactTail, arena) == 768,
              "compact arena after the descriptors");
static_assert(offsetof(DataNode, compact) + sizeof(DataNode::CompactTail) ==
                  DataNode::NodeBytes(NodeFormat::kCompact),
              "compact node must be exactly 8 XPLines");

}  // namespace pactree

#endif  // PACTREE_SRC_PACTREE_DATA_NODE_H_
