// PDL-ART: Persistent Durable-Linearizable Adaptive Radix Tree (paper §5.1).
//
// An ART (Leis et al., ICDE'13) over the 32-byte zero-padded key image, with:
//   * optimistic version locks + the global generation ID instead of ROWEX, so
//     readers block on a locked node and can never observe unpersisted writes
//     (durable linearizability), and crash recovery does not visit nodes;
//   * log-free crash consistency: in-place changes use ordered persists with the
//     visibility store last; multi-line structural changes (grow/shrink/prefix
//     split) are copy-on-write with a single persisted 8-byte pointer swing as
//     the linearization point;
//   * persistent-leak prevention: every new node/leaf is allocated with
//     malloc-to semantics into a per-tree allocation log; recovery frees
//     blocks that never became reachable;
//   * epoch-based reclamation for nodes replaced by copy-on-write.
//
// Leaves are out-of-node {key, value} records -- one NVM allocation per insert,
// exactly the property the paper measures against (GA3, Figures 3/4/5). Values
// are opaque 8-byte words (PACTree stores data-node PPtrs in them).
#ifndef PACTREE_SRC_ART_ART_H_
#define PACTREE_SRC_ART_ART_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/key.h"
#include "src/common/status.h"
#include "src/pmem/heap.h"
#include "src/pmem/pptr.h"
#include "src/sync/version_lock.h"

namespace pactree {

// Child pointers are raw PPtr words; bit 63 tags a leaf (pool ids stay < 2^15).
inline constexpr uint64_t kArtLeafTag = 1ULL << 63;
inline bool ArtIsLeaf(uint64_t raw) { return (raw & kArtLeafTag) != 0; }
inline uint64_t ArtUntag(uint64_t raw) { return raw & ~kArtLeafTag; }

struct ArtLeaf {
  Key key;
  uint32_t pad;
  uint64_t value;
};
static_assert(sizeof(ArtLeaf) == 48, "leaf record layout");

enum ArtNodeType : uint8_t { kArtN4 = 1, kArtN16, kArtN48, kArtN256 };

struct ArtNode {
  OptVersionLock lock;
  uint8_t type;
  uint8_t pad;
  uint16_t count;
  uint32_t prefix_len;  // logical length; only kMaxPrefix bytes stored
  static constexpr uint32_t kMaxPrefix = 24;
  uint8_t prefix[kMaxPrefix];
};
static_assert(sizeof(ArtNode) == 40, "node header layout");

// Per-tree persistent allocation log entry (up to two blocks per operation:
// e.g., a prefix split allocates one inner node and one leaf).
struct ArtAllocLogEntry {
  uint64_t state;      // 0 = empty
  uint64_t blocks[2];  // raw PPtrs of in-flight allocations
  Key key;             // the key whose path the blocks belong to
  uint8_t pad[4];
};
static_assert(sizeof(ArtAllocLogEntry) == 64, "log entry is one cache line");

inline constexpr size_t kArtAllocLogSlots = 256;

// Persistent root object of one PDL-ART instance. The caller owns its placement
// (e.g., inside a heap root area or a PACTree metadata block).
struct ArtTreeRoot {
  uint64_t magic;
  uint64_t root_raw;  // PPtr of the root N256
  uint64_t pad[6];
  ArtAllocLogEntry alloc_log[kArtAllocLogSlots];
};

struct PdlArtStats {
  uint64_t restarts = 0;  // optimistic validation failures
};

class PdlArt {
 public:
  // Attaches to (or initializes) the tree rooted at |root|. |heap| provides
  // NUMA-local persistent allocation. When attaching to an existing tree the
  // caller must invoke Recover() before concurrent use.
  PdlArt(PmemHeap* heap, ArtTreeRoot* root);

  PdlArt(const PdlArt&) = delete;
  PdlArt& operator=(const PdlArt&) = delete;

  // Upsert. Returns kOk for a fresh insert, kExists when an existing key's
  // value was overwritten.
  Status Insert(const Key& key, uint64_t value);

  // Insert only if absent; returns kExists (value untouched) otherwise.
  Status InsertIfAbsent(const Key& key, uint64_t value);

  Status Lookup(const Key& key, uint64_t* value) const;
  Status Remove(const Key& key);

  // Greatest key <= |key|. Returns kNotFound when the tree has no key <= key.
  Status LookupFloor(const Key& key, Key* found, uint64_t* value) const;

  // One floor-resolution step WITHOUT its own EpochGuard: the caller must
  // hold one (nesting is fine). This is the unit the batched read pipeline
  // composes -- PACTree's MultiGet takes ONE guard for a whole batch and
  // resolves every miss key through this entry point.
  Status LookupFloorNoGuard(const Key& key, Key* found, uint64_t* value) const;

  // Best-effort, lock-free software prefetch of |key|'s root path: descends
  // up to |max_levels| levels issuing __builtin_prefetch on each node it
  // would visit, validating nothing. Reads may race with writers -- a stale
  // child pointer prefetches a retired (epoch-protected, still mapped) node,
  // which is harmless. Caller must hold an EpochGuard. Used by the batch
  // pipeline to overlap key i+1's trie walk with key i's probe.
  void PrefetchFloorPath(const Key& key, int max_levels = 8) const;

  // Collects up to |limit| pairs with key >= |start| in ascending order.
  size_t Scan(const Key& start, size_t limit,
              std::vector<std::pair<Key, uint64_t>>* out) const;

  // Ordered visit of every pair (test/debug; not concurrency-safe vs writers).
  void ForEach(const std::function<void(const Key&, uint64_t)>& fn) const;

  // Post-crash GC of the allocation log (frees unreachable blocks).
  void Recover();

  uint64_t Size() const;  // number of leaves (O(n) walk)
  PdlArtStats Stats() const { return {restarts_.load(std::memory_order_relaxed)}; }

 private:
  struct AllocGuard;

  ArtNode* RootNode() const { return PPtr<ArtNode>(root_->root_raw).get(); }

  Status InsertImpl(const Key& key, uint64_t value, bool upsert, bool* existed);
  bool InsertAttempt(const Key& key, uint64_t value, bool upsert, bool* existed,
                     Status* result);
  bool RemoveAttempt(const Key& key, Status* result);
  bool FloorAttempt(const Key& key, Key* found, uint64_t* value, Status* result) const;
  // Floor within a subtree known to be entirely <= key; false -> restart.
  bool SubtreeMax(uint64_t raw, Key* found, uint64_t* value, bool* ok) const;
  // Greatest leaf under |node|'s children with byte < |below|, trying each
  // smaller child in turn while the larger ones are empty. Same contract.
  bool MaxBelow(const ArtNode* node, uint64_t version, int below, Key* found,
                uint64_t* value, bool* ok) const;
  bool ScanAttempt(const Key& start, size_t limit,
                   std::vector<std::pair<Key, uint64_t>>* out) const;
  bool ScanNode(uint64_t raw, uint32_t depth, const Key& start, bool bounded,
                size_t limit, std::vector<std::pair<Key, uint64_t>>* out) const;

  // Allocation helpers (malloc-to into the tree's log).
  int AcquireLogSlot(const Key& key);
  void ReleaseLogSlot(int slot);
  void* AllocBlock(int slot, int which, size_t size);

  ArtNode* NewInnerNode(int slot, int which, ArtNodeType type);
  uint64_t NewLeaf(int slot, int which, const Key& key, uint64_t value);
  ArtNode* GrowCopy(int slot, int which, const ArtNode* n);
  ArtNode* ShrinkCopy(int slot, int which, const ArtNode* n);

  void RetireSubtreeNode(ArtNode* n);

  bool IsReachableOnPath(uint64_t block_raw, const Key& key) const;

  PmemHeap* heap_;
  ArtTreeRoot* root_;
  std::vector<std::atomic<uint8_t>> log_busy_;
  mutable std::atomic<uint64_t> restarts_{0};
};

}  // namespace pactree

#endif  // PACTREE_SRC_ART_ART_H_
