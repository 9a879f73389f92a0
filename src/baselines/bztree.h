// BzTree (Arulraj et al., VLDB'18): a latch-free persistent B+-tree built on
// PMwCAS.
//
// Reimplementation for the PACTree paper's comparisons:
//   * every structural word (node status, record metadata, child pointers)
//     changes only through PMwCAS, inheriting its heavy flush traffic -- the
//     paper counts >= 15 flushes per insert;
//   * leaf inserts reserve space with a 2-word PMwCAS (status + metadata),
//     copy the record, then flip the visible bit;
//   * internal nodes are immutable: consolidation and splits copy-on-write new
//     nodes and swing one child pointer in the parent (checked against the
//     parent's status word) -- each SMO allocates NVM (GA3);
//   * no sibling pointers: scans re-traverse from the root per leaf, the
//     "additional dereferencing and snapshotting" §6.1 blames for its scan
//     performance;
//   * replaced nodes are reclaimed through epochs; recovery rolls in-flight
//     PMwCAS descriptors forward/back.
#ifndef PACTREE_SRC_BASELINES_BZTREE_H_
#define PACTREE_SRC_BASELINES_BZTREE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/key.h"
#include "src/common/status.h"
#include "src/index/range_index.h"
#include "src/pmem/heap.h"
#include "src/pmwcas/pmwcas.h"

namespace pactree {

inline constexpr size_t kBzMaxRecords = 48;
inline constexpr size_t kBzRecordBytes = 40;  // 8-byte value + <=32 key bytes
inline constexpr size_t kBzDataBytes = kBzMaxRecords * kBzRecordBytes;

struct BzNode {
  uint64_t status;  // packed; mutated via PMwCAS only
  uint32_t is_leaf;
  uint32_t sorted_count;  // records [0, sorted_count) are sorted & immutable
  uint8_t pad[48];
  uint64_t meta[kBzMaxRecords];  // packed record metadata; PMwCAS-mutated
  uint8_t data[kBzDataBytes];    // records: [value:8][key bytes]

  // --- status packing (bits 62-63 reserved for PMwCAS) ---
  static constexpr uint64_t kFrozenBit = 1ULL << 56;
  static uint64_t PackStatus(uint32_t count, uint32_t block_used, bool frozen) {
    return (frozen ? kFrozenBit : 0) | (static_cast<uint64_t>(count) << 40) |
           (static_cast<uint64_t>(block_used) & 0xffffff);
  }
  static uint32_t StatusCount(uint64_t s) { return static_cast<uint32_t>(s >> 40) & 0xffff; }
  static uint32_t StatusBlock(uint64_t s) { return static_cast<uint32_t>(s & 0xffffff); }
  static bool StatusFrozen(uint64_t s) { return (s & kFrozenBit) != 0; }

  // --- metadata packing ---
  static constexpr uint64_t kVisibleBit = 1ULL << 56;
  static constexpr uint64_t kDeletedBit = 1ULL << 57;
  static uint64_t PackMeta(uint32_t offset, uint32_t key_len, bool visible,
                           bool deleted) {
    return (visible ? kVisibleBit : 0) | (deleted ? kDeletedBit : 0) |
           (static_cast<uint64_t>(offset) << 32) |
           (static_cast<uint64_t>(key_len) << 24);
  }
  static uint32_t MetaOffset(uint64_t m) { return static_cast<uint32_t>(m >> 32) & 0xffff; }
  static uint32_t MetaKeyLen(uint64_t m) { return static_cast<uint32_t>(m >> 24) & 0xff; }
  static bool MetaVisible(uint64_t m) { return (m & kVisibleBit) != 0; }
  static bool MetaDeleted(uint64_t m) { return (m & kDeletedBit) != 0; }

  Key KeyAt(uint64_t m) const {
    return Key::FromBytes(data + MetaOffset(m) + 8, MetaKeyLen(m));
  }
  uint64_t* ValueAddr(uint64_t m) {
    return reinterpret_cast<uint64_t*>(data + MetaOffset(m));
  }
};
static_assert(sizeof(BzNode) % 64 == 0, "node is cache-line aligned");

struct BzTreeOptions {
  std::string name = "bztree";
  uint16_t pool_id_base = 240;
  size_t pool_size = 512ULL << 20;
  bool per_numa_pools = true;
};

class BzTree final : public RangeIndex {
 public:
  static std::unique_ptr<BzTree> Open(const BzTreeOptions& opts);
  static void Destroy(const std::string& name);

  ~BzTree() override = default;
  BzTree(const BzTree&) = delete;
  BzTree& operator=(const BzTree&) = delete;

  // Upsert. |value| must keep bits 62-63 clear: every value word is mutated
  // through PMwCAS, which reserves those bits as descriptor/dirty markers.
  Status Insert(const Key& key, uint64_t value) override;
  Status Lookup(const Key& key, uint64_t* value) const override;
  Status Remove(const Key& key) override;
  size_t Scan(const Key& start, size_t count,
              std::vector<std::pair<Key, uint64_t>>* out) const override;

  uint64_t Size() const override;
  std::string Name() const override { return "BzTree"; }
  uint64_t PmwcasSucceeded() const { return pmwcas_->SucceededCount(); }
  // Backing heap (crash tests shadow its pools and audit its alloc logs).
  PmemHeap* heap() const { return heap_.get(); }
  std::vector<PmemHeap*> Heaps() const override { return {heap_.get()}; }
  size_t PendingLogEntries() const override { return heap_->PendingLogEntries(); }

 private:
  struct BzRoot;
  struct PathEntry {
    BzNode* node;
    uint64_t status;       // status observed during descent
    uint64_t* child_slot;  // word in |node| holding the child pointer taken
  };

  BzTree() = default;
  bool Init(const BzTreeOptions& opts);

  BzNode* NewNode(bool leaf);
  // Descends to the leaf for |key|; fills |path| (root first). |upper| gets
  // the smallest separator greater than the chosen subtree (Key::Max if none).
  BzNode* FindLeaf(const Key& key, std::vector<PathEntry>* path, Key* upper) const;

  // Record search within a node: latest unsorted match wins, else binary
  // search of the sorted prefix. Returns meta index or -1.
  int FindRecord(const BzNode* n, const Key& key, uint64_t* meta_out) const;

  // Freezes |leaf| and replaces it (consolidate or split) under |path|.
  // Returns false if the caller must retry from the root.
  bool SmoReplace(BzNode* leaf, std::vector<PathEntry>& path);

  uint64_t NodeRaw(const BzNode* n) const;

  BzTreeOptions opts_;
  std::unique_ptr<PmemHeap> heap_;
  std::unique_ptr<PmwcasPool> pmwcas_;
  BzRoot* root_ = nullptr;
};

}  // namespace pactree

#endif  // PACTREE_SRC_BASELINES_BZTREE_H_
