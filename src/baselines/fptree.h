// FP-Tree (Oukid et al., SIGMOD'16): a hybrid DRAM/NVM persistent B+-tree.
//
// Reimplementation for the PACTree paper's comparisons:
//   * inner nodes live in DRAM and are rebuilt from the leaf chain at startup
//     (the restart cost the paper criticizes);
//   * leaves live on NVM with a fingerprint array and a bitmap durability pivot;
//   * traversals run inside (soft-)HTM transactions; writers transactionally
//     acquire the leaf lock, commit, then modify the leaf outside the
//     transaction (the original's TSX + leaf-spinlock protocol). Repeated
//     aborts fall back to a global lock -- the GC3 pathology of Figure 6;
//   * splits update the DRAM inner nodes under the fallback lock with
//     copy-on-write, synchronously on the critical path (GC2);
//   * a persistent micro-log makes leaf splits crash consistent.
// Integer (<= 8 byte) keys only, like the authors' binary the paper evaluated.
#ifndef PACTREE_SRC_BASELINES_FPTREE_H_
#define PACTREE_SRC_BASELINES_FPTREE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/common/key.h"
#include "src/common/status.h"
#include "src/index/range_index.h"
#include "src/pmem/heap.h"
#include "src/sync/soft_htm.h"
#include "src/sync/version_lock.h"

namespace pactree {

inline constexpr size_t kFpLeafSlots = 32;
inline constexpr size_t kFpInnerFan = 32;
inline constexpr size_t kFpMuLogSlots = 64;

struct FpLeaf {
  uint64_t bitmap;
  uint64_t next_raw;
  OptVersionLock lock;
  uint64_t pad;
  uint8_t fp[kFpLeafSlots];
  uint64_t keys[kFpLeafSlots];    // big-endian 8-byte key images
  uint64_t values[kFpLeafSlots];
};
static_assert(sizeof(FpLeaf) == 32 + 32 + 16 * kFpLeafSlots, "leaf layout");

// DRAM inner node. All fields are read through SoftHtm::Txn::Read64 and
// written either transactionally or via version-bumping non-transactional
// stores, so concurrent transactions detect every change.
struct FpInner {
  uint64_t meta;  // [count:32 | leaf_children:1]
  uint64_t keys[kFpInnerFan - 1];
  uint64_t children[kFpInnerFan];  // FpInner* (DRAM) or leaf PPtr raw

  static uint64_t PackMeta(uint32_t count, bool leaf_children) {
    return (static_cast<uint64_t>(count) << 1) | (leaf_children ? 1 : 0);
  }
  static uint32_t MetaCount(uint64_t m) { return static_cast<uint32_t>(m >> 1); }
  static bool MetaLeafChildren(uint64_t m) { return (m & 1) != 0; }
};

struct FpTreeOptions {
  std::string name = "fptree";
  uint16_t pool_id_base = 220;
  size_t pool_size = 512ULL << 20;
  bool per_numa_pools = true;
  SoftHtmConfig htm;  // Figure 6 knobs (spurious abort rate etc.)
  int max_htm_retries = 8;
};

class FpTree final : public RangeIndex {
 public:
  static std::unique_ptr<FpTree> Open(const FpTreeOptions& opts);
  static void Destroy(const std::string& name);

  ~FpTree() override;
  FpTree(const FpTree&) = delete;
  FpTree& operator=(const FpTree&) = delete;

  Status Insert(const Key& key, uint64_t value) override;  // upsert
  Status Lookup(const Key& key, uint64_t* value) const override;
  Status Remove(const Key& key) override;
  size_t Scan(const Key& start, size_t count,
              std::vector<std::pair<Key, uint64_t>>* out) const override;

  uint64_t Size() const override;
  std::string Name() const override { return "FPTree"; }
  SoftHtmStats HtmStats() const { return htm_->Stats(); }
  // Backing heap (crash tests shadow its pools and audit its alloc logs).
  PmemHeap* heap() const { return heap_.get(); }
  std::vector<PmemHeap*> Heaps() const override { return {heap_.get()}; }
  size_t PendingLogEntries() const override { return heap_->PendingLogEntries(); }

 private:
  struct FpRoot;

  FpTree() = default;
  bool Init(const FpTreeOptions& opts);
  void RebuildInner();
  void FreeInnerRec(FpInner* n);
  void RecoverMuLog();

  FpLeaf* NewLeaf(int mu_slot);
  static uint64_t KeyWord(const Key& key) {
    uint64_t w = 0;
    for (size_t i = 0; i < 8; ++i) {
      w = (w << 8) | key.At(i);
    }
    return w;
  }

  // Transactional descent; returns the leaf PPtr raw, or 0 on abort.
  uint64_t FindLeafTxn(SoftHtm::Txn* txn, uint64_t key_word) const;
  // Non-transactional descent (fallback lock held).
  uint64_t FindLeafDirect(uint64_t key_word) const;

  int LeafFindKey(const FpLeaf* leaf, uint64_t key_word, uint8_t fingerprint) const;

  // Direct leaf-lock ops that participate in HTM conflict detection.
  void LeafLockDirect(FpLeaf* leaf) const;
  void LeafUnlock(FpLeaf* leaf) const;

  // Leaf modification helpers (leaf lock held).
  Status LeafInsert(FpLeaf* leaf, uint64_t key_word, uint8_t fingerprint,
                    uint64_t value, bool* needs_split);
  // Splits the leaf and inserts (median, new leaf) into the DRAM inner tree.
  // Caller holds the fallback lock and the leaf lock.
  void SplitLeaf(FpLeaf* leaf, uint64_t leaf_raw);
  void InnerInsert(uint64_t split_key, uint64_t left_raw, uint64_t right_raw);

  FpTreeOptions opts_;
  std::unique_ptr<PmemHeap> heap_;
  std::unique_ptr<SoftHtm> htm_;
  FpRoot* root_ = nullptr;
  // [ptr:63 | is_leaf:1]; is_leaf means the root itself is a leaf PPtr raw.
  std::atomic<uint64_t> root_word_{0};
};

}  // namespace pactree

#endif  // PACTREE_SRC_BASELINES_FPTREE_H_
