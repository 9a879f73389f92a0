// FastFair (Hwang et al., FAST'18): a lock-based persistent B+-tree with
// logless ("failure-atomic shift") crash consistency.
//
// Fidelity notes for this reimplementation:
//   * sorted in-node entry arrays, shift-based failure-atomic inserts whose
//     8-byte stores are persisted in order (duplicates during a shift are
//     tolerable; an explicit count store is the visibility pivot);
//   * synchronous SMOs on the critical path with writer lock coupling -- the
//     blocking behaviour the PACTree paper measures against (GC2);
//   * integer keys embedded in the node; string keys stored out-of-node behind
//     a pointer (the paper's explanation for FastFair's 3x string-key slowdown);
//   * leaf sibling chain for sequential scans (GA5: FastFair's strength).
// Readers use optimistic version validation rather than the original's
// tolerance proofs; they still write nothing to NVM (GA2). Documented in
// DESIGN.md.
#ifndef PACTREE_SRC_BASELINES_FASTFAIR_H_
#define PACTREE_SRC_BASELINES_FASTFAIR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/key.h"
#include "src/common/status.h"
#include "src/index/range_index.h"
#include "src/pmem/heap.h"
#include "src/sync/version_lock.h"

namespace pactree {

inline constexpr size_t kFfCardinality = 30;  // 30 kv pairs per node (paper §3.3)

struct FfKeyRecord {
  Key key;
};

struct FfNode {
  OptVersionLock lock;   // writers exclusive; readers optimistic
  uint32_t is_leaf;
  uint32_t count;        // visibility pivot, persisted last
  uint64_t leftmost_raw; // internal nodes: child for keys < entries[0]
  uint64_t sibling_raw;  // right sibling (leaves and internals)
  uint64_t low_key_word; // lower bound of this node's key range (B-link)
  uint32_t has_low;      // 0 for the leftmost node at each level (-inf)
  uint8_t pad[20];
  // Sorted entries. key_word: embedded big-endian 8-byte key image (integer
  // mode) or PPtr to an out-of-node FfKeyRecord (string mode).
  uint64_t key_words[kFfCardinality];
  uint64_t values[kFfCardinality];  // leaf: user value; internal: child PPtr
};
static_assert(sizeof(FfNode) == 64 + 16 * kFfCardinality, "node layout");

struct FastFairOptions {
  std::string name = "fastfair";
  uint16_t pool_id_base = 200;
  size_t pool_size = 512ULL << 20;
  bool string_keys = false;  // out-of-node key records (pointer chase)
  bool per_numa_pools = true;
};

class FastFair final : public RangeIndex {
 public:
  static std::unique_ptr<FastFair> Open(const FastFairOptions& opts);
  static void Destroy(const std::string& name);

  ~FastFair() override = default;
  FastFair(const FastFair&) = delete;
  FastFair& operator=(const FastFair&) = delete;

  Status Insert(const Key& key, uint64_t value) override;  // upsert
  Status Lookup(const Key& key, uint64_t* value) const override;
  Status Remove(const Key& key) override;
  size_t Scan(const Key& start, size_t count,
              std::vector<std::pair<Key, uint64_t>>* out) const override;

  uint64_t Size() const override;
  std::string Name() const override { return "FastFair"; }
  bool CheckInvariants(std::string* why) const override;
  // Backing heap (crash tests shadow its pools and audit its alloc logs).
  PmemHeap* heap() const { return heap_.get(); }
  std::vector<PmemHeap*> Heaps() const override { return {heap_.get()}; }
  size_t PendingLogEntries() const override { return heap_->PendingLogEntries(); }

 private:
  struct FfRoot;

  FastFair() = default;
  bool Init(const FastFairOptions& opts);
  void RepairSplitOverlaps();

  uint64_t EncodeKey(const Key& key);         // may allocate a key record
  Key DecodeKey(uint64_t key_word) const;
  int CompareKeyWord(uint64_t key_word, const Key& key) const;

  FfNode* NewNode(bool leaf);
  // Returns the index of the first entry with key >= |key| (count if none).
  int LowerBound(const FfNode* n, const Key& key) const;
  uint64_t ChildFor(const FfNode* n, const Key& key, int* idx) const;

  FfNode* FindLeafOptimistic(const Key& key, uint64_t* version) const;
  // Write path: lock-coupled descent that keeps ancestors locked only while
  // they might be modified (split propagation is synchronous -- GC2).
  Status InsertRec(FfNode* node, const Key& key, uint64_t key_word, uint64_t value,
                   Key* up_key, uint64_t* up_key_word, uint64_t* new_child,
                   bool* existed);

  void InsertAt(FfNode* n, int pos, uint64_t key_word, uint64_t value);
  void RemoveAt(FfNode* n, int pos);

  FastFairOptions opts_;
  std::unique_ptr<PmemHeap> heap_;
  FfRoot* root_ = nullptr;
  mutable OptVersionLock root_lock_;  // guards root pointer swaps
};

}  // namespace pactree

#endif  // PACTREE_SRC_BASELINES_FASTFAIR_H_
