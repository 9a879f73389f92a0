// PACTree: a high-performance persistent range index built on the PAC
// guidelines (SOSP'21).
//
// Architecture (paper §4): a *data layer* -- a doubly-linked list of 64-entry
// slotted data nodes -- decoupled from a *search layer* -- a PDL-ART trie over
// the data nodes' anchor keys. Splits and merges update only the data layer on
// the critical path; a persistent SMO log plus per-NUMA background updater
// services (src/pactree/updater.h) synchronize the search layer
// asynchronously. Readers that arrive through a stale search layer land on a
// "jump node" and walk the data layer's sibling pointers to the target
// (ephemeral-inconsistency-tolerant design, §4.3).
//
// Guarantees: durable linearizability (an acknowledged write is durable; a read
// never returns an unpersisted write), crash consistency without logging for
// common-case writes (bitmap = linearization + durability pivot), leak-free
// allocation, near-instant recovery (both layers live on NVM).
//
// This file is the operation front-end; SMO replay lives in updater.{h,cc} and
// crash recovery in recovery.cc.
#ifndef PACTREE_SRC_PACTREE_PACTREE_H_
#define PACTREE_SRC_PACTREE_PACTREE_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/absorb/absorb.h"
#include "src/art/art.h"
#include "src/common/key.h"
#include "src/common/status.h"
#include "src/pactree/data_node.h"
#include "src/pactree/smo_log.h"
#include "src/pactree/updater.h"
#include "src/pmem/heap.h"
#include "src/runtime/thread_context.h"
#include "src/value/lru_cache.h"
#include "src/value/value_storage.h"

namespace pactree {

struct PacTreeOptions {
  std::string name = "pactree";
  // Uses [base, base+32): search/data/log heaps at +0/+8/+16, value heap
  // (value_storage mode) at +24.
  uint16_t pool_id_base = 100;
  size_t pool_size = 512ULL << 20;  // per NUMA sub-pool

  // Feature toggles for the paper's Figure 12 factor analysis. All on by
  // default (full PACTree).
  bool async_search_update = true;   // off -> SL updated on the critical path
  bool per_numa_pools = true;        // off -> single pool per heap
  bool selective_persistence = true; // off -> persist the permutation array
  bool dram_search_layer = false;    // on  -> trie in DRAM (rebuilt-free: ART
                                     //        is rebuilt from SMO-na... kept
                                     //        volatile; recovery rebuilds it)

  // Background updater services (async mode). 0 = auto: PAC_UPDATERS env var
  // if set, else one per logical NUMA node. Clamped to [1, kMaxWriterSlots].
  uint32_t updater_count = 0;
  // Effective ring capacity (<= kSmoLogEntries); tests shrink it to exercise
  // writer-side backpressure without logging thousands of SMOs.
  size_t smo_ring_capacity = kSmoLogEntries;

  // Write absorption (src/absorb): route Insert/Update/Remove through per-NUMA
  // DRAM absorb shards backed by persistent op-log rings; drain services apply
  // key-sorted batches to the data layer, coalescing media writes. Also
  // enabled by PAC_ABSORB=1 (the bench --absorb flag).
  bool absorb_writes = false;
  // Absorb shard count. 0 = auto: one per logical NUMA node. Clamped to
  // [1, kAbsorbMaxShards].
  uint32_t absorb_shards = 0;
  // Effective absorb ring capacity (<= kAbsorbLogEntries); tests shrink it to
  // exercise writer-side backpressure.
  size_t absorb_ring_capacity = kAbsorbLogEntries;
  // Max ops an absorb drain pass pulls off one shard's ring.
  size_t absorb_drain_batch = 128;

  // Pool-pressure watermarks, as fractions of chunk capacity; the signal is
  // the *highest* sub-pool used-fraction across the data and log heaps (one
  // exhausted sub-pool stalls writers even when siblings have room). Past
  // |pressure_soft| the pressure service kicks absorb drains (emptying rings
  // is the only reclaim writers cannot do themselves); past |pressure_hard|
  // the tree enters read-only degraded mode -- Insert/Update fail fast with
  // kFull while lookups, scans, MultiGet, and Remove keep serving -- until
  // the used fraction falls back to |pressure_resume|. Env overrides:
  // PAC_PRESSURE_SOFT / PAC_PRESSURE_HARD / PAC_PRESSURE_RESUME (percent,
  // e.g. 95 for 0.95).
  double pressure_soft = 0.85;
  double pressure_hard = 0.95;
  double pressure_resume = 0.90;

  // Tiered value storage (src/value): variable-length values live in a
  // log-structured per-NUMA value tier; the tree stores tagged 8-B handles
  // (inline <= 7 B payloads, log addresses otherwise -- value_handle.h).
  // Also enabled by PAC_VALUESTORE=1 (the bench --value-size flag), and
  // forced on reopen of a tree that ever ran in value mode (the root records
  // it). Only the value-aware entry points (InsertValue/LookupValue/
  // ScanValues/MultiGetValues) interpret handles; the plain u64 API keeps
  // working but treats them as opaque words.
  bool value_storage = false;
  size_t value_segment_size = 256 << 10;
  // DRAM hot-value cache budget; 0 disables the cache (every LookupValue
  // dereferences the log). Env override: PAC_VALUE_CACHE (bytes).
  size_t value_cache_bytes = 8 << 20;
  // GC collects a sealed segment when its live fraction drops below this.
  double value_gc_threshold = 0.5;
  // Value-append arenas / GC services; 0 = auto (one per logical NUMA node).
  uint32_t value_arenas = 0;

  // Data-node slot layout (DESIGN.md §6i): kCompact packs anchor-prefix-
  // truncated key suffixes into a 2048-B node (2/3 the media footprint of the
  // classic 3072-B layout); kClassic is the paper's full-Key-per-slot node.
  // Persisted in the root at creation and ADOPTED ON REOPEN regardless of this
  // option (like value_segment_size): a pool's nodes keep the format they were
  // written with. Env override for fresh pools: PAC_NODE_FORMAT (0 = classic,
  // 1 = compact; the bench --node-format flag).
  NodeFormat node_format = NodeFormat::kCompact;
};

// Jump-hop histogram width: bucket i counts lookups that needed i sibling
// hops; the last bucket absorbs everything >= kHopHistBuckets - 1.
inline constexpr int kHopHistBuckets = 16;

struct PacTreeStats {
  uint64_t splits = 0;
  uint64_t merges = 0;
  uint64_t smo_applied = 0;
  // Writer-side ring-full stalls: one count per backpressure retry while an
  // SMO append waited for the updater to drain its ring.
  uint64_t smo_ring_full_waits = 0;
  // Jump-node distance distribution (§6.7): how many sibling hops a lookup
  // needed after the search-layer traversal.
  uint64_t hop_hist[kHopHistBuckets] = {};
  uint64_t retries = 0;
  // Read-path amortization counters (what the batched pipeline saves).
  uint64_t epoch_enters = 0;  // EpochGuard constructions on read paths
  uint64_t node_locks = 0;    // data-node ReadLock acquisitions
  // Caller batches only: the batches of one that serve Lookup and Scan do
  // not count here.
  uint64_t multiget_batches = 0;
  uint64_t multiget_keys = 0;
  uint64_t multiget_node_groups = 0;   // groups probed under one validation
  uint64_t multiget_group_retries = 0; // group validation failures
  uint64_t multiscan_batches = 0;
  // MultiScan start-grouping: nodes whose one read-lock + validate served >= 2
  // overlapping ranges, and the sibling-walk node visits that sharing saved
  // (sum over shared nodes of consumers - 1).
  uint64_t multiscan_shared_nodes = 0;
  uint64_t multiscan_walks_saved = 0;
  // Permutation cache (§5.4): scan node visits served from the cached sorted
  // order, and visits that re-sorted the node's slots instead.
  uint64_t perm_hits = 0;
  uint64_t perm_builds = 0;
  // Format of NEW data nodes this incarnation writes (adopted from the root).
  NodeFormat node_format = NodeFormat::kClassic;
  // Compact-format suffix-arena compactions (in-place dead-suffix reclaims
  // that made room without a split); always zero under kClassic.
  uint64_t arena_compactions = 0;
  // Write-absorption counters (all zero when absorb_writes is off).
  AbsorbStats absorb;
  // Resource-exhaustion visibility (the tentpole of the robustness work).
  bool degraded = false;              // read-only degraded mode active
  uint64_t write_rejects = 0;         // writes failed fast with kFull while degraded
  uint64_t split_alloc_failures = 0;  // splits aborted on data-pool exhaustion
  double used_fraction = 0.0;         // max sub-pool used fraction, data+log(+value) heaps
  uint64_t alloc_failures = 0;        // failed pool allocations, data+log(+value) heaps
  // Tiered value storage (all zero when value_storage is off).
  bool value_enabled = false;
  ValueStorageStats value;
  ValueCacheStats value_cache;
};

class PacTree : private AbsorbSink, private ValueGcSink {
 public:
  // Opens (or creates) the index. Runs full recovery when attaching to an
  // existing instance. Returns null on failure.
  static std::unique_ptr<PacTree> Open(const PacTreeOptions& opts);

  // Removes the backing pool files.
  static void Destroy(const std::string& name);

  ~PacTree();
  PacTree(const PacTree&) = delete;
  PacTree& operator=(const PacTree&) = delete;

  // Upsert: kOk = fresh insert, kExists = value overwritten.
  Status Insert(const Key& key, uint64_t value);
  // Update only (kNotFound when absent). The paper's update writes the new
  // value to a fresh slot and flips both bitmap bits in one atomic store.
  Status Update(const Key& key, uint64_t value);
  // Point lookup: a MultiGet batch of one (multiget.cc).
  Status Lookup(const Key& key, uint64_t* value) const;
  Status Remove(const Key& key);

  // Range scan: up to |count| pairs with key >= |start|, ascending. A
  // MultiScan batch of one (multiget.cc).
  size_t Scan(const Key& start, size_t count,
              std::vector<std::pair<Key, uint64_t>>* out) const;

  // Batched point lookups (multiget.cc): one absorb pass per involved shard,
  // ONE EpochGuard for the batch, software-pipelined ART floor resolution
  // with path/node prefetch, and node-grouped probing that read-locks and
  // version-validates each data node once per contiguous key group. Results
  // are exactly what per-key Lookup would return; duplicate and out-of-order
  // keys are fine. Contract matches RangeIndex::MultiGet.
  size_t MultiGet(std::span<const Key> keys, uint64_t* values,
                  Status* statuses) const;

  // Batched range scans: ONE sibling walk in ascending start order under one
  // epoch; every range covering a node consumes that node's one validated
  // batch. Contract matches RangeIndex::MultiScan.
  void MultiScan(std::span<const Key> starts, std::span<const size_t> counts,
                 std::vector<std::vector<std::pair<Key, uint64_t>>>* out) const;

  // --- tiered value storage (value_ops.cc; see src/value/) -----------------
  // Variable-length value API. With value_storage off these degrade to the
  // inline-only behavior every index supports (<= 7 B packed into the word;
  // larger values rejected with kFull). With it on, a large value is appended
  // to the value log (durable BEFORE its handle enters the index) and the
  // handle upserted like any u64 value -- through the absorb buffer when that
  // is on, which is how value bytes ride the staged-op pipeline.
  Status InsertValue(const Key& key, std::string_view value);
  // Cache-first resolution: index lookup -> inline decode, or hot-value cache
  // probe keyed by (key, current handle), or log dereference (epoch-guarded,
  // checksum+key validated, re-resolved through the index when a concurrent
  // GC relocation raced the fetch). Misses fill the cache.
  Status LookupValue(const Key& key, std::string* value) const;
  // Value-resolving Scan / MultiGet: handle fetch and resolution share one
  // epoch; entries whose key vanishes mid-resolution are dropped (Scan) or
  // reported kNotFound (MultiGet), exactly as a per-key LookupValue would.
  size_t ScanValues(const Key& start, size_t count,
                    std::vector<std::pair<Key, std::string>>* out) const;
  size_t MultiGetValues(std::span<const Key> keys, std::vector<std::string>* values,
                        Status* statuses) const;
  // One inline value-GC round (tests/benches; the "<name>/value/gc-N"
  // services run this in async mode). Returns records relocated + segments
  // retired; 0 with value_storage off.
  size_t CompactValues();

  // Blocks until every logged SMO has been applied to the search layer
  // (CV drain barrier against the updater services; inline replay when they
  // are paused, stopped, or absent in sync mode).
  void DrainSmoLogs();
  // Blocks until every absorb shard's staged ops have drained into the data
  // layer (no-op when absorb_writes is off). Drained absorb batches may log
  // SMOs, so callers wanting a fully-quiesced tree drain absorb first, then
  // the SMO logs.
  void DrainAbsorb();

  PacTreeStats Stats() const;

  // True while the tree is in read-only degraded mode (pool pressure past the
  // hard watermark, or an absorb op-log replay that could not complete).
  // Insert/Update return kFull immediately; reads and Remove keep serving.
  bool Degraded() const { return degraded_.load(std::memory_order_relaxed); }
  // One pressure-evaluation round: recomputes the used fraction over the data
  // and log heaps and applies the watermark policy (soft -> kick absorb
  // drains, hard -> enter degraded, resume -> leave degraded). Runs
  // periodically on the "<name>/pool/pressure" service in async mode and
  // inline from allocation-failure paths, so sync-mode trees still degrade.
  void PollPressure();

  const PacTreeOptions& options() const { return opts_; }
  PdlArt* search_layer() { return art_.get(); }
  // The SMO replay subsystem and its registered background services (empty in
  // sync mode). Tests and benches read per-service MaintenanceStats here.
  SmoUpdater* updater() const { return updater_.get(); }
  const std::vector<BackgroundService*>& UpdaterServices() const {
    return updater_->services();
  }
  // Backing heaps (crash tests shadow their pools).
  PmemHeap* search_heap() const { return search_heap_.get(); }
  PmemHeap* data_heap() const { return data_heap_.get(); }
  PmemHeap* log_heap() const { return log_heap_.get(); }
  // The value tier; null when value_storage is off.
  ValueStorage* value_store() const { return vstore_.get(); }
  ValueLruCache* value_cache() const { return vcache_.get(); }

  // Total live keys (O(n) data-layer walk; tests/examples only).
  uint64_t Size() const;

  // Verifies data-layer invariants (anchors ordered, ranges respected,
  // sibling links consistent). Returns false and fills |why| on violation.
  bool CheckInvariants(std::string* why) const;

  // True when every SMO ring is empty (head == tail, no live entries) --
  // guaranteed immediately after Open/Recover and after DrainSmoLogs.
  bool SmoLogsDrained() const;
  // True when no absorb op is staged (trivially true with absorb off) --
  // guaranteed immediately after Open/Recover and after DrainAbsorb.
  bool AbsorbDrained() const;
  // The write-absorption buffer; null when absorb_writes is off.
  AbsorbBuffer* absorb() const { return absorb_.get(); }

 private:
  struct PacRoot;  // persistent root object (defined in .cc)

  PacTree() = default;

  bool Init(const PacTreeOptions& opts);
  // Crash recovery (recovery.cc); runs in Init before services start.
  void Recover();
  void RecoverSplit(SmoLogEntry* e);
  void RecoverMerge(SmoLogEntry* e);

  // Finds the data node owning |key|: search-layer floor + sibling fix-up.
  // Returns the node with a validated read token.
  DataNode* FindDataNode(const Key& key, uint64_t* version) const;

  // The sibling fix-up half of FindDataNode: walks from |start| (the trie
  // floor, possibly stale; data-layer head when null) to the node owning
  // |key|, returning it with a validated read token. MultiGet resolves trie
  // floors for a whole batch first, then enters here per node group.
  DataNode* JumpWalk(DataNode* start, const Key& key, uint64_t* version) const;

  // The one point-read path (multiget.cc): Get runs the absorb stage, then
  // GetBase answers keys[miss[0..m)] from the data layer alone, taking no
  // absorb shard mutex (presence checks run under one). |batch| marks a
  // caller's MultiGet for the multiget_* counters. Both fill statuses[i] of
  // the keys they answer and return the kOk count.
  size_t Get(std::span<const Key> keys, uint64_t* values, Status* statuses,
             bool batch) const;
  size_t GetBase(std::span<const Key> keys, size_t* miss, size_t m,
                 uint64_t* values, Status* statuses, bool batch) const;

  // The one scan path (multiget.cc): the MultiScan walk, writing range r's
  // result into outs[r]. Ranges with a zero count take no part in the walk.
  void ScanRanges(std::span<const Key> starts, std::span<const size_t> counts,
                  std::vector<std::pair<Key, uint64_t>>* outs) const;

  // Sorted live-slot order of |node| under read token |version|: the
  // permutation-array fast path of §5.4 (reuse when the cached version
  // matches, rebuild-and-publish otherwise). Returns the live count.
  int SortedOrderSnapshot(DataNode* node, uint64_t version, uint8_t* order) const;

  // AbsorbSink: presence checks against the data layer, and the batched
  // drain application (absorb_apply.cc) -- per target node, one lock
  // acquisition, coalesced slot flushes, a single bitmap publish.
  Status AbsorbBaseLookup(const Key& key, uint64_t* value) const override {
    size_t only = 0;
    Status st = Status::kNotFound;
    GetBase(std::span<const Key>(&key, 1), &only, 1, value, &st, /*batch=*/false);
    return st;
  }
  // Returns false when a data-node allocation failed mid-batch (a split could
  // not complete): a durable prefix of the batch may already be applied,
  // which is safe -- re-application converges -- so the absorb buffer keeps
  // the ops staged and retries the batch later.
  bool AbsorbApply(const AbsorbOp* ops, size_t n) override;

  // ValueGcSink (value_ops.cc): staging-aware current-handle read, and the
  // atomic handle swing GC relocation rides on -- an absorb CompareAndSet
  // when absorb is on (a fresh-seq upsert under the shard mutex), a
  // compare-value node update under the write lock otherwise.
  bool CurrentValueHandle(const Key& key, uint64_t* handle) const override;
  bool CasValueHandle(const Key& key, uint64_t old_handle,
                      uint64_t new_handle) override;
  // The no-absorb half of CasValueHandle. False when the key no longer maps
  // to |old_handle| or a needed split failed on kFull (GC unwinds).
  bool CasValueBase(const Key& key, uint64_t old_handle, uint64_t new_handle);
  // The value-resolution stage of LookupValue, ScanValues and MultiGetValues:
  // inline decode, else cache probe, else a log read under the caller's
  // EpochGuard (which covered the fetch of |handle|). On kRetry re-fetches
  // the handle and tries again: at most 64 attempts, retries counted.
  Status ResolveValue(const Key& key, uint64_t handle, std::string* out) const;
  // Write-path hygiene when the value tier is on: retire the key's current
  // log record from the live accounting and evict its cache entry. Racy by
  // design (a lost race skews live-counts conservatively; correctness rides
  // on GC's per-record CurrentValueHandle check).
  void PreWriteValueHygiene(const Key& key);
  // Post-recovery live-count rebuild: every log handle the recovered index
  // (data layer + any frozen absorb staging) references is live.
  void RebuildValueLiveCounts();

  // Ensures the write-locked |*node| can take |key|: a free slot AND (compact
  // format) suffix-arena room, compacting the arena in place and splitting --
  // possibly repeatedly -- as needed. On success |*node| is the write-locked
  // owner of |key| with room. On false a needed split failed on pool
  // exhaustion; |*node| is the still-locked node the caller must release.
  bool MakeRoomLocked(DataNode** node, const Key& key);

  // Splits |node| (write-locked, full). Returns the node that now owns |key|
  // (still write-locked; the other half is unlocked). Returns nullptr when
  // the new node's allocation failed: the logged SMO entry is cancelled, the
  // data and search layers are untouched, and |node| is STILL write-locked --
  // the caller unlocks it and fails its op with kFull.
  DataNode* SplitLocked(DataNode* node, const Key& key);

  // Attempts to merge |node| with its right sibling, else into its left one.
  // |node| is write-locked; takes/releases the sibling's lock internally.
  // Returns true when it merged; the survivor's order is then already
  // maintained (!selective_persistence), and |node| may be the victim.
  bool TryMergeLocked(DataNode* node);

  // !selective_persistence mode: sorts, persists and publishes |node|'s order
  // for its post-unlock token. Write lock held; call after the node's last
  // change of this write, right before unlocking.
  void MaintainPermutation(DataNode* node);

  PacTreeOptions opts_;
  std::unique_ptr<PmemHeap> search_heap_;
  std::unique_ptr<PmemHeap> data_heap_;
  std::unique_ptr<PmemHeap> log_heap_;
  std::unique_ptr<PdlArt> art_;
  PacRoot* root_ = nullptr;
  // SMO logging + replay: rings, writer-slot routing, backpressure, and the
  // per-NUMA updater services.
  std::unique_ptr<SmoUpdater> updater_;
  // Write absorption (null when absorb_writes is off): per-NUMA shards with
  // persistent op-log rings and drain services.
  std::unique_ptr<AbsorbBuffer> absorb_;
  // Tiered value storage + DRAM hot-value cache (null when value_storage is
  // off). vstore_ owns its own heap, so destruction order vs the three index
  // heaps does not matter -- but vcache_ MUST be declared before vstore_:
  // ~ValueStorage drains pending segment-retire epoch callbacks, which purge
  // the cache by handle range (SetHotCache), so the cache has to be destroyed
  // after the store.
  std::unique_ptr<ValueLruCache> vcache_;
  std::unique_ptr<ValueStorage> vstore_;
  // Absorb op-log entries replayed by this incarnation's recovery.
  uint64_t absorb_replayed_ = 0;
  // Recovery's temp-buffer absorb replay could not fully apply some ring
  // (search/data pool exhausted even after retries). Init gives the live
  // absorb buffer one more replay attempt; if that also fails, the tree
  // stays permanently degraded for this incarnation and the un-zeroed rings
  // carry the acked ops to the next recovery.
  bool absorb_replay_incomplete_ = false;
  // Read-only degraded mode (see Degraded()). Set by watermark policy or an
  // incomplete absorb replay; cleared only by the resume watermark.
  std::atomic<bool> degraded_{false};
  // Degraded mode forced by incomplete replay is permanent: the resume
  // watermark must not clear it (the stranded ops have no durable home).
  bool degraded_pinned_ = false;
  // "<name>/pool/pressure" service (async mode only; null otherwise).
  BackgroundService* pressure_service_ = nullptr;
  // False when Init attached a pre-existing persistent search layer: trie
  // updates already applied (and persisted as "applied" in the rings) before
  // a crash may have been evicted without reaching NVM, leaving permanent but
  // jump-walk-tolerated staleness (paper section 5.9). Only when this is true
  // can CheckInvariants demand an exact trie<->data-layer mirror.
  bool search_layer_exact_ = true;

  // Read-path counters (every Lookup, Scan, and batch bumps them), kept off
  // shared lines: one 64-B-aligned cell per thread slot, picked by the
  // calling thread's tid modulo kReadStatCells. Relaxed fetch_add keeps the
  // totals exact when two threads share a cell; Stats() sums the cells. The
  // cells belong to the tree, so counts never bleed across instances and
  // need no fold at thread exit.
  struct alignas(64) ReadStatCell {
    std::atomic<uint64_t> epoch_enters{0};
    std::atomic<uint64_t> node_locks{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> hops[kHopHistBuckets] = {};
    std::atomic<uint64_t> multiget_batches{0};
    std::atomic<uint64_t> multiget_keys{0};
    std::atomic<uint64_t> multiget_node_groups{0};
    std::atomic<uint64_t> multiget_group_retries{0};
    std::atomic<uint64_t> multiscan_batches{0};
    std::atomic<uint64_t> multiscan_shared_nodes{0};
    std::atomic<uint64_t> multiscan_walks_saved{0};
    std::atomic<uint64_t> perm_hits{0};
    std::atomic<uint64_t> perm_builds{0};
  };
  static constexpr size_t kReadStatCells = 64;
  ReadStatCell& ReadStats() const {
    return read_stats_[ThreadContext::Current().tid() % kReadStatCells];
  }
  mutable ReadStatCell read_stats_[kReadStatCells];

  mutable std::atomic<uint64_t> stat_splits_{0};
  mutable std::atomic<uint64_t> stat_merges_{0};
  std::atomic<uint64_t> stat_arena_compactions_{0};
  mutable std::atomic<uint64_t> stat_write_rejects_{0};
  mutable std::atomic<uint64_t> stat_split_alloc_failures_{0};
};

}  // namespace pactree

#endif  // PACTREE_SRC_PACTREE_PACTREE_H_
