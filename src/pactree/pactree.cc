#include "src/pactree/pactree.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>

#include "src/common/compiler.h"
#include "src/common/env.h"
#include "src/nvm/config.h"
#include "src/nvm/persist.h"
#include "src/pactree/pac_root.h"
#include "src/pmem/registry.h"
#include "src/runtime/maintenance.h"
#include "src/sync/epoch.h"
#include "src/sync/gen_sync.h"
#include "src/sync/generation.h"

namespace pactree {

namespace {
constexpr uint64_t kPacMagic = 0x3145455254434150ULL;  // "PACTREE1"
constexpr int kMergeThreshold = 24;  // merge when combined live keys fit easily

// Updater-service count: explicit option, else PAC_UPDATERS, else one per
// logical NUMA node (§4.3's per-NUMA replay sharding).
uint32_t ResolveUpdaterCount(const PacTreeOptions& opts) {
  uint64_t n = opts.updater_count;
  if (n == 0) {
    n = EnvU64("PAC_UPDATERS", 0);
  }
  if (n == 0) {
    n = std::max<uint32_t>(1, GlobalNvmConfig().numa_nodes);
  }
  return static_cast<uint32_t>(std::min<uint64_t>(n, kMaxWriterSlots));
}

// Absorb shard count: explicit option, else one per logical NUMA node.
uint32_t ResolveAbsorbShards(const PacTreeOptions& opts) {
  uint64_t n = opts.absorb_shards;
  if (n == 0) {
    n = std::max<uint32_t>(1, GlobalNvmConfig().numa_nodes);
  }
  return static_cast<uint32_t>(std::min<uint64_t>(n, kAbsorbMaxShards));
}
}  // namespace

// ---------------------------------------------------------------------------
// Open / create / recover
// ---------------------------------------------------------------------------

std::unique_ptr<PacTree> PacTree::Open(const PacTreeOptions& opts) {
  auto tree = std::unique_ptr<PacTree>(new PacTree());
  if (!tree->Init(opts)) {
    return nullptr;
  }
  return tree;
}

void PacTree::Destroy(const std::string& name) {
  PmemHeap::Destroy(name + ".search");
  PmemHeap::Destroy(name + ".data");
  PmemHeap::Destroy(name + ".log");
  ValueStorage::Destroy(name + ".value");
}

bool PacTree::Init(const PacTreeOptions& opts) {
  static_assert(sizeof(PacRoot) <= kRootAreaSize, "root area too small");
  opts_ = opts;
  if (!opts_.absorb_writes && EnvU64("PAC_ABSORB", 0) != 0) {
    opts_.absorb_writes = true;  // bench --absorb routes through the env var
  }
  // Pressure watermark overrides, in percent (PAC_PRESSURE_HARD=95 -> 0.95).
  if (uint64_t v = EnvU64("PAC_PRESSURE_SOFT", 0); v != 0) {
    opts_.pressure_soft = static_cast<double>(v) / 100.0;
  }
  if (uint64_t v = EnvU64("PAC_PRESSURE_HARD", 0); v != 0) {
    opts_.pressure_hard = static_cast<double>(v) / 100.0;
  }
  if (uint64_t v = EnvU64("PAC_PRESSURE_RESUME", 0); v != 0) {
    opts_.pressure_resume = static_cast<double>(v) / 100.0;
  }
  // Node format for FRESH pools (0 = classic, 1 = compact; bench
  // --node-format). An existing pool's persisted format wins below.
  if (uint64_t v = EnvU64("PAC_NODE_FORMAT", ~0ULL); v != ~0ULL) {
    opts_.node_format = v == 0 ? NodeFormat::kClassic : NodeFormat::kCompact;
  }
  PmemHeapOptions h;
  h.pool_size = opts.pool_size;
  h.single_pool = !opts.per_numa_pools;
  h.defer_log_recovery = true;  // recovered below, once all three heaps map

  h.pool_id_base = opts.pool_id_base;
  h.dram = opts.dram_search_layer;
  search_heap_ = PmemHeap::OpenOrCreate(opts.name + ".search", h);
  h.pool_id_base = static_cast<uint16_t>(opts.pool_id_base + 8);
  h.dram = false;
  bool created = false;
  data_heap_ = PmemHeap::OpenOrCreate(opts.name + ".data", h, &created);
  h.pool_id_base = static_cast<uint16_t>(opts.pool_id_base + 16);
  h.pool_size = std::max<size_t>(opts.pool_size / 8, 16ULL << 20);
  log_heap_ = PmemHeap::OpenOrCreate(opts.name + ".log", h);
  if (search_heap_ == nullptr || data_heap_ == nullptr || log_heap_ == nullptr) {
    return false;
  }

  // Alloc-log recovery was deferred above: a pending split's malloc-to dest
  // lives in the log heap while the block lives in the data heap, so no heap's
  // logs can be recovered until all three are mapped.
  search_heap_->RecoverPendingLogs();
  data_heap_->RecoverPendingLogs();
  log_heap_->RecoverPendingLogs();

  // Void every lock word persisted by the previous incarnation (including
  // locks captured held by a crash): advance all pools past the global
  // generation and publish it.
  AdvanceGenerations({search_heap_.get(), data_heap_.get(), log_heap_.get()});

  root_ = data_heap_->Root<PacRoot>();

  if (root_->magic != kPacMagic || created) {
    // ---- fresh index ----
    std::memset(static_cast<void*>(root_), 0, sizeof(PacRoot));
    PersistFence(root_, sizeof(PacRoot));
    PPtr<void> head = data_heap_->Alloc(DataNode::NodeBytes(opts_.node_format));
    if (head.IsNull()) {
      return false;
    }
    auto* head_node = static_cast<DataNode*>(head.get());
    head_node->anchor = Key::Min();
    head_node->format_byte = static_cast<uint8_t>(opts_.node_format);
    head_node->perm_version = kPermNone;
    PersistFence(head_node, DataNode::NodeBytes(opts_.node_format));
    root_->head_raw = head.raw;
    root_->node_format_plus1 = static_cast<uint64_t>(opts_.node_format) + 1;
    PersistFence(&root_->head_raw, 2 * sizeof(uint64_t));
    for (size_t i = 0; i < kMaxWriterSlots; ++i) {
      PPtr<void> log = log_heap_->AllocTo(ToPPtr(&root_->log_raws[i]), sizeof(SmoLog));
      if (log.IsNull()) {
        return false;
      }
      PersistFence(log.get(), 128);  // zeroed head/tail
    }
    art_ = std::make_unique<PdlArt>(search_heap_.get(), &root_->art);
    art_->Insert(Key::Min(), root_->head_raw);
    root_->magic = kPacMagic;
    PersistFence(&root_->magic, sizeof(uint64_t));
  } else {
    // ---- existing index ----
    if (opts.dram_search_layer) {
      // The volatile search layer died with the previous process: rebuild it
      // from the data layer (this is exactly the restart cost the paper's
      // DRAM-internal-node designs pay; Figure 12 "DRAM SL").
      std::memset(static_cast<void*>(&root_->art), 0, sizeof(ArtTreeRoot));
    } else {
      // Attaching the surviving persistent search layer: pre-crash trie
      // updates marked applied in the rings may have been evicted before
      // reaching NVM, so the trie can permanently lack (or misdirect) some
      // anchors. Jump-walk tolerates this (section 5.9); the strict mirror
      // check in CheckInvariants must not demand exactness here.
      search_layer_exact_ = false;
    }
    art_ = std::make_unique<PdlArt>(search_heap_.get(), &root_->art);
    // Adopt the pool's persisted node format: nodes keep the layout they were
    // written with, regardless of what this incarnation was configured for.
    // A pre-existing zeroed field means a legacy (classic) image; persist the
    // explicit encoding once so later reopens do not re-derive it.
    if (root_->node_format_plus1 == 0) {
      opts_.node_format = NodeFormat::kClassic;
      root_->node_format_plus1 = 1;
      PersistFence(&root_->node_format_plus1, sizeof(uint64_t));
    } else {
      opts_.node_format =
          static_cast<NodeFormat>(root_->node_format_plus1 - 1);
    }
  }

  // Value tier: explicit option, PAC_VALUESTORE=1 (bench --value-size), or a
  // previous incarnation's persisted flag (its values are log handles; the
  // heap MUST come back even when the reopener forgot the option). Opened --
  // and its segment tails discovered -- BEFORE Recover() replays the key
  // index: every handle the replay publishes references a record that was
  // durable before the op was acked, so the value log is recovered first.
  if (!opts_.value_storage && EnvU64("PAC_VALUESTORE", 0) != 0) {
    opts_.value_storage = true;
  }
  if (root_->value_mode != 0) {
    opts_.value_storage = true;
  }
  if (uint64_t v = EnvU64("PAC_VALUE_CACHE", ~0ULL); v != ~0ULL) {
    opts_.value_cache_bytes = v;
  }
  if (opts_.value_storage) {
    ValueStorageOptions vo;
    vo.name = opts_.name + ".value";
    vo.service_prefix = opts_.name;
    vo.pool_id_base = static_cast<uint16_t>(opts_.pool_id_base + 24);
    vo.pool_size = opts_.pool_size;
    vo.per_numa_pools = opts_.per_numa_pools;
    vo.segment_size = opts_.value_segment_size;
    vo.gc_live_threshold = opts_.value_gc_threshold;
    vo.arenas = opts_.value_arenas;
    vo.async = opts_.async_search_update;
    vstore_ = ValueStorage::Open(vo, static_cast<ValueGcSink*>(this));
    if (vstore_ == nullptr) {
      return false;
    }
    if (root_->value_mode == 0) {
      root_->value_mode = 1;
      PersistFence(&root_->value_mode, sizeof(uint64_t));
    }
    vcache_ = std::make_unique<ValueLruCache>(opts_.value_cache_bytes, /*shards=*/8);
    // Retired-segment epoch callbacks purge the cache by handle range (the
    // recycled-block ABA guard), so the store must know the cache -- and the
    // cache must be destroyed after the store (member order below).
    vstore_->SetHotCache(vcache_.get());
  }

  SmoUpdater::Options u;
  u.name = opts_.name;
  u.shards = ResolveUpdaterCount(opts_);
  u.ring_capacity = opts_.smo_ring_capacity;
  u.async = opts_.async_search_update;
  updater_ = std::make_unique<SmoUpdater>(u, art_.get());
  for (size_t i = 0; i < kMaxWriterSlots; ++i) {
    updater_->AttachLog(i, PPtr<SmoLog>(root_->log_raws[i]).get());
  }

  // Recovery replays the rings single-threaded, then resets them; only after
  // that do the per-shard updater services (and the shared epoch-reclaim
  // service) come up. This includes replaying every non-null absorb op-log
  // ring, independent of this incarnation's absorb configuration.
  Recover();

  if (opts_.absorb_writes) {
    AbsorbOptions ao;
    ao.name = opts_.name;
    ao.shards = ResolveAbsorbShards(opts_);
    ao.ring_capacity = opts_.absorb_ring_capacity;
    ao.drain_batch = opts_.absorb_drain_batch;
    ao.async = opts_.async_search_update;
    absorb_ = std::make_unique<AbsorbBuffer>(ao, static_cast<AbsorbSink*>(this));
    for (uint32_t i = 0; i < absorb_->shards(); ++i) {
      if (root_->absorb_raws[i] == 0) {
        PPtr<void> ring = log_heap_->AllocTo(ToPPtr(&root_->absorb_raws[i]),
                                             sizeof(AbsorbLogRing));
        if (ring.IsNull()) {
          return false;
        }
        // The allocator zeroes DRAM but does not persist it: stale media bytes
        // from a previously freed block could otherwise resurrect entries with
        // valid checksums on recovery. Make the zeroed ring durable once.
        PersistFence(ring.get(), sizeof(AbsorbLogRing));
      }
      absorb_->AttachRing(i, PPtr<AbsorbLogRing>(root_->absorb_raws[i]).get());
    }
    if (absorb_replay_incomplete_) {
      // Recovery's temp-buffer replay left at least one ring un-zeroed after
      // its apply attempts failed (pool exhaustion). Give the live buffer one
      // more try before services start: rings the temp replay did reset are
      // empty and contribute nothing, so nothing double-applies. On failure
      // the live shards freeze -- appends are refused, staging serves reads --
      // and the rings keep the acked ops durable for the next recovery.
      bool complete = true;
      absorb_replayed_ += absorb_->ReplayAndReset(&complete);
      updater_->Drain();  // replayed batches may have logged SMOs
      if (complete) {
        absorb_replay_incomplete_ = false;
      }
    }
    absorb_->StartServices();
  }
  if (absorb_replay_incomplete_) {
    // Acked-but-unapplied ops survive only in the un-zeroed rings; new writes
    // must not be admitted against state that cannot become durable (with
    // absorb off there is not even a staging view of the stranded ops).
    // Pin read-only degraded mode for the life of this incarnation.
    degraded_.store(true, std::memory_order_relaxed);
    degraded_pinned_ = true;
  }

  if (vstore_ != nullptr) {
    // Live-fraction rebuild must see the fully recovered key index (data layer
    // + replayed/staged absorb view); only then can GC services start, since
    // they pick victims by live fraction.
    RebuildValueLiveCounts();
    if (opts_.async_search_update) {
      vstore_->StartServices();
    }
  }

  if (opts_.async_search_update) {
    updater_->StartServices();
    EpochReclaimService::Acquire();
    // Pool-pressure watchdog: periodically re-evaluates the watermark policy
    // (PollPressure) so the tree degrades -- and resumes -- even when no
    // writer happens to hit an allocation failure. Sync-mode trees rely on
    // the inline PollPressure calls from the failure paths instead.
    BackgroundService::Options po;
    po.name = opts_.name + "/pool/pressure";
    po.idle_min_us = 1000;
    po.idle_max_us = 50000;
    pressure_service_ =
        MaintenanceRegistry::Instance().Register(std::move(po), [this] {
          PollPressure();
          return size_t{0};  // pure polling: stay on the idle-backoff cadence
        });
  }
  return true;
}

PacTree::~PacTree() {
  if (updater_ == nullptr) {
    return;  // Init failed before the updater came up (e.g. bad pool file)
  }
  if (pressure_service_ != nullptr) {
    MaintenanceRegistry::Instance().Unregister(pressure_service_);
    pressure_service_ = nullptr;
  }
  // Value GC relocates handles through the absorb buffer / index, so it must
  // stop while both are still fully alive.
  if (vstore_ != nullptr) {
    vstore_->StopServices();
  }
  // Quiesce front-to-back: absorb drains first (its batches log SMOs), then
  // the SMO logs, while all services are still live (CV barriers; inline
  // replay in sync mode). Only then tear the services down and release the
  // shared epoch-reclaim service.
  if (absorb_ != nullptr) {
    DrainAbsorb();
    absorb_->StopServices();
  }
  DrainSmoLogs();
  updater_->StopServices();
  if (opts_.async_search_update) {
    EpochReclaimService::Release();
  }
  for (int i = 0; i < 8; ++i) {
    EpochManager::Instance().TryAdvanceAndReclaim();
  }
}

void PacTree::DrainSmoLogs() { updater_->Drain(); }

bool PacTree::SmoLogsDrained() const { return updater_->Drained(); }

void PacTree::DrainAbsorb() {
  if (absorb_ != nullptr) {
    absorb_->Drain();
  }
}

bool PacTree::AbsorbDrained() const {
  return absorb_ == nullptr || absorb_->Drained();
}

// ---------------------------------------------------------------------------
// Data-layer navigation (jump-node fix-up, §5.3)
// ---------------------------------------------------------------------------

DataNode* PacTree::FindDataNode(const Key& key, uint64_t* version) const {
  Key found;
  uint64_t raw = 0;
  DataNode* node = nullptr;
  Status fs = art_->LookupFloor(key, &found, &raw);
  if (fs == Status::kOk && raw != 0) {
    node = PPtr<DataNode>(raw).get();
  }
  return JumpWalk(node, key, version);
}

DataNode* PacTree::JumpWalk(DataNode* start, const Key& key, uint64_t* version) const {
  DataNode* node = start != nullptr ? start : PPtr<DataNode>(root_->head_raw).get();
  ReadStatCell& rs = ReadStats();
  uint32_t hops = 0;
  while (true) {
    uint64_t v = node->lock.ReadLock();
    rs.node_locks.fetch_add(1, std::memory_order_relaxed);
    // For compact nodes, pull the descriptor XPLine concurrently with the
    // probe-span demand miss below: every key materialization needs a
    // descriptor before it can touch the arena, and fetching it here hides
    // that line behind the probe stall instead of serializing it after the
    // fingerprint match.
    node->PrefetchDescs();
    AnnotateNvmRead(node, DataNode::kProbeSpanBytes);  // metadata + anchor + fingerprints
    if (node->IsDeleted()) {
      DataNode* prev = node->Prev();
      if (!node->lock.Validate(v) || prev == nullptr) {
        continue;
      }
      node = prev;
      hops++;
      continue;
    }
    if (key < node->anchor) {
      DataNode* prev = node->Prev();
      if (!node->lock.Validate(v) || prev == nullptr) {
        continue;
      }
      node = prev;
      hops++;
      continue;
    }
    DataNode* next = node->Next();
    if (next != nullptr && next->anchor <= key) {
      if (!node->lock.Validate(v)) {
        continue;
      }
      node = next;
      hops++;
      continue;
    }
    if (!node->lock.Validate(v)) {
      continue;
    }
    int bucket = hops < kHopHistBuckets - 1 ? static_cast<int>(hops) : kHopHistBuckets - 1;
    rs.hops[bucket].fetch_add(1, std::memory_order_relaxed);
    *version = v;
    return node;
  }
}

// ---------------------------------------------------------------------------
// Point operations
// ---------------------------------------------------------------------------

void PacTree::MaintainPermutation(DataNode* node) {
  // "-Selective persistence" mode: keep the permutation array durable on every
  // write, paying the sort, a flush and a fence per write (Figure 12). The
  // write lock is held, so this order is exactly what readers see once it
  // drops: publish it for the post-unlock token, and reads in this mode use
  // the cache just as in the default mode -- the ablation isolates the flush.
  uint8_t order[kDataNodeEntries];
  node->ComputeSortedOrder(order);
  node->StorePermLocked(order);
}

Status PacTree::Insert(const Key& key, uint64_t value) {
  if (degraded_.load(std::memory_order_relaxed)) {
    stat_write_rejects_.fetch_add(1, std::memory_order_relaxed);
    return Status::kFull;  // read-only degraded mode: fail fast, no side effects
  }
  PreWriteValueHygiene(key);
  if (absorb_ != nullptr) {
    return absorb_->Insert(key, value);
  }
  EpochGuard guard;
  uint8_t fingerprint = key.Fingerprint();
  while (true) {
    uint64_t version;
    DataNode* node = FindDataNode(key, &version);
    if (!node->lock.TryUpgrade(version)) {
      ReadStats().retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    int existing = node->FindKey(key, fingerprint);
    int free = node->FindFreeSlot();
    if (free < 0 || !node->SuffixRoomFor(key)) {
      if (!MakeRoomLocked(&node, key)) {
        // Data pool exhausted: the split unwound completely (log entry
        // cancelled, both layers untouched); release the lock and fail.
        node->lock.WriteUnlock();
        return Status::kFull;
      }
      existing = node->FindKey(key, fingerprint);
      free = node->FindFreeSlot();
      assert(free >= 0 && "MakeRoomLocked guarantees a free slot");
    }
    node->FillSlot(free, key, fingerprint, value);
    uint64_t bm = node->Bitmap() | (1ULL << free);
    if (existing >= 0) {
      bm &= ~(1ULL << existing);  // old and new flipped in one atomic store
    }
    node->PublishBitmap(bm);
    if (!opts_.selective_persistence) {
      MaintainPermutation(node);
    }
    node->lock.WriteUnlock();
    return existing >= 0 ? Status::kExists : Status::kOk;
  }
}

Status PacTree::Update(const Key& key, uint64_t value) {
  if (degraded_.load(std::memory_order_relaxed)) {
    stat_write_rejects_.fetch_add(1, std::memory_order_relaxed);
    return Status::kFull;  // read-only degraded mode: fail fast, no side effects
  }
  PreWriteValueHygiene(key);
  if (absorb_ != nullptr) {
    return absorb_->Update(key, value);
  }
  EpochGuard guard;
  uint8_t fingerprint = key.Fingerprint();
  while (true) {
    uint64_t version;
    DataNode* node = FindDataNode(key, &version);
    int existing = node->FindKey(key, fingerprint);
    if (existing < 0) {
      if (!node->lock.Validate(version)) {
        ReadStats().retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return Status::kNotFound;
    }
    if (!node->lock.TryUpgrade(version)) {
      ReadStats().retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    existing = node->FindKey(key, fingerprint);
    if (existing < 0) {
      node->lock.WriteUnlock();
      return Status::kNotFound;
    }
    int free = node->FindFreeSlot();
    if (free < 0 || !node->SuffixRoomFor(key)) {
      if (!MakeRoomLocked(&node, key)) {
        node->lock.WriteUnlock();
        return Status::kFull;  // split unwound; see Insert
      }
      // The key was present under the lock, so it lives in the half that now
      // owns it; MakeRoomLocked guarantees a free slot there.
      existing = node->FindKey(key, fingerprint);
      free = node->FindFreeSlot();
    }
    if (existing < 0 || free < 0) {
      node->lock.WriteUnlock();
      return Status::kNotFound;  // defensive: invariant violated
    }
    node->FillSlot(free, key, fingerprint, value);
    uint64_t bm = (node->Bitmap() | (1ULL << free)) & ~(1ULL << existing);
    node->PublishBitmap(bm);
    if (!opts_.selective_persistence) {
      MaintainPermutation(node);
    }
    node->lock.WriteUnlock();
    return Status::kOk;
  }
}

Status PacTree::Remove(const Key& key) {
  // Deliberately NOT gated on degraded mode: deletes allocate nothing (merges
  // log SMOs into pre-allocated rings) and are the caller's only way to shrink
  // the tree back below the resume watermark. Frozen absorb shards still
  // refuse the append (kFull) via WaitRingSpace.
  PreWriteValueHygiene(key);
  if (absorb_ != nullptr) {
    return absorb_->Remove(key);
  }
  EpochGuard guard;
  uint8_t fingerprint = key.Fingerprint();
  while (true) {
    uint64_t version;
    DataNode* node = FindDataNode(key, &version);
    int slot = node->FindKey(key, fingerprint);
    if (slot < 0) {
      if (!node->lock.Validate(version)) {
        ReadStats().retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return Status::kNotFound;
    }
    if (!node->lock.TryUpgrade(version)) {
      ReadStats().retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    slot = node->FindKey(key, fingerprint);
    if (slot < 0) {
      node->lock.WriteUnlock();
      return Status::kNotFound;
    }
    node->PublishBitmap(node->Bitmap() & ~(1ULL << slot));
    if (!TryMergeLocked(node) && !opts_.selective_persistence) {
      MaintainPermutation(node);  // a merge maintains its survivor itself
    }
    node->lock.WriteUnlock();
    return Status::kOk;
  }
}

// ---------------------------------------------------------------------------
// Structural modifications
// ---------------------------------------------------------------------------

DataNode* PacTree::SplitLocked(DataNode* node, const Key& key) {
  uint8_t order[kDataNodeEntries];
  int n = node->ComputeSortedOrder(order);
  // Classic nodes split only when slot-full (n == 64); compact nodes also
  // split when the suffix arena is exhausted, which can happen at any live
  // count >= 2 (n/2 >= 1 keeps both halves' anchors distinct and non-empty).
  assert(n >= 2 && "split needs two distinct keys");
  const Key split_anchor = node->KeyAt(order[n / 2]);

  // (1) Log the split; the new node is allocated straight into the log entry's
  // placeholder, so a crash can never leak it (§5.6).
  SmoLogEntry* e =
      updater_->Log(kSmoTypeSplit, ToPPtr(node).Cast<void>().raw, 0, split_anchor);
  PPtr<void> new_block =
      data_heap_->AllocTo(ToPPtr(&e->other_raw), node->NodeBytes());
  if (new_block.IsNull()) {
    // Data pool exhausted. Unwind: durably cancel the log entry (nothing was
    // published and no layer was touched, so recovery and live replay both
    // see a clean ring) and report failure with |node| still write-locked --
    // the caller releases it and fails its op with kFull.
    updater_->Cancel(e);
    stat_split_alloc_failures_.fetch_add(1, std::memory_order_relaxed);
    PollPressure();
    return nullptr;
  }
  // AllocTo filled other_raw after the entry's checksum was computed; re-seal
  // before any data-layer mutation. A crash inside this window leaves a
  // checksum that validates only with other_raw treated as 0 -- recovery
  // detects exactly that state, frees the fresh node, and drops the split.
  e->checksum = SmoEntryChecksum(*e);
  PersistFence(&e->checksum, sizeof(e->checksum));
  auto* new_node = static_cast<DataNode*>(new_block.get());

  // (2) Build the new (right) node, born write-locked. Moved keys re-truncate
  // against the NEW anchor (>= all their old-anchor prefixes), and at most 32
  // suffixes of <= 32 B each always fit a fresh 1024-B arena.
  new_node->lock.WriteLock();  // unreachable: uncontended
  new_node->anchor = split_anchor;
  new_node->format_byte = node->format_byte;
  new_node->deleted = 0;
  new_node->perm_version = kPermNone;
  new_node->arena_cursor = 0;
  new_node->next_raw = node->NextRaw();
  new_node->prev_raw = ToPPtr(node).Cast<void>().raw;
  uint64_t moved_bits = 0;
  uint64_t new_bitmap = 0;
  uint16_t arena_lo = 0;
  uint16_t arena_hi = 0;
  for (int i = n / 2; i < n; ++i) {
    int src = order[i];
    int dst = i - n / 2;
    new_node->StageSlot(dst, node->KeyAt(src), node->fp[src], node->ValueAt(src),
                        &arena_lo, &arena_hi);
    moved_bits |= 1ULL << src;
    new_bitmap |= 1ULL << dst;
  }
  new_node->bitmap = new_bitmap;
  PersistFence(new_node, new_node->NodeBytes());

  // (3) Publish in the paper's order: link right of splitting node, trim the
  // splitting node's bitmap, fix the right neighbor's back pointer.
  DataNode* old_right = node->Next();
  node->StoreNextPersist(new_block.raw);
  node->PublishBitmap(node->Bitmap() & ~moved_bits);
  if (old_right != nullptr) {
    old_right->StorePrevPersist(new_block.raw);
  }
  if (node->Format() == NodeFormat::kCompact) {
    // The moved keys' suffixes are dead in the left arena now that the trim is
    // published; reclaim them immediately so an arena-driven split makes real
    // progress for the half that keeps the old anchor.
    node->CompactArenaLocked();
  }
  stat_splits_.fetch_add(1, std::memory_order_relaxed);
  updater_->Publish(e);

  // (4) Search layer: asynchronously via the updater services, or inline in
  // sync mode (the SL update sits on the critical path -- what Figure 12
  // ablates).
  if (!opts_.async_search_update) {
    updater_->ApplySync(e);
  }

  // Hand back the half that owns |key|, still locked; unlock the other half.
  if (key < split_anchor) {
    new_node->lock.WriteUnlock();
    return node;
  }
  node->lock.WriteUnlock();
  return new_node;
}

bool PacTree::MakeRoomLocked(DataNode** node, const Key& key) {
  // Makes the write-locked node able to accept |key|: a free slot AND (compact
  // format) arena room for its suffix. Cheapest remedy first: when only the
  // arena is short, an in-place compaction may reclaim dead suffix bytes.
  // Otherwise split -- possibly repeatedly, since an incompressible key set
  // can leave the owning half still short on arena bytes; each split at least
  // halves the live count, so the loop terminates (a node with one live key
  // holds <= 32 arena bytes after compaction, leaving room for any suffix).
  // Callers must have PUBLISHED all slot state (CompactArenaLocked treats the
  // published bitmap as the live set). On success *node is the locked half
  // that owns |key|; on failure (data pool exhausted) *node is unchanged and
  // still locked.
  while ((*node)->FindFreeSlot() < 0 || !(*node)->SuffixRoomFor(key)) {
    if ((*node)->FindFreeSlot() >= 0 && (*node)->CompactArenaLocked() > 0 &&
        (*node)->SuffixRoomFor(key)) {
      stat_arena_compactions_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    DataNode* owner = SplitLocked(*node, key);
    if (owner == nullptr) {
      return false;
    }
    *node = owner;
  }
  return true;
}

bool PacTree::TryMergeLocked(DataNode* node) {
  // Prefer absorbing the right sibling; fall back to being absorbed by the
  // left one (sequential deletes would otherwise never find a small right
  // neighbor). All sibling locks are try-only, so lock ordering cannot
  // deadlock. |survivor| keeps its anchor; |victim| is logically deleted.
  // A sibling is locked only when an unlocked count says the merge fits
  // (rechecked under the lock): a lock taken and dropped for nothing bumps
  // the sibling's version, which drops its cached order (DESIGN.md §6k).
  DataNode* survivor = nullptr;
  DataNode* victim = nullptr;
  DataNode* right = node->Next();
  if (right != nullptr && node->CountLive() + right->CountLive() < kMergeThreshold &&
      right->lock.TryWriteLock()) {
    if (!right->IsDeleted() &&
        node->CountLive() + right->CountLive() < kMergeThreshold) {
      survivor = node;
      victim = right;
    } else {
      right->lock.WriteUnlock();
    }
  }
  if (survivor == nullptr) {
    DataNode* left = node->Prev();
    if (left == nullptr || left->CountLive() + node->CountLive() >= kMergeThreshold ||
        !left->lock.TryWriteLock()) {
      return false;
    }
    if (left->IsDeleted() || left->NextRaw() != ToPPtr(node).Cast<void>().raw ||
        left->CountLive() + node->CountLive() >= kMergeThreshold) {
      left->lock.WriteUnlock();
      return false;
    }
    survivor = left;
    victim = node;
  }
  if (survivor->Format() == NodeFormat::kCompact) {
    // The survivor's arena must be able to take every victim suffix BEFORE the
    // merge is logged: unlike a split there is no room-making fallback halfway
    // through a merge. Bound the need without assuming sharing, compact once
    // if short, and skip the merge entirely when still short -- both nodes
    // stay valid and a later, smaller merge can retry. (No slot state is
    // staged yet, so compacting against the published bitmap is safe.)
    size_t need = 0;
    uint64_t vbm = victim->Bitmap();
    while (vbm != 0) {
      int i = __builtin_ctzll(vbm);
      vbm &= vbm - 1;
      Key k = victim->KeyAt(i);
      need += k.size() - std::min(CommonPrefixLen(k, survivor->anchor), k.size());
    }
    if (kCompactArenaBytes - survivor->arena_cursor < need) {
      survivor->CompactArenaLocked();
    }
    if (kCompactArenaBytes - survivor->arena_cursor < need) {
      DataNode* locked_sibling = survivor == node ? victim : survivor;
      locked_sibling->lock.WriteUnlock();
      return false;
    }
  }
  uint64_t survivor_raw = ToPPtr(survivor).Cast<void>().raw;
  uint64_t victim_raw = ToPPtr(victim).Cast<void>().raw;
  SmoLogEntry* e =
      updater_->Log(kSmoTypeMerge, survivor_raw, victim_raw, victim->anchor);

  // Move the victim's live pairs into the survivor.
  uint64_t bm = victim->Bitmap();
  uint64_t add = 0;
  while (bm != 0) {
    int i = __builtin_ctzll(bm);
    bm &= bm - 1;
    uint64_t live = survivor->Bitmap() | add;
    int free = __builtin_ctzll(~live);
    survivor->FillSlot(free, victim->KeyAt(i), victim->fp[i], victim->ValueAt(i));
    add |= 1ULL << free;
  }
  survivor->PublishBitmap(survivor->Bitmap() | add);

  // Logically delete the victim, then unlink it.
  std::atomic_ref<uint32_t>(victim->deleted).store(1, std::memory_order_release);
  PersistFence(&victim->deleted, sizeof(victim->deleted));
  DataNode* r2 = victim->Next();
  survivor->StoreNextPersist(victim->NextRaw());
  if (r2 != nullptr) {
    r2->StorePrevPersist(survivor_raw);
  }
  stat_merges_.fetch_add(1, std::memory_order_relaxed);
  // Publish (and, in sync mode, apply) while both nodes are still locked:
  // once the survivor's lock drops, a racing split of the survivor can
  // re-create this victim's anchor, and its SMO must publish -- and apply --
  // strictly after this merge's. Publishing after the unlock would let that
  // split draw a smaller seq than the causally-earlier merge, inverting the
  // per-anchor order that replay (and recovery) rely on.
  updater_->Publish(e);
  if (!opts_.async_search_update) {
    updater_->ApplySync(e);
  }

  // "-Selective persistence": the survivor gained the victim's keys. Persist
  // and publish its order while it is still locked -- when it is the left
  // sibling, its lock drops below and the caller never sees it.
  if (!opts_.selective_persistence) {
    MaintainPermutation(survivor);
  }
  // Unlock whichever sibling we locked here; the caller's node stays locked.
  DataNode* locked_sibling = survivor == node ? victim : survivor;
  locked_sibling->lock.WriteUnlock();
  return true;
}

// ---------------------------------------------------------------------------
// Pool pressure / degraded mode
// ---------------------------------------------------------------------------

void PacTree::PollPressure() {
  // The signal is the WORST sub-pool over the data and log heaps: one
  // exhausted sub-pool stalls every writer routed to it regardless of how
  // much room its siblings have. The search heap is excluded -- trie growth
  // failures are absorbed by pending SMO entries and jump walks, not by
  // refusing index writes.
  double used =
      std::max(data_heap_->MaxUsedFraction(), log_heap_->MaxUsedFraction());
  if (vstore_ != nullptr) {
    used = std::max(used, vstore_->MaxUsedFraction());
  }
  if (used >= opts_.pressure_soft && absorb_ != nullptr) {
    // Emergency drain kick: flushing staged writes while chunks remain beats
    // stranding them in rings past the hard watermark.
    for (BackgroundService* s : absorb_->services()) {
      s->Notify();
    }
  }
  if (used >= opts_.pressure_soft && vstore_ != nullptr) {
    // Compacting low-live segments is the only way the value heap sheds bytes.
    vstore_->KickGc();
  }
  if (degraded_pinned_) {
    return;  // incomplete-replay degradation never clears (see Init)
  }
  const bool degraded = degraded_.load(std::memory_order_relaxed);
  if (!degraded && used >= opts_.pressure_hard) {
    degraded_.store(true, std::memory_order_relaxed);
  } else if (degraded && used <= opts_.pressure_resume) {
    degraded_.store(false, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

uint64_t PacTree::Size() const {
  uint64_t total = 0;
  DataNode* node = PPtr<DataNode>(root_->head_raw).get();
  while (node != nullptr) {
    if (!node->IsDeleted()) {
      total += static_cast<uint64_t>(node->CountLive());
    }
    node = node->Next();
  }
  if (absorb_ != nullptr) {
    // Staged ops not yet drained: an upsert of a key absent from the data
    // layer adds one, a tombstone of a present key removes one.
    std::map<Key, AbsorbPending> pending;
    absorb_->CollectFrom(Key::Min(), &pending);
    for (const auto& [k, p] : pending) {
      const bool in_base = AbsorbBaseLookup(k, nullptr) == Status::kOk;
      if (p.tombstone && in_base) {
        --total;
      } else if (!p.tombstone && !in_base) {
        ++total;
      }
    }
  }
  return total;
}

bool PacTree::CheckInvariants(std::string* why) const {
  DataNode* node = PPtr<DataNode>(root_->head_raw).get();
  if (node == nullptr) {
    *why = "missing head node";
    return false;
  }
  if (node->anchor != Key::Min()) {
    *why = "head anchor is not Min";
    return false;
  }
  // With the SMO logs drained, the search layer must exactly mirror the data
  // layer: every live node's anchor maps to that node. (While entries are
  // pending the trie may legitimately be stale -- the jump-node walk covers
  // it -- so the check only runs on a drained tree, and only when this
  // incarnation did not re-attach a persistent search layer whose pre-crash
  // updates may have been evicted: section 5.9 staleness is permanent there.)
  const bool check_search_layer = search_layer_exact_ && updater_->Drained();
  uint64_t prev_raw = 0;
  while (node != nullptr) {
    if (check_search_layer) {
      uint64_t mapped = 0;
      if (art_->Lookup(node->anchor, &mapped) != Status::kOk) {
        *why = "drained search layer is missing anchor " + node->anchor.ToString();
        return false;
      }
      if (mapped != ToPPtr(node).Cast<void>().raw) {
        *why = "drained search layer maps anchor " + node->anchor.ToString() +
               " to the wrong node";
        return false;
      }
    }
    if (node->IsDeleted()) {
      *why = "deleted node still linked";
      return false;
    }
    if (node->PrevRaw() != prev_raw) {
      *why = "prev pointer mismatch at anchor " + node->anchor.ToString();
      return false;
    }
    DataNode* next = node->Next();
    Key upper = next != nullptr ? next->anchor : Key::Max();
    if (next != nullptr && !(node->anchor < next->anchor)) {
      *why = "anchors not strictly increasing";
      return false;
    }
    uint64_t bm = node->Bitmap();
    while (bm != 0) {
      int i = __builtin_ctzll(bm);
      bm &= bm - 1;
      Key k = node->KeyAt(i);
      if (k < node->anchor || (next != nullptr && k >= upper)) {
        *why = "key outside node range";
        return false;
      }
      if (node->fp[i] != k.Fingerprint()) {
        *why = "stale fingerprint";
        return false;
      }
    }
    prev_raw = ToPPtr(node).Cast<void>().raw;
    node = next;
  }
  return true;
}

PacTreeStats PacTree::Stats() const {
  PacTreeStats s;
  s.splits = stat_splits_.load(std::memory_order_relaxed);
  s.merges = stat_merges_.load(std::memory_order_relaxed);
  s.smo_applied = updater_->applied();
  s.smo_ring_full_waits = updater_->ring_full_waits();
  for (const ReadStatCell& c : read_stats_) {
    for (int i = 0; i < kHopHistBuckets; ++i) {
      s.hop_hist[i] += c.hops[i].load(std::memory_order_relaxed);
    }
    s.retries += c.retries.load(std::memory_order_relaxed);
    s.epoch_enters += c.epoch_enters.load(std::memory_order_relaxed);
    s.node_locks += c.node_locks.load(std::memory_order_relaxed);
    s.multiget_batches += c.multiget_batches.load(std::memory_order_relaxed);
    s.multiget_keys += c.multiget_keys.load(std::memory_order_relaxed);
    s.multiget_node_groups += c.multiget_node_groups.load(std::memory_order_relaxed);
    s.multiget_group_retries += c.multiget_group_retries.load(std::memory_order_relaxed);
    s.multiscan_batches += c.multiscan_batches.load(std::memory_order_relaxed);
    s.multiscan_shared_nodes += c.multiscan_shared_nodes.load(std::memory_order_relaxed);
    s.multiscan_walks_saved += c.multiscan_walks_saved.load(std::memory_order_relaxed);
    s.perm_hits += c.perm_hits.load(std::memory_order_relaxed);
    s.perm_builds += c.perm_builds.load(std::memory_order_relaxed);
  }
  s.node_format = opts_.node_format;
  s.arena_compactions = stat_arena_compactions_.load(std::memory_order_relaxed);
  if (absorb_ != nullptr) {
    s.absorb = absorb_->Stats();
  }
  // Recovery replays through a temporary buffer (see recovery.cc) whose
  // counters die with it; the replay count is carried here.
  s.absorb.replayed += absorb_replayed_;
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.write_rejects = stat_write_rejects_.load(std::memory_order_relaxed);
  s.split_alloc_failures =
      stat_split_alloc_failures_.load(std::memory_order_relaxed);
  s.used_fraction =
      std::max(data_heap_->MaxUsedFraction(), log_heap_->MaxUsedFraction());
  s.alloc_failures = search_heap_->AllocFailures() +
                     data_heap_->AllocFailures() + log_heap_->AllocFailures();
  if (vstore_ != nullptr) {
    s.value_enabled = true;
    s.value = vstore_->Stats();
    s.used_fraction = std::max(s.used_fraction, vstore_->MaxUsedFraction());
    s.alloc_failures += vstore_->AllocFailures();
  }
  if (vcache_ != nullptr) {
    s.value_cache = vcache_->Stats();
  }
  return s;
}

}  // namespace pactree
