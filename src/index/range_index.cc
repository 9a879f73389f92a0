#include "src/index/range_index.h"

#include <atomic>

#include "src/art/art.h"
#include "src/baselines/bztree.h"
#include "src/baselines/fastfair.h"
#include "src/baselines/fptree.h"
#include "src/pactree/pactree.h"
#include "src/sync/epoch.h"
#include "src/sync/gen_sync.h"

namespace pactree {
namespace {

// Auto-assigned pool id bases: 32 ids per index instance, starting high enough
// to never collide with the fixed ids used in tests/examples.
std::atomic<uint16_t> g_next_pool_base{1000};

uint16_t PoolBase(const IndexFactoryOptions& opts) {
  if (opts.pool_id_base != 0) {
    return opts.pool_id_base;
  }
  return g_next_pool_base.fetch_add(32, std::memory_order_relaxed);
}

class PacTreeIndex : public RangeIndex {
 public:
  explicit PacTreeIndex(std::unique_ptr<PacTree> tree) : tree_(std::move(tree)) {}
  Status Insert(const Key& k, uint64_t v) override { return tree_->Insert(k, v); }
  Status Update(const Key& k, uint64_t v) override {
    Status s = tree_->Update(k, v);
    // YCSB updates may target not-yet-inserted keys in mixed phases.
    return s == Status::kNotFound ? tree_->Insert(k, v) : s;
  }
  Status Lookup(const Key& k, uint64_t* v) const override { return tree_->Lookup(k, v); }
  Status Remove(const Key& k) override { return tree_->Remove(k); }
  size_t Scan(const Key& s, size_t n,
              std::vector<std::pair<Key, uint64_t>>* out) const override {
    return tree_->Scan(s, n, out);
  }
  size_t MultiGet(std::span<const Key> keys, uint64_t* values,
                  Status* statuses) const override {
    return tree_->MultiGet(keys, values, statuses);
  }
  void MultiScan(std::span<const Key> starts, std::span<const size_t> counts,
                 std::vector<std::vector<std::pair<Key, uint64_t>>>* out)
      const override {
    tree_->MultiScan(starts, counts, out);
  }
  Status InsertValue(const Key& k, std::string_view v) override {
    return tree_->InsertValue(k, v);
  }
  Status LookupValue(const Key& k, std::string* v) const override {
    return tree_->LookupValue(k, v);
  }
  size_t ScanValues(const Key& s, size_t n,
                    std::vector<std::pair<Key, std::string>>* out) const override {
    return tree_->ScanValues(s, n, out);
  }
  size_t MultiGetValues(std::span<const Key> keys, std::vector<std::string>* values,
                        Status* statuses) const override {
    return tree_->MultiGetValues(keys, values, statuses);
  }
  size_t CompactValues() override { return tree_->CompactValues(); }
  bool SupportsLargeValues() const override {
    return tree_->value_store() != nullptr;
  }
  uint64_t Size() const override { return tree_->Size(); }
  std::string Name() const override { return "PACTree"; }
  std::string StatsJson() const override {
    PacTreeStats s = tree_->Stats();
    std::string j = "{";
    auto field = [&j](const char* k, uint64_t v) {
      if (j.size() > 1) {
        j += ",";
      }
      j += "\"";
      j += k;
      j += "\":";
      j += std::to_string(v);
    };
    field("splits", s.splits);
    field("merges", s.merges);
    field("smo_applied", s.smo_applied);
    field("retries", s.retries);
    field("epoch_enters", s.epoch_enters);
    field("node_locks", s.node_locks);
    field("multiget_batches", s.multiget_batches);
    field("multiget_keys", s.multiget_keys);
    field("multiget_node_groups", s.multiget_node_groups);
    field("multiget_group_retries", s.multiget_group_retries);
    field("multiscan_batches", s.multiscan_batches);
    field("multiscan_shared_nodes", s.multiscan_shared_nodes);
    field("multiscan_walks_saved", s.multiscan_walks_saved);
    field("perm_hits", s.perm_hits);
    field("perm_builds", s.perm_builds);
    field("node_format", s.node_format == NodeFormat::kCompact ? 1 : 0);
    field("arena_compactions", s.arena_compactions);
    field("absorb_staged", s.absorb.staged);
    field("absorb_drained", s.absorb.drained);
    field("absorb_lookup_hits", s.absorb.lookup_hits);
    field("absorb_apply_full", s.absorb.apply_full);
    // Exhaustion / degraded-mode visibility.
    field("degraded", s.degraded ? 1 : 0);
    field("write_rejects", s.write_rejects);
    field("split_alloc_failures", s.split_alloc_failures);
    field("alloc_failures", s.alloc_failures);
    if (s.value_enabled) {
      field("value_log_appends", s.value.appends);
      field("value_log_bytes", s.value.append_bytes);
      field("value_read_retries", s.value.read_retries);
      field("gc_segments_compacted", s.value.gc_segments_compacted);
      field("gc_bytes_relocated", s.value.gc_bytes_relocated);
      field("gc_full_aborts", s.value.gc_full_aborts);
      field("value_segments", s.value.segments);
      field("value_used_bytes", s.value.used_bytes);
      field("value_live_bytes", s.value.live_bytes);
      field("value_cache_hits", s.value_cache.hits);
      field("value_cache_misses", s.value_cache.misses);
      field("value_cache_evictions", s.value_cache.evictions);
      field("value_cache_bytes", s.value_cache.bytes);
    }
    field("heap_remote_allocs", tree_->search_heap()->RemoteAllocs() +
                                    tree_->data_heap()->RemoteAllocs() +
                                    tree_->log_heap()->RemoteAllocs());
    j += ",\"used_fraction\":" + std::to_string(s.used_fraction);
    j += ",\"hop_hist\":[";
    for (int i = 0; i < kHopHistBuckets; ++i) {
      if (i > 0) {
        j += ",";
      }
      j += std::to_string(s.hop_hist[i]);
    }
    j += "]}";
    return j;
  }
  void Drain() override {
    // Absorb first: drained batches may log SMOs.
    tree_->DrainAbsorb();
    tree_->DrainSmoLogs();
  }
  bool CheckInvariants(std::string* why) const override {
    return tree_->CheckInvariants(why);
  }
  size_t PendingLogEntries() const override {
    size_t n = tree_->search_heap()->PendingLogEntries() +
               tree_->data_heap()->PendingLogEntries() +
               tree_->log_heap()->PendingLogEntries();
    if (tree_->value_store() != nullptr) {
      n += tree_->value_store()->heap()->PendingLogEntries();
    }
    return n;
  }
  bool OperationLogsDrained() const override {
    return tree_->SmoLogsDrained() && tree_->AbsorbDrained();
  }
  std::vector<PmemHeap*> Heaps() const override {
    std::vector<PmemHeap*> heaps = {tree_->search_heap(), tree_->data_heap(),
                                    tree_->log_heap()};
    if (tree_->value_store() != nullptr) {
      heaps.push_back(tree_->value_store()->heap());
    }
    return heaps;
  }
  PacTree* tree() { return tree_.get(); }

 private:
  std::unique_ptr<PacTree> tree_;
};

class PdlArtIndex : public RangeIndex {
 public:
  PdlArtIndex(std::unique_ptr<PmemHeap> heap, std::string name)
      : heap_(std::move(heap)), name_(std::move(name)) {
    AdvanceGenerations({heap_.get()});
    art_ = std::make_unique<PdlArt>(heap_.get(), heap_->Root<ArtTreeRoot>());
    art_->Recover();
  }
  Status Insert(const Key& k, uint64_t v) override {
    Status s = art_->Insert(k, v);
    return s;
  }
  Status Lookup(const Key& k, uint64_t* v) const override { return art_->Lookup(k, v); }
  Status Remove(const Key& k) override { return art_->Remove(k); }
  size_t Scan(const Key& s, size_t n,
              std::vector<std::pair<Key, uint64_t>>* out) const override {
    return art_->Scan(s, n, out);
  }
  uint64_t Size() const override { return art_->Size(); }
  std::string Name() const override { return "PDL-ART"; }
  size_t PendingLogEntries() const override { return heap_->PendingLogEntries(); }
  std::vector<PmemHeap*> Heaps() const override { return {heap_.get()}; }
  const std::string& heap_name() const { return name_; }

 private:
  std::unique_ptr<PmemHeap> heap_;
  std::unique_ptr<PdlArt> art_;
  std::string name_;
};

class FastFairIndex : public RangeIndex {
 public:
  explicit FastFairIndex(std::unique_ptr<FastFair> tree) : tree_(std::move(tree)) {}
  Status Insert(const Key& k, uint64_t v) override { return tree_->Insert(k, v); }
  Status Lookup(const Key& k, uint64_t* v) const override { return tree_->Lookup(k, v); }
  Status Remove(const Key& k) override { return tree_->Remove(k); }
  size_t Scan(const Key& s, size_t n,
              std::vector<std::pair<Key, uint64_t>>* out) const override {
    return tree_->Scan(s, n, out);
  }
  uint64_t Size() const override { return tree_->Size(); }
  std::string Name() const override { return "FastFair"; }
  bool CheckInvariants(std::string* why) const override {
    return tree_->CheckInvariants(why);
  }
  size_t PendingLogEntries() const override { return tree_->heap()->PendingLogEntries(); }
  std::vector<PmemHeap*> Heaps() const override { return {tree_->heap()}; }

 private:
  std::unique_ptr<FastFair> tree_;
};

class FpTreeIndex : public RangeIndex {
 public:
  explicit FpTreeIndex(std::unique_ptr<FpTree> tree) : tree_(std::move(tree)) {}
  Status Insert(const Key& k, uint64_t v) override { return tree_->Insert(k, v); }
  Status Lookup(const Key& k, uint64_t* v) const override { return tree_->Lookup(k, v); }
  Status Remove(const Key& k) override { return tree_->Remove(k); }
  size_t Scan(const Key& s, size_t n,
              std::vector<std::pair<Key, uint64_t>>* out) const override {
    return tree_->Scan(s, n, out);
  }
  uint64_t Size() const override { return tree_->Size(); }
  std::string Name() const override { return "FPTree"; }
  size_t PendingLogEntries() const override { return tree_->heap()->PendingLogEntries(); }
  std::vector<PmemHeap*> Heaps() const override { return {tree_->heap()}; }
  FpTree* tree() { return tree_.get(); }

 private:
  std::unique_ptr<FpTree> tree_;
};

class BzTreeIndex : public RangeIndex {
 public:
  explicit BzTreeIndex(std::unique_ptr<BzTree> tree) : tree_(std::move(tree)) {}
  Status Insert(const Key& k, uint64_t v) override { return tree_->Insert(k, v); }
  Status Lookup(const Key& k, uint64_t* v) const override { return tree_->Lookup(k, v); }
  Status Remove(const Key& k) override { return tree_->Remove(k); }
  size_t Scan(const Key& s, size_t n,
              std::vector<std::pair<Key, uint64_t>>* out) const override {
    return tree_->Scan(s, n, out);
  }
  uint64_t Size() const override { return tree_->Size(); }
  std::string Name() const override { return "BzTree"; }
  size_t PendingLogEntries() const override { return tree_->heap()->PendingLogEntries(); }
  std::vector<PmemHeap*> Heaps() const override { return {tree_->heap()}; }

 private:
  std::unique_ptr<BzTree> tree_;
};

}  // namespace

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kPacTree:
      return "pactree";
    case IndexKind::kPdlArt:
      return "pdlart";
    case IndexKind::kFastFair:
      return "fastfair";
    case IndexKind::kFpTree:
      return "fptree";
    case IndexKind::kBzTree:
      return "bztree";
  }
  return "unknown";
}

std::unique_ptr<RangeIndex> CreateIndex(IndexKind kind, const IndexFactoryOptions& opts) {
  std::string name = opts.name.empty() ? IndexKindName(kind) : opts.name;
  uint16_t base = PoolBase(opts);
  switch (kind) {
    case IndexKind::kPacTree: {
      if (!opts.open_existing) {
        PacTree::Destroy(name);
      }
      PacTreeOptions o;
      o.name = name;
      o.pool_id_base = base;
      o.pool_size = opts.pool_size;
      o.async_search_update = opts.pactree_async_update;
      o.selective_persistence = opts.pactree_selective_persistence;
      o.dram_search_layer = opts.pactree_dram_search_layer;
      o.per_numa_pools = opts.per_numa_pools;
      o.updater_count = opts.pactree_updaters;
      o.absorb_writes = opts.pactree_absorb_writes;
      o.value_storage = opts.pactree_value_storage;
      if (opts.pactree_value_cache_bytes != ~size_t{0}) {
        o.value_cache_bytes = opts.pactree_value_cache_bytes;
      }
      if (opts.pactree_value_segment_size != 0) {
        o.value_segment_size = opts.pactree_value_segment_size;
      }
      if (opts.pactree_node_format >= 0) {
        o.node_format = opts.pactree_node_format == 0 ? NodeFormat::kClassic
                                                      : NodeFormat::kCompact;
      }
      auto tree = PacTree::Open(o);
      return tree == nullptr ? nullptr
                             : std::make_unique<PacTreeIndex>(std::move(tree));
    }
    case IndexKind::kPdlArt: {
      if (!opts.open_existing) {
        PmemHeap::Destroy(name);
      }
      PmemHeapOptions h;
      h.pool_id_base = base;
      h.pool_size = opts.pool_size;
      h.single_pool = !opts.per_numa_pools;
      auto heap = PmemHeap::OpenOrCreate(name, h);
      return heap == nullptr ? nullptr
                             : std::make_unique<PdlArtIndex>(std::move(heap), name);
    }
    case IndexKind::kFastFair: {
      if (!opts.open_existing) {
        FastFair::Destroy(name);
      }
      FastFairOptions o;
      o.name = name;
      o.pool_id_base = base;
      o.pool_size = opts.pool_size;
      o.string_keys = opts.string_keys;
      o.per_numa_pools = opts.per_numa_pools;
      auto tree = FastFair::Open(o);
      return tree == nullptr ? nullptr
                             : std::make_unique<FastFairIndex>(std::move(tree));
    }
    case IndexKind::kFpTree: {
      if (!opts.open_existing) {
        FpTree::Destroy(name);
      }
      FpTreeOptions o;
      o.name = name;
      o.pool_id_base = base;
      o.pool_size = opts.pool_size;
      o.per_numa_pools = opts.per_numa_pools;
      o.htm.spurious_abort_per_line = opts.fptree_spurious_abort_per_line;
      auto tree = FpTree::Open(o);
      return tree == nullptr ? nullptr : std::make_unique<FpTreeIndex>(std::move(tree));
    }
    case IndexKind::kBzTree: {
      if (!opts.open_existing) {
        BzTree::Destroy(name);
      }
      BzTreeOptions o;
      o.name = name;
      o.pool_id_base = base;
      o.pool_size = opts.pool_size;
      o.per_numa_pools = opts.per_numa_pools;
      auto tree = BzTree::Open(o);
      return tree == nullptr ? nullptr : std::make_unique<BzTreeIndex>(std::move(tree));
    }
  }
  return nullptr;
}

void DestroyIndex(IndexKind kind, const std::string& name) {
  std::string n = name.empty() ? IndexKindName(kind) : name;
  switch (kind) {
    case IndexKind::kPacTree:
      PacTree::Destroy(n);
      break;
    case IndexKind::kPdlArt:
      PmemHeap::Destroy(n);
      break;
    case IndexKind::kFastFair:
      FastFair::Destroy(n);
      break;
    case IndexKind::kFpTree:
      FpTree::Destroy(n);
      break;
    case IndexKind::kBzTree:
      BzTree::Destroy(n);
      break;
  }
  EpochManager::Instance().DrainAll();
}

}  // namespace pactree
