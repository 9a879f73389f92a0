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

class PdlArtIndex : public RangeIndex {
 public:
  explicit PdlArtIndex(std::unique_ptr<PmemHeap> heap) : heap_(std::move(heap)) {
    AdvanceGenerations({heap_.get()});
    art_ = std::make_unique<PdlArt>(heap_.get(), heap_->Root<ArtTreeRoot>());
    art_->Recover();
  }
  Status Insert(const Key& k, uint64_t v) override { return art_->Insert(k, v); }
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

 private:
  std::unique_ptr<PmemHeap> heap_;
  std::unique_ptr<PdlArt> art_;
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
      return PacTree::Open(o);
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
                             : std::make_unique<PdlArtIndex>(std::move(heap));
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
      return FastFair::Open(o);
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
      return FpTree::Open(o);
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
      return BzTree::Open(o);
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
