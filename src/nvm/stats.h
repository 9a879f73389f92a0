// Media-level traffic accounting for the emulated NVM device.
//
// These counters are what the paper's PMWatch measurements report: bytes actually
// moved at the 3D-XPoint media (256 B XPLine granularity), flush/fence counts, and
// cross-NUMA traffic including directory-coherence writes. Figures 4 and 5 plot
// exactly these quantities.
//
// Counters live in each thread's ThreadContext (src/runtime/), keyed per pmem
// pool id, so two heaps or two indexes in one process never bleed traffic into
// each other's numbers. When a thread exits, its counters are folded into a
// process-wide retired accumulator, so aggregate queries stay correct after
// worker threads join.
#ifndef PACTREE_SRC_NVM_STATS_H_
#define PACTREE_SRC_NVM_STATS_H_

#include <atomic>
#include <cstdint>

namespace pactree {

struct NvmStatsSnapshot {
  uint64_t media_read_bytes = 0;    // XPLine fetches from media
  uint64_t media_write_bytes = 0;   // XPLine write-backs to media
  uint64_t flushes = 0;             // clwb-equivalent operations
  uint64_t fences = 0;              // sfence-equivalent operations
  uint64_t read_hits = 0;           // satisfied by the modeled CPU cache
  uint64_t read_misses = 0;
  uint64_t read_prefetches = 0;     // XPLines fetched by software prefetch
  uint64_t remote_reads = 0;        // cross-NUMA XPLine fetches
  uint64_t remote_writes = 0;
  uint64_t directory_writes = 0;    // FH5: media writes caused by remote reads
  uint64_t read_stall_ns = 0;       // modeled ns demand reads stalled the reader
  uint64_t alloc_ops = 0;           // persistent allocations (filled by pmem)
  uint64_t free_ops = 0;
  // Allocations served by a non-local sub-pool after the NUMA-local pool ran
  // out (filled by PmemHeap::MediaStats, not per-pool counters): each one is a
  // future stream of remote media accesses, so a silent fallback must show up
  // here before it shows up as remote_reads/remote_writes.
  uint64_t heap_remote_allocs = 0;

  NvmStatsSnapshot operator-(const NvmStatsSnapshot& o) const {
    NvmStatsSnapshot d;
    d.media_read_bytes = media_read_bytes - o.media_read_bytes;
    d.media_write_bytes = media_write_bytes - o.media_write_bytes;
    d.flushes = flushes - o.flushes;
    d.fences = fences - o.fences;
    d.read_hits = read_hits - o.read_hits;
    d.read_misses = read_misses - o.read_misses;
    d.read_prefetches = read_prefetches - o.read_prefetches;
    d.remote_reads = remote_reads - o.remote_reads;
    d.remote_writes = remote_writes - o.remote_writes;
    d.directory_writes = directory_writes - o.directory_writes;
    d.read_stall_ns = read_stall_ns - o.read_stall_ns;
    d.alloc_ops = alloc_ops - o.alloc_ops;
    d.free_ops = free_ops - o.free_ops;
    d.heap_remote_allocs = heap_remote_allocs - o.heap_remote_allocs;
    return d;
  }

  NvmStatsSnapshot& operator+=(const NvmStatsSnapshot& o) {
    media_read_bytes += o.media_read_bytes;
    media_write_bytes += o.media_write_bytes;
    flushes += o.flushes;
    fences += o.fences;
    read_hits += o.read_hits;
    read_misses += o.read_misses;
    read_prefetches += o.read_prefetches;
    remote_reads += o.remote_reads;
    remote_writes += o.remote_writes;
    directory_writes += o.directory_writes;
    read_stall_ns += o.read_stall_ns;
    alloc_ops += o.alloc_ops;
    free_ops += o.free_ops;
    heap_remote_allocs += o.heap_remote_allocs;
    return *this;
  }
};

// Single-writer counter: only the owning thread increments (plain load+store,
// no RMW, so the hot path costs the same as a non-atomic add), while foreign
// threads may aggregate concurrently without a data race.
struct RelaxedCounter {
  std::atomic<uint64_t> v{0};

  void Add(uint64_t d) {
    v.store(v.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
  void operator++(int) { Add(1); }
  RelaxedCounter& operator+=(uint64_t d) {
    Add(d);
    return *this;
  }
  uint64_t load() const { return v.load(std::memory_order_relaxed); }
};

// Per-thread, per-pool raw counters (exposed so hot paths can bump fields
// without locks). Owning thread writes; any thread may read.
struct NvmThreadCounters {
  RelaxedCounter media_read_bytes;
  RelaxedCounter media_write_bytes;
  RelaxedCounter flushes;
  RelaxedCounter fences;
  RelaxedCounter read_hits;
  RelaxedCounter read_misses;
  RelaxedCounter read_prefetches;
  RelaxedCounter remote_reads;
  RelaxedCounter remote_writes;
  RelaxedCounter directory_writes;
  RelaxedCounter read_stall_ns;
  RelaxedCounter alloc_ops;
  RelaxedCounter free_ops;

  void AddTo(NvmStatsSnapshot* s) const {
    s->media_read_bytes += media_read_bytes.load();
    s->media_write_bytes += media_write_bytes.load();
    s->flushes += flushes.load();
    s->fences += fences.load();
    s->read_hits += read_hits.load();
    s->read_misses += read_misses.load();
    s->read_prefetches += read_prefetches.load();
    s->remote_reads += remote_reads.load();
    s->remote_writes += remote_writes.load();
    s->directory_writes += directory_writes.load();
    s->read_stall_ns += read_stall_ns.load();
    s->alloc_ops += alloc_ops.load();
    s->free_ops += free_ops.load();
  }
};

// Every thread's traffic (live and exited), all pools plus unattributed
// events (pool id 0: fences, which carry no address).
NvmStatsSnapshot GlobalNvmStats();

// Traffic attributed to one pmem pool across every thread, live and exited.
// Fences are never pool-attributed and always read as zero here.
NvmStatsSnapshot PoolNvmStats(uint16_t pool_id);

// The calling thread's counters for |pool_id| (0 = the unattributed bucket).
// Registered in the thread's context on first use; folded into the retired
// accumulator at thread exit.
NvmThreadCounters& LocalNvmCounters(uint16_t pool_id = 0);

}  // namespace pactree

#endif  // PACTREE_SRC_NVM_STATS_H_
