#include "src/nvm/persist.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "src/common/clock.h"
#include "src/common/compiler.h"
#include "src/nvm/address_map.h"
#include "src/nvm/bandwidth.h"
#include "src/nvm/config.h"
#include "src/nvm/fault.h"
#include "src/nvm/shadow.h"
#include "src/nvm/stats.h"
#include "src/nvm/thread_state.h"
#include "src/nvm/topology.h"

namespace pactree {
namespace {

// Executes the real cache-line write-back instruction (harmless on DRAM; keeps
// the instruction cost on the critical path like real persistent code).
inline void CacheLineWriteBack(const void* line) {
#if defined(__CLWB__)
  _mm_clwb(const_cast<void*>(line));
#elif defined(__CLFLUSHOPT__)
  _mm_clflushopt(const_cast<void*>(line));
#elif defined(__x86_64__)
  _mm_clflush(line);
#else
  (void)line;
#endif
}

inline void StoreFence() {
#if defined(__x86_64__)
  _mm_sfence();
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

}  // namespace

void PersistRange(const void* p, size_t n) {
  if (n == 0) {
    return;
  }
  NvmRange range;
  if (!LookupNvmRange(p, &range)) {
    return;  // DRAM-resident object: no persistence needed or modeled
  }
  if (ShadowHeap::IsActive()) {
    // Injector first: a crash triggered at this flush must suppress it.
    FaultInjector::OnPersist(p, n);
    ShadowHeap::OnPersist(p, n);
  }

  const NvmConfig& cfg = GlobalNvmConfig();
  // The media model and the traffic counters are keyed per (thread, pool):
  // independent heaps in one process never share cache warmth or counters.
  NvmDomain& dom = LocalNvmState().DomainFor(range.pool_id);
  NvmThreadCounters& c = dom.counters;
  MediaModel& m = dom.media;
  m.EnsureSized();

  uintptr_t start = CacheLineOf(p);
  uintptr_t end = reinterpret_cast<uintptr_t>(p) + n;
  bool remote = range.node != CurrentNumaNode();
  double lat_mult = remote ? cfg.remote_multiplier : 1.0;

  uintptr_t prev_xp = ~uintptr_t{0};
  for (uintptr_t line = start; line < end; line += kCacheLineSize) {
    CacheLineWriteBack(reinterpret_cast<const void*>(line));
    c.flushes++;
    if (remote) {
      c.remote_writes++;
    }
    uintptr_t xp = XpLineOf(line);
    if (xp == prev_xp) {
      continue;  // same XPLine as the previous flushed line: combined
    }
    prev_xp = xp;
    if (m.XpBufferLookupInsert(xp)) {
      continue;  // write-combined in the XPBuffer window
    }
    // XPLine write-back: the controller performs a read-modify-write of the
    // whole 256 B line, so a 64 B flush costs a full XPLine of media writes.
    c.media_write_bytes += kXpLineSize;
    if (cfg.emulate_latency) {
      SpinNs(static_cast<uint64_t>(cfg.flush_ns * lat_mult));
    }
    if (cfg.emulate_bandwidth) {
      BandwidthModel::Instance().ConsumeWrite(range.node, kXpLineSize);
    }
  }
}

void Fence() {
  StoreFence();
  if (ShadowHeap::IsActive()) {
    FaultInjector::OnFence();
    ShadowHeap::OnFence();
  }
  // Fences carry no address, so they land in the unattributed bucket.
  NvmThreadCounters& c = LocalNvmCounters();
  c.fences++;
  const NvmConfig& cfg = GlobalNvmConfig();
  if (cfg.emulate_latency && cfg.fence_ns > 0) {
    SpinNs(cfg.fence_ns);
  }
}

void CountFenceOnly() { LocalNvmCounters().fences++; }

namespace {

// A demand read's charge: where it was accounted and how long its misses
// stall a thread that waits for them one after another.
struct ReadCharge {
  NvmThreadCounters* counters = nullptr;
  uint64_t stall_ns = 0;
};

// The one accounting path for demand reads of [p, p+n): modeled-cache hits
// and misses, media and remote bytes, directory writes, and bandwidth
// tokens. Returns the modeled stall without spinning it, so the callers
// decide whether misses wait serially (AnnotateNvmRead) or overlap
// (AnnotateNvmReadPair).
ReadCharge AccountDemandRead(const void* p, size_t n) {
  ReadCharge charge;
  if (n == 0) {
    return charge;
  }
  NvmRange range;
  if (!LookupNvmRange(p, &range)) {
    return charge;
  }
  const NvmConfig& cfg = GlobalNvmConfig();
  NvmDomain& dom = LocalNvmState().DomainFor(range.pool_id);
  NvmThreadCounters& c = dom.counters;
  MediaModel& m = dom.media;
  m.EnsureSized();
  charge.counters = &c;

  bool remote = range.node != CurrentNumaNode();
  bool directory = cfg.coherence == CoherenceProtocol::kDirectory;
  double lat_mult = remote ? cfg.remote_multiplier : 1.0;

  uintptr_t start = XpLineOf(reinterpret_cast<uintptr_t>(p));
  uintptr_t end = reinterpret_cast<uintptr_t>(p) + n;
  for (uintptr_t xp = start; xp < end; xp += kXpLineSize) {
    if (m.ReadCacheLookupInsert(xp)) {
      c.read_hits++;
      continue;
    }
    c.read_misses++;
    c.media_read_bytes += kXpLineSize;
    bool sequential = xp == m.last_miss_line + kXpLineSize;
    m.last_miss_line = xp;
    if (remote) {
      c.remote_reads++;
      if (directory) {
        // FH5: the directory coherence state lives on the 3D-XPoint media, so
        // a remote read miss issues a media *write* to record the new sharer.
        c.directory_writes++;
        c.media_write_bytes += kCacheLineSize;
      }
    }
    if (cfg.emulate_latency) {
      // Sequential fetches ride the prefetchers (FH3 / GA5).
      uint64_t base = sequential ? cfg.seq_read_ns : cfg.read_miss_ns;
      charge.stall_ns += static_cast<uint64_t>(base * lat_mult);
      if (remote && directory) {
        charge.stall_ns += cfg.directory_write_ns;
      }
    }
    if (cfg.emulate_bandwidth) {
      BandwidthModel::Instance().ConsumeRead(range.node, kXpLineSize);
      if (remote && directory) {
        // The directory update competes for the scarce write bandwidth: this
        // coupling is what melts remote read bandwidth down (Figure 2).
        BandwidthModel::Instance().ConsumeWrite(range.node, kCacheLineSize);
      }
    }
  }
  return charge;
}

void Stall(const ReadCharge& charge) {
  if (charge.stall_ns == 0) {
    return;
  }
  charge.counters->read_stall_ns += charge.stall_ns;
  SpinNs(charge.stall_ns);
}

}  // namespace

void AnnotateNvmRead(const void* p, size_t n) { Stall(AccountDemandRead(p, n)); }

void AnnotateNvmReadPair(const void* a, size_t na, const void* b, size_t nb) {
  ReadCharge ca = AccountDemandRead(a, na);
  ReadCharge cb = AccountDemandRead(b, nb);
  Stall(ca.stall_ns >= cb.stall_ns ? ca : cb);
}

void AnnotateNvmPrefetch(const void* p, size_t n) {
  if (n == 0) {
    return;
  }
  uintptr_t cl_start = CacheLineOf(p);
  uintptr_t cl_end = reinterpret_cast<uintptr_t>(p) + n;
  for (uintptr_t line = cl_start; line < cl_end; line += kCacheLineSize) {
    __builtin_prefetch(reinterpret_cast<const void*>(line), 0 /*read*/, 1);
  }
  NvmRange range;
  if (!LookupNvmRange(p, &range)) {
    return;  // DRAM-resident object: host prefetch only, nothing to model
  }
  const NvmConfig& cfg = GlobalNvmConfig();
  NvmDomain& dom = LocalNvmState().DomainFor(range.pool_id);
  NvmThreadCounters& c = dom.counters;
  MediaModel& m = dom.media;
  m.EnsureSized();

  bool remote = range.node != CurrentNumaNode();
  bool directory = cfg.coherence == CoherenceProtocol::kDirectory;

  uintptr_t start = XpLineOf(reinterpret_cast<uintptr_t>(p));
  uintptr_t end = reinterpret_cast<uintptr_t>(p) + n;
  for (uintptr_t xp = start; xp < end; xp += kXpLineSize) {
    if (m.ReadCacheLookupInsert(xp)) {
      continue;  // already cached: the prefetch is a no-op at the media
    }
    // The fetch still moves a full XPLine from the media (and, under the
    // directory protocol, still dirties coherence state) -- prefetching only
    // overlaps the latency, it does not reduce traffic. Deliberately NOT
    // counted as a read miss and never SpinNs-stalled: the caller overlaps
    // the fetch with other work before touching the line.
    c.read_prefetches++;
    c.media_read_bytes += kXpLineSize;
    m.last_miss_line = xp;
    if (remote) {
      c.remote_reads++;
      if (directory) {
        c.directory_writes++;
        c.media_write_bytes += kCacheLineSize;
      }
    }
    if (cfg.emulate_bandwidth) {
      BandwidthModel::Instance().ConsumeRead(range.node, kXpLineSize);
      if (remote && directory) {
        BandwidthModel::Instance().ConsumeWrite(range.node, kCacheLineSize);
      }
    }
  }
}

void DropThreadReadCache() {
  NvmThreadState& state = LocalNvmState();
  state.unattributed.media.Reset();
  size_t n = state.ndomains.load(std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    state.domains[i].load(std::memory_order_relaxed)->media.Reset();
  }
}

}  // namespace pactree
