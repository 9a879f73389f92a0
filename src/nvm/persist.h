// Persistence primitives for the emulated NVM device (ADR mode).
//
// Code that wants to be crash consistent uses exactly the instruction sequence it
// would use on real Optane hardware: PersistRange (clwb per cache line) followed by
// Fence (sfence). On top of executing the real instructions (harmless on DRAM),
// these wrappers:
//   * account media traffic at XPLine (256 B) granularity, with an XPBuffer
//     write-combining window (sequential flushes to one XPLine coalesce);
//   * inject media latency / consume bandwidth tokens when emulation is enabled;
//   * feed the ShadowHeap crash simulator, which treats only persisted bytes as
//     durable.
//
// Reads are annotated explicitly: an index calls AnnotateNvmRead(node, size)
// when it dereferences a node on NVM. A per-thread direct-mapped XPLine cache
// models the CPU cache; only misses reach the media (and, for remote reads under
// the directory protocol, also generate a media directory write -- finding FH5).
// Every kind of read is charged the same media traffic; they differ only in
// what the calling thread waits for:
//   * demand read (AnnotateNvmRead): stalls for each miss in turn, the sum of
//     the misses' latencies -- a load whose address depends on the previous one;
//   * paired demand read (AnnotateNvmReadPair): two independent loads in flight
//     at once (memory-level parallelism); stalls once, for the slower side;
//   * prefetch (AnnotateNvmPrefetch): never stalls; the caller overlaps the
//     fetch with other work before the demand read that then hits.
#ifndef PACTREE_SRC_NVM_PERSIST_H_
#define PACTREE_SRC_NVM_PERSIST_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace pactree {

// Flushes every cache line of [p, p+n) toward the persistence domain.
void PersistRange(const void* p, size_t n);

// Store fence; orders prior flushes.
void Fence();

// PersistRange + Fence.
inline void PersistFence(const void* p, size_t n) {
  PersistRange(p, n);
  Fence();
}

// 8-byte atomic store that is immediately persisted and fenced; the canonical
// "linearization point" store (e.g., the data-node bitmap, §5.5).
inline void AtomicStorePersist(std::atomic<uint64_t>* word, uint64_t value,
                               std::memory_order order = std::memory_order_release) {
  word->store(value, order);
  PersistFence(word, sizeof(*word));
}

// Declares that the caller read [p, p+n) from NVM (media model + stats).
void AnnotateNvmRead(const void* p, size_t n);

// Declares two independent demand reads, [a, a+na) and [b, b+nb), issued
// together: the second address must not depend on the first read's data. Each
// range is accounted exactly as AnnotateNvmRead would account it (hits,
// misses, media and remote bytes, directory writes, bandwidth), but the thread
// stalls once, for the slower range, not for their sum. A pair where one side
// hits therefore still waits for the other side's full miss.
void AnnotateNvmReadPair(const void* a, size_t na, const void* b, size_t nb);

// Declares a *software prefetch* of [p, p+n): issues the real
// __builtin_prefetch per cache line and models an overlapped media fetch --
// XPLines not already in the thread's modeled CPU cache are inserted and
// charged as media read traffic (and bandwidth), but the calling thread is
// never stalled. The later AnnotateNvmRead of the same lines then hits the
// modeled cache, which is how a correctly pipelined reader (one key path of
// work between prefetch and use, bounding outstanding fetches to what the
// XPPrefetcher queues absorb) hides media latency in this model.
void AnnotateNvmPrefetch(const void* p, size_t n);

// Bumps the fence counter only (used by code paths that batch flushes).
void CountFenceOnly();

// Resets the calling thread's modeled CPU read-cache (tests use this to force
// cold-cache measurements).
void DropThreadReadCache();

}  // namespace pactree

#endif  // PACTREE_SRC_NVM_PERSIST_H_
