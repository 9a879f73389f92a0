// ShadowHeap: an adversarial ADR crash simulator.
//
// While enabled over a pool's mapping, every PersistRange stages the flushed
// cache lines' *current contents* and the following Fence commits them to a
// shadow image. A simulated crash captures the shadow image: any store that was
// not explicitly persisted before the crash is absent -- the strictest reading
// of ADR semantics (volatile caches, nothing survives except what reached the
// WPQ). An optional chaos mode additionally "evicts" random unflushed lines
// into the image, modeling cache evictions that make un-flushed stores durable;
// recovery must tolerate both directions.
//
// Eviction decisions are a pure function of (seed, region index, line offset)
// -- never of iteration order or draw count -- so the same (seed,
// evict_probability) always selects the same lines, run to run and capture to
// capture. Staged-but-unfenced lines are tagged with the enable-cycle epoch;
// a line staged before Disable can never leak into a later cycle's image.
//
// Tests rebuild a pool from the captured bytes and run recovery on it; the
// compact persistent-pointer representation (§5.8) makes the image position
// independent.
//
// The fault-injection layer (src/nvm/fault.h) drives the finer-grained entry
// points: Freeze() pins the image at a simulated power-failure instant,
// CommitBytes/CommitStagedSubset model torn line writes at the 8-byte
// atomicity granularity, and EvictLines applies chaos evictions using the
// live bytes at the crash instant.
#ifndef PACTREE_SRC_NVM_SHADOW_H_
#define PACTREE_SRC_NVM_SHADOW_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pactree {

enum class CrashMode {
  kStrict,  // only persisted bytes survive
  kChaos,   // plus random unflushed lines "evicted" into the image
};

class ShadowHeap {
 public:
  // Starts shadowing [base, base+size). The shadow image is initialized from
  // the current live contents (i.e., the state at enable time is durable).
  // May be called repeatedly to shadow several regions (e.g., each pool of an
  // index). When the region is a MAP_SHARED mapping of |backing_file|, pass
  // the file: the image is then read from it, and the file's holes (most of
  // a fresh pool) are not allocated by the copy. Test-only facility.
  static void Enable(void* base, size_t size, const std::string& backing_file = {});
  static void Disable();
  static bool IsActive();

  // Snapshot of the durable image of the first region as of now.
  static std::vector<uint8_t> Capture(CrashMode mode, uint64_t seed = 0,
                                      double evict_probability = 0.05);
  // Snapshot of the region registered at |base| (first region when null).
  static std::vector<uint8_t> CaptureRegion(void* base, CrashMode mode,
                                            uint64_t seed = 0,
                                            double evict_probability = 0.05);
  // Same snapshot, written into |*image| so a caller that captures once per
  // crash point reuses one buffer's pages. Returns false (and leaves |*image|
  // empty) when no region is registered at |base|.
  static bool CaptureRegionInto(void* base, CrashMode mode, std::vector<uint8_t>* image,
                                uint64_t seed = 0, double evict_probability = 0.05);

  // Hooks called from the persistence primitives (no-ops when inactive).
  static void OnPersist(const void* p, size_t n);
  static void OnFence();

  // --- fault-injection entry points (see src/nvm/fault.h) -----------------

  // True iff [p, p+1) falls inside a shadowed region.
  static bool Covers(const void* p);

  // Number of cache lines of [p, p+n) that fall inside shadowed regions.
  static size_t CoveredLines(const void* p, size_t n);

  // Freezes the durable image: subsequent OnPersist/OnFence (from any thread)
  // no longer change it. Models the instant of power failure. Capture still
  // works; Enable/Disable reset the frozen state.
  static void Freeze();
  static bool IsFrozen();

  // Commits [p, p+n) of *live* bytes straight into the image, bypassing the
  // stage/fence protocol; |p| and |n| must be 8-byte aligned (the torn-write
  // model: a cache line drains partially from the WPQ, but 8-byte aligned
  // units are atomic). Works even while frozen is being set up; no-op when
  // the range is not covered.
  static void CommitBytes(const void* p, size_t n);

  // Models a power failure mid-fence: commits a (seed-chosen) subset of the
  // calling thread's staged-but-unfenced lines in full, and one further
  // staged line only partially (an 8-byte-aligned prefix). The WPQ drains in
  // arbitrary order, so any subset is a reachable durable state.
  static void CommitStagedSubset(uint64_t seed);

  // Applies chaos evictions now: each covered line is independently made
  // durable from its live contents with |probability|, decided by
  // hash(seed, region, offset). Used at a simulated crash instant so evicted
  // lines carry the bytes that were actually in the cache at that moment.
  static void EvictLines(uint64_t seed, double probability);

 private:
  static bool EvictDecision(uint64_t seed, size_t region_index, size_t offset,
                            double probability);
};

}  // namespace pactree

#endif  // PACTREE_SRC_NVM_SHADOW_H_
