#include "src/nvm/shadow.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <mutex>

#include "src/common/compiler.h"
#include "src/runtime/thread_context.h"

namespace pactree {
namespace {

struct StagedLine {
  uintptr_t addr;
  uint8_t bytes[kCacheLineSize];
};

struct ShadowRegion {
  uint8_t* live = nullptr;
  size_t size = 0;
  std::vector<uint8_t> image;
};

struct ShadowState {
  // Few regions (one per pool); scanned linearly.
  std::vector<ShadowRegion> regions;
  std::mutex image_mu;

  ShadowRegion* Find(uintptr_t addr, size_t* index = nullptr) {
    for (size_t i = 0; i < regions.size(); ++i) {
      ShadowRegion& r = regions[i];
      uintptr_t base = reinterpret_cast<uintptr_t>(r.live);
      if (addr >= base && addr < base + r.size) {
        if (index != nullptr) {
          *index = i;
        }
        return &r;
      }
    }
    return nullptr;
  }
};

ShadowState* g_state = nullptr;
std::atomic<bool> g_active{false};
std::atomic<bool> g_frozen{false};
// Enable/Disable cycle counter. Staged lines are tagged with the epoch they
// were staged in; a fence drops lines from other epochs. Without this, a
// thread that flushed without fencing before Disable would commit those stale
// bytes into the *next* cycle's image (nondeterministic, depends on thread
// timing).
std::atomic<uint64_t> g_epoch{0};

// Lines staged by clwb but not yet fenced by this thread, plus the shadow
// cycle they belong to. Held in the thread's ThreadContext; unfenced lines die
// with their thread, matching real WPQ contents lost when a CPU is lost.
struct ShadowThreadState {
  std::vector<StagedLine> staged;
  uint64_t epoch = 0;
};

ThreadSlot<ShadowThreadState>& ShadowSlot() {
  static ThreadSlot<ShadowThreadState>* slot = new ThreadSlot<ShadowThreadState>();
  return *slot;
}

ShadowThreadState& Staged() { return ShadowSlot().Get(); }

// SplitMix64: decision hash for chaos evictions and torn-write subsets.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline double HashToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / (1ULL << 53));
}

// Commits one staged line into its region's image. Caller holds image_mu.
void CommitStagedLocked(ShadowState* s, const StagedLine& staged, size_t nbytes) {
  ShadowRegion* r = s->Find(staged.addr);
  if (r != nullptr) {
    std::memcpy(r->image.data() + (staged.addr - reinterpret_cast<uintptr_t>(r->live)),
                staged.bytes, nbytes);
  }
}

// Image buffers of finished Enable/Disable cycles. A crash sweep runs
// thousands of cycles over the same pool sizes; reusing a buffer keeps its
// pages mapped, where a fresh one page-faults every page of the image again
// (those faults dominated a sweep's run time). Enable/Disable run on one
// thread, like g_state itself.
constexpr size_t kMaxSpareImages = 8;

std::vector<std::vector<uint8_t>>& SpareImages() {
  static auto* spares = new std::vector<std::vector<uint8_t>>();
  return *spares;
}

// Reads the first |size| bytes of |path| into |image|. Holes read as zeros
// without the memory a read through the mapping would allocate for them.
// False (and |image| unspecified) when the file cannot be read in full.
bool ReadFileInto(const std::string& path, size_t size, std::vector<uint8_t>* image) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  image->resize(size);
  size_t off = 0;
  while (off < size) {
    ssize_t n = ::pread(fd, image->data() + off, size - off, static_cast<off_t>(off));
    if (n <= 0) {
      break;
    }
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  return off == size;
}

}  // namespace

void ShadowHeap::Enable(void* base, size_t size, const std::string& backing_file) {
  if (g_state == nullptr) {
    g_state = new ShadowState();
    g_epoch.fetch_add(1, std::memory_order_acq_rel);
  }
  ShadowRegion r;
  r.live = static_cast<uint8_t*>(base);
  r.size = size;
  std::vector<std::vector<uint8_t>>& spares = SpareImages();
  if (!spares.empty()) {
    r.image = std::move(spares.back());
    spares.pop_back();
  }
  if (backing_file.empty() || !ReadFileInto(backing_file, size, &r.image)) {
    r.image.assign(r.live, r.live + size);  // reuses the spare's pages
  }
  g_state->regions.push_back(std::move(r));
  g_frozen.store(false, std::memory_order_release);
  g_active.store(true, std::memory_order_release);
}

void ShadowHeap::Disable() {
  if (g_state != nullptr) {
    g_active.store(false, std::memory_order_release);
    g_frozen.store(false, std::memory_order_release);
    g_epoch.fetch_add(1, std::memory_order_acq_rel);
    std::vector<std::vector<uint8_t>>& spares = SpareImages();
    for (ShadowRegion& r : g_state->regions) {
      spares.push_back(std::move(r.image));
    }
    if (spares.size() > kMaxSpareImages) {
      spares.erase(spares.begin(), spares.end() - kMaxSpareImages);
    }
    delete g_state;
    g_state = nullptr;
  }
  Staged().staged.clear();
}

bool ShadowHeap::IsActive() { return g_active.load(std::memory_order_acquire); }

void ShadowHeap::Freeze() { g_frozen.store(true, std::memory_order_release); }

bool ShadowHeap::IsFrozen() { return g_frozen.load(std::memory_order_acquire); }

bool ShadowHeap::Covers(const void* p) {
  ShadowState* s = g_state;
  return s != nullptr && s->Find(reinterpret_cast<uintptr_t>(p)) != nullptr;
}

size_t ShadowHeap::CoveredLines(const void* p, size_t n) {
  ShadowState* s = g_state;
  if (s == nullptr || n == 0) {
    return 0;
  }
  size_t covered = 0;
  uintptr_t start = CacheLineOf(p);
  uintptr_t end = reinterpret_cast<uintptr_t>(p) + n;
  for (uintptr_t line = start; line < end; line += kCacheLineSize) {
    if (s->Find(line) != nullptr) {
      covered++;
    }
  }
  return covered;
}

void ShadowHeap::OnPersist(const void* p, size_t n) {
  ShadowState* s = g_state;
  if (s == nullptr || IsFrozen()) {
    return;
  }
  ShadowThreadState& t = Staged();
  if (t.epoch != g_epoch.load(std::memory_order_acquire)) {
    t.staged.clear();
    t.epoch = g_epoch.load(std::memory_order_acquire);
  }
  uintptr_t start = CacheLineOf(p);
  uintptr_t end = reinterpret_cast<uintptr_t>(p) + n;
  for (uintptr_t line = start; line < end; line += kCacheLineSize) {
    if (s->Find(line) == nullptr) {
      continue;
    }
    // Stage the *current* contents: that is what clwb writes back. Later
    // stores to the same line are not durable unless flushed again.
    StagedLine staged;
    staged.addr = line;
    std::memcpy(staged.bytes, reinterpret_cast<const void*>(line), kCacheLineSize);
    t.staged.push_back(staged);
  }
}

void ShadowHeap::OnFence() {
  ShadowState* s = g_state;
  ShadowThreadState& t = Staged();
  if (s == nullptr || t.staged.empty()) {
    t.staged.clear();
    return;
  }
  if (IsFrozen() || t.epoch != g_epoch.load(std::memory_order_acquire)) {
    // Frozen: the machine already died; stale epoch: these lines were staged
    // against a previous shadow cycle and must not leak into this image.
    t.staged.clear();
    return;
  }
  std::lock_guard<std::mutex> lock(s->image_mu);
  for (const StagedLine& staged : t.staged) {
    CommitStagedLocked(s, staged, kCacheLineSize);
  }
  t.staged.clear();
}

void ShadowHeap::CommitBytes(const void* p, size_t n) {
  ShadowState* s = g_state;
  if (s == nullptr || n == 0) {
    return;
  }
  uintptr_t addr = reinterpret_cast<uintptr_t>(p);
  std::lock_guard<std::mutex> lock(s->image_mu);
  ShadowRegion* r = s->Find(addr);
  if (r == nullptr) {
    return;
  }
  size_t off = addr - reinterpret_cast<uintptr_t>(r->live);
  size_t len = n;
  if (off + len > r->size) {
    len = r->size - off;
  }
  std::memcpy(r->image.data() + off, r->live + off, len);
}

void ShadowHeap::CommitStagedSubset(uint64_t seed) {
  ShadowState* s = g_state;
  ShadowThreadState& t = Staged();
  if (s == nullptr || t.staged.empty() ||
      t.epoch != g_epoch.load(std::memory_order_acquire)) {
    return;
  }
  std::lock_guard<std::mutex> lock(s->image_mu);
  // Each staged line independently drained (or not) from the WPQ; one of the
  // undrained lines is caught mid-write and commits only an 8-byte-aligned
  // prefix of its bytes.
  int torn_candidate = -1;
  for (size_t i = 0; i < t.staged.size(); ++i) {
    if (HashToUnit(Mix64(seed ^ (0x5157ULL + i))) < 0.5) {
      CommitStagedLocked(s, t.staged[i], kCacheLineSize);
    } else if (torn_candidate < 0) {
      torn_candidate = static_cast<int>(i);
    }
  }
  if (torn_candidate >= 0) {
    // 1..7 words: a genuine tear (0 = not drained, 8 = fully drained are the
    // cases covered above).
    size_t words = 1 + Mix64(seed ^ 0x70524eULL) % 7;
    CommitStagedLocked(s, t.staged[static_cast<size_t>(torn_candidate)], words * 8);
  }
  t.staged.clear();
}

bool ShadowHeap::EvictDecision(uint64_t seed, size_t region_index, size_t offset,
                               double probability) {
  uint64_t h = Mix64(seed ^ Mix64((static_cast<uint64_t>(region_index) << 48) ^
                                  static_cast<uint64_t>(offset)));
  return HashToUnit(h) < probability;
}

void ShadowHeap::EvictLines(uint64_t seed, double probability) {
  ShadowState* s = g_state;
  if (s == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(s->image_mu);
  for (size_t ri = 0; ri < s->regions.size(); ++ri) {
    ShadowRegion& r = s->regions[ri];
    for (size_t off = 0; off < r.size; off += kCacheLineSize) {
      if (EvictDecision(seed, ri, off, probability)) {
        size_t len = r.size - off < kCacheLineSize ? r.size - off : kCacheLineSize;
        std::memcpy(r.image.data() + off, r.live + off, len);
      }
    }
  }
}

std::vector<uint8_t> ShadowHeap::Capture(CrashMode mode, uint64_t seed,
                                         double evict_probability) {
  return CaptureRegion(nullptr, mode, seed, evict_probability);
}

std::vector<uint8_t> ShadowHeap::CaptureRegion(void* base, CrashMode mode, uint64_t seed,
                                               double evict_probability) {
  std::vector<uint8_t> out;
  CaptureRegionInto(base, mode, &out, seed, evict_probability);
  return out;
}

bool ShadowHeap::CaptureRegionInto(void* base, CrashMode mode, std::vector<uint8_t>* image,
                                   uint64_t seed, double evict_probability) {
  image->clear();
  ShadowState* s = g_state;
  if (s == nullptr || s->regions.empty()) {
    return false;
  }
  size_t region_index = 0;
  ShadowRegion* r =
      base == nullptr ? &s->regions[0]
                      : s->Find(reinterpret_cast<uintptr_t>(base), &region_index);
  if (r == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(s->image_mu);
  std::vector<uint8_t>& out = *image;
  out.assign(r->image.begin(), r->image.end());  // reuses |image|'s capacity
  if (mode == CrashMode::kChaos) {
    // Random cache evictions made some unflushed lines durable. The per-line
    // decision is a pure hash of (seed, region, offset) so the same seed
    // always evicts the same lines regardless of capture order or run.
    for (size_t off = 0; off < r->size; off += kCacheLineSize) {
      if (EvictDecision(seed, region_index, off, evict_probability)) {
        size_t len = r->size - off < kCacheLineSize ? r->size - off : kCacheLineSize;
        std::memcpy(out.data() + off, r->live + off, len);
      }
    }
  }
  return true;
}

}  // namespace pactree
