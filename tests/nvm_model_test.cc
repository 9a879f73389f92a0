// Second-layer NVM model tests: sequential-prefetch accounting, bandwidth
// pacing, and generation alignment (gen_sync).
#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <vector>

#include "src/common/clock.h"
#include "src/nvm/bandwidth.h"
#include "src/nvm/config.h"
#include "src/nvm/persist.h"
#include "src/nvm/pool_file.h"
#include "src/nvm/shadow.h"
#include "src/nvm/stats.h"
#include "src/nvm/topology.h"
#include "src/pmem/heap.h"
#include "src/sync/gen_sync.h"
#include "src/sync/version_lock.h"

namespace pactree {
namespace {

class NvmModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    DropThreadReadCache();
  }
};

// Compares the modeled stall the pool books, not wall-clock spin time, so a
// busy host cannot flip the result.
TEST_F(NvmModelTest, SequentialReadsAreCheaperThanRandom) {
  NvmConfig& cfg = GlobalNvmConfig();
  cfg.emulate_latency = true;
  cfg.read_miss_ns = 2000;
  cfg.seq_read_ns = 100;
  std::string path = NvmConfig::DefaultPoolDir() + "/nvm_model_seq.pool";
  NvmPoolFile f;
  ASSERT_TRUE(f.Create(path, 8 << 20, 0, 5));
  char* base = static_cast<char*>(f.base());

  // Sequential: one 64 KiB pass = 256 XPLines, all but the first sequential.
  DropThreadReadCache();
  NvmStatsSnapshot before = PoolNvmStats(5);
  AnnotateNvmRead(base, 64 << 10);
  const uint64_t seq_ns = (PoolNvmStats(5) - before).read_stall_ns;

  // Random: the same 256 XPLines in a scattered order.
  DropThreadReadCache();
  before = PoolNvmStats(5);
  for (int i = 0; i < 256; ++i) {
    int line = (i * 97) % 256;
    AnnotateNvmRead(base + (1 << 20) + line * 256, 1);
  }
  const uint64_t rnd_ns = (PoolNvmStats(5) - before).read_stall_ns;
  EXPECT_GT(seq_ns, 0u);
  EXPECT_GT(rnd_ns, seq_ns * 3) << "FH3: sequential must be several times faster";
  f.Close();
  NvmPoolFile::Remove(path);
}

TEST_F(NvmModelTest, TokenBucketPacesSustainedTraffic) {
  TokenBucket bucket;
  bucket.Configure(/*bytes_per_sec=*/100 * 1000 * 1000, /*burst=*/64 * 1024);
  // 10 MB at 100 MB/s should take ~100 ms (minus one burst allowance).
  uint64_t t0 = NowNs();
  for (int i = 0; i < 160; ++i) {
    bucket.Consume(64 * 1024);
  }
  double secs = static_cast<double>(NowNs() - t0) / 1e9;
  EXPECT_GT(secs, 0.07);
  EXPECT_LT(secs, 0.3);
}

TEST_F(NvmModelTest, TokenBucketUnconfiguredIsFree) {
  TokenBucket bucket;
  uint64_t t0 = NowNs();
  for (int i = 0; i < 1000; ++i) {
    bucket.Consume(1 << 20);
  }
  EXPECT_LT(NowNs() - t0, 10'000'000u) << "unconfigured bucket must not throttle";
}

TEST_F(NvmModelTest, AdvanceGenerationsVoidsHeldLocks) {
  PmemHeap::Destroy("gen_test");
  PmemHeapOptions opts;
  opts.pool_id_base = 90;
  opts.pool_size = 8 << 20;
  auto heap = PmemHeap::OpenOrCreate("gen_test", opts);
  ASSERT_NE(heap, nullptr);
  AdvanceGenerations({heap.get()});

  auto* lock = static_cast<OptVersionLock*>(heap->Alloc(64).get());
  lock->WriteLock();
  EXPECT_TRUE(lock->IsLocked());
  // A "reopen": every pool generation moves past the global one.
  uint32_t g = AdvanceGenerations({heap.get()});
  EXPECT_GT(g, 0u);
  uint64_t token;
  EXPECT_TRUE(lock->TryReadLock(&token)) << "held lock must be void after open";
  heap.reset();
  PmemHeap::Destroy("gen_test");
}

TEST_F(NvmModelTest, AdvanceGenerationsIsMonotonic) {
  PmemHeap::Destroy("gen_test2");
  PmemHeapOptions opts;
  opts.pool_id_base = 95;
  opts.pool_size = 8 << 20;
  auto heap = PmemHeap::OpenOrCreate("gen_test2", opts);
  uint32_t g1 = AdvanceGenerations({heap.get()});
  uint32_t g2 = AdvanceGenerations({heap.get()});
  EXPECT_GT(g2, g1);
  EXPECT_EQ(GlobalGeneration(), g2);
  EXPECT_EQ(heap->generation(), g2);
  heap.reset();
  PmemHeap::Destroy("gen_test2");
}

TEST_F(NvmModelTest, RemoteAccessCountsAgainstOtherNode) {
  GlobalNvmConfig().numa_nodes = 2;
  std::string path = NvmConfig::DefaultPoolDir() + "/nvm_model_remote.pool";
  NvmPoolFile f;
  ASSERT_TRUE(f.Create(path, 1 << 20, /*node=*/1, 6));
  SetCurrentNumaNode(0);
  DropThreadReadCache();
  NvmStatsSnapshot before = GlobalNvmStats();
  AnnotateNvmRead(f.base(), 1024);
  PersistFence(f.base(), 64);
  NvmStatsSnapshot d = GlobalNvmStats() - before;
  EXPECT_EQ(d.remote_reads, 4u);
  EXPECT_EQ(d.remote_writes, 1u);
  // Same accesses from the owning node are local.
  SetCurrentNumaNode(1);
  DropThreadReadCache();
  before = GlobalNvmStats();
  AnnotateNvmRead(static_cast<char*>(f.base()) + 4096, 1024);
  d = GlobalNvmStats() - before;
  EXPECT_EQ(d.remote_reads, 0u);
  f.Close();
  NvmPoolFile::Remove(path);
}

// Everything a read is charged except the stall it costs.
void ExpectSameTraffic(const NvmStatsSnapshot& a, const NvmStatsSnapshot& b) {
  EXPECT_EQ(a.read_hits, b.read_hits);
  EXPECT_EQ(a.read_misses, b.read_misses);
  EXPECT_EQ(a.read_prefetches, b.read_prefetches);
  EXPECT_EQ(a.media_read_bytes, b.media_read_bytes);
  EXPECT_EQ(a.media_write_bytes, b.media_write_bytes);
  EXPECT_EQ(a.remote_reads, b.remote_reads);
  EXPECT_EQ(a.directory_writes, b.directory_writes);
}

TEST_F(NvmModelTest, ReadPairAccountsLikeTwoReads) {
  NvmConfig& cfg = GlobalNvmConfig();
  cfg.numa_nodes = 2;
  cfg.coherence = CoherenceProtocol::kDirectory;  // remote misses write media
  std::string path = NvmConfig::DefaultPoolDir() + "/nvm_model_pair.pool";
  NvmPoolFile f;
  ASSERT_TRUE(f.Create(path, 1 << 20, /*node=*/1, 7));
  char* base = static_cast<char*>(f.base());
  // |a| straddles two XPLines; |b| is one 8-B word further into the pool.
  const char* a = base + 256 + 240;
  const char* b = base + 8192 + 16;
  for (uint32_t node : {0u, 1u}) {  // remote, then local
    SetCurrentNumaNode(node);
    for (bool warm_a : {false, true}) {
      DropThreadReadCache();
      if (warm_a) {
        AnnotateNvmRead(a, 36);
      }
      NvmStatsSnapshot before = PoolNvmStats(7);
      AnnotateNvmRead(a, 36);
      AnnotateNvmRead(b, 8);
      NvmStatsSnapshot two = PoolNvmStats(7) - before;

      DropThreadReadCache();
      if (warm_a) {
        AnnotateNvmRead(a, 36);
      }
      before = PoolNvmStats(7);
      AnnotateNvmReadPair(a, 36, b, 8);
      NvmStatsSnapshot pair = PoolNvmStats(7) - before;

      SCOPED_TRACE(testing::Message() << "node=" << node << " warm_a=" << warm_a);
      ExpectSameTraffic(pair, two);
      EXPECT_EQ(pair.read_misses, warm_a ? 1u : 3u);
      EXPECT_EQ(pair.read_hits, warm_a ? 2u : 0u);
      EXPECT_EQ(pair.remote_reads, node == 0 ? pair.read_misses : 0u);
      EXPECT_EQ(pair.read_stall_ns, 0u) << "latency emulation is off";
    }
  }
  f.Close();
  NvmPoolFile::Remove(path);
}

TEST_F(NvmModelTest, ReadPairStallsForTheSlowerSide) {
  NvmConfig& cfg = GlobalNvmConfig();
  cfg.emulate_latency = true;
  cfg.read_miss_ns = 400;
  std::string path = NvmConfig::DefaultPoolDir() + "/nvm_model_pair_lat.pool";
  NvmPoolFile f;
  ASSERT_TRUE(f.Create(path, 1 << 20, /*node=*/0, 8));
  char* base = static_cast<char*>(f.base());
  const char* a = base + 4096;
  const char* b = base + 16384;
  const char* wide = base + 65536;
  // Modeled stall of |reads| after demand-reading |warm| into the cache.
  auto stall = [](std::initializer_list<const char*> warm, auto&& reads) {
    DropThreadReadCache();
    for (const char* p : warm) {
      AnnotateNvmRead(p, 8);
    }
    NvmStatsSnapshot before = PoolNvmStats(8);
    reads();
    return (PoolNvmStats(8) - before).read_stall_ns;
  };
  auto pair = [&] { AnnotateNvmReadPair(a, 8, b, 8); };

  // Two misses issued one after another wait for both...
  EXPECT_EQ(stall({}, [&] {
              AnnotateNvmRead(a, 8);
              AnnotateNvmRead(b, 8);
            }),
            800u);
  // ...issued as a pair they overlap: one miss latency, not the sum.
  EXPECT_EQ(stall({}, pair), 400u);
  // A hit on one side overlaps nothing: the other side's full miss remains.
  EXPECT_EQ(stall({a}, pair), 400u);
  EXPECT_EQ(stall({b}, pair), 400u);
  // Both sides hit: no stall at all.
  EXPECT_EQ(stall({a, b}, pair), 0u);
  // The max is taken over each side's own modeled stall: a side spanning two
  // XPLines (one random miss, then one sequential) outweighs a one-miss side.
  EXPECT_EQ(stall({}, [&] { AnnotateNvmReadPair(wide, 512, b, 8); }),
            uint64_t{cfg.read_miss_ns} + cfg.seq_read_ns);
  f.Close();
  NvmPoolFile::Remove(path);
}

TEST_F(NvmModelTest, ChaosCaptureIsDeterministicForSeed) {
  // Eviction decisions must be a pure function of (seed, region, line offset):
  // a crash-point sweep re-runs the same trace with the same seed and relies
  // on observing the same durable image both times (regression test for the
  // draw-count-dependent eviction sampling this replaced).
  std::string path = NvmConfig::DefaultPoolDir() + "/nvm_model_chaos.pool";
  NvmPoolFile f;
  ASSERT_TRUE(f.Create(path, 1 << 20, 0, 7));
  char* base = static_cast<char*>(f.base());
  auto run = [&](uint64_t seed) {
    std::memset(base, 0, 1 << 20);
    ShadowHeap::Enable(base, 1 << 20);
    for (int i = 0; i < 1024; ++i) {
      base[i * 64] = static_cast<char>(i | 1);
      if (i % 3 == 0) {
        PersistRange(base + i * 64, 1);  // fenced below: durable
      }
    }
    Fence();
    for (int i = 0; i < 1024; ++i) {
      base[i * 64 + 1] = 7;  // never flushed: survives only via chaos eviction
    }
    std::vector<uint8_t> img = ShadowHeap::Capture(CrashMode::kChaos, seed, 0.2);
    ShadowHeap::Disable();
    return img;
  };
  std::vector<uint8_t> a = run(42);
  std::vector<uint8_t> b = run(42);
  std::vector<uint8_t> c = run(43);
  EXPECT_EQ(a, b) << "same seed must evict the same lines";
  EXPECT_NE(a, c) << "different seeds must pick different eviction sets";
  f.Close();
  NvmPoolFile::Remove(path);
}

}  // namespace
}  // namespace pactree
