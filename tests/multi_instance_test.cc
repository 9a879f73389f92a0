// Multi-instance isolation: two independent heaps and two PACTree instances
// in one process must not bleed per-thread substrate state into each other --
// NVM media stats and model caches are keyed per (thread, pool), topology
// assignments are per thread, and ShadowHeap staged lines are per thread.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/nvm/config.h"
#include "src/nvm/persist.h"
#include "src/nvm/pool_file.h"
#include "src/nvm/shadow.h"
#include "src/nvm/stats.h"
#include "src/nvm/topology.h"
#include "src/pactree/pactree.h"
#include "src/pmem/heap.h"
#include "src/sync/epoch.h"

namespace pactree {
namespace {

std::string TestPath(const std::string& name) {
  return NvmConfig::DefaultPoolDir() + "/" + name;
}

class MultiInstanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    DropThreadReadCache();
  }
};

// Raw pools: persists into pool A must show up in A's per-pool stats only.
TEST_F(MultiInstanceTest, PerPoolStatsDoNotBleed) {
  NvmPoolFile fa;
  NvmPoolFile fb;
  std::string pa = TestPath("mi_stats_a.pool");
  std::string pb = TestPath("mi_stats_b.pool");
  ASSERT_TRUE(fa.Create(pa, 1 << 20, 0, /*pool_id=*/41));
  ASSERT_TRUE(fb.Create(pb, 1 << 20, 0, /*pool_id=*/42));

  NvmStatsSnapshot a0 = PoolNvmStats(41);
  NvmStatsSnapshot b0 = PoolNvmStats(42);
  std::memset(fa.base(), 0x5a, 4096);
  PersistRange(fa.base(), 4096);
  Fence();
  AnnotateNvmRead(fa.base(), 4096);
  NvmStatsSnapshot da = PoolNvmStats(41) - a0;
  NvmStatsSnapshot db = PoolNvmStats(42) - b0;
  EXPECT_EQ(da.flushes, 4096u / kCacheLineSize);
  EXPECT_GT(da.media_write_bytes, 0u);
  EXPECT_GT(da.read_hits + da.read_misses, 0u);
  EXPECT_EQ(db.flushes, 0u);
  EXPECT_EQ(db.media_write_bytes, 0u);
  EXPECT_EQ(db.read_hits + db.read_misses, 0u);
  // Fences are unattributed: neither pool sees them, the global total does.
  EXPECT_EQ(da.fences, 0u);

  // Traffic to B lands in B only, and A's numbers stay put.
  std::memset(fb.base(), 0xa5, 2048);
  PersistRange(fb.base(), 2048);
  NvmStatsSnapshot da2 = PoolNvmStats(41) - a0;
  NvmStatsSnapshot db2 = PoolNvmStats(42) - b0;
  EXPECT_EQ(db2.flushes, 2048u / kCacheLineSize);
  EXPECT_EQ(da2.flushes, da.flushes);

  fa.Close();
  fb.Close();
  NvmPoolFile::Remove(pa);
  NvmPoolFile::Remove(pb);
}

// The per-thread media model (XPLine read cache) is keyed per pool: warming
// one pool's cache must not manufacture read hits against another pool.
TEST_F(MultiInstanceTest, MediaModelReadCacheIsPerPool) {
  NvmPoolFile fa;
  NvmPoolFile fb;
  std::string pa = TestPath("mi_cache_a.pool");
  std::string pb = TestPath("mi_cache_b.pool");
  ASSERT_TRUE(fa.Create(pa, 1 << 20, 0, /*pool_id=*/43));
  ASSERT_TRUE(fb.Create(pb, 1 << 20, 0, /*pool_id=*/44));
  DropThreadReadCache();

  AnnotateNvmRead(fa.base(), 64);  // miss: cold cache
  AnnotateNvmRead(fa.base(), 64);  // hit: warmed
  NvmStatsSnapshot a = PoolNvmStats(43);
  EXPECT_EQ(a.read_misses, 1u);
  EXPECT_EQ(a.read_hits, 1u);

  // First touch of pool B is a miss in B's own model, and B's accounting
  // starts at zero regardless of the traffic A already saw.
  AnnotateNvmRead(fb.base(), 64);
  NvmStatsSnapshot b = PoolNvmStats(44);
  EXPECT_EQ(b.read_misses, 1u);
  EXPECT_EQ(b.read_hits, 0u);

  fa.Close();
  fb.Close();
  NvmPoolFile::Remove(pa);
  NvmPoolFile::Remove(pb);
}

// Two heaps: the MediaStats() rollup of one heap excludes the other's pools.
TEST_F(MultiInstanceTest, HeapMediaStatsAreDisjoint) {
  PmemHeap::Destroy("mi_heap_a");
  PmemHeap::Destroy("mi_heap_b");
  PmemHeapOptions oa;
  oa.pool_id_base = 45;
  oa.pool_size = 8 << 20;
  PmemHeapOptions ob;
  ob.pool_id_base = 48;
  ob.pool_size = 8 << 20;
  auto ha = PmemHeap::OpenOrCreate("mi_heap_a", oa);
  auto hb = PmemHeap::OpenOrCreate("mi_heap_b", ob);
  ASSERT_NE(ha, nullptr);
  ASSERT_NE(hb, nullptr);

  NvmStatsSnapshot a0 = ha->MediaStats();
  NvmStatsSnapshot b0 = hb->MediaStats();
  PPtr<void> block = ha->Alloc(4096);
  ASSERT_FALSE(block.IsNull());
  std::memset(block.get(), 1, 4096);
  PersistRange(block.get(), 4096);
  Fence();

  NvmStatsSnapshot da = ha->MediaStats() - a0;
  NvmStatsSnapshot db = hb->MediaStats() - b0;
  EXPECT_GE(da.alloc_ops, 1u);
  EXPECT_GE(da.flushes, 4096u / kCacheLineSize);
  EXPECT_EQ(db.alloc_ops, 0u);
  EXPECT_EQ(db.flushes, 0u);
  EXPECT_EQ(db.media_write_bytes, 0u);

  ha.reset();
  hb.reset();
  PmemHeap::Destroy("mi_heap_a");
  PmemHeap::Destroy("mi_heap_b");
}

// Two PACTree instances with concurrent writers: keys stay in their own tree
// and per-thread writer-slot caching keyed per instance keeps both usable from
// the same threads.
TEST_F(MultiInstanceTest, TwoTreesOperateIndependently) {
  PacTree::Destroy("mi_t1");
  PacTree::Destroy("mi_t2");
  PacTreeOptions o1;
  o1.name = "mi_t1";
  o1.pool_id_base = 150;
  o1.pool_size = 128 << 20;
  PacTreeOptions o2;
  o2.name = "mi_t2";
  o2.pool_id_base = 180;
  o2.pool_size = 128 << 20;
  auto t1 = PacTree::Open(o1);
  auto t2 = PacTree::Open(o2);
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(t2, nullptr);

  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 500;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      // Each worker interleaves both trees: tree 1 gets even keys, tree 2 odd.
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t k = static_cast<uint64_t>(w) * kPerThread + i;
        ASSERT_EQ(t1->Insert(Key::FromInt(2 * k), k + 1), Status::kOk);
        ASSERT_EQ(t2->Insert(Key::FromInt(2 * k + 1), k + 1), Status::kOk);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }

  for (uint64_t k = 0; k < kThreads * kPerThread; k += 97) {
    uint64_t v = 0;
    EXPECT_EQ(t1->Lookup(Key::FromInt(2 * k), &v), Status::kOk);
    EXPECT_EQ(v, k + 1);
    EXPECT_EQ(t1->Lookup(Key::FromInt(2 * k + 1), &v), Status::kNotFound);
    EXPECT_EQ(t2->Lookup(Key::FromInt(2 * k + 1), &v), Status::kOk);
    EXPECT_EQ(t2->Lookup(Key::FromInt(2 * k), &v), Status::kNotFound);
  }

  t1.reset();
  t2.reset();
  EpochManager::Instance().DrainAll();
  PacTree::Destroy("mi_t1");
  PacTree::Destroy("mi_t2");
}

// The read-path counters live in per-tree cells indexed by thread: concurrent
// lookups on one tree must add up exactly, and leave an idle tree's counters
// in the same process untouched.
TEST_F(MultiInstanceTest, ReadCountersAreExactPerTree) {
  PacTree::Destroy("mi_ca");
  PacTree::Destroy("mi_cb");
  PacTreeOptions oa;
  oa.name = "mi_ca";
  oa.pool_id_base = 210;
  oa.pool_size = 64 << 20;
  PacTreeOptions ob = oa;
  ob.name = "mi_cb";
  ob.pool_id_base = 240;
  auto a = PacTree::Open(oa);
  auto b = PacTree::Open(ob);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  constexpr uint64_t kKeys = 20000;
  for (uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(a->Insert(Key::FromInt(i), i + 1), Status::kOk);
    ASSERT_EQ(b->Insert(Key::FromInt(i), i + 1), Status::kOk);
  }
  // No writer runs from here on: every lookup takes one epoch, one node lock
  // and lands in one hop bucket, with no retry.
  a->DrainAbsorb();
  a->DrainSmoLogs();
  b->DrainAbsorb();
  b->DrainSmoLogs();

  auto hop_sum = [](const PacTreeStats& s) {
    uint64_t n = 0;
    for (uint64_t h : s.hop_hist) {
      n += h;
    }
    return n;
  };
  const PacTreeStats a0 = a->Stats();
  const PacTreeStats b0 = b->Stats();
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t k = (i * 131 + static_cast<uint64_t>(w) * 7919) % kKeys;
        uint64_t v = 0;
        ASSERT_EQ(a->Lookup(Key::FromInt(k), &v), Status::kOk);
        ASSERT_EQ(v, k + 1);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  const PacTreeStats a1 = a->Stats();
  const PacTreeStats b1 = b->Stats();
  const uint64_t lookups = kThreads * kPerThread;
  EXPECT_EQ(a1.epoch_enters - a0.epoch_enters, lookups);
  EXPECT_EQ(a1.node_locks - a0.node_locks, lookups);
  EXPECT_EQ(hop_sum(a1) - hop_sum(a0), lookups);
  EXPECT_EQ(a1.retries, a0.retries);
  EXPECT_EQ(b1.epoch_enters, b0.epoch_enters);
  EXPECT_EQ(b1.node_locks, b0.node_locks);
  EXPECT_EQ(hop_sum(b1), hop_sum(b0));

  a.reset();
  b.reset();
  EpochManager::Instance().DrainAll();
  PacTree::Destroy("mi_ca");
  PacTree::Destroy("mi_cb");
}

// ShadowHeap staged lines are per thread: lines flushed by a thread that
// exits without fencing die with it (like WPQ contents on a lost CPU) and
// never commit into the crash image, not even when another thread fences.
TEST_F(MultiInstanceTest, StagedLinesArePerThread) {
  NvmPoolFile f;
  std::string path = TestPath("mi_shadow.pool");
  ASSERT_TRUE(f.Create(path, 1 << 20, 0, /*pool_id=*/46));
  ShadowHeap::Enable(f.base(), f.size());

  char* p = static_cast<char*>(f.base());
  std::thread([&] {
    std::memcpy(p, "staged", 7);
    PersistRange(p, 7);  // clwb, no fence: stays staged in this thread
  }).join();
  Fence();  // another thread's fence must not retire the dead thread's lines
  auto img = ShadowHeap::Capture(CrashMode::kStrict);
  EXPECT_NE(std::string(reinterpret_cast<const char*>(img.data())), "staged");

  // A flush+fence by one live thread does commit.
  std::thread([&] {
    std::memcpy(p, "durable", 8);
    PersistFence(p, 8);
  }).join();
  img = ShadowHeap::Capture(CrashMode::kStrict);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(img.data())), "durable");

  ShadowHeap::Disable();
  f.Close();
  NvmPoolFile::Remove(path);
}

}  // namespace
}  // namespace pactree
