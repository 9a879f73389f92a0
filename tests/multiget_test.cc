// Batched read pipeline tests (src/pactree/multiget.cc + the RangeIndex
// default): property check against a std::map oracle with absorb on and off,
// duplicate / out-of-order keys, answers served from absorb staging without a
// drain, MultiScan vs per-call Scan, pipeline stat counters, a
// crash-sweep-style window proving the batched read path emits zero
// persistence events, and concurrent writers + forced drains (tsan label).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <functional>
#include <map>
#include <span>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/index/range_index.h"
#include "src/nvm/config.h"
#include "src/nvm/persist.h"
#include "src/nvm/stats.h"
#include "src/nvm/topology.h"
#include "src/pactree/pactree.h"
#include "src/sync/epoch.h"

namespace pactree {
namespace {

// Heap allocations made by the calling thread while armed (see the global
// operator new below).
thread_local bool count_allocs = false;
thread_local uint64_t allocs = 0;

}  // namespace
}  // namespace pactree

void* operator new(std::size_t n) {
  if (pactree::count_allocs) {
    ++pactree::allocs;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
// GCC reads free() inside a replacement operator delete as a new/free
// mismatch; here it is the matching release of the malloc above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace pactree {
namespace {

class MultiGetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    PacTree::Destroy("mget_test");
    opts_.name = "mget_test";
    opts_.pool_id_base = 880;
    opts_.pool_size = 256 << 20;
  }

  void TearDown() override {
    tree_.reset();
    EpochManager::Instance().DrainAll();
    PacTree::Destroy("mget_test");
  }

  void Open() {
    tree_ = PacTree::Open(opts_);
    ASSERT_NE(tree_, nullptr);
  }

  PacTreeOptions opts_;
  std::unique_ptr<PacTree> tree_;
};

// Random upserts/removes mirrored into a std::map, with periodic forced
// drains, then random batches (duplicates, out-of-order, absent keys) checked
// against both the oracle and per-key Lookup.
void RunOracleProperty(PacTree* tree, bool absorb, uint64_t seed) {
  Rng rng(seed);
  std::map<uint64_t, uint64_t> oracle;
  const uint64_t domain = 8000;
  for (uint64_t op = 0; op < 4000; ++op) {
    uint64_t k = rng.Uniform(domain);
    if (rng.Uniform(4) == 0) {
      tree->Remove(Key::FromInt(k));
      oracle.erase(k);
    } else {
      uint64_t v = op + 1;
      tree->Insert(Key::FromInt(k), v);
      oracle[k] = v;
    }
    if (absorb && op % 700 == 699) {
      tree->DrainAbsorb();
      tree->DrainSmoLogs();
    }
  }
  for (int batch = 0; batch < 200; ++batch) {
    size_t n = 1 + rng.Uniform(33);
    std::vector<Key> keys(n);
    std::vector<uint64_t> picks(n);
    for (size_t i = 0; i < n; ++i) {
      // ~1/8 duplicates of the previous key; picks range over 2x the domain
      // so roughly half the batch misses.
      picks[i] = (i > 0 && rng.Uniform(8) == 0) ? picks[i - 1]
                                                : rng.Uniform(2 * domain);
      keys[i] = Key::FromInt(picks[i]);
    }
    std::vector<uint64_t> values(n, 0);
    std::vector<Status> st(n, Status::kOk);
    size_t found =
        tree->MultiGet(std::span<const Key>(keys), values.data(), st.data());
    size_t expect_found = 0;
    for (size_t i = 0; i < n; ++i) {
      auto it = oracle.find(picks[i]);
      uint64_t lv = 0;
      Status ls = tree->Lookup(keys[i], &lv);
      ASSERT_EQ(st[i], ls) << "key " << picks[i];
      if (it == oracle.end()) {
        ASSERT_EQ(st[i], Status::kNotFound) << "key " << picks[i];
      } else {
        ++expect_found;
        ASSERT_EQ(st[i], Status::kOk) << "key " << picks[i];
        ASSERT_EQ(values[i], it->second) << "key " << picks[i];
        ASSERT_EQ(lv, it->second) << "key " << picks[i];
      }
    }
    ASSERT_EQ(found, expect_found);
  }
}

TEST_F(MultiGetTest, OraclePropertyAbsorbOff) {
  Open();
  RunOracleProperty(tree_.get(), false, 0xabcdef);
}

TEST_F(MultiGetTest, OraclePropertyAbsorbOn) {
  opts_.absorb_writes = true;
  opts_.absorb_shards = 2;
  Open();
  RunOracleProperty(tree_.get(), true, 0xfedcba);
}

TEST_F(MultiGetTest, DuplicatesUnsortedAndNullStatuses) {
  Open();
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i + 1), Status::kOk);
  }
  // Reverse order, duplicates, and one miss; statuses omitted.
  std::vector<Key> keys = {Key::FromInt(70), Key::FromInt(3), Key::FromInt(70),
                           Key::FromInt(500), Key::FromInt(3)};
  std::vector<uint64_t> values(keys.size(), 0);
  EXPECT_EQ(tree_->MultiGet(std::span<const Key>(keys), values.data(), nullptr),
            4u);
  EXPECT_EQ(values[0], 71u);
  EXPECT_EQ(values[1], 4u);
  EXPECT_EQ(values[2], 71u);
  EXPECT_EQ(values[4], 4u);
  // With statuses: the miss is reported in place, values[3] untouched.
  std::vector<Status> st(keys.size(), Status::kOk);
  values.assign(keys.size(), 0);
  EXPECT_EQ(tree_->MultiGet(std::span<const Key>(keys), values.data(), st.data()),
            4u);
  EXPECT_EQ(st[3], Status::kNotFound);
  EXPECT_EQ(values[3], 0u);
}

TEST_F(MultiGetTest, ServedFromAbsorbStagingWithoutDrain) {
  opts_.absorb_writes = true;
  opts_.absorb_shards = 2;
  opts_.async_search_update = false;
  Open();
  ASSERT_EQ(tree_->Insert(Key::FromInt(1), 10), Status::kOk);
  ASSERT_EQ(tree_->Insert(Key::FromInt(2), 20), Status::kOk);
  tree_->DrainAbsorb();
  ASSERT_EQ(tree_->Remove(Key::FromInt(2)), Status::kOk);  // staged tombstone
  ASSERT_EQ(tree_->Insert(Key::FromInt(3), 30), Status::kOk);  // staged value
  std::vector<Key> keys = {Key::FromInt(1), Key::FromInt(2), Key::FromInt(3)};
  std::vector<uint64_t> values(3, 0);
  std::vector<Status> st(3, Status::kOk);
  EXPECT_EQ(tree_->MultiGet(std::span<const Key>(keys), values.data(), st.data()),
            2u);
  EXPECT_EQ(st[0], Status::kOk);
  EXPECT_EQ(values[0], 10u);
  EXPECT_EQ(st[1], Status::kNotFound);  // tombstone shadows the drained value
  EXPECT_EQ(st[2], Status::kOk);
  EXPECT_EQ(values[2], 30u);
  // Same answers once everything has drained into the data layer.
  tree_->DrainAbsorb();
  tree_->DrainSmoLogs();
  values.assign(3, 0);
  EXPECT_EQ(tree_->MultiGet(std::span<const Key>(keys), values.data(), st.data()),
            2u);
  EXPECT_EQ(values[0], 10u);
  EXPECT_EQ(st[1], Status::kNotFound);
  EXPECT_EQ(values[2], 30u);
}

TEST_F(MultiGetTest, MultiScanMatchesScan) {
  Open();
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i * 2), i), Status::kOk);
  }
  tree_->DrainSmoLogs();
  // Out-of-order starts, varying counts, one past-the-end start.
  std::vector<Key> starts = {Key::FromInt(1999), Key::FromInt(0),
                             Key::FromInt(777), Key::FromInt(999999)};
  std::vector<size_t> counts = {50, 10, 128, 5};
  std::vector<std::vector<std::pair<Key, uint64_t>>> batched;
  tree_->MultiScan(std::span<const Key>(starts),
                   std::span<const size_t>(counts), &batched);
  ASSERT_EQ(batched.size(), starts.size());
  for (size_t i = 0; i < starts.size(); ++i) {
    std::vector<std::pair<Key, uint64_t>> single;
    tree_->Scan(starts[i], counts[i], &single);
    ASSERT_EQ(batched[i].size(), single.size()) << "start " << i;
    for (size_t j = 0; j < single.size(); ++j) {
      EXPECT_EQ(batched[i][j].first, single[j].first);
      EXPECT_EQ(batched[i][j].second, single[j].second);
    }
  }
}

TEST_F(MultiGetTest, PipelineStatCounters) {
  Open();
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i + 1), Status::kOk);
  }
  tree_->DrainSmoLogs();
  PacTreeStats s0 = tree_->Stats();
  // A node-clustered batch: 32 consecutive dense keys span only a few
  // 64-slot data nodes, so node-grouping must produce far fewer groups
  // (and read locks) than keys.
  std::vector<Key> keys;
  for (uint64_t i = 0; i < 32; ++i) {
    keys.push_back(Key::FromInt(1000 + i));
  }
  std::vector<uint64_t> values(keys.size(), 0);
  EXPECT_EQ(tree_->MultiGet(std::span<const Key>(keys), values.data(), nullptr),
            keys.size());
  PacTreeStats s1 = tree_->Stats();
  EXPECT_EQ(s1.multiget_batches - s0.multiget_batches, 1u);
  EXPECT_EQ(s1.multiget_keys - s0.multiget_keys, keys.size());
  uint64_t groups = s1.multiget_node_groups - s0.multiget_node_groups;
  EXPECT_GE(groups, 1u);
  EXPECT_LE(groups, 4u);  // 32 consecutive keys over 64-slot nodes
  EXPECT_EQ(s1.epoch_enters - s0.epoch_enters, 1u);  // one guard per batch
  EXPECT_LT(s1.node_locks - s0.node_locks, keys.size());
  // Each group's jump walk lands in exactly one hop bucket.
  uint64_t hops = 0;
  for (int b = 0; b < kHopHistBuckets; ++b) {
    hops += s1.hop_hist[b] - s0.hop_hist[b];
  }
  EXPECT_EQ(hops, groups);
}

// Crash-sweep-style check: a quiesced tree is read through MultiGet/MultiScan
// and the media model must record ZERO persistence events (no XPLine
// write-backs, no flushes, no fences) -- so no crash point inside the batched
// read path can ever torn-write or lose state.
TEST_F(MultiGetTest, ReadPathNeverPersists) {
  opts_.absorb_writes = true;
  opts_.absorb_shards = 2;
  opts_.async_search_update = false;
  Open();
  for (uint64_t i = 0; i < 3000; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i + 1), Status::kOk);
  }
  tree_->DrainAbsorb();
  tree_->DrainSmoLogs();
  NvmStatsSnapshot w0 = GlobalNvmStats();
  Rng rng(99);
  std::vector<Key> keys(16);
  std::vector<uint64_t> values(16, 0);
  for (int batch = 0; batch < 200; ++batch) {
    for (auto& k : keys) {
      k = Key::FromInt(rng.Uniform(4000));
    }
    tree_->MultiGet(std::span<const Key>(keys), values.data(), nullptr);
  }
  std::vector<Key> starts = {Key::FromInt(0), Key::FromInt(1500)};
  std::vector<size_t> counts = {200, 200};
  std::vector<std::vector<std::pair<Key, uint64_t>>> out;
  tree_->MultiScan(std::span<const Key>(starts), std::span<const size_t>(counts),
                   &out);
  NvmStatsSnapshot d = GlobalNvmStats() - w0;
  EXPECT_EQ(d.media_write_bytes, 0u);
  EXPECT_EQ(d.flushes, 0u);
  EXPECT_EQ(d.fences, 0u);
  EXPECT_GT(d.media_read_bytes, 0u);
}

// Per-op read costs of a batch of one on a quiesced tree (sync mode, so no
// background thread touches the data heap), absorb off and on, both node
// formats. The modeled read cache is dropped before each op, so every
// prefetch that reaches the media is counted.
struct OpCost {
  uint64_t epoch_enters, node_locks, direct_hops, visited, data_prefetches;
};

OpCost CostOf(PacTree* tree, const std::function<void()>& op) {
  DropThreadReadCache();
  const PacTreeStats s0 = tree->Stats();
  const NvmStatsSnapshot m0 = tree->data_heap()->MediaStats();
  op();
  const PacTreeStats s1 = tree->Stats();
  const NvmStatsSnapshot m1 = tree->data_heap()->MediaStats();
  return {s1.epoch_enters - s0.epoch_enters, s1.node_locks - s0.node_locks,
          s1.hop_hist[0] - s0.hop_hist[0],
          (s1.perm_hits + s1.perm_builds) - (s0.perm_hits + s0.perm_builds),
          m1.read_prefetches - m0.read_prefetches};
}

TEST_F(MultiGetTest, BatchOfOneReadCostsArePinned) {
  for (bool absorb : {false, true}) {
    for (NodeFormat format : {NodeFormat::kClassic, NodeFormat::kCompact}) {
      SCOPED_TRACE(std::string(absorb ? "absorb " : "") +
                   (format == NodeFormat::kCompact ? "compact" : "classic"));
      TearDown();
      opts_.absorb_writes = absorb;
      opts_.absorb_shards = 2;
      opts_.async_search_update = false;
      opts_.node_format = format;
      Open();
      constexpr uint64_t kKeys = 5000;
      for (uint64_t i = 0; i < kKeys; ++i) {
        ASSERT_EQ(tree_->Insert(Key::FromInt(i), i + 1), Status::kOk);
      }
      tree_->DrainAbsorb();
      tree_->DrainSmoLogs();
      // Compact nodes prefetch their descriptor line on arrival; classic
      // nodes issue no prefetch on a point read.
      const uint64_t own_prefetches = format == NodeFormat::kCompact ? 1 : 0;
      for (uint64_t k = 7; k < kKeys; k += 331) {
        uint64_t v = 0;
        OpCost c = CostOf(tree_.get(), [&] {
          ASSERT_EQ(tree_->Lookup(Key::FromInt(k), &v), Status::kOk);
        });
        EXPECT_EQ(v, k + 1);
        EXPECT_EQ(c.epoch_enters, 1u) << k;
        EXPECT_EQ(c.node_locks, 1u) << k;
        EXPECT_EQ(c.direct_hops, 1u) << k;
        EXPECT_EQ(c.data_prefetches, own_prefetches) << k;
      }
      for (uint64_t k = 11; k < kKeys - 200; k += 577) {
        std::vector<std::pair<Key, uint64_t>> out;
        OpCost c = CostOf(tree_.get(),
                          [&] { tree_->Scan(Key::FromInt(k), 150, &out); });
        ASSERT_EQ(out.size(), 150u);
        EXPECT_EQ(out.front().second, k + 1);
        EXPECT_EQ(out.back().second, k + 150);
        EXPECT_GE(c.visited, 3u) << k;
        EXPECT_EQ(c.epoch_enters, 1u) << k;
        EXPECT_EQ(c.node_locks, c.visited) << k;
      }
    }
  }
}

// Lookup and Scan are batches of one, and the pipeline's per-key scratch is
// inline: neither allocates (a Scan only grows its caller's vector), and
// neither does a MultiGet of up to 16 keys.
TEST_F(MultiGetTest, BatchOfOneAllocatesNothing) {
  for (bool absorb : {false, true}) {
    SCOPED_TRACE(absorb ? "absorb" : "no absorb");
    TearDown();
    opts_.absorb_writes = absorb;
    opts_.absorb_shards = 2;
    opts_.async_search_update = false;
    Open();
    for (uint64_t i = 0; i < 3000; ++i) {
      ASSERT_EQ(tree_->Insert(Key::FromInt(2 * i), i + 1), Status::kOk);
    }
    tree_->DrainAbsorb();
    tree_->DrainSmoLogs();
    std::vector<std::pair<Key, uint64_t>> out;
    out.reserve(200);
    std::vector<Key> keys;
    for (uint64_t i = 0; i < 16; ++i) {
      keys.push_back(Key::FromInt(i * 301));
    }
    std::vector<uint64_t> values(keys.size());
    std::vector<Status> st(keys.size());
    uint64_t v = 0;
    tree_->Lookup(Key::FromInt(0), &v);  // first use sets up per-thread state
    tree_->Scan(Key::FromInt(0), 100, &out);
    allocs = 0;
    count_allocs = true;
    for (uint64_t k = 0; k < 6000; k += 97) {
      tree_->Lookup(Key::FromInt(k), &v);
      if (!absorb) {
        tree_->Scan(Key::FromInt(k), 100, &out);  // absorb: the staged merge allocates
      }
    }
    tree_->MultiGet(std::span<const Key>(keys), values.data(), st.data());
    count_allocs = false;
    EXPECT_EQ(allocs, 0u);
  }
}

// The sibling walk prefetches the next node only when it will read it: a
// MultiScan whose ranges all end inside one node touches no other data node,
// and a zero-count range walks nothing at all.
TEST_F(MultiGetTest, MultiScanPrefetchesOnlyNodesItReads) {
  for (NodeFormat format : {NodeFormat::kClassic, NodeFormat::kCompact}) {
    SCOPED_TRACE(format == NodeFormat::kCompact ? "compact" : "classic");
    TearDown();
    opts_.async_search_update = false;
    opts_.node_format = format;
    Open();
    for (uint64_t i = 0; i < 3000; ++i) {
      ASSERT_EQ(tree_->Insert(Key::FromInt(i), i + 1), Status::kOk);
    }
    tree_->DrainSmoLogs();
    const uint64_t own_prefetches = format == NodeFormat::kCompact ? 1 : 0;
    std::vector<Key> starts = {Key::FromInt(1003), Key::FromInt(1000)};
    std::vector<size_t> counts = {2, 3};
    std::vector<std::vector<std::pair<Key, uint64_t>>> out;
    OpCost c = CostOf(tree_.get(), [&] {
      tree_->MultiScan(std::span<const Key>(starts),
                       std::span<const size_t>(counts), &out);
    });
    ASSERT_EQ(c.visited, 1u) << "pick ranges inside one node";
    ASSERT_EQ(out[0].size(), 2u);
    ASSERT_EQ(out[1].size(), 3u);
    EXPECT_EQ(out[0][0].second, 1004u);
    EXPECT_EQ(out[1][2].second, 1003u);
    EXPECT_EQ(c.node_locks, 1u);
    EXPECT_EQ(c.data_prefetches, own_prefetches);

    std::vector<size_t> none = {0, 0};
    c = CostOf(tree_.get(), [&] {
      tree_->MultiScan(std::span<const Key>(starts), std::span<const size_t>(none),
                       &out);
    });
    EXPECT_TRUE(out[0].empty() && out[1].empty());
    EXPECT_EQ(c.epoch_enters, 0u);
    EXPECT_EQ(c.node_locks, 0u);
    EXPECT_EQ(c.data_prefetches, 0u);
  }
}

// Concurrent writers upsert a volatile key range and force absorb/SMO drains
// while readers stream MultiGet batches mixing stable and volatile keys:
// stable keys must always resolve exactly as per-key Lookup would, under
// splits, drains, and group retries (tsan label exercises the data races).
TEST_F(MultiGetTest, ConcurrentWritersAndForcedDrains) {
  opts_.absorb_writes = true;
  opts_.absorb_shards = 2;
  Open();
  const uint64_t stable = 4000, volat = 2000;
  for (uint64_t i = 0; i < stable; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i + 1), Status::kOk);
  }
  tree_->DrainAbsorb();
  tree_->DrainSmoLogs();
  // Readers start only once both writers run, and each writer completes at
  // least one insert, so the batches really race the writes.
  std::atomic<bool> stop{false};
  std::atomic<int> writers_started{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      SetCurrentNumaNode(0);
      Rng rng(17 * w + 5);
      uint64_t round = 0;
      writers_started.fetch_add(1, std::memory_order_release);
      do {
        uint64_t k = stable + rng.Uniform(volat);
        tree_->Insert(Key::FromInt(k), ++round);
        if (round % 256 == 0) {
          tree_->DrainAbsorb();
          tree_->DrainSmoLogs();
        }
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  while (writers_started.load(std::memory_order_acquire) < 2) {
    std::this_thread::yield();
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      SetCurrentNumaNode(0);
      Rng rng(31 * r + 7);
      std::vector<Key> keys(24);
      std::vector<uint64_t> picks(24);
      std::vector<uint64_t> values(24, 0);
      std::vector<Status> st(24, Status::kOk);
      for (int batch = 0; batch < 400; ++batch) {
        for (size_t i = 0; i < keys.size(); ++i) {
          // 2/3 stable keys (exact value known), 1/3 volatile.
          picks[i] = rng.Uniform(3) < 2 ? rng.Uniform(stable)
                                        : stable + rng.Uniform(volat);
          keys[i] = Key::FromInt(picks[i]);
        }
        tree_->MultiGet(std::span<const Key>(keys), values.data(), st.data());
        for (size_t i = 0; i < keys.size(); ++i) {
          if (picks[i] < stable) {
            if (st[i] != Status::kOk || values[i] != picks[i] + 1) {
              failures.fetch_add(1);
            }
          } else if (st[i] == Status::kOk && values[i] == 0) {
            failures.fetch_add(1);  // found a volatile key with a torn value
          }
        }
      }
    });
  }
  for (size_t i = 2; i < threads.size(); ++i) {
    threads[i].join();  // readers finish first
  }
  stop.store(true, std::memory_order_release);
  threads[0].join();
  threads[1].join();
  EXPECT_EQ(failures.load(), 0u);
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

// The RangeIndex default MultiGet/MultiScan (loop over Lookup/Scan) keeps
// every baseline index working through the batch harness.
class MapIndex : public RangeIndex {
 public:
  Status Insert(const Key& key, uint64_t value) override {
    map_[key] = value;
    return Status::kOk;
  }
  Status Lookup(const Key& key, uint64_t* value) const override {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return Status::kNotFound;
    }
    *value = it->second;
    return Status::kOk;
  }
  Status Remove(const Key& key) override {
    return map_.erase(key) ? Status::kOk : Status::kNotFound;
  }
  size_t Scan(const Key& start, size_t count,
              std::vector<std::pair<Key, uint64_t>>* out) const override {
    out->clear();
    for (auto it = map_.lower_bound(start); it != map_.end() && out->size() < count;
         ++it) {
      out->push_back(*it);
    }
    return out->size();
  }
  uint64_t Size() const override { return map_.size(); }
  std::string Name() const override { return "map"; }

 private:
  std::map<Key, uint64_t> map_;
};

TEST(RangeIndexDefaultTest, MultiGetLoopsOverLookup) {
  MapIndex idx;
  for (uint64_t i = 0; i < 64; ++i) {
    idx.Insert(Key::FromInt(i * 3), i);
  }
  std::vector<Key> keys = {Key::FromInt(9), Key::FromInt(10), Key::FromInt(0),
                           Key::FromInt(9)};
  std::vector<uint64_t> values(keys.size(), 0);
  std::vector<Status> st(keys.size(), Status::kOk);
  EXPECT_EQ(idx.MultiGet(std::span<const Key>(keys), values.data(), st.data()),
            3u);
  EXPECT_EQ(values[0], 3u);
  EXPECT_EQ(st[1], Status::kNotFound);
  EXPECT_EQ(values[2], 0u);
  EXPECT_EQ(st[2], Status::kOk);
  EXPECT_EQ(values[3], 3u);
  std::vector<Key> starts = {Key::FromInt(100), Key::FromInt(0)};
  std::vector<size_t> counts = {4, 2};
  std::vector<std::vector<std::pair<Key, uint64_t>>> out;
  idx.MultiScan(std::span<const Key>(starts), std::span<const size_t>(counts),
                &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].size(), 4u);
  EXPECT_EQ(out[1].size(), 2u);
  EXPECT_EQ(out[0][0].second, 34u);  // first key >= 100 is 102 = 34*3
  EXPECT_EQ(out[1][0].second, 0u);
}

}  // namespace
}  // namespace pactree
