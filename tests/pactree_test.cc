#include "src/pactree/pactree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <span>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/nvm/config.h"
#include "src/nvm/persist.h"
#include "src/nvm/topology.h"
#include "src/pmem/pptr.h"
#include "src/sync/epoch.h"
#include "src/sync/generation.h"

namespace pactree {
namespace {

class PacTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    PacTree::Destroy("pt_test");
    opts_.name = "pt_test";
    opts_.pool_id_base = 100;
    opts_.pool_size = 256 << 20;
    tree_ = PacTree::Open(opts_);
    ASSERT_NE(tree_, nullptr);
  }

  void TearDown() override {
    tree_.reset();
    EpochManager::Instance().DrainAll();
    PacTree::Destroy("pt_test");
  }

  void Reopen() {
    tree_.reset();
    EpochManager::Instance().DrainAll();
    tree_ = PacTree::Open(opts_);
    ASSERT_NE(tree_, nullptr);
  }

  // Destroys the tree and opens a fresh one with the current options.
  void Recreate() {
    tree_.reset();
    EpochManager::Instance().DrainAll();
    PacTree::Destroy("pt_test");
    tree_ = PacTree::Open(opts_);
    ASSERT_NE(tree_, nullptr);
  }

  // Permutation-cache counters of one full-tree scan, which must return
  // exactly |model| in order.
  struct PermDelta {
    uint64_t hits = 0;
    uint64_t builds = 0;
  };
  PermDelta ScanAll(const std::map<uint64_t, uint64_t>& model) {
    PacTreeStats before = tree_->Stats();
    std::vector<std::pair<Key, uint64_t>> out;
    tree_->Scan(Key::Min(), model.size() + 10, &out);
    PacTreeStats after = tree_->Stats();
    EXPECT_EQ(out.size(), model.size());
    auto it = model.begin();
    for (size_t i = 0; i < out.size() && it != model.end(); ++i, ++it) {
      EXPECT_EQ(out[i].first.ToInt(), it->first);
      EXPECT_EQ(out[i].second, it->second);
    }
    return {after.perm_hits - before.perm_hits,
            after.perm_builds - before.perm_builds};
  }

  // The data node owning |key|, through the drained search layer.
  DataNode* NodeOf(uint64_t key) {
    tree_->DrainSmoLogs();
    Key found;
    uint64_t raw = 0;
    EXPECT_EQ(tree_->search_layer()->LookupFloor(Key::FromInt(key), &found, &raw),
              Status::kOk);
    return PPtr<DataNode>(raw).get();
  }

  PacTreeOptions opts_;
  std::unique_ptr<PacTree> tree_;
};

TEST_F(PacTreeTest, EmptyLookup) {
  uint64_t v;
  EXPECT_EQ(tree_->Lookup(Key::FromInt(1), &v), Status::kNotFound);
  EXPECT_EQ(tree_->Size(), 0u);
}

TEST_F(PacTreeTest, InsertLookupBasic) {
  EXPECT_EQ(tree_->Insert(Key::FromInt(10), 100), Status::kOk);
  uint64_t v = 0;
  ASSERT_EQ(tree_->Lookup(Key::FromInt(10), &v), Status::kOk);
  EXPECT_EQ(v, 100u);
  EXPECT_EQ(tree_->Insert(Key::FromInt(10), 200), Status::kExists);
  ASSERT_EQ(tree_->Lookup(Key::FromInt(10), &v), Status::kOk);
  EXPECT_EQ(v, 200u);
}

TEST_F(PacTreeTest, UpdateRequiresExistence) {
  EXPECT_EQ(tree_->Update(Key::FromInt(5), 1), Status::kNotFound);
  tree_->Insert(Key::FromInt(5), 1);
  EXPECT_EQ(tree_->Update(Key::FromInt(5), 2), Status::kOk);
  uint64_t v;
  tree_->Lookup(Key::FromInt(5), &v);
  EXPECT_EQ(v, 2u);
}

TEST_F(PacTreeTest, RemoveBasic) {
  tree_->Insert(Key::FromInt(1), 1);
  EXPECT_EQ(tree_->Remove(Key::FromInt(1)), Status::kOk);
  EXPECT_EQ(tree_->Remove(Key::FromInt(1)), Status::kNotFound);
  EXPECT_EQ(tree_->Lookup(Key::FromInt(1), nullptr), Status::kNotFound);
}

TEST_F(PacTreeTest, SplitsUnderSequentialLoad) {
  constexpr uint64_t kN = 100000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i + 7), Status::kOk) << i;
  }
  EXPECT_GT(tree_->Stats().splits, kN / 64) << "node splits must have happened";
  for (uint64_t i = 0; i < kN; ++i) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i), &v), Status::kOk) << i;
    ASSERT_EQ(v, i + 7);
  }
  EXPECT_EQ(tree_->Size(), kN);
  std::string why;
  tree_->DrainSmoLogs();
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

TEST_F(PacTreeTest, RandomKeysAgainstModel) {
  Rng rng(2024);
  std::map<uint64_t, uint64_t> model;
  for (int i = 0; i < 80000; ++i) {
    uint64_t k = rng.Next() >> 16;
    model[k] = i;
    tree_->Insert(Key::FromInt(k), i);
  }
  for (const auto& [k, v] : model) {
    uint64_t got;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(k), &got), Status::kOk) << k;
    ASSERT_EQ(got, v);
  }
  EXPECT_EQ(tree_->Size(), model.size());
}

TEST_F(PacTreeTest, StringKeys) {
  Rng rng(7);
  std::map<std::string, uint64_t> model;
  for (int i = 0; i < 40000; ++i) {
    std::string s = "user" + std::to_string(rng.Uniform(10000000));
    model[s] = i;
    tree_->Insert(Key::FromString(s), i);
  }
  for (const auto& [k, v] : model) {
    uint64_t got;
    ASSERT_EQ(tree_->Lookup(Key::FromString(k), &got), Status::kOk) << k;
    ASSERT_EQ(got, v);
  }
}

TEST_F(PacTreeTest, ScanMatchesSortedModel) {
  Rng rng(31);
  std::map<uint64_t, uint64_t> model;
  for (int i = 0; i < 50000; ++i) {
    uint64_t k = rng.Next() >> 20;
    model[k] = i;
    tree_->Insert(Key::FromInt(k), i);
  }
  for (int trial = 0; trial < 50; ++trial) {
    uint64_t start = rng.Next() >> 20;
    std::vector<std::pair<Key, uint64_t>> out;
    size_t n = tree_->Scan(Key::FromInt(start), 100, &out);
    auto it = model.lower_bound(start);
    size_t expect = 0;
    for (auto jt = it; jt != model.end() && expect < 100; ++jt) {
      expect++;
    }
    ASSERT_EQ(n, expect) << start;
    for (size_t i = 0; i < n; ++i, ++it) {
      ASSERT_EQ(out[i].first.ToInt(), it->first);
      ASSERT_EQ(out[i].second, it->second);
    }
  }
}

TEST_F(PacTreeTest, MergeOnMassDelete) {
  constexpr uint64_t kN = 50000;
  for (uint64_t i = 0; i < kN; ++i) {
    tree_->Insert(Key::FromInt(i), i);
  }
  for (uint64_t i = 0; i < kN; ++i) {
    if (i % 10 != 0) {
      ASSERT_EQ(tree_->Remove(Key::FromInt(i)), Status::kOk) << i;
    }
  }
  EXPECT_GT(tree_->Stats().merges, 0u) << "merges must trigger on underflow";
  tree_->DrainSmoLogs();
  for (uint64_t i = 0; i < kN; ++i) {
    Status expect = (i % 10 == 0) ? Status::kOk : Status::kNotFound;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i), nullptr), expect) << i;
  }
  EXPECT_EQ(tree_->Size(), kN / 10);
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
  // Scans across merged regions stay correct.
  std::vector<std::pair<Key, uint64_t>> out;
  size_t n = tree_->Scan(Key::FromInt(0), 1000, &out);
  ASSERT_EQ(n, 1000u);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i].first.ToInt(), i * 10);
  }
}

TEST_F(PacTreeTest, PersistsAcrossReopen) {
  constexpr uint64_t kN = 30000;
  for (uint64_t i = 0; i < kN; ++i) {
    tree_->Insert(Key::FromInt(i * 3), i);
  }
  Reopen();
  EXPECT_EQ(tree_->Size(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i * 3), &v), Status::kOk) << i;
    ASSERT_EQ(v, i);
  }
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
  // And it is still writable.
  tree_->Insert(Key::FromInt(1), 42);
  uint64_t v;
  ASSERT_EQ(tree_->Lookup(Key::FromInt(1), &v), Status::kOk);
  EXPECT_EQ(v, 42u);
}

// A 32-byte string key ("key/" + 28 digits). Against the head node's all-zero
// anchor the shared prefix is empty, so each distinct key costs its full 32
// bytes of suffix arena -- integer keys would share their leading zero bytes
// with the anchor and leak almost nothing.
Key ChurnKey(uint64_t i) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "key/%028llu", static_cast<unsigned long long>(i));
  return Key::FromString(buf);
}

TEST_F(PacTreeTest, ArenaChurnCompactsInsteadOfSplitting) {
  // Insert+remove churn of distinct keys leaks dead suffixes in a compact
  // node's arena without consuming slots. 16 live 32-byte-suffix keys plus 16
  // churn cycles put the cursor exactly at the 1024-byte arena limit with 48
  // slots free: the next insert must reclaim via CompactArenaLocked, not
  // split. (This is also the base state of the PacTreeCompactArenaCompaction
  // crash sweep -- this test pins the arithmetic the sweep's premise rests
  // on.)
  ASSERT_EQ(tree_->Stats().node_format, NodeFormat::kCompact);
  for (uint64_t i = 1; i <= 16; ++i) {
    ASSERT_EQ(tree_->Insert(ChurnKey(i), i), Status::kOk);
  }
  for (uint64_t j = 0; j < 16; ++j) {
    ASSERT_EQ(tree_->Insert(ChurnKey(1000 + j), j + 1), Status::kOk);
    ASSERT_EQ(tree_->Remove(ChurnKey(1000 + j)), Status::kOk);
  }
  ASSERT_EQ(tree_->Stats().arena_compactions, 0u);
  ASSERT_EQ(tree_->Insert(ChurnKey(500), 501), Status::kOk);
  EXPECT_GE(tree_->Stats().arena_compactions, 1u);
  EXPECT_EQ(tree_->Stats().splits, 0u);
  for (uint64_t i = 1; i <= 16; ++i) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(ChurnKey(i), &v), Status::kOk) << i;
    ASSERT_EQ(v, i);
  }
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

TEST_F(PacTreeTest, ReopenAdoptsPersistedNodeFormat) {
  // The data-node layout is stamped into the root at creation; a reopen
  // configured with the OTHER format must adopt the persisted one -- node
  // sizes and tail layouts are baked into every allocated node, so honoring
  // the configured format would read classic key arrays as compact suffix
  // descriptors (and vice versa). Both directions, with string keys so the
  // compact side exercises real anchor-prefix truncation.
  for (NodeFormat created : {NodeFormat::kClassic, NodeFormat::kCompact}) {
    tree_.reset();
    EpochManager::Instance().DrainAll();
    PacTree::Destroy("pt_test");
    opts_.node_format = created;
    tree_ = PacTree::Open(opts_);
    ASSERT_NE(tree_, nullptr);
    ASSERT_EQ(tree_->Stats().node_format, created);
    for (uint64_t i = 0; i < 20000; ++i) {
      ASSERT_EQ(tree_->Insert(Key::FromInt(i * 3), i), Status::kOk) << i;
    }
    for (uint64_t i = 0; i < 5000; ++i) {
      std::string s = "user/" + std::to_string(1000000 + i * 7);
      ASSERT_EQ(tree_->Insert(Key::FromString(s), 1u << 20 | i), Status::kOk);
    }
    opts_.node_format = created == NodeFormat::kClassic ? NodeFormat::kCompact
                                                        : NodeFormat::kClassic;
    Reopen();
    EXPECT_EQ(tree_->Stats().node_format, created);
    for (uint64_t i = 0; i < 20000; ++i) {
      uint64_t v;
      ASSERT_EQ(tree_->Lookup(Key::FromInt(i * 3), &v), Status::kOk) << i;
      ASSERT_EQ(v, i);
    }
    for (uint64_t i = 0; i < 5000; ++i) {
      std::string s = "user/" + std::to_string(1000000 + i * 7);
      uint64_t v;
      ASSERT_EQ(tree_->Lookup(Key::FromString(s), &v), Status::kOk) << s;
      ASSERT_EQ(v, 1u << 20 | i);
    }
    std::string why;
    EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
    // New writes (and the splits they force) keep building nodes in the
    // adopted format.
    for (uint64_t i = 0; i < 20000; ++i) {
      ASSERT_EQ(tree_->Insert(Key::FromInt(i * 3 + 1), i), Status::kOk) << i;
    }
    tree_->DrainSmoLogs();
    EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
  }
  opts_.node_format = NodeFormat::kCompact;  // restore for TearDown symmetry
}

TEST_F(PacTreeTest, SyncSearchLayerMode) {
  tree_.reset();
  PacTree::Destroy("pt_test");
  opts_.async_search_update = false;
  tree_ = PacTree::Open(opts_);
  ASSERT_NE(tree_, nullptr);
  for (uint64_t i = 0; i < 30000; ++i) {
    tree_->Insert(Key::FromInt(i), i);
  }
  for (uint64_t i = 0; i < 30000; ++i) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i), &v), Status::kOk);
  }
  // In sync mode every lookup should land directly on the target node.
  auto stats = tree_->Stats();
  EXPECT_GT(stats.hop_hist[0], 0u);
}

TEST_F(PacTreeTest, DramSearchLayerModeSurvivesReopenByRebuild) {
  tree_.reset();
  PacTree::Destroy("pt_test");
  opts_.dram_search_layer = true;
  tree_ = PacTree::Open(opts_);
  ASSERT_NE(tree_, nullptr);
  for (uint64_t i = 0; i < 20000; ++i) {
    tree_->Insert(Key::FromInt(i), i);
  }
  tree_.reset();
  EpochManager::Instance().DrainAll();
  tree_ = PacTree::Open(opts_);
  ASSERT_NE(tree_, nullptr);
  for (uint64_t i = 0; i < 20000; i += 91) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i), &v), Status::kOk) << i;
  }
  EXPECT_EQ(tree_->Size(), 20000u);
}

TEST_F(PacTreeTest, NonSelectivePersistenceMode) {
  tree_.reset();
  PacTree::Destroy("pt_test");
  opts_.selective_persistence = false;
  tree_ = PacTree::Open(opts_);
  ASSERT_NE(tree_, nullptr);
  std::map<uint64_t, uint64_t> model;
  for (uint64_t i = 0; i < 10000; ++i) {
    tree_->Insert(Key::FromInt(i), i);
    model[i] = i;
  }
  std::vector<std::pair<Key, uint64_t>> out;
  EXPECT_EQ(tree_->Scan(Key::FromInt(100), 50, &out), 50u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(out[i].first.ToInt(), 100 + i);
  }
  // Reads in this mode use the permutation cache: once every node has an
  // order, a repeat scan is all hits.
  tree_->DrainSmoLogs();
  ScanAll(model);
  PermDelta d = ScanAll(model);
  EXPECT_GT(d.hits, 0u);
  EXPECT_EQ(d.builds, 0u);
  // A writer publishes the order it persists for its post-unlock version,
  // so a scan right after writes still needs no rebuild (in the default
  // mode each written node costs the next scan one rebuild).
  for (uint64_t k : {10ULL, 5000ULL, 5001ULL, 7777ULL}) {
    ASSERT_EQ(tree_->Update(Key::FromInt(k), k + 1), Status::kOk);
    model[k] = k + 1;
  }
  d = ScanAll(model);
  EXPECT_GT(d.hits, 0u);
  EXPECT_EQ(d.builds, 0u);
  // Removes from the low end empty the head node, then merge the next node
  // into it from the left. That survivor is a sibling TryMergeLocked locks
  // and unlocks itself; it too gets the order it persists published. Stop
  // at the Remove that merged, so no later write to the survivor hides it.
  const uint64_t merges = tree_->Stats().merges;
  for (uint64_t i = 0; tree_->Stats().merges == merges; ++i) {
    ASSERT_LT(i, 200u) << "no merge";
    ASSERT_EQ(tree_->Remove(Key::FromInt(i)), Status::kOk);
    model.erase(i);
  }
  tree_->DrainSmoLogs();
  d = ScanAll(model);
  EXPECT_GT(d.hits, 0u);
  EXPECT_EQ(d.builds, 0u);
}

// The §5.4 permutation cache: a repeat scan of unchanged nodes is served
// from the cached sorted order, whichever path created the node, and across
// a reopen -- also when a crash left a node's persisted line 0 carrying a
// building marker.
TEST_F(PacTreeTest, PermutationCacheServesRepeatScans) {
  for (NodeFormat format : {NodeFormat::kClassic, NodeFormat::kCompact}) {
    SCOPED_TRACE(format == NodeFormat::kCompact ? "compact" : "classic");
    opts_.node_format = format;
    Recreate();
    std::map<uint64_t, uint64_t> model;

    // Head node (created by Init).
    for (uint64_t i = 0; i < 20; ++i) {
      tree_->Insert(Key::FromInt(i * 10), i);
      model[i * 10] = i;
    }
    PermDelta d = ScanAll(model);
    EXPECT_EQ(d.builds, 1u);
    d = ScanAll(model);
    EXPECT_EQ(d.hits, 1u);
    EXPECT_EQ(d.builds, 0u);
    // One insert forces exactly one rebuild; then hits resume.
    tree_->Insert(Key::FromInt(55), 55);
    model[55] = 55;
    d = ScanAll(model);
    EXPECT_EQ(d.hits, 0u);
    EXPECT_EQ(d.builds, 1u);
    d = ScanAll(model);
    EXPECT_EQ(d.hits, 1u);
    EXPECT_EQ(d.builds, 0u);

    // Split-created nodes.
    for (uint64_t i = 1000; i < 3000; ++i) {
      tree_->Insert(Key::FromInt(i), i);
      model[i] = i;
    }
    ASSERT_GT(tree_->Stats().splits, 0u);
    tree_->DrainSmoLogs();
    PermDelta first = ScanAll(model);
    d = ScanAll(model);
    EXPECT_EQ(d.builds, 0u);
    EXPECT_EQ(d.hits, first.hits + first.builds);
    const uint64_t nodes = d.hits;
    ASSERT_GT(nodes, 10u);
    tree_->Insert(Key::FromInt(2000), 7);  // an update: one node changes
    model[2000] = 7;
    d = ScanAll(model);
    EXPECT_EQ(d.builds, 1u);
    EXPECT_EQ(d.hits, nodes - 1);
    d = ScanAll(model);
    EXPECT_EQ(d.builds, 0u);
    EXPECT_EQ(d.hits, nodes);

    // Merge survivors.
    const uint64_t merges = tree_->Stats().merges;
    for (uint64_t i = 1000; i < 3000; ++i) {
      if (i % 16 != 0) {
        tree_->Remove(Key::FromInt(i));
        model.erase(i);
      }
    }
    ASSERT_GT(tree_->Stats().merges, merges);
    tree_->DrainSmoLogs();
    ScanAll(model);
    d = ScanAll(model);
    EXPECT_EQ(d.builds, 0u);
    EXPECT_GT(d.hits, 0u);

    // Reopen: every cached token belongs to the previous generation, so the
    // first scan rebuilds each node once and the second is all hits. One
    // node carries a building marker of the old incarnation on media (as if
    // a crash hit mid-publish); it must not stay locked out of the cache.
    DataNode* marked = NodeOf(2048);
    std::atomic_ref<uint64_t>(marked->perm_version)
        .store(PermBuilding(GlobalGeneration()));
    PersistFence(&marked->perm_version, sizeof(uint64_t));
    ScanAll(model);
    d = ScanAll(model);
    EXPECT_EQ(d.builds, 1u) << "a live marker blocks publishing";
    Reopen();
    first = ScanAll(model);
    EXPECT_EQ(first.hits, 0u);
    d = ScanAll(model);
    EXPECT_EQ(d.builds, 0u);
    EXPECT_EQ(d.hits, first.builds);
  }
}

// Scanners race writers that insert and remove keys inside a hot range of a
// few nodes, forcing splits and merges there. Every Scan and MultiScan must
// be exactly right while the permutation cache serves and re-publishes
// orders -- with readers publishing (default) and with writers publishing
// the order they persist (!selective_persistence).
TEST_F(PacTreeTest, ConcurrentScansVsChurnServeExactOrders) {
  constexpr uint64_t kSpace = 512;  // hot key range [0, kSpace)
  constexpr uint64_t kStride = 16;  // stable keys: multiples of kStride
  constexpr int kWriters = 2;       // writer w churns keys with k % 2 == w
  constexpr int kScanners = 4;
  constexpr int kCycles = 40;
  constexpr size_t kCount = 40;
  auto value_of = [](uint64_t k) { return k * 7 + 1; };
  for (bool selective : {true, false}) {
    SCOPED_TRACE(selective ? "selective" : "persist_perm");
    opts_.selective_persistence = selective;
    Recreate();
    for (uint64_t k = 0; k < kSpace; k += kStride) {
      tree_->Insert(Key::FromInt(k), value_of(k));
    }
    std::atomic<int> writers_left{kWriters};
    std::atomic<bool> fail{false};
    // Exact properties of one result: keys in range, strictly ascending,
    // values mapping back to their keys, and every stable key from |start|
    // up to the last result (or to the end when the result is short).
    auto check = [&](uint64_t start, size_t count,
                     const std::vector<std::pair<Key, uint64_t>>& out) {
      uint64_t next_stable = (start + kStride - 1) / kStride * kStride;
      for (size_t j = 0; j < out.size(); ++j) {
        uint64_t k = out[j].first.ToInt();
        if (k < start || k >= kSpace || out[j].second != value_of(k) ||
            (j > 0 && !(out[j - 1].first < out[j].first)) || k > next_stable) {
          return false;
        }
        if (k == next_stable) {
          next_stable += kStride;
        }
      }
      return out.size() == count || next_stable >= kSpace;
    };
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        Rng rng(900 + w);
        std::vector<uint64_t> mine;
        for (uint64_t k = 0; k < kSpace; ++k) {
          if (k % kStride != 0 && k % kWriters == static_cast<uint64_t>(w)) {
            mine.push_back(k);
          }
        }
        for (int c = 0; c < kCycles; ++c) {
          for (size_t i = mine.size(); i > 1; --i) {
            std::swap(mine[i - 1], mine[rng.Uniform(i)]);
          }
          for (uint64_t k : mine) {  // fills the range: splits
            tree_->Insert(Key::FromInt(k), value_of(k));
          }
          for (uint64_t k : mine) {  // empties it again: merges
            tree_->Remove(Key::FromInt(k));
          }
        }
        writers_left.fetch_sub(1);
      });
    }
    for (int t = 0; t < kScanners; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(700 + t);
        std::vector<std::vector<std::pair<Key, uint64_t>>> outs(2);
        do {
          const Key starts[2] = {Key::FromInt(rng.Uniform(kSpace)),
                                 Key::FromInt(rng.Uniform(kSpace))};
          const size_t counts[2] = {kCount, kCount / 2};
          bool ok;
          if (t % 2 == 0) {
            tree_->Scan(starts[0], counts[0], &outs[0]);
            ok = check(starts[0].ToInt(), counts[0], outs[0]);
          } else {
            tree_->MultiScan(std::span<const Key>(starts, 2),
                             std::span<const size_t>(counts, 2), &outs);
            ok = check(starts[0].ToInt(), counts[0], outs[0]) &&
                 check(starts[1].ToInt(), counts[1], outs[1]);
          }
          if (!ok) {
            fail.store(true);
          }
        } while (writers_left.load() > 0 && !fail.load());
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    EXPECT_FALSE(fail.load());
    PacTreeStats s = tree_->Stats();
    EXPECT_GT(s.splits, 0u);
    EXPECT_GT(s.merges, 0u);
    EXPECT_GT(s.perm_hits, 0u);
    tree_->DrainSmoLogs();
    std::string why;
    EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
  }
}

TEST_F(PacTreeTest, JumpHopsObservedUnderAsyncUpdates) {
  // Heavy sequential inserts outpace the updater (worst case for the async
  // design); the jump-node fix-up must absorb the inconsistency.
  for (uint64_t i = 0; i < 100000; ++i) {
    tree_->Insert(Key::FromInt(i), i);
  }
  auto s = tree_->Stats();
  uint64_t total = 0;
  for (uint64_t h : s.hop_hist) {
    total += h;
  }
  EXPECT_GT(total, 0u);
  // Once the search layer catches up, lookups land directly on the target.
  tree_->DrainSmoLogs();
  auto before = tree_->Stats();
  for (uint64_t i = 0; i < 1000; ++i) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i * 97 % 100000), &v), Status::kOk);
  }
  auto after = tree_->Stats();
  EXPECT_EQ(after.hop_hist[0] - before.hop_hist[0], 1000u)
      << "all post-drain lookups must be direct (paper §6.7)";
}

TEST_F(PacTreeTest, ConcurrentInsertLookup) {
  constexpr int kWriters = 3;
  constexpr uint64_t kPerThread = 30000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t k = i * kWriters + t;
        tree_->Insert(Key::FromInt(k), k);
      }
    });
  }
  std::atomic<bool> fail{false};
  std::thread reader([&] {
    Rng rng(5);
    for (int i = 0; i < 50000; ++i) {
      uint64_t k = rng.Uniform(kPerThread * kWriters);
      uint64_t v;
      if (tree_->Lookup(Key::FromInt(k), &v) == Status::kOk && v != k) {
        fail.store(true);
      }
    }
  });
  for (auto& th : threads) {
    th.join();
  }
  reader.join();
  EXPECT_FALSE(fail.load());
  EXPECT_EQ(tree_->Size(), kPerThread * kWriters);
  tree_->DrainSmoLogs();
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

TEST_F(PacTreeTest, ConcurrentMixedOpsInvariants) {
  constexpr uint64_t kSpace = 40000;
  for (uint64_t i = 0; i < kSpace; i += 2) {
    tree_->Insert(Key::FromInt(i), i);
  }
  std::vector<std::thread> threads;
  std::atomic<bool> fail{false};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 100);
      std::vector<std::pair<Key, uint64_t>> out;
      for (int i = 0; i < 20000; ++i) {
        uint64_t k = rng.Uniform(kSpace);
        switch (rng.Uniform(5)) {
          case 0:
            tree_->Insert(Key::FromInt(k), k);
            break;
          case 1:
            tree_->Remove(Key::FromInt(k));
            break;
          case 2: {
            tree_->Scan(Key::FromInt(k), 20, &out);
            for (size_t j = 1; j < out.size(); ++j) {
              if (!(out[j - 1].first < out[j].first)) {
                fail.store(true);
              }
            }
            break;
          }
          default: {
            uint64_t v;
            if (tree_->Lookup(Key::FromInt(k), &v) == Status::kOk && v != k) {
              fail.store(true);
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(fail.load());
  tree_->DrainSmoLogs();
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

TEST_F(PacTreeTest, ReopenAfterMixedWorkloadPreservesEverything) {
  Rng rng(55);
  std::map<uint64_t, uint64_t> model;
  for (int i = 0; i < 50000; ++i) {
    uint64_t k = rng.Uniform(100000);
    if (rng.Uniform(4) == 0) {
      model.erase(k);
      tree_->Remove(Key::FromInt(k));
    } else {
      model[k] = i;
      tree_->Insert(Key::FromInt(k), i);
    }
  }
  Reopen();
  EXPECT_EQ(tree_->Size(), model.size());
  for (const auto& [k, v] : model) {
    uint64_t got;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(k), &got), Status::kOk) << k;
    ASSERT_EQ(got, v);
  }
  // Scan equivalence.
  std::vector<std::pair<Key, uint64_t>> out;
  tree_->Scan(Key::Min(), model.size() + 10, &out);
  ASSERT_EQ(out.size(), model.size());
  auto it = model.begin();
  for (size_t i = 0; i < out.size(); ++i, ++it) {
    ASSERT_EQ(out[i].first.ToInt(), it->first);
  }
}

}  // namespace
}  // namespace pactree
