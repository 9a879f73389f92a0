#include "src/art/art.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/nvm/config.h"
#include "src/nvm/topology.h"
#include "src/sync/epoch.h"
#include "src/sync/gen_sync.h"

namespace pactree {
namespace {

class ArtTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    PmemHeap::Destroy("art_test");
    PmemHeapOptions opts;
    opts.pool_id_base = 50;
    opts.pool_size = 256 << 20;
    heap_ = PmemHeap::OpenOrCreate("art_test", opts);
    ASSERT_NE(heap_, nullptr);
    AdvanceGenerations({heap_.get()});
    root_ = heap_->Root<ArtTreeRoot>();
    tree_ = std::make_unique<PdlArt>(heap_.get(), root_);
  }

  void TearDown() override {
    tree_.reset();
    EpochManager::Instance().DrainAll();
    heap_.reset();
    PmemHeap::Destroy("art_test");
  }

  std::unique_ptr<PmemHeap> heap_;
  ArtTreeRoot* root_ = nullptr;
  std::unique_ptr<PdlArt> tree_;
};

TEST_F(ArtTest, EmptyLookupNotFound) {
  uint64_t v;
  EXPECT_EQ(tree_->Lookup(Key::FromInt(1), &v), Status::kNotFound);
  Key found;
  EXPECT_EQ(tree_->LookupFloor(Key::FromInt(1), &found, &v), Status::kNotFound);
}

TEST_F(ArtTest, InsertLookupSingle) {
  EXPECT_EQ(tree_->Insert(Key::FromInt(42), 4200), Status::kOk);
  uint64_t v = 0;
  EXPECT_EQ(tree_->Lookup(Key::FromInt(42), &v), Status::kOk);
  EXPECT_EQ(v, 4200u);
  EXPECT_EQ(tree_->Lookup(Key::FromInt(43), &v), Status::kNotFound);
}

TEST_F(ArtTest, UpsertOverwrites) {
  EXPECT_EQ(tree_->Insert(Key::FromInt(7), 1), Status::kOk);
  EXPECT_EQ(tree_->Insert(Key::FromInt(7), 2), Status::kExists);
  uint64_t v;
  ASSERT_EQ(tree_->Lookup(Key::FromInt(7), &v), Status::kOk);
  EXPECT_EQ(v, 2u);
}

TEST_F(ArtTest, InsertIfAbsentDoesNotOverwrite) {
  EXPECT_EQ(tree_->InsertIfAbsent(Key::FromInt(7), 1), Status::kOk);
  EXPECT_EQ(tree_->InsertIfAbsent(Key::FromInt(7), 2), Status::kExists);
  uint64_t v;
  ASSERT_EQ(tree_->Lookup(Key::FromInt(7), &v), Status::kOk);
  EXPECT_EQ(v, 1u);
}

TEST_F(ArtTest, SequentialIntKeys) {
  constexpr uint64_t kN = 50000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i * 3), Status::kOk) << i;
  }
  for (uint64_t i = 0; i < kN; ++i) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i), &v), Status::kOk) << i;
    ASSERT_EQ(v, i * 3) << i;
  }
  EXPECT_EQ(tree_->Size(), kN);
}

TEST_F(ArtTest, RandomIntKeysAgainstStdMap) {
  Rng rng(1234);
  std::map<uint64_t, uint64_t> model;
  for (int i = 0; i < 30000; ++i) {
    uint64_t k = rng.Next();
    model[k] = i;
    tree_->Insert(Key::FromInt(k), i);
  }
  for (const auto& [k, v] : model) {
    uint64_t got;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(k), &got), Status::kOk);
    ASSERT_EQ(got, v);
  }
  EXPECT_EQ(tree_->Size(), model.size());
}

TEST_F(ArtTest, StringKeysSharedPrefixes) {
  std::vector<std::string> words = {"a",     "ab",     "abc",   "abcd", "abcdefgh",
                                    "user1", "user10", "user2", "b",    "banana",
                                    "band",  "bandage", "zz"};
  for (size_t i = 0; i < words.size(); ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromString(words[i]), i), Status::kOk) << words[i];
  }
  for (size_t i = 0; i < words.size(); ++i) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(Key::FromString(words[i]), &v), Status::kOk) << words[i];
    EXPECT_EQ(v, i);
  }
  EXPECT_EQ(tree_->Lookup(Key::FromString("abce"), nullptr), Status::kNotFound);
  EXPECT_EQ(tree_->Lookup(Key::FromString("use"), nullptr), Status::kNotFound);
}

TEST_F(ArtTest, LongSharedPrefixBeyondStoredBytes) {
  // 30-byte shared prefix exceeds the 24 stored prefix bytes.
  std::string base(30, 'p');
  for (char c = 'a'; c <= 'z'; ++c) {
    ASSERT_EQ(tree_->Insert(Key::FromString(base + c), c), Status::kOk);
  }
  for (char c = 'a'; c <= 'z'; ++c) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(Key::FromString(base + c), &v), Status::kOk) << c;
    EXPECT_EQ(v, static_cast<uint64_t>(c));
  }
  // A key diverging inside the unstored prefix region.
  std::string diverge = base.substr(0, 27) + "qqq";
  EXPECT_EQ(tree_->Lookup(Key::FromString(diverge), nullptr), Status::kNotFound);
  ASSERT_EQ(tree_->Insert(Key::FromString(diverge), 999), Status::kOk);
  uint64_t v;
  ASSERT_EQ(tree_->Lookup(Key::FromString(diverge), &v), Status::kOk);
  EXPECT_EQ(v, 999u);
  for (char c = 'a'; c <= 'z'; ++c) {
    ASSERT_EQ(tree_->Lookup(Key::FromString(base + c), &v), Status::kOk) << c;
  }
}

TEST_F(ArtTest, RemoveAndShrink) {
  constexpr uint64_t kN = 20000;
  for (uint64_t i = 0; i < kN; ++i) {
    tree_->Insert(Key::FromInt(i), i);
  }
  for (uint64_t i = 0; i < kN; i += 2) {
    ASSERT_EQ(tree_->Remove(Key::FromInt(i)), Status::kOk) << i;
  }
  EXPECT_EQ(tree_->Remove(Key::FromInt(0)), Status::kNotFound);
  for (uint64_t i = 0; i < kN; ++i) {
    uint64_t v;
    Status expect = (i % 2 == 0) ? Status::kNotFound : Status::kOk;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i), &v), expect) << i;
  }
  EXPECT_EQ(tree_->Size(), kN / 2);
}

TEST_F(ArtTest, FloorSemantics) {
  for (uint64_t k : {10u, 20u, 30u, 40u}) {
    tree_->Insert(Key::FromInt(k), k);
  }
  Key found;
  uint64_t v;
  ASSERT_EQ(tree_->LookupFloor(Key::FromInt(25), &found, &v), Status::kOk);
  EXPECT_EQ(found.ToInt(), 20u);
  ASSERT_EQ(tree_->LookupFloor(Key::FromInt(30), &found, &v), Status::kOk);
  EXPECT_EQ(found.ToInt(), 30u);
  ASSERT_EQ(tree_->LookupFloor(Key::FromInt(1000), &found, &v), Status::kOk);
  EXPECT_EQ(found.ToInt(), 40u);
  EXPECT_EQ(tree_->LookupFloor(Key::FromInt(5), &found, &v), Status::kNotFound);
  ASSERT_EQ(tree_->LookupFloor(Key::FromInt(10), &found, &v), Status::kOk);
  EXPECT_EQ(found.ToInt(), 10u);
}

TEST_F(ArtTest, FloorRandomizedAgainstStdMap) {
  Rng rng(99);
  std::map<uint64_t, uint64_t> model;
  for (int i = 0; i < 5000; ++i) {
    uint64_t k = rng.Uniform(1 << 20) << 8;  // sparse keys
    model[k] = i;
    tree_->Insert(Key::FromInt(k), i);
  }
  for (int i = 0; i < 5000; ++i) {
    uint64_t probe = rng.Uniform(1 << 28);
    auto it = model.upper_bound(probe);
    Key found;
    uint64_t v;
    Status s = tree_->LookupFloor(Key::FromInt(probe), &found, &v);
    if (it == model.begin()) {
      ASSERT_EQ(s, Status::kNotFound) << probe;
    } else {
      --it;
      ASSERT_EQ(s, Status::kOk) << probe;
      ASSERT_EQ(found.ToInt(), it->first) << probe;
      ASSERT_EQ(v, it->second);
    }
  }
}

// Removes leave emptied inner nodes behind; a floor search that meets one
// must move on to the next smaller branch instead of giving up.
TEST_F(ArtTest, FloorSkipsEmptiedInnerNodes) {
  std::map<uint64_t, uint64_t> model;
  for (uint64_t k = 1000; k < 3000; k += 32) {
    tree_->Insert(Key::FromInt(k), k);
    model[k] = k;
  }
  for (uint64_t k = 1000; k < 3000; k += 32) {
    if (k % 352 != 328) {
      tree_->Remove(Key::FromInt(k));
      model.erase(k);
    }
  }
  ASSERT_GE(model.size(), 4u);
  for (uint64_t probe = 1000; probe < 3200; ++probe) {
    Key found;
    uint64_t v = 0;
    Status s = tree_->LookupFloor(Key::FromInt(probe), &found, &v);
    auto it = model.upper_bound(probe);
    if (it == model.begin()) {
      EXPECT_EQ(s, Status::kNotFound) << probe;
      continue;
    }
    --it;
    ASSERT_EQ(s, Status::kOk) << probe;
    EXPECT_EQ(found.ToInt(), it->first) << probe;
    EXPECT_EQ(v, it->second) << probe;
  }
}

TEST_F(ArtTest, ScanOrderedAndBounded) {
  for (uint64_t i = 0; i < 1000; ++i) {
    tree_->Insert(Key::FromInt(i * 10), i);
  }
  std::vector<std::pair<Key, uint64_t>> out;
  size_t n = tree_->Scan(Key::FromInt(995), 20, &out);
  ASSERT_EQ(n, 20u);
  EXPECT_EQ(out[0].first.ToInt(), 1000u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].first.ToInt(), out[i].first.ToInt());
    EXPECT_EQ(out[i].first.ToInt(), 1000 + i * 10);
  }
  // Scan past the end.
  n = tree_->Scan(Key::FromInt(9990), 20, &out);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(out[0].first.ToInt(), 9990u);
  n = tree_->Scan(Key::FromInt(100000), 20, &out);
  EXPECT_EQ(n, 0u);
}

TEST_F(ArtTest, ScanStringsOrdered) {
  std::vector<std::string> words;
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    std::string s = "user" + std::to_string(rng.Uniform(1000000));
    words.push_back(s);
    tree_->Insert(Key::FromString(s), i);
  }
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  std::vector<std::pair<Key, uint64_t>> out;
  size_t n = tree_->Scan(Key::FromString("user5"), 100, &out);
  auto it = std::lower_bound(words.begin(), words.end(), "user5");
  size_t expect = std::min<size_t>(100, words.end() - it);
  ASSERT_EQ(n, expect);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i].first.ToString(), *(it + i));
  }
}

TEST_F(ArtTest, PersistsAcrossReopen) {
  constexpr uint64_t kN = 10000;
  for (uint64_t i = 0; i < kN; ++i) {
    tree_->Insert(Key::FromInt(i), i + 1);
  }
  tree_.reset();
  EpochManager::Instance().DrainAll();
  heap_.reset();

  PmemHeapOptions opts;
  opts.pool_id_base = 50;
  opts.pool_size = 256 << 20;
  heap_ = PmemHeap::OpenOrCreate("art_test", opts);
  ASSERT_NE(heap_, nullptr);
  SetGlobalGeneration(static_cast<uint32_t>(heap_->generation()));
  root_ = heap_->Root<ArtTreeRoot>();
  tree_ = std::make_unique<PdlArt>(heap_.get(), root_);
  tree_->Recover();
  for (uint64_t i = 0; i < kN; ++i) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i), &v), Status::kOk) << i;
    ASSERT_EQ(v, i + 1);
  }
}

TEST_F(ArtTest, RecoveryFreesUnreachableLoggedBlocks) {
  tree_->Insert(Key::FromInt(1), 1);
  // Forge a pending allocation-log entry pointing at an orphan block.
  PPtr<void> orphan = heap_->Alloc(sizeof(ArtLeaf));
  ASSERT_FALSE(orphan.IsNull());
  uint64_t live_before = heap_->primary()->LiveBytes();
  root_->alloc_log[3].blocks[0] = orphan.raw;
  root_->alloc_log[3].blocks[1] = 0;
  root_->alloc_log[3].key = Key::FromInt(777);
  root_->alloc_log[3].state = 1;
  tree_->Recover();
  EXPECT_LT(heap_->primary()->LiveBytes(), live_before) << "orphan must be freed";
  EXPECT_EQ(root_->alloc_log[3].state, 0u);
  // Reachable blocks must NOT be freed: forge an entry for a live leaf.
  uint64_t v;
  ASSERT_EQ(tree_->Lookup(Key::FromInt(1), &v), Status::kOk);
}

TEST_F(ArtTest, ConcurrentInsertsDisjointRanges) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t k = static_cast<uint64_t>(t) << 32 | i;
        tree_->Insert(Key::FromInt(k), k);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; i += 97) {
      uint64_t k = static_cast<uint64_t>(t) << 32 | i;
      uint64_t v;
      ASSERT_EQ(tree_->Lookup(Key::FromInt(k), &v), Status::kOk);
      ASSERT_EQ(v, k);
    }
  }
  EXPECT_EQ(tree_->Size(), uint64_t{kThreads} * kPerThread);
}

TEST_F(ArtTest, ConcurrentMixedWorkload) {
  constexpr int kThreads = 4;
  constexpr uint64_t kSpace = 50000;
  // Preload half the space.
  for (uint64_t i = 0; i < kSpace; i += 2) {
    tree_->Insert(Key::FromInt(i), i);
  }
  std::atomic<bool> fail{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 1);
      for (int i = 0; i < 30000; ++i) {
        uint64_t k = rng.Uniform(kSpace);
        switch (rng.Uniform(4)) {
          case 0:
            tree_->Insert(Key::FromInt(k), k);
            break;
          case 1:
            tree_->Remove(Key::FromInt(k));
            break;
          default: {
            uint64_t v;
            if (tree_->Lookup(Key::FromInt(k), &v) == Status::kOk && v != k) {
              fail.store(true);  // values are always == key in this test
            }
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(fail.load()) << "lookup observed a value it should never see";
}

TEST_F(ArtTest, ConcurrentScansSeeOnlyValidValues) {
  for (uint64_t i = 0; i < 10000; ++i) {
    tree_->Insert(Key::FromInt(i), i);
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> fail{false};
  std::thread writer([&] {
    Rng rng(77);
    while (!stop.load()) {
      uint64_t k = rng.Uniform(10000);
      tree_->Insert(Key::FromInt(k), k);
      tree_->Remove(Key::FromInt(rng.Uniform(10000)));
    }
  });
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::pair<Key, uint64_t>> out;
    tree_->Scan(Key::FromInt(iter * 13 % 9000), 50, &out);
    for (size_t i = 0; i < out.size(); ++i) {
      if (out[i].second != out[i].first.ToInt()) {
        fail.store(true);
      }
      if (i > 0 && !(out[i - 1].first < out[i].first)) {
        fail.store(true);
      }
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_FALSE(fail.load());
}

}  // namespace
}  // namespace pactree
