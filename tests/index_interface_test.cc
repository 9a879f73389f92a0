// Cross-index conformance tests: every index behind the RangeIndex interface
// must implement the same semantics. Parameterized over all five kinds and
// both key types (where supported), plus PACTree with the absorb buffer on,
// whose reads merge the staged ops.
#include "src/index/range_index.h"

#include <gtest/gtest.h>

#include <map>

#include "src/common/random.h"
#include "src/nvm/config.h"
#include "src/nvm/topology.h"
#include "src/sync/epoch.h"

namespace pactree {
namespace {

struct Combo {
  IndexKind kind;
  bool strings;
  bool absorb = false;
};

class IndexConformanceTest : public ::testing::TestWithParam<Combo> {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    IndexFactoryOptions opts;
    opts.name = "conform";
    opts.pool_id_base = 300;
    opts.pool_size = 256 << 20;
    opts.string_keys = GetParam().strings;
    opts.pactree_absorb_writes = GetParam().absorb;
    index_ = CreateIndex(GetParam().kind, opts);
    ASSERT_NE(index_, nullptr);
  }

  void TearDown() override {
    index_.reset();
    EpochManager::Instance().DrainAll();
    DestroyIndex(GetParam().kind, "conform");
  }

  Key MakeKey(uint64_t i) const {
    if (GetParam().strings) {
      return Key::FromString("key" + std::to_string(100000000 + i));
    }
    return Key::FromInt(i);
  }

  std::unique_ptr<RangeIndex> index_;
};

TEST_P(IndexConformanceTest, UpsertSemantics) {
  EXPECT_EQ(index_->Insert(MakeKey(1), 10), Status::kOk);
  EXPECT_EQ(index_->Insert(MakeKey(1), 11), Status::kExists);
  uint64_t v;
  ASSERT_EQ(index_->Lookup(MakeKey(1), &v), Status::kOk);
  EXPECT_EQ(v, 11u);
}

TEST_P(IndexConformanceTest, NotFoundSemantics) {
  EXPECT_EQ(index_->Lookup(MakeKey(404), nullptr), Status::kNotFound);
  EXPECT_EQ(index_->Remove(MakeKey(404)), Status::kNotFound);
}

TEST_P(IndexConformanceTest, InsertLookupRemoveRoundTrip) {
  constexpr uint64_t kN = 20000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(index_->Insert(MakeKey(i), i + 1), Status::kOk) << i;
  }
  index_->Drain();
  EXPECT_EQ(index_->Size(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    uint64_t v;
    ASSERT_EQ(index_->Lookup(MakeKey(i), &v), Status::kOk) << i;
    ASSERT_EQ(v, i + 1);
  }
  for (uint64_t i = 0; i < kN; i += 2) {
    ASSERT_EQ(index_->Remove(MakeKey(i)), Status::kOk) << i;
  }
  index_->Drain();
  for (uint64_t i = 0; i < kN; ++i) {
    Status expect = (i % 2 == 0) ? Status::kNotFound : Status::kOk;
    ASSERT_EQ(index_->Lookup(MakeKey(i), nullptr), expect) << i;
  }
}

TEST_P(IndexConformanceTest, ScanIsSortedBoundedComplete) {
  std::map<Key, uint64_t> model;
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    uint64_t id = rng.Uniform(1 << 22);
    Key k = MakeKey(id);
    model[k] = id;
    index_->Insert(k, id);
  }
  // Scanned before and after Drain: with absorb on, the first pass merges
  // the staged ops into the walk.
  for (int trial = 0; trial < 20; ++trial) {
    if (trial == 10) {
      index_->Drain();
    }
    Key start = MakeKey(rng.Uniform(1 << 22));
    std::vector<std::pair<Key, uint64_t>> out;
    size_t n = index_->Scan(start, 64, &out);
    auto it = model.lower_bound(start);
    size_t expect = 0;
    for (auto jt = it; jt != model.end() && expect < 64; ++jt) {
      expect++;
    }
    ASSERT_EQ(n, expect);
    for (size_t i = 0; i < n; ++i, ++it) {
      ASSERT_EQ(out[i].first.Compare(it->first), 0);
      ASSERT_EQ(out[i].second, it->second);
    }
  }
}

std::vector<Combo> AllCombos() {
  std::vector<Combo> combos;
  for (IndexKind kind : {IndexKind::kPacTree, IndexKind::kPdlArt, IndexKind::kFastFair,
                         IndexKind::kFpTree, IndexKind::kBzTree}) {
    combos.push_back({kind, false});
    if (kind != IndexKind::kFpTree) {  // FPTree: integer keys only (as in paper)
      combos.push_back({kind, true});
    }
  }
  combos.push_back({IndexKind::kPacTree, false, true});
  combos.push_back({IndexKind::kPacTree, true, true});
  return combos;
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, IndexConformanceTest,
                         ::testing::ValuesIn(AllCombos()),
                         [](const ::testing::TestParamInfo<Combo>& info) {
                           std::string name = IndexKindName(info.param.kind);
                           name += info.param.absorb ? "_absorb" : "";
                           name += info.param.strings ? "_str" : "_int";
                           return name;
                         });

}  // namespace
}  // namespace pactree
