// Parameterized PACTree property tests: every feature combination from the
// Figure 12 factor analysis must preserve full index semantics. Each instance
// runs a randomized mixed workload against a std::map model and then checks
// complete scan equivalence and data-layer invariants.
#include <gtest/gtest.h>

#include <map>

#include "src/common/random.h"
#include "src/nvm/config.h"
#include "src/nvm/topology.h"
#include "src/pactree/pactree.h"
#include "src/sync/epoch.h"

namespace pactree {
namespace {

struct Config {
  bool async_update;
  bool selective_persistence;
  bool per_numa;
  bool dram_sl;
  const char* name;
};

const Config kConfigs[] = {
    {true, true, true, false, "full"},
    {false, true, true, false, "sync_update"},
    {true, false, true, false, "persist_perm"},
    {true, true, false, false, "single_pool"},
    {true, true, true, true, "dram_sl"},
    {false, false, false, false, "all_off"},
};

class PacTreeParamTest : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    PacTree::Destroy("ptp");
    const Config& c = GetParam();
    opts_.name = "ptp";
    opts_.pool_id_base = 330;
    opts_.pool_size = 256 << 20;
    opts_.async_search_update = c.async_update;
    opts_.selective_persistence = c.selective_persistence;
    opts_.per_numa_pools = c.per_numa;
    opts_.dram_search_layer = c.dram_sl;
    tree_ = PacTree::Open(opts_);
    ASSERT_NE(tree_, nullptr);
  }

  void TearDown() override {
    tree_.reset();
    EpochManager::Instance().DrainAll();
    PacTree::Destroy("ptp");
  }

  PacTreeOptions opts_;
  std::unique_ptr<PacTree> tree_;
};

TEST_P(PacTreeParamTest, RandomizedMixedWorkloadMatchesModel) {
  Rng rng(GetParam().async_update * 2 + GetParam().per_numa + 17);
  std::map<uint64_t, uint64_t> model;
  for (int i = 0; i < 60000; ++i) {
    uint64_t k = rng.Uniform(30000);
    switch (rng.Uniform(10)) {
      case 0:
      case 1:
      case 2: {  // remove
        Status s = tree_->Remove(Key::FromInt(k));
        ASSERT_EQ(s == Status::kOk, model.erase(k) > 0) << "op " << i;
        break;
      }
      case 3: {  // update-only
        Status s = tree_->Update(Key::FromInt(k), i);
        ASSERT_EQ(s == Status::kOk, model.count(k) > 0) << "op " << i;
        if (s == Status::kOk) {
          model[k] = i;
        }
        break;
      }
      default: {  // upsert
        Status s = tree_->Insert(Key::FromInt(k), i);
        ASSERT_EQ(s == Status::kExists, model.count(k) > 0) << "op " << i;
        model[k] = i;
        break;
      }
    }
    if (i % 9973 == 0) {
      // Periodic point-read spot check.
      uint64_t probe = rng.Uniform(30000);
      uint64_t v;
      Status s = tree_->Lookup(Key::FromInt(probe), &v);
      auto it = model.find(probe);
      ASSERT_EQ(s == Status::kOk, it != model.end());
      if (s == Status::kOk) {
        ASSERT_EQ(v, it->second);
      }
    }
  }
  tree_->DrainSmoLogs();
  // Full-scan equivalence.
  std::vector<std::pair<Key, uint64_t>> all;
  tree_->Scan(Key::Min(), model.size() + 16, &all);
  ASSERT_EQ(all.size(), model.size());
  auto it = model.begin();
  for (size_t i = 0; i < all.size(); ++i, ++it) {
    ASSERT_EQ(all[i].first.ToInt(), it->first) << i;
    ASSERT_EQ(all[i].second, it->second) << i;
  }
  std::string why;
  ASSERT_TRUE(tree_->CheckInvariants(&why)) << why;
}

TEST_P(PacTreeParamTest, SmoLogRingWrapsSafely) {
  // A single writer slot's ring holds kSmoLogEntries entries; force far more
  // splits than that through one thread and verify nothing is lost.
  constexpr uint64_t kN = 80000;  // ~2400 splits > 500-entry ring
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i), Status::kOk) << i;
  }
  tree_->DrainSmoLogs();
  EXPECT_GT(tree_->Stats().splits, kSmoLogEntries);
  for (uint64_t i = 0; i < kN; i += 41) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i), &v), Status::kOk) << i;
  }
  // Post-drain lookups must be direct (the SL caught up despite ring wrap).
  auto s0 = tree_->Stats();
  for (uint64_t i = 0; i < 500; ++i) {
    tree_->Lookup(Key::FromInt(i * 151 % kN), nullptr);
  }
  auto s1 = tree_->Stats();
  EXPECT_EQ(s1.hop_hist[0] - s0.hop_hist[0], 500u);
}

INSTANTIATE_TEST_SUITE_P(FeatureMatrix, PacTreeParamTest, ::testing::ValuesIn(kConfigs),
                         [](const ::testing::TestParamInfo<Config>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace pactree
