#include "src/pactree/data_node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/nvm/config.h"
#include "src/nvm/persist.h"
#include "src/nvm/stats.h"
#include "src/nvm/topology.h"
#include "src/pmem/heap.h"

namespace pactree {
namespace {

// Every behavioral test runs against BOTH on-media formats: the compact
// anchor-prefix layout must be observationally identical to the classic one
// through the accessor surface (FindKey / KeyAt / ValueAt / sorted order).
class DataNodeTest : public ::testing::TestWithParam<NodeFormat> {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    PmemHeap::Destroy("dn_test");
    PmemHeapOptions opts;
    opts.pool_id_base = 80;
    opts.pool_size = 16 << 20;
    heap_ = PmemHeap::OpenOrCreate("dn_test", opts);
    ASSERT_NE(heap_, nullptr);
    node_ = static_cast<DataNode*>(
        heap_->Alloc(DataNode::NodeBytes(GetParam())).get());
    ASSERT_NE(node_, nullptr);
    ResetNode();
  }

  void TearDown() override {
    heap_.reset();
    PmemHeap::Destroy("dn_test");
  }

  void ResetNode(const Key& anchor = Key::Min()) {
    std::memset(static_cast<void*>(node_), 0, DataNode::NodeBytes(GetParam()));
    node_->format_byte = static_cast<uint8_t>(GetParam());
    node_->anchor = anchor;
  }

  bool compact() const { return GetParam() == NodeFormat::kCompact; }

  std::unique_ptr<PmemHeap> heap_;
  DataNode* node_ = nullptr;
};

TEST(DataNodeLayoutTest, SharedHeaderAndFormatTails) {
  EXPECT_EQ(sizeof(DataNode), 3072u);
  EXPECT_EQ(offsetof(DataNode, anchor), 64u);
  EXPECT_EQ(offsetof(DataNode, fp), 128u);
  EXPECT_EQ(offsetof(DataNode, perm), 192u);
  // Both tails start right after the shared header.
  EXPECT_EQ(offsetof(DataNode, classic), 256u);
  EXPECT_EQ(offsetof(DataNode, compact), 256u);
  EXPECT_EQ(offsetof(DataNode, classic) + offsetof(DataNode::ClassicTail, values),
            2560u);
  EXPECT_EQ(offsetof(DataNode, compact) + offsetof(DataNode::CompactTail, kdesc),
            768u);
  EXPECT_EQ(offsetof(DataNode, compact) + offsetof(DataNode::CompactTail, arena),
            1024u);
  EXPECT_EQ(DataNode::NodeBytes(NodeFormat::kClassic), 3072u);
  EXPECT_EQ(DataNode::NodeBytes(NodeFormat::kCompact), 2048u);
  // A zeroed legacy format byte decodes to classic.
  alignas(256) unsigned char raw[sizeof(DataNode)] = {};
  EXPECT_EQ(reinterpret_cast<const DataNode*>(raw)->Format(),
            NodeFormat::kClassic);
}

TEST_P(DataNodeTest, FillAndFindSlot) {
  Key k = Key::FromInt(1234);
  node_->FillSlot(5, k, k.Fingerprint(), 99);
  EXPECT_EQ(node_->FindKey(k, k.Fingerprint()), -1) << "invisible until bitmap set";
  node_->PublishBitmap(1ULL << 5);
  EXPECT_EQ(node_->FindKey(k, k.Fingerprint()), 5);
  EXPECT_EQ(node_->ValueAt(5), 99u);
  EXPECT_EQ(node_->KeyAt(5), k);
}

TEST_P(DataNodeTest, BitmapIsVisibilityPivot) {
  Key a = Key::FromInt(1);
  Key b = Key::FromInt(2);
  node_->FillSlot(0, a, a.Fingerprint(), 10);
  node_->FillSlot(1, b, b.Fingerprint(), 20);
  node_->PublishBitmap(0b01);
  EXPECT_GE(node_->FindKey(a, a.Fingerprint()), 0);
  EXPECT_EQ(node_->FindKey(b, b.Fingerprint()), -1);
  node_->PublishBitmap(0b10);  // one atomic store flips both (update protocol)
  EXPECT_EQ(node_->FindKey(a, a.Fingerprint()), -1);
  EXPECT_GE(node_->FindKey(b, b.Fingerprint()), 0);
}

TEST_P(DataNodeTest, FindFreeSlotScansBitmap) {
  EXPECT_EQ(node_->FindFreeSlot(), 0);
  node_->PublishBitmap(0b111);
  EXPECT_EQ(node_->FindFreeSlot(), 3);
  node_->PublishBitmap(~0ULL);
  EXPECT_EQ(node_->FindFreeSlot(), -1);
}

TEST_P(DataNodeTest, FingerprintFilterNeverMissesAndRarelyLies) {
  // Property: FindKey(k) finds exactly the slot holding k, for random fills.
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    ResetNode();
    int n = 1 + static_cast<int>(rng.Uniform(kDataNodeEntries));
    uint64_t bitmap = 0;
    std::vector<uint64_t> keys;
    for (int i = 0; i < n; ++i) {
      uint64_t kv = rng.Next();
      Key k = Key::FromInt(kv);
      node_->FillSlot(i, k, k.Fingerprint(), kv ^ 0xabc);
      bitmap |= 1ULL << i;
      keys.push_back(kv);
    }
    node_->PublishBitmap(bitmap);
    for (int i = 0; i < n; ++i) {
      Key k = Key::FromInt(keys[i]);
      int slot = node_->FindKey(k, k.Fingerprint());
      ASSERT_EQ(slot, i);
      ASSERT_EQ(node_->ValueAt(slot), keys[i] ^ 0xabc);
    }
    // Absent keys are not found.
    for (int probe = 0; probe < 16; ++probe) {
      uint64_t kv = rng.Next();
      if (std::find(keys.begin(), keys.end(), kv) != keys.end()) {
        continue;
      }
      Key k = Key::FromInt(kv);
      ASSERT_EQ(node_->FindKey(k, k.Fingerprint()), -1);
    }
  }
}

// FindKey with the value-read flag pairs each candidate's key read with its
// value line. It must find exactly the slot the plain probe finds, and for a
// found key cost no more media bytes than the plain probe followed by the
// caller's own value read.
TEST_P(DataNodeTest, ValueReadingProbeMatchesPlainProbe) {
  const Key anchor = Key::FromInt(1000);
  struct Probe {
    int slot;
    uint64_t media_read_bytes;
  };
  auto probe = [&](const Key& k, uint8_t fp, bool will_read_value) {
    DropThreadReadCache();
    NvmStatsSnapshot before = GlobalNvmStats();
    int slot = node_->FindKey(k, fp, will_read_value);
    if (slot >= 0) {
      AnnotateNvmRead(node_->ValueSlot(slot), sizeof(uint64_t));
    }
    return Probe{slot, (GlobalNvmStats() - before).media_read_bytes};
  };
  // |collide|: every slot carries one fingerprint, so each probe walks every
  // earlier candidate's key (and, flagged, value) before its match. Otherwise
  // fingerprints are distinct and a probe has no false candidate.
  for (bool collide : {true, false}) {
    SCOPED_TRACE(collide ? "forced collision" : "distinct fingerprints");
    ResetNode(anchor);
    const int n = 48;
    std::vector<Key> keys;
    for (int i = 0; i < n; ++i) {
      // Slot 0 holds the anchor itself: a compact empty-suffix key.
      keys.push_back(Key::FromInt(1000 + 37 * static_cast<uint64_t>(i)));
      node_->FillSlot(i, keys[i], collide ? 0x5a : static_cast<uint8_t>(i + 1),
                      i * 10);
    }
    node_->PublishBitmap((1ULL << n) - 1);
    for (int i = 0; i < n; ++i) {
      const uint8_t fp = collide ? 0x5a : static_cast<uint8_t>(i + 1);
      Probe plain = probe(keys[i], fp, false);
      Probe paired = probe(keys[i], fp, true);
      ASSERT_EQ(plain.slot, i);
      ASSERT_EQ(paired.slot, i);
      EXPECT_EQ(node_->ValueAt(paired.slot), static_cast<uint64_t>(i) * 10);
      if (!collide) {
        EXPECT_LE(paired.media_read_bytes, plain.media_read_bytes) << "slot " << i;
      }
    }
    // Absent keys, including one whose fingerprint collides with every slot.
    for (uint64_t kv : {1001ULL, 999ULL, 5000ULL}) {
      Key k = Key::FromInt(kv);
      for (uint8_t fp : {k.Fingerprint(), uint8_t{0x5a}}) {
        EXPECT_EQ(probe(k, fp, false).slot, -1);
        EXPECT_EQ(probe(k, fp, true).slot, -1);
      }
    }
  }
}

TEST_P(DataNodeTest, ComputeSortedOrderIsSorted) {
  Rng rng(5);
  uint64_t bitmap = 0;
  // Scatter 40 keys into random slots.
  for (int placed = 0; placed < 40;) {
    int slot = static_cast<int>(rng.Uniform(kDataNodeEntries));
    if (bitmap & (1ULL << slot)) {
      continue;
    }
    Key k = Key::FromInt(rng.Next());
    node_->FillSlot(slot, k, k.Fingerprint(), 0);
    bitmap |= 1ULL << slot;
    placed++;
  }
  node_->PublishBitmap(bitmap);
  uint8_t order[kDataNodeEntries];
  int n = node_->ComputeSortedOrder(order);
  ASSERT_EQ(n, 40);
  for (int i = 1; i < n; ++i) {
    EXPECT_LT(node_->KeyAt(order[i - 1]).Compare(node_->KeyAt(order[i])), 0);
  }
}

TEST_P(DataNodeTest, SimdAndScalarFingerprintMatchAgree) {
  // The AVX2 path and a reference scalar implementation must agree on every
  // candidate set, including fingerprint collisions on non-matching keys
  // (random per-slot fingerprints force both true and false candidates).
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    ResetNode();
    uint64_t bitmap = rng.Next();
    for (size_t i = 0; i < kDataNodeEntries; ++i) {
      Key k = Key::FromInt(rng.Next());
      node_->FillSlot(static_cast<int>(i), k, static_cast<uint8_t>(rng.Next()), 0);
    }
    node_->PublishBitmap(bitmap);
    uint8_t probe_fp = static_cast<uint8_t>(rng.Next());
    Key probe = Key::FromInt(rng.Next());  // almost surely absent
    int simd = node_->FindKey(probe, probe_fp);
    // Scalar reference over the accessor surface.
    int ref = -1;
    for (size_t i = 0; i < kDataNodeEntries; ++i) {
      if ((bitmap >> i & 1) && node_->fp[i] == probe_fp &&
          node_->KeyEquals(static_cast<int>(i), probe)) {
        ref = static_cast<int>(i);
        break;
      }
    }
    ASSERT_EQ(simd, ref);
  }
}

TEST_P(DataNodeTest, SiblingPointerStores) {
  node_->StoreNextPersist(0x1234500);
  node_->StorePrevPersist(0x6789a00);
  EXPECT_EQ(node_->NextRaw(), 0x1234500u);
  EXPECT_EQ(node_->PrevRaw(), 0x6789a00u);
  EXPECT_FALSE(node_->IsDeleted());
}

// Oracle property test: a random churn of fills, republishes (updates), and
// bitmap-clears (removes) against a std::map must stay observationally equal
// through FindKey / KeyAt / ValueAt / ComputeSortedOrder, with periodic arena
// compactions thrown in. String keys share long prefixes with the anchor, so
// the compact format exercises real truncation (plen > 0).
TEST_P(DataNodeTest, RandomChurnMatchesMapOracle) {
  Rng rng(42);
  const Key anchor = Key::FromString("user/0000/");
  ResetNode(anchor);
  std::map<Key, uint64_t> oracle;
  std::map<Key, int> slot_of;
  uint64_t bitmap = 0;
  for (int step = 0; step < 4000; ++step) {
    const uint32_t op = static_cast<uint32_t>(rng.Uniform(10));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "user/0000/%04u",
                  static_cast<unsigned>(rng.Uniform(300)));
    Key k = Key::FromString(buf);
    if (op < 6) {  // upsert
      if (bitmap == ~0ULL || !node_->SuffixRoomFor(k)) {
        if (node_->CompactArenaLocked() == 0 || !node_->SuffixRoomFor(k)) {
          continue;  // a real writer would split here
        }
      }
      if (bitmap == ~0ULL) {
        continue;
      }
      int free = __builtin_ctzll(~bitmap);
      node_->FillSlot(free, k, k.Fingerprint(), rng.Next());
      uint64_t bm = bitmap | (1ULL << free);
      auto it = slot_of.find(k);
      if (it != slot_of.end()) {
        bm &= ~(1ULL << it->second);  // update protocol: both bits flip at once
      }
      node_->PublishBitmap(bm);
      bitmap = bm;
      oracle[k] = node_->ValueAt(free);
      slot_of[k] = free;
    } else if (op < 8) {  // remove
      auto it = slot_of.find(k);
      if (it == slot_of.end()) {
        continue;
      }
      bitmap &= ~(1ULL << it->second);
      node_->PublishBitmap(bitmap);
      oracle.erase(k);
      slot_of.erase(it);
    } else {  // compaction at an arbitrary point must be invisible to readers
      node_->CompactArenaLocked();
    }
    if (step % 97 == 0 || step == 3999) {
      // Full oracle check.
      ASSERT_EQ(static_cast<size_t>(node_->CountLive()), oracle.size());
      for (const auto& [ok, ov] : oracle) {
        int slot = node_->FindKey(ok, ok.Fingerprint());
        ASSERT_GE(slot, 0) << ok.ToString();
        ASSERT_EQ(node_->KeyAt(slot), ok);
        ASSERT_EQ(node_->ValueAt(slot), ov);
      }
      uint8_t order[kDataNodeEntries];
      int n = node_->ComputeSortedOrder(order);
      ASSERT_EQ(static_cast<size_t>(n), oracle.size());
      auto oit = oracle.begin();
      for (int i = 0; i < n; ++i, ++oit) {
        ASSERT_EQ(node_->KeyAt(order[i]), oit->first);
      }
    }
  }
}

TEST_P(DataNodeTest, ArenaCompactionReclaimsDeadSuffixes) {
  if (!compact()) {
    GTEST_SKIP() << "classic nodes have no arena";
  }
  const Key anchor = Key::FromString("k/");
  ResetNode(anchor);
  // Fill 32 slots with distinct 14-byte suffixes, then kill every other slot.
  uint64_t bitmap = 0;
  for (int i = 0; i < 32; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "k/suffix-%05d", i);
    Key k = Key::FromString(buf);
    node_->FillSlot(i, k, k.Fingerprint(), i);
    bitmap |= 1ULL << i;
  }
  node_->PublishBitmap(bitmap);
  const uint16_t before = node_->arena_cursor;
  ASSERT_GT(before, 0);
  uint64_t survivors = 0;
  for (int i = 0; i < 32; i += 2) {
    survivors |= 1ULL << i;
  }
  node_->PublishBitmap(survivors);
  const size_t reclaimed = node_->CompactArenaLocked();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LT(node_->arena_cursor, before);
  // Survivors read back exactly, through descriptors that were swung.
  for (int i = 0; i < 32; i += 2) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "k/suffix-%05d", i);
    Key k = Key::FromString(buf);
    ASSERT_EQ(node_->FindKey(k, k.Fingerprint()), i);
    ASSERT_EQ(node_->KeyAt(i), k);
  }
}

TEST_P(DataNodeTest, UpdateChurnSharesSuffixesInsteadOfLeaking) {
  if (!compact()) {
    GTEST_SKIP() << "classic nodes have no arena";
  }
  const Key anchor = Key::FromString("a/");
  ResetNode(anchor);
  Key k = Key::FromString("a/the-same-long-suffix-bytes");
  node_->FillSlot(0, k, k.Fingerprint(), 0);
  node_->PublishBitmap(1);
  const uint16_t after_first = node_->arena_cursor;
  // Update protocol: fill a fresh slot with the same key, flip both bits.
  int cur = 0;
  for (int round = 0; round < 200; ++round) {
    int next = cur ^ 1;
    ASSERT_TRUE(node_->SuffixRoomFor(k));
    node_->FillSlot(next, k, k.Fingerprint(), round);
    node_->PublishBitmap(1ULL << next);
    cur = next;
  }
  // The live identical suffix was shared every round: zero arena growth.
  EXPECT_EQ(node_->arena_cursor, after_first);
  EXPECT_EQ(node_->KeyAt(cur), k);
}

TEST_P(DataNodeTest, SuffixRoomForReportsSharingAndExhaustion) {
  if (!compact()) {
    GTEST_SKIP() << "classic nodes have no arena";
  }
  ResetNode(Key::Min());
  // Burn the arena down to < 24 free bytes with distinct 32-byte keys.
  uint64_t bitmap = 0;
  int slot = 0;
  while (kCompactArenaBytes - node_->arena_cursor >= 32) {
    char buf[33];
    std::snprintf(buf, sizeof(buf), "long-key-%019d-pad", slot);  // exactly 32 chars
    Key k = Key::FromBytes(buf, 32);
    ASSERT_TRUE(node_->SuffixRoomFor(k));
    node_->FillSlot(slot, k, k.Fingerprint(), 0);
    bitmap |= 1ULL << slot;
    ++slot;
  }
  node_->PublishBitmap(bitmap);
  // A new 32-byte key no longer fits by cursor...
  Key fresh = Key::FromString("long-key-does-not-fit-anymore!!!");
  ASSERT_EQ(fresh.size(), 32u);
  EXPECT_FALSE(node_->SuffixRoomFor(fresh));
  // ...but a key identical to a live one is admitted via sharing.
  EXPECT_TRUE(node_->SuffixRoomFor(node_->KeyAt(0)));
  // An anchor-equal key (empty suffix) always fits.
  EXPECT_TRUE(node_->SuffixRoomFor(Key::Min()));
}

INSTANTIATE_TEST_SUITE_P(Formats, DataNodeTest,
                         ::testing::Values(NodeFormat::kClassic,
                                           NodeFormat::kCompact),
                         [](const ::testing::TestParamInfo<NodeFormat>& info) {
                           return info.param == NodeFormat::kCompact
                                      ? "Compact"
                                      : "Classic";
                         });

}  // namespace
}  // namespace pactree
