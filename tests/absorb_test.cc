// Write-absorption buffer tests (src/absorb + PacTree integration): ack/drain
// semantics, scan merge against a model under forced drains, writer
// backpressure, unit-level op-log replay with torn entries, drain-service
// registration, and the media-write ablation the subsystem exists for.
#include "src/absorb/absorb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/nvm/config.h"
#include "src/nvm/persist.h"
#include "src/nvm/topology.h"
#include "src/pactree/pactree.h"
#include "src/pmem/heap.h"
#include "src/runtime/maintenance.h"
#include "src/sync/epoch.h"

namespace pactree {
namespace {

// ---------------------------------------------------------------------------
// PacTree integration fixture
// ---------------------------------------------------------------------------

class AbsorbTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    PacTree::Destroy("absorb_test");
    opts_.name = "absorb_test";
    opts_.pool_id_base = 700;
    opts_.pool_size = 256 << 20;
    opts_.absorb_writes = true;
    opts_.absorb_shards = 2;
  }

  void TearDown() override {
    tree_.reset();
    EpochManager::Instance().DrainAll();
    PacTree::Destroy("absorb_test");
  }

  void Open() {
    tree_ = PacTree::Open(opts_);
    ASSERT_NE(tree_, nullptr);
  }

  void Reopen() {
    tree_.reset();
    EpochManager::Instance().DrainAll();
    tree_ = PacTree::Open(opts_);
    ASSERT_NE(tree_, nullptr);
  }

  PacTreeOptions opts_;
  std::unique_ptr<PacTree> tree_;
};

// Sync mode: no services, drains run inline -- fully deterministic.
class AbsorbSyncTest : public AbsorbTreeTest {
 protected:
  void SetUp() override {
    AbsorbTreeTest::SetUp();
    opts_.async_search_update = false;
    Open();
  }
};

TEST_F(AbsorbSyncTest, SemanticsServedFromStaging) {
  // Nothing drained yet: every answer below comes from the absorb shards.
  EXPECT_EQ(tree_->Insert(Key::FromInt(1), 10), Status::kOk);
  EXPECT_EQ(tree_->Insert(Key::FromInt(1), 11), Status::kExists);
  uint64_t v = 0;
  ASSERT_EQ(tree_->Lookup(Key::FromInt(1), &v), Status::kOk);
  EXPECT_EQ(v, 11u);
  EXPECT_EQ(tree_->Update(Key::FromInt(2), 1), Status::kNotFound);
  EXPECT_EQ(tree_->Update(Key::FromInt(1), 12), Status::kOk);
  ASSERT_EQ(tree_->Lookup(Key::FromInt(1), &v), Status::kOk);
  EXPECT_EQ(v, 12u);
  EXPECT_EQ(tree_->Remove(Key::FromInt(2)), Status::kNotFound);
  EXPECT_EQ(tree_->Remove(Key::FromInt(1)), Status::kOk);
  EXPECT_EQ(tree_->Lookup(Key::FromInt(1), nullptr), Status::kNotFound);
  EXPECT_EQ(tree_->Remove(Key::FromInt(1)), Status::kNotFound);
  // Re-insert over the staged tombstone.
  EXPECT_EQ(tree_->Insert(Key::FromInt(1), 13), Status::kOk);
  ASSERT_EQ(tree_->Lookup(Key::FromInt(1), &v), Status::kOk);
  EXPECT_EQ(v, 13u);
  EXPECT_EQ(tree_->Size(), 1u);
}

TEST_F(AbsorbSyncTest, SemanticsSurviveDrain) {
  ASSERT_EQ(tree_->Insert(Key::FromInt(7), 70), Status::kOk);
  ASSERT_EQ(tree_->Insert(Key::FromInt(8), 80), Status::kOk);
  ASSERT_EQ(tree_->Remove(Key::FromInt(8)), Status::kOk);
  EXPECT_FALSE(tree_->AbsorbDrained());
  tree_->DrainAbsorb();
  EXPECT_TRUE(tree_->AbsorbDrained());
  uint64_t v = 0;
  ASSERT_EQ(tree_->Lookup(Key::FromInt(7), &v), Status::kOk);
  EXPECT_EQ(v, 70u);
  EXPECT_EQ(tree_->Lookup(Key::FromInt(8), nullptr), Status::kNotFound);
  // Presence checks now consult the data layer (staging is empty).
  EXPECT_EQ(tree_->Insert(Key::FromInt(7), 71), Status::kExists);
  EXPECT_EQ(tree_->Update(Key::FromInt(8), 1), Status::kNotFound);
  AbsorbStats st = tree_->Stats().absorb;
  EXPECT_GE(st.staged, 4u);
  EXPECT_GE(st.drained, 3u);
  EXPECT_GE(st.batches, 1u);
}

TEST_F(AbsorbSyncTest, LargeLoadDrainsIntoConsistentTree) {
  constexpr uint64_t kN = 50000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i + 3), Status::kOk) << i;
  }
  tree_->DrainAbsorb();
  tree_->DrainSmoLogs();
  EXPECT_EQ(tree_->Size(), kN);
  for (uint64_t i = 0; i < kN; i += 17) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i), &v), Status::kOk) << i;
    ASSERT_EQ(v, i + 3);
  }
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
  EXPECT_GT(tree_->Stats().splits, kN / 64);
}

TEST_F(AbsorbSyncTest, CleanShutdownDrainsThenAbsorbOffReadsEverything) {
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i), Status::kOk);
  }
  // The destructor drains the shards; the rings are empty on disk, so the
  // next incarnation -- even with absorption off -- sees every ack'd write.
  opts_.absorb_writes = false;
  Reopen();
  EXPECT_EQ(tree_->Size(), 5000u);
  uint64_t v;
  ASSERT_EQ(tree_->Lookup(Key::FromInt(4999), &v), Status::kOk);
  EXPECT_EQ(v, 4999u);
}

TEST_F(AbsorbSyncTest, ScanMergesStagingAndBase) {
  // Base layer: even keys 0..98 (drained); staging: odd keys 1..99 plus a
  // tombstone over one base key and an overwrite of another.
  for (uint64_t i = 0; i < 100; i += 2) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i), Status::kOk);
  }
  tree_->DrainAbsorb();
  for (uint64_t i = 1; i < 100; i += 2) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i + 1000), Status::kOk);
  }
  ASSERT_EQ(tree_->Remove(Key::FromInt(40)), Status::kOk);
  ASSERT_EQ(tree_->Update(Key::FromInt(42), 4242), Status::kOk);

  std::vector<std::pair<Key, uint64_t>> out;
  size_t n = tree_->Scan(Key::FromInt(0), 200, &out);
  EXPECT_EQ(n, 99u);  // 100 keys minus the tombstoned 40
  uint64_t prev = 0;
  bool first = true;
  for (const auto& [k, v] : out) {
    uint64_t ki = k.ToInt();
    if (!first) {
      EXPECT_LT(prev, ki) << "scan must be ascending and duplicate-free";
    }
    first = false;
    prev = ki;
    EXPECT_NE(ki, 40u) << "tombstone must mask the base key";
    if (ki == 42) {
      EXPECT_EQ(v, 4242u) << "staged overwrite must win over the base value";
    } else if (ki % 2 == 1) {
      EXPECT_EQ(v, ki + 1000);
    } else {
      EXPECT_EQ(v, ki);
    }
  }
  // Bounded scans still fill their window despite tombstones in range.
  n = tree_->Scan(Key::FromInt(39), 5, &out);
  ASSERT_EQ(n, 5u);
  EXPECT_EQ(out[0].first.ToInt(), 39u);
  EXPECT_EQ(out[1].first.ToInt(), 41u);  // 40 masked
  EXPECT_EQ(out[2].first.ToInt(), 42u);
}

// The satellite property test: random interleavings of buffered upserts and
// tombstones against a std::map model, with drains forced at random points
// between (and, in the async variant below, during) scans.
TEST_F(AbsorbSyncTest, ScanMergePropertyAgainstModel) {
  Rng rng(20260807);
  std::map<uint64_t, uint64_t> model;
  constexpr uint64_t kDomain = 4000;
  for (int step = 0; step < 30000; ++step) {
    uint64_t k = rng.Uniform(kDomain);
    uint32_t what = static_cast<uint32_t>(rng.Uniform(100));
    if (what < 55) {
      tree_->Insert(Key::FromInt(k), step);
      model[k] = static_cast<uint64_t>(step);
    } else if (what < 75) {
      Status s = tree_->Update(Key::FromInt(k), step);
      ASSERT_EQ(s == Status::kOk, model.count(k) == 1) << k;
      if (s == Status::kOk) {
        model[k] = static_cast<uint64_t>(step);
      }
    } else if (what < 95) {
      Status s = tree_->Remove(Key::FromInt(k));
      ASSERT_EQ(s == Status::kOk, model.erase(k) == 1) << k;
    } else {
      tree_->DrainAbsorb();  // forced drain at a random interleaving point
    }
    if (step % 97 == 0) {
      uint64_t start = rng.Uniform(kDomain);
      size_t count = 1 + rng.Uniform(60);
      std::vector<std::pair<Key, uint64_t>> got;
      tree_->Scan(Key::FromInt(start), count, &got);
      std::vector<std::pair<uint64_t, uint64_t>> want;
      for (auto it = model.lower_bound(start);
           it != model.end() && want.size() < count; ++it) {
        want.emplace_back(it->first, it->second);
      }
      ASSERT_EQ(got.size(), want.size()) << "start=" << start;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].first.ToInt(), want[i].first) << "start=" << start;
        ASSERT_EQ(got[i].second, want[i].second) << "key=" << want[i].first;
      }
    }
  }
  tree_->DrainAbsorb();
  tree_->DrainSmoLogs();
  EXPECT_EQ(tree_->Size(), model.size());
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

TEST_F(AbsorbSyncTest, RingFullBackpressureDrainsInline) {
  opts_.absorb_ring_capacity = 4;
  Reopen();
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i), Status::kOk) << i;
  }
  // Capacity 4 forces the writers to drain inline; every op still lands.
  AbsorbStats st = tree_->Stats().absorb;
  EXPECT_GT(st.drained, 400u);
  tree_->DrainAbsorb();
  EXPECT_EQ(tree_->Size(), 500u);
}

// The reason the subsystem exists: an upsert-heavy workload over a bounded key
// set must cost measurably fewer media write bytes per acked insert with
// absorption on. Off-path, every upsert pays its own slot flushes plus a
// bitmap publish on a random node (whose XPLines have long left the combining
// window); absorbed, the ack is a sequential 128 B log append and the sorted
// full-ring drain lands several ops per node -- in-place value overwrites
// coalescing in shared XPLines, one bitmap publish per node per batch.
TEST_F(AbsorbSyncTest, MediaWriteBytesPerInsertDrop) {
  constexpr uint64_t kN = 30000;
  constexpr uint64_t kDomain = 2000;
  Rng rng(99);
  std::vector<uint64_t> keys(kN);
  uint64_t distinct;
  {
    std::map<uint64_t, bool> seen;
    for (auto& k : keys) {
      k = rng.Uniform(kDomain);
      seen[k] = true;
    }
    distinct = seen.size();
  }

  auto run = [&](bool absorb, uint16_t pool_base) -> uint64_t {
    PacTreeOptions o = opts_;
    o.absorb_writes = absorb;
    o.absorb_drain_batch = kAbsorbLogEntries;  // full-ring sorted batches
    o.name = "absorb_media";
    o.pool_id_base = pool_base;
    PacTree::Destroy(o.name);
    auto t = PacTree::Open(o);
    EXPECT_NE(t, nullptr);
    NvmStatsSnapshot before = t->data_heap()->MediaStats();
    before += t->log_heap()->MediaStats();
    for (uint64_t k : keys) {
      t->Insert(Key::FromInt(k), k);
    }
    t->DrainAbsorb();  // charge the drain to the absorb run: end-to-end cost
    NvmStatsSnapshot after = t->data_heap()->MediaStats();
    after += t->log_heap()->MediaStats();
    uint64_t size = t->Size();
    t.reset();
    EpochManager::Instance().DrainAll();
    PacTree::Destroy("absorb_media");
    EXPECT_EQ(size, distinct);
    return after.media_write_bytes - before.media_write_bytes;
  };

  uint64_t off = run(false, 740);
  uint64_t on = run(true, 770);  // distinct pool ids: no shared model state
  EXPECT_LT(on, off) << "absorption must reduce media write traffic";
  EXPECT_LT(static_cast<double>(on), 0.8 * static_cast<double>(off))
      << "coalescing should be a measurable win, not noise: on=" << on
      << " off=" << off;
}

// ---------------------------------------------------------------------------
// Async mode: real drain services
// ---------------------------------------------------------------------------

class AbsorbAsyncTest : public AbsorbTreeTest {
 protected:
  void SetUp() override {
    AbsorbTreeTest::SetUp();
    Open();
  }
};

TEST_F(AbsorbAsyncTest, DrainServicesRegistered) {
  ASSERT_NE(tree_->absorb(), nullptr);
  const auto& services = tree_->absorb()->services();
  ASSERT_EQ(services.size(), 2u);
  for (size_t i = 0; i < services.size(); ++i) {
    EXPECT_EQ(services[i]->name(),
              "absorb_test/absorb/drain-" + std::to_string(i));
    EXPECT_TRUE(services[i]->running());
  }
  // Discoverable through the process-wide registry, like every other
  // maintenance service (the bench's stats printer relies on this).
  auto snap = MaintenanceRegistry::Instance().StatsSnapshot("absorb_test/absorb/");
  EXPECT_EQ(snap.size(), 2u);
}

TEST_F(AbsorbAsyncTest, ServicesDrainWithoutExplicitHelp) {
  constexpr uint64_t kN = 20000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i), Status::kOk);
  }
  tree_->DrainAbsorb();  // CV barrier against the live services
  EXPECT_TRUE(tree_->AbsorbDrained());
  AbsorbStats st = tree_->Stats().absorb;
  EXPECT_EQ(st.drained, st.staged);
  EXPECT_EQ(st.pending, 0u);
  EXPECT_EQ(tree_->Size(), kN);
}

TEST_F(AbsorbAsyncTest, ConcurrentWritersAndDrains) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 8000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SetCurrentNumaNode(static_cast<uint32_t>(t) % 2);
      uint64_t base = static_cast<uint64_t>(t) * 1000000;
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ASSERT_EQ(tree_->Insert(Key::FromInt(base + i), base + i), Status::kOk);
        if (i % 7 == 0) {
          uint64_t v;
          ASSERT_EQ(tree_->Lookup(Key::FromInt(base + i), &v), Status::kOk);
          ASSERT_EQ(v, base + i);
        }
        if (i % 5 == 0) {
          ASSERT_EQ(tree_->Remove(Key::FromInt(base + i)), Status::kOk);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  tree_->DrainAbsorb();
  tree_->DrainSmoLogs();
  uint64_t expect = kThreads * (kPerThread - (kPerThread + 4) / 5);
  EXPECT_EQ(tree_->Size(), expect);
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

// Scans racing the drain services over a fixed key set: the merge must return
// exactly the model regardless of how far the drains have progressed.
TEST_F(AbsorbAsyncTest, ScanExactWhileDrainsProgress) {
  constexpr uint64_t kN = 30000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i * 2), Status::kOk);
  }
  // No writers from here on: every scan below must see exactly [0, kN),
  // whether an op is still staged, mid-drain, or applied.
  // The drain starts only once the scanner runs, and the scanner completes at
  // least one scan, so scans really overlap the drain.
  std::atomic<bool> stop{false};
  std::atomic<bool> scanner_started{false};
  std::thread scanner([&] {
    SetCurrentNumaNode(0);
    Rng rng(5);
    std::vector<std::pair<Key, uint64_t>> out;
    scanner_started.store(true, std::memory_order_release);
    do {
      uint64_t start = rng.Uniform(kN);
      size_t count = 1 + rng.Uniform(200);
      size_t n = tree_->Scan(Key::FromInt(start), count, &out);
      size_t want = std::min<size_t>(count, kN - start);
      ASSERT_EQ(n, want) << "start=" << start;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i].first.ToInt(), start + i);
        ASSERT_EQ(out[i].second, (start + i) * 2);
      }
    } while (!stop.load(std::memory_order_relaxed));
  });
  while (!scanner_started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  tree_->DrainAbsorb();  // drains progress under the scanner's feet
  stop.store(true, std::memory_order_relaxed);
  scanner.join();
  EXPECT_TRUE(tree_->AbsorbDrained());
}

// ---------------------------------------------------------------------------
// Unit-level op-log replay (recovery semantics without a crash harness)
// ---------------------------------------------------------------------------

// Sink that applies to a plain map and records every batch it was handed.
class MapSink : public AbsorbSink {
 public:
  Status AbsorbBaseLookup(const Key& key, uint64_t* value) const override {
    auto it = data_.find(key);
    if (it == data_.end()) {
      return Status::kNotFound;
    }
    if (value != nullptr) {
      *value = it->second;
    }
    return Status::kOk;
  }
  bool AbsorbApply(const AbsorbOp* ops, size_t n) override {
    batches_.emplace_back(ops, ops + n);
    if (reject_applies_ > 0) {
      --reject_applies_;  // simulate a full data layer for the next N batches
      return false;
    }
    for (size_t i = 0; i < n; ++i) {
      if (ops[i].type == kAbsorbOpTombstone) {
        data_.erase(ops[i].key);
      } else {
        data_[ops[i].key] = ops[i].value;
      }
    }
    return true;
  }
  std::map<Key, uint64_t>& data() { return data_; }
  const std::vector<std::vector<AbsorbOp>>& batches() const { return batches_; }
  void RejectNextApplies(int n) { reject_applies_ = n; }

 private:
  std::map<Key, uint64_t> data_;
  std::vector<std::vector<AbsorbOp>> batches_;
  int reject_applies_ = 0;
};

class AbsorbRingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    PmemHeap::Destroy("absorb_ring");
    PmemHeapOptions h;
    h.pool_id_base = 760;
    h.pool_size = 64 << 20;
    heap_ = PmemHeap::OpenOrCreate("absorb_ring", h);
    ASSERT_NE(heap_, nullptr);
    PPtr<void> p = heap_->Alloc(sizeof(AbsorbLogRing));
    ASSERT_FALSE(p.IsNull());
    ring_ = static_cast<AbsorbLogRing*>(p.get());
    std::memset(static_cast<void*>(ring_), 0, sizeof(AbsorbLogRing));
    PersistFence(ring_, sizeof(AbsorbLogRing));
  }

  void TearDown() override {
    heap_.reset();
    PmemHeap::Destroy("absorb_ring");
  }

  std::unique_ptr<PmemHeap> heap_;
  AbsorbLogRing* ring_ = nullptr;
};

TEST_F(AbsorbRingTest, ReplayAppliesUndrainedOpsInSeqOrder) {
  AbsorbOptions ao;
  ao.shards = 1;
  ao.async = false;
  MapSink sink;
  {
    AbsorbBuffer buf(ao, &sink);
    buf.AttachRing(0, ring_);
    EXPECT_EQ(buf.Insert(Key::FromInt(3), 30), Status::kOk);
    EXPECT_EQ(buf.Insert(Key::FromInt(1), 10), Status::kOk);
    EXPECT_EQ(buf.Insert(Key::FromInt(1), 11), Status::kExists);
    EXPECT_EQ(buf.Remove(Key::FromInt(3)), Status::kOk);
    // Not drained: the buffer dies, the ring keeps all four entries.
  }
  ASSERT_TRUE(sink.data().empty());

  MapSink sink2;
  AbsorbBuffer recovered(ao, &sink2);
  recovered.AttachRing(0, ring_);
  EXPECT_EQ(recovered.ReplayAndReset(), 4u);
  EXPECT_TRUE(recovered.Drained());
  // Net effect: key 1 -> 11 (seq order kept the overwrite last), key 3 gone.
  ASSERT_EQ(sink2.data().size(), 1u);
  EXPECT_EQ(sink2.data()[Key::FromInt(1)], 11u);
  // Batches arrive (key, seq)-sorted.
  ASSERT_EQ(sink2.batches().size(), 1u);
  const auto& b = sink2.batches()[0];
  for (size_t i = 1; i < b.size(); ++i) {
    bool ordered = b[i - 1].key < b[i].key ||
                   (b[i - 1].key == b[i].key && b[i - 1].seq < b[i].seq);
    EXPECT_TRUE(ordered) << i;
  }
  // Replay reset the ring durably: a second replay finds nothing.
  MapSink sink3;
  AbsorbBuffer again(ao, &sink3);
  again.AttachRing(0, ring_);
  EXPECT_EQ(again.ReplayAndReset(), 0u);
  EXPECT_TRUE(sink3.data().empty());
}

TEST_F(AbsorbRingTest, TornEntriesAreDiscarded) {
  AbsorbOptions ao;
  ao.shards = 1;
  ao.async = false;
  MapSink sink;
  {
    AbsorbBuffer buf(ao, &sink);
    buf.AttachRing(0, ring_);
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_EQ(buf.Insert(Key::FromInt(i), i + 100), Status::kOk);
    }
  }
  // Tear entry 2 the way an 8-byte-granular media crash can: one word of the
  // flushed line committed, the rest did not. The checksum must reject it.
  ring_->entries[2].value ^= 0xdeadULL;
  PersistFence(&ring_->entries[2], sizeof(AbsorbLogEntry));

  MapSink sink2;
  AbsorbBuffer recovered(ao, &sink2);
  recovered.AttachRing(0, ring_);
  EXPECT_EQ(recovered.ReplayAndReset(), 4u);
  EXPECT_EQ(sink2.data().size(), 4u);
  EXPECT_EQ(sink2.data().count(Key::FromInt(2)), 0u)
      << "a torn entry is an unacked op and must vanish";
  // Torn-seq variant: corrupting the seq word also invalidates the checksum.
  {
    AbsorbBuffer buf(ao, &sink);
    buf.AttachRing(0, ring_);
    ASSERT_EQ(buf.Insert(Key::FromInt(9), 900), Status::kOk);
  }
  ring_->entries[0].seq += 7;
  PersistFence(&ring_->entries[0], sizeof(AbsorbLogEntry));
  MapSink sink3;
  AbsorbBuffer r2(ao, &sink3);
  r2.AttachRing(0, ring_);
  EXPECT_EQ(r2.ReplayAndReset(), 0u);
}

TEST_F(AbsorbRingTest, FuzzBitFlipsNeverAdmitCorruptEntries) {
  // Adversarial media corruption: flip random bits anywhere in the persisted
  // ring (entries, counters, padding) and replay. Recovery trusts only the
  // per-entry checksum, so every op it admits must be byte-identical to one
  // the writer actually logged -- a flipped entry may vanish (it was never
  // acked durable in that state) but must never replay with altered contents.
  AbsorbOptions ao;
  ao.shards = 1;
  ao.async = false;
  constexpr uint64_t kOps = 48;
  MapSink sink;
  {
    AbsorbBuffer buf(ao, &sink);
    buf.AttachRing(0, ring_);
    for (uint64_t i = 0; i < kOps; ++i) {
      if (i % 5 == 4) {
        ASSERT_EQ(buf.Remove(Key::FromInt(i - 1)), Status::kOk);
      } else {
        ASSERT_EQ(buf.Insert(Key::FromInt(i), i + 1000), Status::kOk);
      }
    }
  }
  // Model: the exact (seq -> entry) map the writer made durable.
  std::map<uint64_t, AbsorbLogEntry> model;
  for (size_t i = 0; i < kAbsorbLogEntries; ++i) {
    if (ring_->entries[i].type != 0) {
      model[ring_->entries[i].seq] = ring_->entries[i];
    }
  }
  ASSERT_EQ(model.size(), kOps);
  std::vector<uint8_t> pristine(sizeof(AbsorbLogRing));
  std::memcpy(pristine.data(), ring_, sizeof(AbsorbLogRing));

  Rng rng(0xf00dfeedULL);
  for (int round = 0; round < 256; ++round) {
    std::memcpy(static_cast<void*>(ring_), pristine.data(), sizeof(AbsorbLogRing));
    uint64_t flips = 1 + rng.Uniform(8);
    for (uint64_t f = 0; f < flips; ++f) {
      size_t byte = rng.Uniform(sizeof(AbsorbLogRing));
      reinterpret_cast<uint8_t*>(ring_)[byte] ^= uint8_t{1} << rng.Uniform(8);
    }
    PersistFence(ring_, sizeof(AbsorbLogRing));

    MapSink replayed;
    AbsorbBuffer r(ao, &replayed);
    r.AttachRing(0, ring_);
    bool complete = true;
    r.ReplayAndReset(&complete);
    EXPECT_TRUE(complete) << "round " << round << ": corruption is discarded, "
                          << "never surfaced as an apply failure";
    for (const auto& batch : replayed.batches()) {
      for (const AbsorbOp& op : batch) {
        auto it = model.find(op.seq);
        ASSERT_NE(it, model.end())
            << "round " << round << ": admitted op with forged seq " << op.seq;
        EXPECT_TRUE(op.key == it->second.key)
            << "round " << round << " seq " << op.seq << ": corrupt key admitted";
        EXPECT_EQ(op.value, it->second.value)
            << "round " << round << " seq " << op.seq << ": corrupt value admitted";
        EXPECT_EQ(op.type, it->second.type)
            << "round " << round << " seq " << op.seq << ": corrupt type admitted";
      }
    }
  }
}

TEST_F(AbsorbRingTest, ReplayIsIdempotentOverAppliedPrefix) {
  // Simulate a crash mid-drain: the sink already absorbed a prefix of the
  // ops, but the log was not yet trimmed. Replay must converge to the same
  // final state.
  AbsorbOptions ao;
  ao.shards = 1;
  ao.async = false;
  MapSink sink;
  {
    AbsorbBuffer buf(ao, &sink);
    buf.AttachRing(0, ring_);
    ASSERT_EQ(buf.Insert(Key::FromInt(1), 10), Status::kOk);
    ASSERT_EQ(buf.Insert(Key::FromInt(2), 20), Status::kOk);
    ASSERT_EQ(buf.Remove(Key::FromInt(1)), Status::kOk);
  }
  // "Crashed drain" already applied everything once.
  MapSink partial;
  partial.data()[Key::FromInt(2)] = 20;  // upsert applied
  // (key 1: insert+remove both applied -- absent, as after the full batch)
  AbsorbBuffer recovered(ao, &partial);
  recovered.AttachRing(0, ring_);
  EXPECT_EQ(recovered.ReplayAndReset(), 3u);
  ASSERT_EQ(partial.data().size(), 1u);
  EXPECT_EQ(partial.data()[Key::FromInt(2)], 20u);
  EXPECT_EQ(partial.data().count(Key::FromInt(1)), 0u);
}

}  // namespace
}  // namespace pactree
