// Tiered value storage tests: inline handle codec, the standalone
// log-structured ValueStorage (append/read, torn-record rejection, GC
// relocation against a map sink), the DRAM hot-value cache (lock-free hits
// under churn, allocation-free hits, range eviction, exact counts), and the
// PacTree-integrated value API (absorb on and off, scans, batched gets,
// overwrite/remove invalidation, an std::map oracle property test with
// random inline GC, concurrent readers vs GC for TSan, and reopen recovery).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/nvm/config.h"
#include "src/nvm/topology.h"
#include "src/pactree/pactree.h"
#include "src/pmem/pptr.h"
#include "src/runtime/workers.h"
#include "src/sync/epoch.h"
#include "src/value/lru_cache.h"
#include "src/value/value_handle.h"
#include "src/value/value_storage.h"

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

// Deterministic payload: byte i of (seed, len) is a mix of both, so a
// mismatched read cannot accidentally verify.
std::string MakeValue(uint64_t seed, size_t len) {
  std::string v(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    v[i] = static_cast<char>((seed * 131 + i * 7 + len) & 0xff);
  }
  return v;
}

// ---------------------------------------------------------------------------
// Inline codec
// ---------------------------------------------------------------------------

TEST(ValueHandleTest, InlineRoundTripAllLengths) {
  for (size_t len = 0; len <= kMaxInlineValue; ++len) {
    std::string in = MakeValue(len + 1, len);
    uint64_t h = EncodeInlineValue(in);
    EXPECT_TRUE(ValueHandleIsInline(h));
    EXPECT_NE(h, 0u);  // tag bit: an inline handle is never the null word
    std::string out;
    DecodeInlineValue(h, &out);
    EXPECT_EQ(out, in) << "len=" << len;
  }
}

TEST(ValueHandleTest, LogHandlesAreNotInline) {
  // PPtr raws keep bit 63 clear (pool ids are far below 2^15), so no real
  // log handle can alias the inline tag.
  EXPECT_FALSE(ValueHandleIsInline(0));
  EXPECT_FALSE(ValueHandleIsInline((100ULL << 48) | 0x1234));
}

// ---------------------------------------------------------------------------
// Standalone ValueStorage
// ---------------------------------------------------------------------------

// Index stand-in for GC: a mutex-protected map of current handles.
class MapSink : public ValueGcSink {
 public:
  bool CurrentValueHandle(const Key& key, uint64_t* handle) const override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      return false;
    }
    *handle = it->second;
    return true;
  }
  bool CasValueHandle(const Key& key, uint64_t old_handle,
                      uint64_t new_handle) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end() || it->second != old_handle) {
      return false;
    }
    it->second = new_handle;
    return true;
  }
  void Set(const Key& key, uint64_t handle) {
    std::lock_guard<std::mutex> lock(mu_);
    map_[key] = handle;
  }
  void Erase(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    map_.erase(key);
  }
  uint64_t Get(const Key& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    return it == map_.end() ? 0 : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<Key, uint64_t> map_;
};

class ValueStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    ValueStorage::Destroy("vs_test");
    opts_.name = "vs_test";
    opts_.pool_id_base = 180;
    opts_.pool_size = 64 << 20;
    opts_.segment_size = 32 << 10;  // small: rotation + GC within a test
    opts_.arenas = 1;               // deterministic placement
    opts_.async = false;            // no background GC; tests drive GcPass
    store_ = ValueStorage::Open(opts_, &sink_);
    ASSERT_NE(store_, nullptr);
  }

  void TearDown() override {
    store_.reset();
    EpochManager::Instance().DrainAll();
    ValueStorage::Destroy("vs_test");
  }

  void Reopen() {
    store_.reset();
    EpochManager::Instance().DrainAll();
    store_ = ValueStorage::Open(opts_, &sink_);
    ASSERT_NE(store_, nullptr);
  }

  ValueStorageOptions opts_;
  MapSink sink_;
  std::unique_ptr<ValueStorage> store_;
};

TEST_F(ValueStorageTest, AppendReadSizes) {
  // 64 B .. 4 KiB: every size round-trips byte-exactly (4 KiB spans multiple
  // of the 32 KiB segments' worth of appends, forcing rotation).
  std::vector<std::pair<uint64_t, std::string>> written;
  for (size_t len : {64u, 100u, 512u, 1024u, 4096u}) {
    for (int i = 0; i < 8; ++i) {
      Key k = Key::FromInt(len * 100 + i);
      std::string v = MakeValue(len + i, len);
      uint64_t h = 0;
      ASSERT_EQ(store_->Append(k, v, &h), Status::kOk);
      EXPECT_FALSE(ValueHandleIsInline(h));
      written.emplace_back(h, v);
      sink_.Set(k, h);  // Append itself counts the record live
    }
  }
  size_t idx = 0;
  for (size_t len : {64u, 100u, 512u, 1024u, 4096u}) {
    for (int i = 0; i < 8; ++i) {
      Key k = Key::FromInt(len * 100 + i);
      std::string out;
      ASSERT_EQ(store_->Read(written[idx].first, k, &out), Status::kOk);
      EXPECT_EQ(out, written[idx].second);
      ++idx;
    }
  }
  EXPECT_EQ(store_->Stats().appends, written.size());
}

TEST_F(ValueStorageTest, OversizeRejected) {
  std::string big(store_->max_value_bytes() + 1, 'x');
  uint64_t h = 0;
  EXPECT_EQ(store_->Append(Key::FromInt(1), big, &h), Status::kFull);
}

TEST_F(ValueStorageTest, TornRecordRejected) {
  Key k = Key::FromInt(42);
  std::string v = MakeValue(42, 256);
  uint64_t h = 0;
  ASSERT_EQ(store_->Append(k, v, &h), Status::kOk);
  std::string out;
  ASSERT_EQ(store_->Read(h, k, &out), Status::kOk);

  // Flip one payload byte behind the checksum's back -- a torn write image.
  uint8_t* bytes = PPtr<uint8_t>(h).get();
  ASSERT_NE(bytes, nullptr);
  bytes[sizeof(ValueRecordHeader) + k.size() + 17] ^= 0x5a;
  EXPECT_EQ(store_->Read(h, k, &out), Status::kRetry);
  bytes[sizeof(ValueRecordHeader) + k.size() + 17] ^= 0x5a;  // restore
  ASSERT_EQ(store_->Read(h, k, &out), Status::kOk);
  EXPECT_EQ(out, v);

  // Wrong key for a valid record is equally rejected (handle misdirection).
  EXPECT_EQ(store_->Read(h, Key::FromInt(43), &out), Status::kRetry);
  EXPECT_GE(store_->Stats().read_retries, 2u);
}

TEST_F(ValueStorageTest, GcRelocatesLiveAndDropsDead) {
  // Fill segments with records, then kill most of them; GC must relocate the
  // survivors (readable at their NEW handle via the sink) and retire space.
  const size_t kLen = 1000;
  const int kKeys = 96;  // ~4 segments of 32 KiB at ~1 KiB/record
  for (int i = 0; i < kKeys; ++i) {
    Key k = Key::FromInt(i);
    uint64_t h = 0;
    ASSERT_EQ(store_->Append(k, MakeValue(i, kLen), &h), Status::kOk);
    sink_.Set(k, h);
  }
  for (int i = 0; i < kKeys; ++i) {
    if (i % 4 != 0) {  // keep every 4th
      store_->MarkDead(sink_.Get(Key::FromInt(i)));
      sink_.Erase(Key::FromInt(i));
    }
  }
  size_t relocated = 0;
  for (int round = 0; round < 16; ++round) {
    relocated += store_->GcPass();
  }
  EXPECT_GT(store_->Stats().gc_segments_compacted, 0u);
  EXPECT_GT(relocated, 0u);
  for (int i = 0; i < kKeys; i += 4) {
    Key k = Key::FromInt(i);
    std::string out;
    ASSERT_EQ(store_->Read(sink_.Get(k), k, &out), Status::kOk);
    EXPECT_EQ(out, MakeValue(i, kLen));
  }
  // Retired segments' blocks are reclaimed only after the epochs drain.
  for (int i = 0; i < 8; ++i) {
    EpochManager::Instance().TryAdvanceAndReclaim();
  }
}

TEST_F(ValueStorageTest, ReopenAdoptsPersistedSegmentSize) {
  // The segment size is stamped into the root at creation; reopening with a
  // different configured size must adopt the persisted one, or tail scans and
  // append bounds would run past (or truncate) blocks allocated at the old
  // size.
  const size_t created_max = store_->max_value_bytes();
  std::vector<uint64_t> handles;
  for (int i = 0; i < 30; ++i) {
    Key k = Key::FromInt(i);
    uint64_t h = 0;
    ASSERT_EQ(store_->Append(k, MakeValue(i, 900), &h), Status::kOk);
    handles.push_back(h);
  }
  for (size_t configured : {size_t{256} << 10, size_t{8} << 10}) {
    opts_.segment_size = configured;  // both larger and smaller than created
    Reopen();
    EXPECT_EQ(store_->max_value_bytes(), created_max) << configured;
    for (int i = 0; i < 30; ++i) {
      std::string out;
      ASSERT_EQ(store_->Read(handles[i], Key::FromInt(i), &out), Status::kOk)
          << "configured=" << configured << " i=" << i;
      EXPECT_EQ(out, MakeValue(i, 900));
    }
    // Fresh appends keep working at the adopted size.
    uint64_t h = 0;
    ASSERT_EQ(store_->Append(Key::FromInt(1000), MakeValue(1000, 500), &h),
              Status::kOk);
    std::string out;
    ASSERT_EQ(store_->Read(h, Key::FromInt(1000), &out), Status::kOk);
  }
  opts_.segment_size = 32 << 10;  // restore for TearDown symmetry
}

TEST_F(ValueStorageTest, RecoverTailsAcrossReopen) {
  std::vector<uint64_t> handles;
  for (int i = 0; i < 20; ++i) {
    Key k = Key::FromInt(i);
    uint64_t h = 0;
    ASSERT_EQ(store_->Append(k, MakeValue(i, 700), &h), Status::kOk);
    handles.push_back(h);
    sink_.Set(k, h);
  }
  Reopen();
  // Every acked record survives the reopen; recovered segments are sealed
  // with live counts rebuilt by the caller (here: AddLiveHandle).
  for (int i = 0; i < 20; ++i) {
    Key k = Key::FromInt(i);
    std::string out;
    ASSERT_EQ(store_->Read(handles[i], k, &out), Status::kOk);
    EXPECT_EQ(out, MakeValue(i, 700));
    store_->AddLiveHandle(handles[i]);
  }
  EXPECT_GT(store_->Stats().segments, 0u);
  EXPECT_GT(store_->Stats().live_bytes, 0u);
}

// ---------------------------------------------------------------------------
// DRAM hot-value cache
// ---------------------------------------------------------------------------

TEST(ValueLruCacheTest, HandleValidatedHitsAndEviction) {
  ValueLruCache cache(4096, 1);
  Key k = Key::FromInt(7);
  std::string out;
  EXPECT_FALSE(cache.Get(k, 111, &out));
  cache.Put(k, 111, "hello");
  EXPECT_TRUE(cache.Get(k, 111, &out));
  EXPECT_EQ(out, "hello");
  // Stale handle: the index moved on -- the entry must never be served.
  EXPECT_FALSE(cache.Get(k, 222, &out));
  EXPECT_FALSE(cache.Get(k, 111, &out));  // and the stale entry is gone

  // Byte budget: filling past capacity evicts LRU entries.
  for (int i = 0; i < 64; ++i) {
    cache.Put(Key::FromInt(100 + i), 1000 + i, std::string(256, 'v'));
  }
  ValueCacheStats s = cache.Stats();
  EXPECT_LE(s.bytes, 4096u);
  EXPECT_GT(s.evictions, 0u);

  // Invalidate is an early eviction.
  Key k2 = Key::FromInt(163);
  if (cache.Get(k2, 1063, &out)) {
    cache.Invalidate(k2);
    EXPECT_FALSE(cache.Get(k2, 1063, &out));
  }
}

TEST(ValueLruCacheTest, EvictHandleRange) {
  // The recycled-block ABA guard: every entry whose handle falls in a retired
  // segment's address range is dropped, entries outside survive.
  ValueLruCache cache(1 << 16, 4);
  for (int i = 0; i < 32; ++i) {
    cache.Put(Key::FromInt(i), 10000 + i * 8, "in-range");
    cache.Put(Key::FromInt(100 + i), 90000 + i * 8, "outside");
  }
  cache.EvictHandleRange(10000, 10000 + 32 * 8);
  std::string out;
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(cache.Get(Key::FromInt(i), 10000 + i * 8, &out)) << i;
    EXPECT_TRUE(cache.Get(Key::FromInt(100 + i), 90000 + i * 8, &out)) << i;
  }
  // Half-open range: a handle exactly at |hi| is not evicted.
  cache.Put(Key::FromInt(200), 5000, "lo");
  cache.Put(Key::FromInt(201), 6000, "hi");
  cache.EvictHandleRange(5000, 6000);
  EXPECT_FALSE(cache.Get(Key::FromInt(200), 5000, &out));
  EXPECT_TRUE(cache.Get(Key::FromInt(201), 6000, &out));
}

TEST(ValueLruCacheTest, ZeroCapacityDisables) {
  ValueLruCache cache(0, 4);
  cache.Put(Key::FromInt(1), 11, "x");
  std::string out;
  EXPECT_FALSE(cache.Get(Key::FromInt(1), 11, &out));
  EXPECT_EQ(cache.Stats().entries, 0u);
}

// Handle |v| of key |k| in the cache tests below; 8-aligned like a record
// address, and distinct per (k, v).
uint64_t CacheHandle(uint64_t k, uint64_t v) { return ((k << 8) | v) << 3; }

TEST(ValueLruCacheTest, ConcurrentChurnServesExactBytes) {
  // Four lock-free readers race a writer that Puts, Invalidates, range-evicts
  // and reclaims on a cache far smaller than the working set. Every hit must
  // return exactly the bytes stored under the handle it presented: entries
  // are immutable and freed only after the readers' epochs end (ASan/TSan
  // see any early free or in-place rewrite).
  ValueLruCache cache(8 << 10, 2);
  constexpr uint64_t kKeys = 96, kVersions = 4;
  auto bytes_of = [](uint64_t h) { return MakeValue(h, 64 + (h >> 3) % 200); };
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};
  RunWorkerThreads(5, [&](uint32_t t) {
    Rng rng(77 + t);
    if (t == 0) {
      for (int op = 0; op < 40000; ++op) {
        const uint64_t k = rng.Uniform(kKeys);
        const uint64_t h = CacheHandle(k, rng.Uniform(kVersions));
        const uint64_t r = rng.Uniform(100);
        if (r < 85) {
          cache.Put(Key::FromInt(k), h, bytes_of(h));
        } else if (r < 95) {
          cache.Invalidate(Key::FromInt(k));
        } else {
          const uint64_t lo = CacheHandle(rng.Uniform(kKeys), 0);
          cache.EvictHandleRange(lo, lo + CacheHandle(8, 0));
        }
        if (op % 64 == 0) {
          EpochManager::Instance().TryAdvanceAndReclaim();
        }
      }
      stop.store(true, std::memory_order_release);
      return;
    }
    std::string out;
    uint64_t mine = 0;
    while (!stop.load(std::memory_order_acquire)) {
      EpochGuard guard;
      const uint64_t k = rng.Uniform(kKeys);
      const uint64_t h = CacheHandle(k, rng.Uniform(kVersions));
      if (cache.Get(Key::FromInt(k), h, &out)) {
        ASSERT_EQ(out, bytes_of(h)) << "key " << k << " handle " << h;
        mine++;
      }
    }
    hits.fetch_add(mine);
  });
  EpochManager::Instance().DrainAll();
  EXPECT_GT(hits.load(), 0u);
  ValueCacheStats s = cache.Stats();
  EXPECT_LE(s.bytes, 8u << 10);
  EXPECT_GT(s.evictions, 0u);
}

TEST(ValueLruCacheTest, HitAllocatesNothing) {
  // A hit copies into the caller's string: with capacity already there it
  // allocates nothing (counted by the operator-new hook below).
  ValueLruCache cache(1 << 20, 8);
  for (uint64_t k = 0; k < 64; ++k) {
    cache.Put(Key::FromInt(k), CacheHandle(k, 1), MakeValue(k, 1024));
  }
  std::string out;
  out.reserve(1024);
  ASSERT_TRUE(cache.Get(Key::FromInt(0), CacheHandle(0, 1), &out));  // per-thread setup
  allocs = 0;
  count_allocs = true;
  uint64_t hits = 0;
  for (int round = 0; round < 10; ++round) {
    for (uint64_t k = 0; k < 64; ++k) {
      hits += cache.Get(Key::FromInt(k), CacheHandle(k, 1), &out) ? 1 : 0;
    }
  }
  count_allocs = false;
  EXPECT_EQ(hits, 640u);
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(out, MakeValue(63, 1024));
}

TEST(ValueLruCacheTest, EvictHandleRangeCoversEveryShard) {
  // 2000 entries over 8 shards; one range holds every even key's handle.
  // Eviction must drop exactly those, in every shard, and keep the rest.
  ValueLruCache cache(8 << 20, 8);
  constexpr uint64_t kKeys = 2000;
  const uint64_t lo = 1ULL << 40, hi = lo + kKeys * 8;
  auto handle_of = [&](uint64_t k) { return k % 2 == 0 ? lo + k * 4 : hi + k * 8; };
  for (uint64_t k = 0; k < kKeys; ++k) {
    cache.Put(Key::FromInt(k), handle_of(k), MakeValue(k, 64));
  }
  ASSERT_EQ(cache.Stats().entries, kKeys);
  ASSERT_EQ(cache.Stats().evictions, 0u);
  cache.EvictHandleRange(lo, hi);
  EXPECT_EQ(cache.Stats().entries, kKeys / 2);
  EXPECT_EQ(cache.Stats().evictions, kKeys / 2);
  EXPECT_EQ(cache.Stats().bytes, kKeys / 2 * 64);
  std::string out;
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(cache.Get(Key::FromInt(k), handle_of(k), &out), k % 2 == 1) << k;
  }
}

TEST(ValueLruCacheTest, ExactHitMissCountsUnderFourThreads) {
  ValueLruCache cache(1 << 20, 8);
  constexpr uint64_t kKeys = 64, kRounds = 5000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    cache.Put(Key::FromInt(k), CacheHandle(k, 1), MakeValue(k, 64));
  }
  RunWorkerThreads(4, [&](uint32_t t) {
    std::string out;
    for (uint64_t i = 0; i < kRounds; ++i) {
      const uint64_t k = (i + t) % kKeys;
      EXPECT_TRUE(cache.Get(Key::FromInt(k), CacheHandle(k, 1), &out));
      EXPECT_FALSE(cache.Get(Key::FromInt(kKeys + k), CacheHandle(k, 1), &out));
    }
  });
  ValueCacheStats s = cache.Stats();
  EXPECT_EQ(s.hits, 4 * kRounds);
  EXPECT_EQ(s.misses, 4 * kRounds);
}

// ---------------------------------------------------------------------------
// PacTree integration
// ---------------------------------------------------------------------------

class PacTreeValueTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    PacTree::Destroy("ptv_test");
    opts_.name = "ptv_test";
    opts_.pool_id_base = 140;
    opts_.pool_size = 256 << 20;
    opts_.value_storage = true;
    opts_.value_segment_size = 32 << 10;
    opts_.value_cache_bytes = 64 << 10;
    opts_.value_arenas = 1;
    opts_.absorb_writes = GetParam();
    tree_ = PacTree::Open(opts_);
    ASSERT_NE(tree_, nullptr);
  }

  void TearDown() override {
    tree_.reset();
    EpochManager::Instance().DrainAll();
    PacTree::Destroy("ptv_test");
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

TEST_P(PacTreeValueTest, RoundTripInlineAndLog) {
  // 0..7 B inline, 64 B..4 KiB through the log; same API either way.
  for (size_t len : {0u, 3u, 7u, 64u, 256u, 1024u, 4096u}) {
    Key k = Key::FromInt(len);
    ASSERT_EQ(tree_->InsertValue(k, MakeValue(len, len)), Status::kOk) << len;
  }
  for (size_t len : {0u, 3u, 7u, 64u, 256u, 1024u, 4096u}) {
    Key k = Key::FromInt(len);
    std::string out;
    ASSERT_EQ(tree_->LookupValue(k, &out), Status::kOk) << len;
    EXPECT_EQ(out, MakeValue(len, len)) << len;
  }
  PacTreeStats s = tree_->Stats();
  EXPECT_TRUE(s.value_enabled);
  EXPECT_EQ(s.value.appends, 4u);  // only the four over-inline sizes
}

TEST_P(PacTreeValueTest, OverwriteAndRemoveInvalidate) {
  Key k = Key::FromInt(5);
  ASSERT_EQ(tree_->InsertValue(k, MakeValue(1, 300)), Status::kOk);
  std::string out;
  ASSERT_EQ(tree_->LookupValue(k, &out), Status::kOk);  // fills the cache
  ASSERT_EQ(tree_->LookupValue(k, &out), Status::kOk);  // hits it
  EXPECT_EQ(out, MakeValue(1, 300));

  // Overwrite large->large, then ->inline, then remove: each transition must
  // be visible immediately (no stale cache serve).
  ASSERT_EQ(tree_->InsertValue(k, MakeValue(2, 500)), Status::kExists);
  ASSERT_EQ(tree_->LookupValue(k, &out), Status::kOk);
  EXPECT_EQ(out, MakeValue(2, 500));
  ASSERT_EQ(tree_->InsertValue(k, "tiny"), Status::kExists);
  ASSERT_EQ(tree_->LookupValue(k, &out), Status::kOk);
  EXPECT_EQ(out, "tiny");
  ASSERT_EQ(tree_->InsertValue(k, MakeValue(3, 900)), Status::kExists);
  ASSERT_EQ(tree_->LookupValue(k, &out), Status::kOk);
  EXPECT_EQ(out, MakeValue(3, 900));
  ASSERT_EQ(tree_->Remove(k), Status::kOk);
  EXPECT_EQ(tree_->LookupValue(k, &out), Status::kNotFound);
}

TEST_P(PacTreeValueTest, ScanAndMultiGetValues) {
  const int kKeys = 200;
  for (int i = 0; i < kKeys; ++i) {
    size_t len = (i % 3 == 0) ? 5 : 128 + i;  // inline/log mix
    ASSERT_EQ(tree_->InsertValue(Key::FromInt(i), MakeValue(i, len)),
              Status::kOk);
  }
  tree_->DrainAbsorb();

  std::vector<std::pair<Key, std::string>> scanned;
  EXPECT_EQ(tree_->ScanValues(Key::FromInt(50), 40, &scanned), 40u);
  for (size_t j = 0; j < scanned.size(); ++j) {
    int i = 50 + static_cast<int>(j);
    EXPECT_EQ(scanned[j].first, Key::FromInt(i));
    size_t len = (i % 3 == 0) ? 5 : 128 + i;
    EXPECT_EQ(scanned[j].second, MakeValue(i, len));
  }

  std::vector<Key> keys;
  for (int i = 0; i < kKeys; i += 7) {
    keys.push_back(Key::FromInt(i));
  }
  keys.push_back(Key::FromInt(kKeys + 5));  // absent
  std::vector<std::string> values;
  std::vector<Status> statuses(keys.size());
  size_t found =
      tree_->MultiGetValues(keys, &values, statuses.data());
  EXPECT_EQ(found, keys.size() - 1);
  for (size_t j = 0; j + 1 < keys.size(); ++j) {
    ASSERT_EQ(statuses[j], Status::kOk);
    int i = static_cast<int>(7 * j);
    size_t len = (i % 3 == 0) ? 5 : 128 + i;
    EXPECT_EQ(values[j], MakeValue(i, len));
  }
  EXPECT_EQ(statuses.back(), Status::kNotFound);

  // statuses is optional (shared contract with MultiGet): the nullptr form
  // must resolve identically -- this is the batched value-mode YCSB path.
  std::vector<std::string> values2;
  EXPECT_EQ(tree_->MultiGetValues(keys, &values2, nullptr), keys.size() - 1);
  EXPECT_EQ(values2, values);
}

TEST_P(PacTreeValueTest, CachedMultiGetValuesIntoReusedVectorAllocatesNothing) {
  // A batch whose values all hit the hot-value cache, read into a vector
  // reused from an earlier batch, allocates nothing: the strings keep their
  // capacity and a hit copies into it.
  std::vector<Key> keys;
  for (int i = 0; i < 16; ++i) {
    keys.push_back(Key::FromInt(i));
    ASSERT_EQ(tree_->InsertValue(keys.back(), MakeValue(i, 300)), Status::kOk);
  }
  tree_->DrainAbsorb();
  std::vector<std::string> values;
  std::vector<Status> st(keys.size());
  ASSERT_EQ(tree_->MultiGetValues(keys, &values, st.data()), 16u);  // fills the cache
  const uint64_t hits0 = tree_->Stats().value_cache.hits;
  allocs = 0;
  count_allocs = true;
  const size_t found = tree_->MultiGetValues(keys, &values, st.data());
  count_allocs = false;
  EXPECT_EQ(found, 16u);
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(tree_->Stats().value_cache.hits - hits0, 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(values[i], MakeValue(i, 300)) << i;
  }
  // An absent key's reused string reads back empty.
  keys[3] = Key::FromInt(1000);
  EXPECT_EQ(tree_->MultiGetValues(keys, &values, st.data()), 15u);
  EXPECT_EQ(st[3], Status::kNotFound);
  EXPECT_TRUE(values[3].empty());
}

TEST_P(PacTreeValueTest, OracleWithGcAndEvictions) {
  // Random upserts/removes against an std::map oracle, with inline GC rounds
  // sprinkled in. The tiny cache budget (64 KiB vs ~1 MiB of live values)
  // keeps evictions and refills constant; GC keeps relocating live records.
  Rng rng(20260809);
  std::map<Key, std::string> oracle;
  const int kOps = 4000;
  for (int op = 0; op < kOps; ++op) {
    uint64_t id = rng.Uniform(400);
    Key k = Key::FromInt(id);
    uint64_t dice = rng.Uniform(100);
    if (dice < 70) {
      size_t len = 1 + rng.Uniform(2000);
      if (dice < 10) {
        len = rng.Uniform(kMaxInlineValue + 1);  // inline mix
      }
      std::string v = MakeValue(rng.Next(), len);
      Status s = tree_->InsertValue(k, v);
      ASSERT_TRUE(s == Status::kOk || s == Status::kExists);
      oracle[k] = std::move(v);
    } else if (dice < 85) {
      Status s = tree_->Remove(k);
      EXPECT_EQ(s == Status::kOk, oracle.erase(k) == 1) << "op " << op;
    } else if (dice < 95) {
      std::string out;
      Status s = tree_->LookupValue(k, &out);
      auto it = oracle.find(k);
      if (it == oracle.end()) {
        EXPECT_EQ(s, Status::kNotFound) << "op " << op;
      } else {
        ASSERT_EQ(s, Status::kOk) << "op " << op;
        EXPECT_EQ(out, it->second) << "op " << op;
      }
    } else {
      tree_->CompactValues();
    }
  }
  tree_->DrainAbsorb();
  for (const auto& [k, v] : oracle) {
    std::string out;
    ASSERT_EQ(tree_->LookupValue(k, &out), Status::kOk);
    EXPECT_EQ(out, v);
  }
  // Full scan agrees with the oracle too (resolved values, ordered).
  std::vector<std::pair<Key, std::string>> scanned;
  tree_->ScanValues(Key::Min(), oracle.size() + 10, &scanned);
  ASSERT_EQ(scanned.size(), oracle.size());
  auto it = oracle.begin();
  for (const auto& [k, v] : scanned) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TEST_P(PacTreeValueTest, ConcurrentReadersVsGc) {
  // Writers churn overwrites (creating garbage), a collector compacts, and
  // readers must always observe some complete write's value -- never torn
  // bytes, never a vanished key. TSan-checked via the tsan label.
  const int kKeys = 64;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(tree_->InsertValue(Key::FromInt(i), MakeValue(i, 512)),
              Status::kOk);
  }
  RunWorkerThreads(4, [&](uint32_t t) {
    Rng rng(1000 + t);
    if (t == 0) {  // writer
      for (int op = 0; op < 1500; ++op) {
        uint64_t id = rng.Uniform(kKeys);
        uint64_t seed = id * 1000 + rng.Uniform(900);
        ASSERT_EQ(tree_->InsertValue(Key::FromInt(id), MakeValue(seed, 512)),
                  Status::kExists);
      }
    } else if (t == 1) {  // collector + stats poller
      for (int op = 0; op < 300; ++op) {
        tree_->CompactValues();
        // Stats() reads segment append cursors concurrently with writers --
        // the cross-lock read TSan checks against Append's cursor bump.
        tree_->Stats();
      }
    } else {  // readers
      for (int op = 0; op < 3000; ++op) {
        uint64_t id = rng.Uniform(kKeys);
        std::string out;
        ASSERT_EQ(tree_->LookupValue(Key::FromInt(id), &out), Status::kOk);
        ASSERT_EQ(out.size(), 512u);
        // Any complete write for key id has byte 0 == (seed*131+512)&0xff
        // with seed in [id*1000, id*1000+1000) or seed == id; recomputing the
        // whole pattern from the observed first byte proves non-torn bytes.
        bool matched = false;
        for (uint64_t seed = id * 1000; seed < id * 1000 + 1000 && !matched;
             ++seed) {
          if (MakeValue(seed, 512)[0] == out[0]) {
            matched = (out == MakeValue(seed, 512));
          }
        }
        if (!matched) {
          matched = (out == MakeValue(id, 512));  // the initial insert
        }
        ASSERT_TRUE(matched) << "torn or stale-garbage value for key " << id;
      }
    }
  });
  tree_->DrainAbsorb();
  std::string why;
  tree_->DrainSmoLogs();
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

TEST_P(PacTreeValueTest, ReopenRecoversValues) {
  const int kKeys = 300;
  for (int i = 0; i < kKeys; ++i) {
    size_t len = (i % 5 == 0) ? 4 : 200 + (i % 1000);
    ASSERT_EQ(tree_->InsertValue(Key::FromInt(i), MakeValue(i, len)),
              Status::kOk);
  }
  // Churn some garbage + a GC round so recovery sees compacted segments.
  for (int i = 0; i < kKeys; i += 3) {
    ASSERT_EQ(tree_->InsertValue(Key::FromInt(i), MakeValue(i + 7, 333)),
              Status::kExists);
  }
  tree_->CompactValues();
  Reopen();
  for (int i = 0; i < kKeys; ++i) {
    std::string out;
    ASSERT_EQ(tree_->LookupValue(Key::FromInt(i), &out), Status::kOk) << i;
    if (i % 3 == 0) {
      EXPECT_EQ(out, MakeValue(i + 7, 333));
    } else {
      size_t len = (i % 5 == 0) ? 4 : 200 + (i % 1000);
      EXPECT_EQ(out, MakeValue(i, len));
    }
  }
  // Live counts were rebuilt: the log reports live bytes and GC still works.
  PacTreeStats s = tree_->Stats();
  EXPECT_TRUE(s.value_enabled);
  EXPECT_GT(s.value.live_bytes, 0u);
  tree_->CompactValues();
}

TEST_P(PacTreeValueTest, ValueModeStickyAcrossReopen) {
  // A tree that ever ran with the value tier must reopen with it even when
  // the option is dropped (crash harnesses reopen by name only).
  ASSERT_EQ(tree_->InsertValue(Key::FromInt(1), MakeValue(1, 400)), Status::kOk);
  tree_.reset();
  EpochManager::Instance().DrainAll();
  PacTreeOptions bare;
  bare.name = opts_.name;
  bare.pool_id_base = opts_.pool_id_base;
  bare.pool_size = opts_.pool_size;
  bare.absorb_writes = opts_.absorb_writes;
  tree_ = PacTree::Open(bare);
  ASSERT_NE(tree_, nullptr);
  std::string out;
  ASSERT_EQ(tree_->LookupValue(Key::FromInt(1), &out), Status::kOk);
  EXPECT_EQ(out, MakeValue(1, 400));
  EXPECT_TRUE(tree_->Stats().value_enabled);
}

INSTANTIATE_TEST_SUITE_P(AbsorbOnOff, PacTreeValueTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Absorb" : "Direct";
                         });

}  // namespace
}  // namespace pactree
