// Ablation: tiered value storage (DESIGN.md §6h) -- DRAM hot-value cache vs
// always dereferencing the value log.
//
// Two trees, one per mode, loaded identically with 4-KiB values and kept open
// side by side. Cache-on serves hot values from the sharded DRAM cache (a hit
// skips the NVM-modeled log dereference -- 16 XPLines per value -- entirely);
// cache-off (value_cache_bytes=0) pays the log read every time, less the
// ~1 MiB per-thread modeled CPU cache that absorbs only the very hottest lines.
//
// Two read phases per mode, same seeds in both modes:
//   zipf  -- theta-0.99 Zipfian over the whole keyspace (the blended
//            workload number; index descent is a large constant in both
//            modes, so the gap here understates the resolution gap);
//   hot   -- uniform reads over the 4096 hottest keys (16 MB of values:
//            cache-resident once warm, 16x the modeled CPU-cache reach).
//            This phase is the acceptance metric -- cache-HIT lookups vs
//            always-dereferencing lookups of the same keys: >= 2x.
//
// A short unmeasured warm pass precedes each measured phase, so both compare
// steady states, not promotion cost. kRounds rounds alternate which mode runs
// first; each row reports its median round, and each speedup is the median of
// the per-round ratios, so one preempted pass cannot decide the verdict.
//
// Exit status 0 needs the median hot speedup >= 2x AND, in every round, the
// exact counts of the hot cached phase: every measured read hits the cache
// and the value heap reads no media bytes.
#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/pactree/pactree.h"
#include "src/runtime/workers.h"
#include "src/value/value_storage.h"
#include "src/workload/zipf.h"

using namespace pactree;

namespace {

struct PhaseResult {
  double mops = 0;
  uint64_t ops = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t read_retries = 0;
  uint64_t value_media_read_bytes = 0;  // value heap, all threads
};

struct Mode {
  const char* name;
  bool cached;
  uint16_t pool_id_base;
  std::unique_ptr<PacTree> tree;
  std::vector<PhaseResult> zipf, hot;  // one per round
};

constexpr uint64_t kHotKeys = 4096;
constexpr int kRounds = 5;

// The round with the median throughput (kRounds is odd).
PhaseResult MedianRound(std::vector<PhaseResult> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const PhaseResult& a, const PhaseResult& b) { return a.mops < b.mops; });
  return runs[runs.size() / 2];
}

double MedianRatio(const std::vector<PhaseResult>& num,
                   const std::vector<PhaseResult>& den) {
  std::vector<double> r;
  for (size_t i = 0; i < num.size(); ++i) {
    r.push_back(den[i].mops == 0 ? 0 : num[i].mops / den[i].mops);
  }
  std::sort(r.begin(), r.end());
  return r[r.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  Banner("Ablation", "tiered value storage: hot-value cache vs log dereference");
  BenchScale scale = ReadScale(200'000, 400'000, "4");
  uint32_t threads = scale.threads.back();
  const size_t vlen = 4096;
  ConfigureNvmMachine();  // latency emulation on: log dereferences stall

  Mode modes[2] = {{"deref", false, 470, nullptr, {}, {}},
                   {"cached", true, 510, nullptr, {}, {}}};
  for (Mode& m : modes) {
    const std::string name = std::string("ablvalue_") + m.name;
    PacTree::Destroy(name);
    PacTreeOptions o;
    o.name = name;
    o.pool_id_base = m.pool_id_base;
    o.pool_size = std::max<size_t>(512ULL << 20, scale.keys * vlen * 4);
    // DRAM search layer: the key-index descent costs the same (small) amount
    // in both modes, so the phases lean toward value RESOLUTION -- DRAM cache
    // hit vs NVM log dereference -- instead of tree traversal.
    o.dram_search_layer = true;
    o.value_storage = true;
    o.value_cache_bytes = m.cached ? (64ULL << 20) : 0;
    m.tree = PacTree::Open(o);
    if (m.tree == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", name.c_str());
      return 1;
    }
    RunWorkerThreads(threads, [&](uint32_t t) {
      AssignWorkerThread(t);
      std::string v(vlen, static_cast<char>('a' + t));
      uint64_t from = scale.keys * t / threads;
      uint64_t to = scale.keys * (t + 1) / threads;
      for (uint64_t i = from; i < to; ++i) {
        m.tree->InsertValue(Key::FromInt(i), v);
      }
    });
    m.tree->DrainSmoLogs();
  }

  // One timed pass: every worker runs |per_thread| reads picked by |pick|.
  auto read_pass = [&](PacTree* tree, uint64_t per_thread, uint64_t seed_salt,
                       auto&& pick) {
    std::atomic<bool> start{false};
    uint64_t t0 = 0;
    RunWorkerThreads(
        threads,
        [&](uint32_t t) {
          AssignWorkerThread(t);
          Rng rng(911 * t + seed_salt);
          std::string out;
          while (!start.load(std::memory_order_acquire)) {
            CpuRelax();
          }
          for (uint64_t i = 0; i < per_thread; ++i) {
            tree->LookupValue(Key::FromInt(pick(rng)), &out);
          }
        },
        [&] {
          t0 = NowNs();
          start.store(true, std::memory_order_release);
        });
    return static_cast<double>(NowNs() - t0) / 1e9;
  };

  auto measure = [&](PacTree* tree, uint64_t seed_salt, auto&& pick) {
    PhaseResult r;
    read_pass(tree, scale.ops / threads / 4, seed_salt + 1, pick);  // warm
    PacTreeStats s0 = tree->Stats();
    uint64_t vb0 = tree->value_store()->heap()->MediaStats().media_read_bytes;
    double secs = read_pass(tree, scale.ops / threads, seed_salt, pick);
    PacTreeStats s1 = tree->Stats();
    r.value_media_read_bytes =
        tree->value_store()->heap()->MediaStats().media_read_bytes - vb0;
    r.ops = scale.ops / threads * threads;
    r.mops = static_cast<double>(r.ops) / 1e6 / secs;
    r.cache_hits = s1.value_cache.hits - s0.value_cache.hits;
    r.cache_misses = s1.value_cache.misses - s0.value_cache.misses;
    r.read_retries = s1.value.read_retries - s0.value.read_retries;
    return r;
  };

  // Both modes replay the same sequences (fixed seeds per phase and round).
  ZipfGenerator zipf(scale.keys, 0.99);
  const uint64_t hot = std::min<uint64_t>(kHotKeys, scale.keys);
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t salt = 1000 * round;
    for (int j = 0; j < 2; ++j) {
      Mode& m = modes[(round + j) % 2];  // alternate which mode goes first
      m.zipf.push_back(measure(m.tree.get(), salt + 13,
                               [&](Rng& rng) { return zipf.Next(rng); }));
      m.hot.push_back(measure(m.tree.get(), salt + 29,
                              [&](Rng& rng) { return rng.Uniform(hot); }));
    }
  }
  for (Mode& m : modes) {
    m.tree.reset();
  }
  EpochManager::Instance().DrainAll();
  for (Mode& m : modes) {
    PacTree::Destroy(std::string("ablvalue_") + m.name);
  }

  std::printf("%-6s %-8s %8s %12s %12s %10s %13s %14s\n", "phase", "mode", "Mops/s",
              "cache_hits", "cache_miss", "hit_rate", "read_retries", "value_rd_bytes");
  auto print = [&](const char* phase, const char* mode, const PhaseResult& r) {
    double probes = static_cast<double>(r.cache_hits + r.cache_misses);
    double hit_rate = probes == 0 ? 0.0 : static_cast<double>(r.cache_hits) / probes;
    std::printf("%-6s %-8s %8.3f %12llu %12llu %9.1f%% %13llu %14llu\n", phase, mode,
                r.mops, static_cast<unsigned long long>(r.cache_hits),
                static_cast<unsigned long long>(r.cache_misses), hit_rate * 100,
                static_cast<unsigned long long>(r.read_retries),
                static_cast<unsigned long long>(r.value_media_read_bytes));
    std::fflush(stdout);
    BenchJsonAdd(JsonRow()
                     .Str("phase", phase)
                     .Str("mode", mode)
                     .U64("threads", threads)
                     .U64("keys", scale.keys)
                     .U64("ops", r.ops)
                     .U64("value_size", vlen)
                     .F64("mops", r.mops)
                     .U64("cache_hits", r.cache_hits)
                     .U64("cache_misses", r.cache_misses)
                     .F64("hit_rate", hit_rate)
                     .U64("read_retries", r.read_retries)
                     .U64("value_media_read_bytes", r.value_media_read_bytes));
  };
  const Mode& deref = modes[0];
  const Mode& cached = modes[1];
  print("zipf", "deref", MedianRound(deref.zipf));
  print("hot", "deref", MedianRound(deref.hot));
  print("zipf", "cached", MedianRound(cached.zipf));
  print("hot", "cached", MedianRound(cached.hot));

  bool counts_ok = true;
  for (int round = 0; round < kRounds; ++round) {
    const PhaseResult& r = cached.hot[round];
    if (r.cache_hits != r.ops || r.cache_misses != 0 || r.value_media_read_bytes != 0) {
      counts_ok = false;
      std::printf("# FAIL round %d hot cached: %llu/%llu hits, %llu misses, %llu value-heap "
                  "media read bytes (want all hits, 0 misses, 0 bytes)\n",
                  round, static_cast<unsigned long long>(r.cache_hits),
                  static_cast<unsigned long long>(r.ops),
                  static_cast<unsigned long long>(r.cache_misses),
                  static_cast<unsigned long long>(r.value_media_read_bytes));
    }
  }
  const double zipf_speedup = MedianRatio(cached.zipf, deref.zipf);
  const double hot_speedup = MedianRatio(cached.hot, deref.hot);
  std::printf("# zipf (blended) speedup, median of %d rounds: %.2fx\n", kRounds,
              zipf_speedup);
  std::printf("# hot-set cache-hit speedup, median of %d rounds: %.2fx (acceptance: >= 2x "
              "vs always-dereferencing)\n", kRounds, hot_speedup);
  std::printf("# hot cached exact counts (hit rate 1.0, 0 value-heap media reads): %s\n",
              counts_ok ? "ok" : "FAIL");
  BenchJsonAdd(JsonRow()
                   .Str("phase", "summary")
                   .U64("rounds", kRounds)
                   .F64("zipf_speedup", zipf_speedup)
                   .F64("hot_speedup", hot_speedup)
                   .U64("hot_counts_ok", counts_ok ? 1 : 0));
  BenchJsonWrite("abl_valuestore");
  return hot_speedup >= 2.0 && counts_ok ? 0 : 1;
}
