// Figure 6: FP-Tree HTM aborts vs data-set size and thread count (GC3).
//
// 50% lookup + 50% insert. Conflict aborts come from real concurrent writers
// via the software-HTM lock table; capacity/TLB aborts are modeled with a
// per-accessed-line spurious-abort rate scaled by the index footprint
// (substitution documented in DESIGN.md).
#include "bench/bench_common.h"
#include "src/baselines/fptree.h"

using namespace pactree;

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  Banner("Figure 6", "FP-Tree throughput and HTM aborts/op: small vs large data set");
  BenchScale scale = ReadScale(1'000'000, 300'000);
  uint64_t small_keys = std::max<uint64_t>(scale.keys / 8, 10'000);
  std::printf("%-9s %8s %10s %12s %12s %12s %12s\n", "keys", "threads", "Mops/s",
              "aborts/op", "conflict", "spurious", "fallbacks");
  for (uint64_t keys : {small_keys, scale.keys}) {
    for (uint32_t t : scale.threads) {
      ConfigureNvmMachine();
      // TLB/capacity model: abort probability per accessed line grows with the
      // index footprint (a 64M-key FP-Tree walks far outside the TLB reach).
      double footprint_mb = static_cast<double>(keys) * 24.0 / 1e6;
      double rate = std::min(0.002, footprint_mb / 6.0 * 1e-4);
      FpTree::Destroy("fig06");
      FpTreeOptions o;
      o.name = "fig06";
      o.pool_id_base = 410;
      o.pool_size = std::max<size_t>(256ULL << 20, keys * 64);
      o.htm.spurious_abort_per_line = rate;
      auto tree = FpTree::Open(o);
      if (tree == nullptr) {
        return 1;
      }
      YcsbSpec spec;
      spec.kind = YcsbKind::kAInsert;
      spec.record_count = keys;
      spec.op_count = scale.ops;
      spec.threads = t;
      spec.string_keys = false;
      spec.zipfian = false;  // the paper uses uniform random keys here
      YcsbDriver::Load(tree.get(), spec);
      SoftHtmStats s0 = tree->HtmStats();
      YcsbResult r = YcsbDriver::Run(tree.get(), spec);
      SoftHtmStats s1 = tree->HtmStats();
      uint64_t aborts = (s1.conflict_aborts - s0.conflict_aborts) +
                        (s1.capacity_aborts - s0.capacity_aborts) +
                        (s1.spurious_aborts - s0.spurious_aborts);
      std::printf("%-9llu %8u %10.3f %12.3f %12llu %12llu %12llu\n",
                  static_cast<unsigned long long>(keys), t, r.mops,
                  static_cast<double>(aborts) / static_cast<double>(r.ops),
                  static_cast<unsigned long long>(s1.conflict_aborts - s0.conflict_aborts),
                  static_cast<unsigned long long>(s1.spurious_aborts - s0.spurious_aborts),
                  static_cast<unsigned long long>(s1.fallback_acquisitions -
                                                  s0.fallback_acquisitions));
      std::fflush(stdout);
      EpochManager::Instance().DrainAll();
      FpTree::Destroy("fig06");
    }
  }
  std::printf("# paper shape: aborts/op grow with data size and threads,"
              " crushing FP-Tree at high concurrency\n");
  return 0;
}
