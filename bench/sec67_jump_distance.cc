// §6.7: impact of the asynchronous search-layer update -- jump-node distance.
//
// Write-intensive workload at the highest configured thread count; afterwards
// the jump-hop histogram shows how far lookups had to walk the data layer from
// the (possibly stale) search-layer result. The paper reports 68% direct hits
// and 30% one-hop under 112 threads.
#include "bench/bench_common.h"
#include "src/pactree/pactree.h"

using namespace pactree;

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  Banner("Section 6.7", "jump-node distance under async search-layer updates");
  BenchScale scale = ReadScale(400'000, 400'000);
  uint32_t threads = scale.threads.back();
  ConfigureNvmMachine();
  PacTree::Destroy("sec67");
  PacTreeOptions o;
  o.name = "sec67";
  o.pool_id_base = 420;
  o.pool_size = std::max<size_t>(512ULL << 20, scale.keys * 3072 * 2);
  auto tree = PacTree::Open(o);
  if (tree == nullptr) {
    return 1;
  }

  YcsbSpec spec;
  spec.kind = YcsbKind::kAInsert;  // insert-heavy: worst case for SL lag
  spec.record_count = scale.keys;
  spec.op_count = scale.ops;
  spec.threads = threads;
  spec.zipfian = false;
  YcsbDriver::Load(tree.get(), spec);
  PacTreeStats s0 = tree->Stats();
  YcsbDriver::Run(tree.get(), spec);
  PacTreeStats s1 = tree->Stats();

  uint64_t hops[4] = {};  // 0, 1, 2 and >= 3 hops
  uint64_t total = 0;
  for (int i = 0; i < kHopHistBuckets; ++i) {
    const uint64_t d = s1.hop_hist[i] - s0.hop_hist[i];
    hops[i < 3 ? i : 3] += d;
    total += d;
  }
  std::printf("%-12s %12s %10s\n", "distance", "count", "share");
  const char* labels[4] = {"direct", "1 hop", "2 hops", ">=3 hops"};
  for (int i = 0; i < 4; ++i) {
    std::printf("%-12s %12llu %9.1f%%\n", labels[i],
                static_cast<unsigned long long>(hops[i]),
                100.0 * static_cast<double>(hops[i]) / static_cast<double>(total));
  }
  std::printf("# paper: 68%% direct, 30%% one hop (112 threads, W-A)\n");
  std::printf("# smo: applied=%llu ring_full_waits=%llu\n",
              static_cast<unsigned long long>(s1.smo_applied),
              static_cast<unsigned long long>(s1.smo_ring_full_waits));
  PrintMaintenanceStats();
  tree.reset();
  EpochManager::Instance().DrainAll();
  PacTree::Destroy("sec67");
  return 0;
}
