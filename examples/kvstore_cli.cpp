// A persistent key-value store CLI backed by PACTree -- the kind of storage
// component the paper's introduction motivates (key-value stores and database
// engines building on a persistent range index).
//
//   $ ./build/examples/kvstore_cli put user42 "value-as-int:9000"
//   $ ./build/examples/kvstore_cli put user7 123
//   $ ./build/examples/kvstore_cli get user42
//   $ ./build/examples/kvstore_cli scan user 10
//   $ ./build/examples/kvstore_cli del user42
//   $ ./build/examples/kvstore_cli stats
//
// Values are 64-bit integers (the paper's 8-byte values); string payloads
// would live in a log referenced by the value, as in WiscKey-style designs.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/pactree/pactree.h"

using namespace pactree;

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: kvstore_cli <command> [args]\n"
               "  put <key> <int-value>   insert or update\n"
               "  get <key>               point lookup\n"
               "  del <key>               delete\n"
               "  scan <key> <n>          n pairs starting at key\n"
               "  count                   total keys\n"
               "  stats                   index statistics\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  PacTreeOptions options;
  options.name = "kvstore";
  options.pool_id_base = 710;
  options.pool_size = 128ULL << 20;
  auto tree = PacTree::Open(options);
  if (tree == nullptr) {
    std::fprintf(stderr, "cannot open store\n");
    return 1;
  }

  std::string cmd = argv[1];
  if (cmd == "put" && argc == 4) {
    Key k = Key::FromString(argv[2]);
    uint64_t v = std::strtoull(argv[3], nullptr, 10);
    Status s = tree->Insert(k, v);
    if (s == Status::kFull) {
      std::fprintf(stderr, "store full (read-only degraded mode)\n");
      return 1;
    }
    std::printf("%s\n", s == Status::kExists ? "updated" : "inserted");
    return 0;
  }
  if (cmd == "get" && argc == 3) {
    uint64_t v = 0;
    if (tree->Lookup(Key::FromString(argv[2]), &v) == Status::kOk) {
      std::printf("%llu\n", static_cast<unsigned long long>(v));
      return 0;
    }
    std::printf("(not found)\n");
    return 1;
  }
  if (cmd == "del" && argc == 3) {
    Status s = tree->Remove(Key::FromString(argv[2]));
    std::printf("%s\n", s == Status::kOk ? "deleted" : "(not found)");
    return s == Status::kOk ? 0 : 1;
  }
  if (cmd == "scan" && argc == 4) {
    size_t n = std::strtoull(argv[3], nullptr, 10);
    std::vector<std::pair<Key, uint64_t>> out;
    tree->Scan(Key::FromString(argv[2]), n, &out);
    for (const auto& [k, v] : out) {
      std::printf("%-32s %llu\n", k.ToString().c_str(),
                  static_cast<unsigned long long>(v));
    }
    return 0;
  }
  if (cmd == "count" && argc == 2) {
    std::printf("%llu\n", static_cast<unsigned long long>(tree->Size()));
    return 0;
  }
  if (cmd == "stats" && argc == 2) {
    PacTreeStats s = tree->Stats();
    std::printf("keys            %llu\n", static_cast<unsigned long long>(tree->Size()));
    std::printf("splits          %llu\n", static_cast<unsigned long long>(s.splits));
    std::printf("merges          %llu\n", static_cast<unsigned long long>(s.merges));
    std::printf("smo applied     %llu\n", static_cast<unsigned long long>(s.smo_applied));
    std::printf("direct lookups  %llu\n", static_cast<unsigned long long>(s.hop_hist[0]));
    std::printf("1-hop lookups   %llu\n", static_cast<unsigned long long>(s.hop_hist[1]));
    return 0;
  }
  Usage();
  return 2;
}
