// Closed-loop PACTree benchmark.
//
// One process, a fixed emulated machine, and three workloads (see README.md):
//   lookup-zipf-int   100% Lookup, Zipf 0.99 over 1M 8-B keys, 4 clients
//   scan-insert-str   95% Scan (1-100 records) / 5% fresh Insert, Zipf start
//                     keys over 1M 23-B keys, absorb on, 2 clients
//   mget-value        95% MultiGetValues (batches <= 16) / 5% InsertValue
//                     overwrites, Zipf over 1M int keys, value tier on,
//                     2 clients
// Each client waits for its previous call before issuing the next (closed
// loop). Every answer is checked; wrong or failed answers are counted, never
// dropped. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// --trace 0 drives the index through RangeIndex in 5 rounds, each a fresh
// set-up (pool creation, load, drain) and a measured phase, and reports the
// end-to-end metrics as trimmed means over the rounds (setup_s: median).
// --trace 1 opens the same tree with PacTree::Open, runs one round with an
// untraced half and a traced half, and reports per-layer metrics: per-op
// spans with the calling thread's per-heap media counts, sampled child spans
// around direct calls into the search layer, the absorb buffer and the value
// log, and process-wide counters diffed across the traced half.
//
// --replay runs one workload with a single client for a fixed op count and
// prints exact integer counts (per-heap media bytes, flushes, fences,
// allocations, node locks, epoch entries) that must repeat run to run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/index/range_index.h"
#include "src/nvm/bandwidth.h"
#include "src/nvm/config.h"
#include "src/nvm/stats.h"
#include "src/nvm/topology.h"
#include "src/pactree/pactree.h"
#include "src/runtime/maintenance.h"
#include "src/runtime/workers.h"
#include "src/sync/epoch.h"
#include "src/workload/keyset.h"
#include "src/workload/zipf.h"

namespace pactree {
namespace {

constexpr double kZipfTheta = 0.99;
constexpr double kWriteFraction = 0.05;
constexpr size_t kMaxScanLen = 100;
constexpr size_t kReadBatch = 16;
constexpr uint64_t kProbeEvery = 32;         // traced: child spans on 1 op in 32
constexpr size_t kMaxSpansPerThread = 1 << 15;
constexpr const char* kTreeName = "perfbench";

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kLookup, kScanInsert, kMgetValue };

struct Workload {
  const char* name;
  Kind kind;
  bool string_keys;
  uint32_t clients;
  bool absorb;
  bool values;
};

constexpr Workload kWorkloads[] = {
    {"lookup-zipf-int", Kind::kLookup, false, 4, false, false},
    {"scan-insert-str", Kind::kScanInsert, true, 2, true, false},
    // 2 clients, not 4: the value GC and epoch reclaim services take about
    // 1.3 cores here, and 4 clients beside them put the per-call p99 on the
    // preemption cliff (300-2000 us from run to run).
    {"mget-value", Kind::kMgetValue, false, 2, false, true},
};

struct Args {
  const Workload* w = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool replay = false;
  uint64_t keys = 1'000'000;
  uint64_t replay_ops = 200'000;
  uint32_t rounds = 5;
  double warmup_s = 0.5;
  uint64_t corrupt = 0;  // self-test: deliberately wrong expectations
  std::string spans_path;
};

// ---------------------------------------------------------------------------
// Exact latency percentiles: 1-ns buckets below 131 us, raw values above.
// (LatencyHistogram's 6.25%-wide buckets would report the same bucket bound
// for small shifts, hiding real run-to-run differences.)

class ExactHist {
 public:
  static constexpr uint64_t kLinear = 1u << 17;

  void Record(uint64_t ns) {
    if (ns < kLinear) {
      if (counts_.empty()) {
        counts_.assign(kLinear, 0);
      }
      counts_[ns]++;
    } else {
      over_.push_back(ns);
    }
    ++n_;
  }
  void Merge(const ExactHist& o) {
    if (!o.counts_.empty()) {
      if (counts_.empty()) {
        counts_.assign(kLinear, 0);
      }
      for (uint64_t i = 0; i < kLinear; ++i) {
        counts_[i] += o.counts_[i];
      }
    }
    over_.insert(over_.end(), o.over_.begin(), o.over_.end());
    n_ += o.n_;
  }
  uint64_t count() const { return n_; }
  // Nearest-rank percentile in ns (0 when empty).
  double Percentile(double p) {
    if (n_ == 0) {
      return 0;
    }
    uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n_)));
    rank = std::clamp<uint64_t>(rank, 1, n_);
    uint64_t seen = 0;
    for (uint64_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        return static_cast<double>(i);
      }
    }
    std::sort(over_.begin(), over_.end());
    return static_cast<double>(over_[rank - seen - 1]);
  }

 private:
  std::vector<uint64_t> counts_;
  std::vector<uint64_t> over_;
  uint64_t n_ = 0;
};

double MedianOf(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// ---------------------------------------------------------------------------
// The index under test: RangeIndex for untraced runs, PacTree (same options)
// for traced and replay runs, whose inner layers the tracer calls directly.

struct Target {
  std::unique_ptr<RangeIndex> index;
  std::unique_ptr<PacTree> tree;

  Status Insert(const Key& k, uint64_t v) {
    return index ? index->Insert(k, v) : tree->Insert(k, v);
  }
  Status Lookup(const Key& k, uint64_t* v) const {
    return index ? index->Lookup(k, v) : tree->Lookup(k, v);
  }
  size_t Scan(const Key& s, size_t n, std::vector<std::pair<Key, uint64_t>>* out) const {
    return index ? index->Scan(s, n, out) : tree->Scan(s, n, out);
  }
  Status InsertValue(const Key& k, std::string_view v) {
    return index ? index->InsertValue(k, v) : tree->InsertValue(k, v);
  }
  size_t MultiGetValues(std::span<const Key> keys, std::vector<std::string>* values,
                        Status* statuses) const {
    return index ? index->MultiGetValues(keys, values, statuses)
                 : tree->MultiGetValues(keys, values, statuses);
  }
  void Drain() {
    if (index) {
      index->Drain();
    } else {
      tree->DrainAbsorb();
      tree->DrainSmoLogs();
    }
  }
  uint64_t Size() const { return index ? index->Size() : tree->Size(); }
  bool CheckInvariants(std::string* why) const {
    return index ? index->CheckInvariants(why) : tree->CheckInvariants(why);
  }
  std::vector<PmemHeap*> Heaps() const {
    if (index) {
      return index->Heaps();
    }
    std::vector<PmemHeap*> h = {tree->search_heap(), tree->data_heap(), tree->log_heap()};
    if (tree->value_store() != nullptr) {
      h.push_back(tree->value_store()->heap());
    }
    return h;
  }
};

void ConfigureMachine() {
  // The figure benches' default machine: 2 logical NUMA nodes, snoop
  // coherence, latency emulation on, bandwidth throttling off.
  NvmConfig& cfg = GlobalNvmConfig();
  cfg = NvmConfig();
  cfg.numa_nodes = 2;
  cfg.emulate_latency = true;
  cfg.emulate_bandwidth = false;
  BandwidthModel::Instance().Reconfigure();
}

uint16_t g_next_pool_base = 2000;

Target OpenTarget(const Workload& w, bool direct) {
  Target t;
  if (!direct) {
    IndexFactoryOptions o;
    o.name = kTreeName;
    o.string_keys = w.string_keys;
    o.pactree_absorb_writes = w.absorb;
    o.pactree_value_storage = w.values;
    t.index = CreateIndex(IndexKind::kPacTree, o);
  } else {
    PacTree::Destroy(kTreeName);
    PacTreeOptions o;
    o.name = kTreeName;
    o.pool_id_base = g_next_pool_base;
    g_next_pool_base += 32;
    o.absorb_writes = w.absorb;
    o.value_storage = w.values;
    t.tree = PacTree::Open(o);
  }
  return t;
}

void CloseTarget(Target* t) {
  t->index.reset();
  t->tree.reset();
  EpochManager::Instance().DrainAll();
  PacTree::Destroy(kTreeName);
}

// ---------------------------------------------------------------------------
// Inputs and expected answers. Key i of the universe is KeySet::At(i); its
// u64 value is i + 1. Value-tier records carry (index, version) and a fill
// pattern derived from both, so concurrent overwrites stay checkable.

uint64_t WordFor(uint64_t i) { return i + 1; }

size_t ValueSize(uint64_t i, uint32_t ver) {
  return Mix64(i * 0x100000001b3ULL + ver) % 5 == 0 ? 1024 : 64;
}

void FillValue(uint64_t i, uint32_t ver, std::string* out) {
  size_t n = ValueSize(i, ver);
  out->resize(n);
  uint64_t words[2] = {i, (static_cast<uint64_t>(n) << 32) | ver};
  std::memcpy(out->data(), words, sizeof(words));
  uint64_t pat = Mix64(i ^ (static_cast<uint64_t>(ver) << 40));
  for (size_t off = 16; off < n; off += 8) {
    uint64_t x = pat + off;
    std::memcpy(out->data() + off, &x, 8);
  }
}

// True when |v| is a well-formed record of key |i| with a version no newer
// than |max_ver|.
bool ValueMatches(const std::string& v, uint64_t i, uint32_t max_ver) {
  if (v.size() < 16) {
    return false;
  }
  uint64_t words[2];
  std::memcpy(words, v.data(), sizeof(words));
  uint32_t ver = static_cast<uint32_t>(words[1]);
  if (words[0] != i || ver > max_ver || (words[1] >> 32) != v.size() ||
      v.size() != ValueSize(i, ver)) {
    return false;
  }
  uint64_t pat = Mix64(i ^ (static_cast<uint64_t>(ver) << 40));
  for (size_t off = 16; off < v.size(); off += 8) {
    uint64_t x;
    std::memcpy(&x, v.data() + off, 8);
    if (x != pat + off) {
      return false;
    }
  }
  return true;
}

struct Universe {
  KeySet keys;
  uint64_t n;
  // Sorted loaded keys with their universe index, and each index's rank:
  // the scan checker walks these to prove no loaded key is skipped.
  std::vector<Key> sorted;
  std::vector<uint32_t> index_of_rank;
  std::vector<uint32_t> rank_of;
  // Value tier: highest version issued per key.
  std::unique_ptr<std::atomic<uint32_t>[]> issued;

  Universe(const Workload& w, uint64_t seed, uint64_t n_keys)
      : keys(w.string_keys, Mix64(seed)), n(n_keys) {
    if (w.kind == Kind::kScanInsert) {
      std::vector<std::pair<Key, uint32_t>> all(n);
      for (uint64_t i = 0; i < n; ++i) {
        all[i] = {keys.At(i), static_cast<uint32_t>(i)};
      }
      std::sort(all.begin(), all.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      sorted.resize(n);
      index_of_rank.resize(n);
      rank_of.resize(n);
      for (uint64_t r = 0; r < n; ++r) {
        sorted[r] = all[r].first;
        index_of_rank[r] = all[r].second;
        rank_of[all[r].second] = static_cast<uint32_t>(r);
      }
    }
    if (w.values) {
      issued = std::make_unique<std::atomic<uint32_t>[]>(n);
    }
    ResetVersions();
  }

  // A fresh load writes version 0 of every value.
  void ResetVersions() {
    for (uint64_t i = 0; issued != nullptr && i < n; ++i) {
      issued[i].store(0, std::memory_order_relaxed);
    }
  }
};

// Self-test hook: the first |corrupt| checks expect a wrong answer.
std::atomic<int64_t> g_corrupt{0};

bool Expect(bool ok) {
  if (g_corrupt.load(std::memory_order_relaxed) > 0 &&
      g_corrupt.fetch_sub(1, std::memory_order_relaxed) > 0) {
    return !ok;
  }
  return ok;
}

// Scan answer check: strictly ascending, starts at |start| (a loaded key,
// never removed), every loaded key between consecutive results present,
// every record's value maps back to its key, and min(len, remaining) records
// (keys are only ever added, so remaining >= the loaded keys past start).
bool ScanMatches(const Universe& u, uint64_t start_idx, size_t len,
                 const std::vector<std::pair<Key, uint64_t>>& out) {
  uint64_t r = u.rank_of[start_idx];
  size_t min_n = std::min<uint64_t>(len, u.n - r);
  if (out.size() > len || out.size() < min_n) {
    return false;
  }
  if (!out.empty() && out[0].first != u.sorted[r]) {
    return false;
  }
  for (size_t j = 0; j < out.size(); ++j) {
    const auto& [k, v] = out[j];
    if (j > 0 && !(out[j - 1].first < k)) {
      return false;
    }
    if (r < u.n && k == u.sorted[r]) {
      if (v != WordFor(u.index_of_rank[r])) {
        return false;
      }
      ++r;
      continue;
    }
    // Not the next loaded key: must be a run-phase insert sorting before it.
    if ((r < u.n && !(k < u.sorted[r])) || v == 0 || v - 1 < u.n ||
        u.keys.At(v - 1) != k) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-thread media counters, grouped by heap (search, data, log, value) plus
// the unattributed bucket that carries fences.

enum HeapIdx { kSearch = 0, kData, kLog, kValue, kHeaps };
const char* const kHeapNames[kHeaps] = {"search", "data", "log", "value"};

struct HeapCounts {
  NvmStatsSnapshot heap[kHeaps];
  uint64_t fences = 0;

  HeapCounts& operator+=(const HeapCounts& o) {
    for (int h = 0; h < kHeaps; ++h) {
      heap[h] += o.heap[h];
    }
    fences += o.fences;
    return *this;
  }
  NvmStatsSnapshot Total() const {
    NvmStatsSnapshot s;
    for (const auto& h : heap) {
      s += h;
    }
    return s;
  }
};

std::vector<uint16_t> PoolIds(const PmemHeap* heap) {
  std::vector<uint16_t> ids;
  if (heap != nullptr) {
    for (uint32_t i = 0; i < heap->pool_count(); ++i) {
      ids.push_back(heap->pool(i)->pool_id());
    }
  }
  return ids;
}

struct HeapPools {
  std::vector<uint16_t> ids[kHeaps];

  explicit HeapPools(const PacTree* tree) {
    ids[kSearch] = PoolIds(tree->search_heap());
    ids[kData] = PoolIds(tree->data_heap());
    ids[kLog] = PoolIds(tree->log_heap());
    if (tree->value_store() != nullptr) {
      ids[kValue] = PoolIds(tree->value_store()->heap());
    }
  }
};

// The calling thread's counters for every pool of the tree.
class LocalCounters {
 public:
  explicit LocalCounters(const HeapPools& pools) : fences_(&LocalNvmCounters(0)) {
    for (int h = 0; h < kHeaps; ++h) {
      for (uint16_t id : pools.ids[h]) {
        cells_[h].push_back(&LocalNvmCounters(id));
      }
    }
  }
  HeapCounts Read() const {
    HeapCounts c;
    for (int h = 0; h < kHeaps; ++h) {
      for (const NvmThreadCounters* cell : cells_[h]) {
        cell->AddTo(&c.heap[h]);
      }
    }
    c.fences = fences_->fences.load();
    return c;
  }

 private:
  std::vector<const NvmThreadCounters*> cells_[kHeaps];
  const NvmThreadCounters* fences_;
};

HeapCounts Diff(const HeapCounts& a, const HeapCounts& b) {
  HeapCounts d;
  for (int h = 0; h < kHeaps; ++h) {
    d.heap[h] = a.heap[h] - b.heap[h];
  }
  d.fences = a.fences - b.fences;
  return d;
}

NvmStatsSnapshot PoolsStats(const std::vector<uint16_t>& ids) {
  NvmStatsSnapshot s;
  for (uint16_t id : ids) {
    s += PoolNvmStats(id);
  }
  return s;
}

// Exact-count replay pacing. The tree's background services stay paused;
// every kPaceEvery ops the working thread hands the turn to the pacer thread,
// which runs one pass of every registered service in registration order, and
// waits for it. Background work thus happens at the same points of every
// replay, on a thread of its own, so client counts stay the client's.
class ReplayPacer {
 public:
  static constexpr uint64_t kPaceEvery = 64;

  explicit ReplayPacer(const HeapPools& pools) : pools_(pools) {}

  void Tick() {
    if (++ticks_ % kPaceEvery == 0) {
      Handoff(kRun);
    }
  }
  void Finish() { Handoff(kExit); }

  // Body of the pacer thread for one phase; its media counts add to |bg|.
  void Serve(uint32_t worker, HeapCounts* bg) {
    AssignWorkerThread(worker);
    LocalCounters local(pools_);
    HeapCounts before = local.Read();
    for (;;) {
      int req;
      while ((req = turn_.load(std::memory_order_acquire)) == kIdle) {
        std::this_thread::yield();
      }
      if (req == kRun) {
        MaintenanceRegistry::Instance().ForEach(
            [](BackgroundService& s) { s.RunPassInline(); });
      }
      turn_.store(kIdle, std::memory_order_release);
      if (req == kExit) {
        break;
      }
    }
    *bg += Diff(local.Read(), before);
  }

 private:
  enum { kIdle, kRun, kExit };

  void Handoff(int req) {
    turn_.store(req, std::memory_order_release);
    while (turn_.load(std::memory_order_acquire) != kIdle) {
      std::this_thread::yield();
    }
  }

  const HeapPools& pools_;
  std::atomic<int> turn_{kIdle};
  uint64_t ticks_ = 0;
};

// ---------------------------------------------------------------------------
// Spans (traced half only). Root spans wrap each index call; children wrap
// the sampled direct calls into inner layers made with the same key.

enum SpanName : uint8_t {
  kSpLookup,
  kSpScan,
  kSpInsert,
  kSpMultiGetValues,
  kSpInsertValue,
  kSpArtFloor,
  kSpAbsorbLookup,
  kSpValueRead,
};
const char* const kSpanNames[] = {"Lookup",           "Scan",
                                  "Insert",           "MultiGetValues",
                                  "InsertValue",      "PdlArt::LookupFloor",
                                  "AbsorbBuffer::Lookup", "ValueStorage::Read"};

struct Span {
  uint64_t id;
  uint64_t parent;  // 0 = root
  uint64_t op_id;   // shared by a request's root span and its children
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t thread;
  uint8_t name;
  uint32_t heap_read[kHeaps];   // root spans: the op's media bytes per heap
  uint32_t heap_write[kHeaps];
};

// ---------------------------------------------------------------------------
// Client state

enum Phase : int { kWarm = 0, kMeasure, kTraced, kStop };
enum LatClass { kRead = 0, kWrite, kScan, kClasses };
const char* const kClassNames[kClasses] = {"read", "write", "scan"};

struct PhaseCounts {
  uint64_t ops = 0;          // keys read + writes + scans
  uint64_t reads = 0;        // keys read (Lookup or MultiGetValues keys)
  uint64_t read_calls = 0;   // Lookup or MultiGetValues calls
  uint64_t writes = 0;
  uint64_t scans = 0;

  PhaseCounts& operator+=(const PhaseCounts& o) {
    ops += o.ops;
    reads += o.reads;
    read_calls += o.read_calls;
    writes += o.writes;
    scans += o.scans;
    return *this;
  }
};

struct alignas(64) Client {
  ExactHist lat[kClasses];  // measured (untraced) phase
  PhaseCounts counts[kStop];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t inserted = 0;
  // Traced half.
  HeapCounts traced_heap;
  std::vector<Span> spans;
  std::vector<double> art_floor_ns;
  std::vector<double> value_read_ns;
  uint64_t absorb_probes = 0;
  uint64_t absorb_hits = 0;
  uint64_t span_seq = 0;
};

struct Shared {
  const Args* args;
  const Workload* w;
  Universe* u;
  Target* target;
  const ZipfGenerator* zipf;
  const HeapPools* pools = nullptr;  // traced and replay runs
  ReplayPacer* pacer = nullptr;      // replay runs only
  std::atomic<int> phase{kWarm};
  std::atomic<uint32_t> ready{0};
  uint64_t fixed_ops = 0;  // replay: stop after this many ops (0 = timed)
  std::vector<Client> clients;
  // Each round maps Zipf ranks onto keys through its own bijection
  // (rank * stride + offset) mod n, so the hot set lands on different keys,
  // nodes and pools from round to round.
  uint32_t round = 0;
  uint64_t stride = 1;
  uint64_t offset = 0;

  void SetRound(uint32_t r) {
    round = r;
    offset = Mix64(args->seed * 7919 + r) % u->n;
    stride = 1000003;
    while (std::gcd(stride, u->n) != 1) {
      stride += 2;
    }
  }
  uint64_t Hot(Rng& rng) const { return (zipf->Next(rng) * stride + offset) % u->n; }
};

// Span ids: thread in the top 16 bits, a per-thread sequence below. A root
// span's id is its op id; its children carry the same op id.
uint64_t NextSpanId(Client& c, uint32_t tid) {
  return (static_cast<uint64_t>(tid + 1) << 48) | ++c.span_seq;
}

// Sampled child spans: direct calls into the inner layers with the op's key.
void Probe(Shared& sh, Client& c, uint32_t tid, uint64_t op_id, const Key& key) {
  PacTree* tree = sh.target->tree.get();
  auto child = [&](uint8_t name, uint64_t s, uint64_t e) {
    if (c.spans.size() < 2 * kMaxSpansPerThread) {
      c.spans.push_back(Span{NextSpanId(c, tid), op_id, op_id, s, e, tid, name, {}, {}});
    }
    return static_cast<double>(e - s);
  };
  Key found;
  uint64_t v = 0;
  uint64_t s = NowNs();
  tree->search_layer()->LookupFloor(key, &found, &v);
  c.art_floor_ns.push_back(child(kSpArtFloor, s, NowNs()));
  if (tree->absorb() != nullptr) {
    s = NowNs();
    AbsorbBuffer::Hit hit = tree->absorb()->Lookup(key, &v);
    child(kSpAbsorbLookup, s, NowNs());
    c.absorb_probes++;
    c.absorb_hits += hit != AbsorbBuffer::Hit::kMiss ? 1 : 0;
  }
  if (tree->value_store() != nullptr && tree->Lookup(key, &v) == Status::kOk &&
      !ValueHandleIsInline(v)) {
    std::string out;
    EpochGuard guard;  // Read dereferences the log under the caller's epoch
    s = NowNs();
    tree->value_store()->Read(v, key, &out);
    c.value_read_ns.push_back(child(kSpValueRead, s, NowNs()));
  }
}

// One client: every iteration issues exactly one index call and checks its
// answer. mget-value draws reads into a batch of up to 16 keys; a drawn write
// flushes the batch first and is issued by the next iteration.
void ClientLoop(Shared& sh, uint32_t tid) {
  AssignWorkerThread(tid);
  Client& c = sh.clients[tid];
  const Workload& w = *sh.w;
  Universe& u = *sh.u;
  Target& t = *sh.target;
  Rng rng(Mix64(sh.args->seed * 1000003ULL + sh.round * 131 + tid));
  std::unique_ptr<LocalCounters> local;
  if (sh.pools != nullptr) {
    local = std::make_unique<LocalCounters>(*sh.pools);
  }
  std::vector<std::pair<Key, uint64_t>> scan_out;
  std::vector<Key> batch_keys;
  std::vector<uint64_t> batch_idx;
  std::vector<std::string> batch_vals;
  Status batch_st[kReadBatch];
  std::string vbuf;
  bool pending_write = false;
  uint64_t pending_idx = 0;
  uint64_t next_insert = u.n + tid;

  sh.ready.fetch_add(1);
  for (uint64_t done = 0; sh.fixed_ops == 0 || done < sh.fixed_ops; ++done) {
    const int phase = sh.phase.load(std::memory_order_relaxed);
    if (phase == kStop) {
      break;
    }
    const bool traced = phase == kTraced;
    PhaseCounts& pc = c.counts[phase];
    HeapCounts before;
    if (traced) {
      before = local->Read();
    }
    SpanName name = kSpLookup;
    LatClass cls = kRead;
    Key key;
    uint64_t t0 = 0;
    uint64_t t1 = 0;
    uint64_t checked = 1;
    uint64_t bad = 0;

    if (w.kind == Kind::kLookup) {
      uint64_t i = sh.Hot(rng);
      key = u.keys.At(i);
      uint64_t v = 0;
      t0 = NowNs();
      Status s = t.Lookup(key, &v);
      t1 = NowNs();
      bad = Expect(s == Status::kOk && v == WordFor(i)) ? 0 : 1;
      pc.reads++;
      pc.read_calls++;
    } else if (w.kind == Kind::kScanInsert) {
      if (rng.NextDouble() < kWriteFraction) {
        uint64_t j = next_insert;
        next_insert += w.clients;
        key = u.keys.At(j);
        t0 = NowNs();
        Status s = t.Insert(key, WordFor(j));
        t1 = NowNs();
        bad = Expect(s == Status::kOk) ? 0 : 1;
        c.inserted += s == Status::kOk ? 1 : 0;
        name = kSpInsert;
        cls = kWrite;
        pc.writes++;
      } else {
        uint64_t i = sh.Hot(rng);
        size_t len = 1 + rng.Uniform(kMaxScanLen);
        key = u.keys.At(i);
        t0 = NowNs();
        t.Scan(key, len, &scan_out);
        t1 = NowNs();
        bad = Expect(ScanMatches(u, i, len, scan_out)) ? 0 : 1;
        name = kSpScan;
        cls = kScan;
        pc.scans++;
      }
    } else {
      while (!pending_write && batch_idx.size() < kReadBatch) {
        const bool write = rng.NextDouble() < kWriteFraction;
        uint64_t i = sh.Hot(rng);
        if (write) {
          pending_write = true;
          pending_idx = i;
        } else {
          batch_idx.push_back(i);
        }
      }
      if (!batch_idx.empty()) {
        batch_keys.clear();
        for (uint64_t i : batch_idx) {
          batch_keys.push_back(u.keys.At(i));
        }
        key = batch_keys[0];
        t0 = NowNs();
        t.MultiGetValues(batch_keys, &batch_vals, batch_st);
        t1 = NowNs();
        checked = batch_idx.size();
        for (size_t k = 0; k < batch_idx.size(); ++k) {
          uint32_t max_ver = u.issued[batch_idx[k]].load(std::memory_order_acquire);
          bool good = batch_st[k] == Status::kOk &&
                      ValueMatches(batch_vals[k], batch_idx[k], max_ver);
          bad += Expect(good) ? 0 : 1;
        }
        name = kSpMultiGetValues;
        pc.reads += checked;
        pc.read_calls++;
        batch_idx.clear();
      } else {
        uint64_t i = pending_idx;
        pending_write = false;
        uint32_t ver = u.issued[i].fetch_add(1, std::memory_order_acq_rel) + 1;
        FillValue(i, ver, &vbuf);
        key = u.keys.At(i);
        t0 = NowNs();
        Status s = t.InsertValue(key, vbuf);
        t1 = NowNs();
        bad = Expect(s == Status::kExists) ? 0 : 1;  // loaded keys are never removed
        name = kSpInsertValue;
        cls = kWrite;
        pc.writes++;
      }
    }
    pc.ops += checked;
    c.attempted += checked;
    c.failed += bad;
    if (phase == kMeasure) {
      c.lat[cls].Record(t1 - t0);
    }
    if (traced) {
      HeapCounts d = Diff(local->Read(), before);
      c.traced_heap += d;
      uint64_t op_id = NextSpanId(c, tid);
      if (c.spans.size() < kMaxSpansPerThread) {
        Span sp{op_id, 0, op_id, t0, t1, tid, name, {}, {}};
        for (int h = 0; h < kHeaps; ++h) {
          sp.heap_read[h] = static_cast<uint32_t>(d.heap[h].media_read_bytes);
          sp.heap_write[h] = static_cast<uint32_t>(d.heap[h].media_write_bytes);
        }
        c.spans.push_back(sp);
      }
      if (c.span_seq % kProbeEvery == 1) {
        Probe(sh, c, tid, op_id, key);
      }
    }
    if (sh.pacer != nullptr) {
      sh.pacer->Tick();
    }
  }
}

// ---------------------------------------------------------------------------
// Load + drain: the set-up a run pays before its measured phase. In a replay
// (|pacer| set, one client) the loader's own media counts land in |counts|
// and the paced background work in |bg|.

bool Load(const Args& a, Universe& u, Target& t, uint32_t clients,
          ReplayPacer* pacer = nullptr, const HeapPools* pools = nullptr,
          HeapCounts* counts = nullptr, HeapCounts* bg = nullptr) {
  std::atomic<uint64_t> bad{0};
  RunWorkerThreads(clients + (pacer != nullptr ? 1 : 0), [&](uint32_t tid) {
    if (tid == clients) {
      pacer->Serve(tid, bg);
      return;
    }
    AssignWorkerThread(tid);
    std::unique_ptr<LocalCounters> local;
    HeapCounts before;
    if (pools != nullptr) {
      local = std::make_unique<LocalCounters>(*pools);
      before = local->Read();
    }
    std::string vbuf;
    uint64_t from = u.n * tid / clients;
    uint64_t to = u.n * (tid + 1) / clients;
    for (uint64_t i = from; i < to; ++i) {
      Status s;
      if (a.w->values) {
        FillValue(i, 0, &vbuf);
        s = t.InsertValue(u.keys.At(i), vbuf);
      } else {
        s = t.Insert(u.keys.At(i), WordFor(i));
      }
      if (s != Status::kOk) {
        bad.fetch_add(1);
      }
      if (pacer != nullptr) {
        pacer->Tick();
      }
    }
    if (local != nullptr) {
      *counts = Diff(local->Read(), before);
    }
    if (pacer != nullptr) {
      pacer->Finish();
    }
  });
  t.Drain();
  return bad.load() == 0;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string j = "{\"correct\": ";
  j += correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(attempted);
  j += ", \"failed\": " + std::to_string(failed);
  j += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    j += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
  std::fflush(stdout);
}

struct ServiceTotals {
  uint64_t passes = 0;
  uint64_t items = 0;
  double pass_p50_us = 0;
  double pass_p99_us = 0;
};

// Service kinds by registered-name pattern.
const char* ServiceKind(const std::string& name) {
  if (name.find("/updater") != std::string::npos) {
    return "updater";
  }
  if (name.find("/absorb/drain") != std::string::npos) {
    return "absorb_drain";
  }
  if (name.find("/value/gc") != std::string::npos) {
    return "value_gc";
  }
  if (name.find("/pool/pressure") != std::string::npos) {
    return "pool_pressure";
  }
  if (name.find("epoch/reclaim") != std::string::npos) {
    return "epoch_reclaim";
  }
  return nullptr;
}
const char* const kServiceKinds[] = {"updater", "absorb_drain", "value_gc",
                                     "pool_pressure", "epoch_reclaim"};

std::map<std::string, MaintenanceStats> ServiceSnapshot() {
  std::map<std::string, MaintenanceStats> m;
  for (MaintenanceStats& s : MaintenanceRegistry::Instance().StatsSnapshot()) {
    std::string name = s.name;
    m.emplace(std::move(name), std::move(s));
  }
  return m;
}

// Passes and items are diffed across the traced half; pass latency
// percentiles cover each service's lifetime (load included), taking the
// slowest service of a kind.
std::map<std::string, ServiceTotals> ServiceDiff(
    const std::map<std::string, MaintenanceStats>& before,
    const std::map<std::string, MaintenanceStats>& after) {
  std::map<std::string, ServiceTotals> out;
  for (const auto& [name, s] : after) {
    const char* kind = ServiceKind(name);
    if (kind == nullptr) {
      continue;
    }
    ServiceTotals& t = out[kind];
    auto it = before.find(name);
    t.passes += s.passes - (it != before.end() ? it->second.passes : 0);
    t.items += s.items - (it != before.end() ? it->second.items : 0);
    t.pass_p50_us = std::max(t.pass_p50_us, s.pass_latency.Percentile(50) / 1e3);
    t.pass_p99_us = std::max(t.pass_p99_us, s.pass_latency.Percentile(99) / 1e3);
  }
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: pacbench --workload lookup-zipf-int|scan-insert-str|mget-value"
               " [--seed N] [--seconds S] [--trace 0|1] [--replay] [--keys N]"
               " [--replay-ops N] [--rounds N] [--warmup S] [--corrupt N]"
               " [--spans PATH]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--replay") {
      a->replay = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    std::string v = argv[++i];
    if (k == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) {
          a->w = &w;
        }
      }
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v != "0";
    } else if (k == "--keys") {
      a->keys = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--replay-ops") {
      a->replay_ops = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--rounds") {
      a->rounds = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (k == "--warmup") {
      a->warmup_s = std::atof(v.c_str());
    } else if (k == "--corrupt") {
      a->corrupt = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--spans") {
      a->spans_path = v;
    } else {
      return false;
    }
  }
  return a->w != nullptr && a->seconds > 0 && a->keys >= 1000 && a->rounds >= 1 &&
         a->keys < (1ULL << 31);
}

void SleepS(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

void WriteSpans(const std::string& path, const std::vector<Client>& clients) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "span_id,parent,op_id,thread,name,start_ns,end_ns");
  for (const char* h : kHeapNames) {
    std::fprintf(f, ",%s_read_bytes,%s_write_bytes", h, h);
  }
  std::fprintf(f, "\n");
  size_t n = 0;
  for (const Client& c : clients) {
    for (const Span& s : c.spans) {
      std::fprintf(f, "%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%u,%s,%" PRIu64 ",%" PRIu64,
                   s.id, s.parent, s.op_id, s.thread, kSpanNames[s.name], s.start_ns,
                   s.end_ns);
      for (int h = 0; h < kHeaps; ++h) {
        std::fprintf(f, ",%u,%u", s.heap_read[h], s.heap_write[h]);
      }
      std::fprintf(f, "\n");
      ++n;
    }
  }
  std::fclose(f);
  std::fprintf(stderr, "# spans: %zu written to %s\n", n, path.c_str());
}

// Final answer checks on the quiesced tree.
uint64_t FinalChecks(Target& t, uint64_t expected_size) {
  uint64_t failed = 0;
  t.Drain();
  std::string why;
  if (!Expect(t.CheckInvariants(&why))) {
    std::fprintf(stderr, "# CheckInvariants failed: %s\n", why.c_str());
    failed++;
  }
  uint64_t size = t.Size();
  if (!Expect(size == expected_size)) {
    std::fprintf(stderr, "# Size() = %" PRIu64 ", expected %" PRIu64 "\n", size,
                 expected_size);
    failed++;
  }
  return failed;
}

uint64_t LiveBytes(const PmemHeap* heap) {
  uint64_t b = 0;
  if (heap != nullptr) {
    for (uint32_t i = 0; i < heap->pool_count(); ++i) {
      b += heap->pool(i)->LiveBytes();
    }
  }
  return b;
}

// Exact-count replay: one client loads, then runs a fixed op count, with the
// background services paced (ReplayPacer). Prints integer counts of the
// client thread, of the paced background work, and of the tree's counters.
int RunReplay(const Args& a) {
  const Workload& w = *a.w;
  Universe u(w, a.seed, a.keys);
  ZipfGenerator zipf(u.n, kZipfTheta);
  Target t = OpenTarget(w, /*direct=*/true);
  if (!t.tree) {
    std::fprintf(stderr, "cannot open tree\n");
    return 1;
  }
  MaintenanceRegistry::Instance().ForEach([](BackgroundService& s) { s.Pause(); });
  HeapPools pools(t.tree.get());
  ReplayPacer pacer(pools);
  HeapCounts load, run, bg;
  bool load_ok = Load(a, u, t, 1, &pacer, &pools, &load, &bg);
  PacTreeStats s0 = t.tree->Stats();
  Shared sh;
  sh.args = &a;
  sh.w = &w;
  sh.u = &u;
  sh.target = &t;
  sh.zipf = &zipf;
  sh.pools = &pools;
  sh.pacer = &pacer;
  sh.fixed_ops = a.replay_ops;
  sh.SetRound(0);
  sh.clients = std::vector<Client>(1);
  sh.phase.store(kMeasure);
  RunWorkerThreads(2, [&](uint32_t tid) {
    if (tid == 1) {
      pacer.Serve(tid, &bg);
      return;
    }
    LocalCounters local(pools);
    HeapCounts before = local.Read();
    ClientLoop(sh, tid);
    run = Diff(local.Read(), before);
    pacer.Finish();
  });
  PacTreeStats s1 = t.tree->Stats();
  uint64_t failed = sh.clients[0].failed +
                    FinalChecks(t, u.n + sh.clients[0].inserted) + (load_ok ? 0 : 1);
  auto emit = [](const char* phase, const HeapCounts& c) {
    std::printf("{\"phase\": \"%s\"", phase);
    for (int h = 0; h < kHeaps; ++h) {
      const NvmStatsSnapshot& s = c.heap[h];
      std::printf(", \"%s\": [%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 "]",
                  kHeapNames[h], s.media_read_bytes, s.media_write_bytes, s.flushes,
                  s.alloc_ops, s.free_ops);
    }
    std::printf(", \"fences\": %" PRIu64 "}\n", c.fences);
  };
  std::printf("# replay %s seed=%" PRIu64 " keys=%" PRIu64 " ops=%" PRIu64
              " (per heap: media_read_bytes, media_write_bytes, flushes, allocs,"
              " frees)\n",
              w.name, a.seed, u.n, a.replay_ops);
  emit("load", load);
  emit("run", run);
  emit("background", bg);
  std::printf("{\"phase\": \"run\", \"node_locks\": %" PRIu64 ", \"epoch_enters\": %" PRIu64
              ", \"splits\": %" PRIu64 ", \"smo_applied\": %" PRIu64 ", \"failed\": %" PRIu64
              "}\n",
              s1.node_locks - s0.node_locks, s1.epoch_enters - s0.epoch_enters,
              s1.splits - s0.splits, s1.smo_applied - s0.smo_applied, failed);
  MaintenanceRegistry::Instance().ForEach([](BackgroundService& s) { s.Resume(); });
  CloseTarget(&t);
  return failed == 0 ? 0 : 1;
}

// Everything one round measured, for the end-to-end report.
struct RoundResult {
  double setup_s = 0;
  double tput = 0;
  double read_p50_us = 0;
  double read_p99_us = 0;
  double media_read_per_op = 0;
  double pmem_per_key = 0;
  std::vector<Metric> per_layer;  // traced rounds only
};

// Per-layer metrics of a traced round: the traced half's client counts and
// spans, and process-wide counters diffed across it.
struct TracedWindow {
  PacTreeStats st0, st1;
  PdlArtStats art0, art1;
  std::map<std::string, MaintenanceStats> svc0, svc1;
  NvmStatsSnapshot log0, log1;
  double seconds = 0;
};

std::vector<Metric> PerLayerMetrics(const Shared& sh, const TracedWindow& tw,
                                    const PhaseCounts& traced, uint64_t live_keys) {
  HeapCounts hc;
  std::vector<double> art_floor, value_read;
  uint64_t absorb_probes = 0, absorb_hits = 0;
  for (const Client& c : sh.clients) {
    hc += c.traced_heap;
    art_floor.insert(art_floor.end(), c.art_floor_ns.begin(), c.art_floor_ns.end());
    value_read.insert(value_read.end(), c.value_read_ns.begin(), c.value_read_ns.end());
    absorb_probes += c.absorb_probes;
    absorb_hits += c.absorb_hits;
  }
  const PacTreeStats& st0 = tw.st0;
  const PacTreeStats& st1 = tw.st1;
  const double n = static_cast<double>(traced.ops);
  const double writes = static_cast<double>(traced.writes);
  const double reads = static_cast<double>(traced.reads);
  const NvmStatsSnapshot all = hc.Total();
  const NvmStatsSnapshot log_all = tw.log1 - tw.log0;
  const auto svc = ServiceDiff(tw.svc0, tw.svc1);
  auto sv = [&](const char* kind) {
    auto it = svc.find(kind);
    return it != svc.end() ? it->second : ServiceTotals{};
  };
  uint64_t hops = 0;
  for (int i = 0; i < kHopHistBuckets; ++i) {
    hops += static_cast<uint64_t>(i) * (st1.hop_hist[i] - st0.hop_hist[i]);
  }
  auto d = [](uint64_t a1, uint64_t a0) { return static_cast<double>(a1 - a0); };
  auto f = [](uint64_t v) { return static_cast<double>(v); };
  auto lb = [&](const PmemHeap* h) { return Ratio(f(LiveBytes(h)), f(live_keys)); };
  PacTree* tree = sh.target->tree.get();
  const PmemHeap* vheap =
      tree->value_store() != nullptr ? tree->value_store()->heap() : nullptr;
  const bool absorb_on = tree->absorb() != nullptr;
  const bool value_on = vheap != nullptr;
  const double cache_probes = d(st1.value_cache.hits, st0.value_cache.hits) +
                              d(st1.value_cache.misses, st0.value_cache.misses);

  std::vector<Metric> m = {
      {"art.read_bytes_per_op", Ratio(f(hc.heap[kSearch].media_read_bytes), n), "B/op"},
      {"art.floor_us", MedianOf(art_floor) / 1e3, "us"},
      {"art.restarts_per_op", Ratio(d(tw.art1.restarts, tw.art0.restarts), n), "1/op"},
      {"art.live_bytes_per_key", lb(tree->search_heap()), "B/key"},
      {"sync.epoch_enters_per_op", Ratio(d(st1.epoch_enters, st0.epoch_enters), n), "1/op"},
      {"sync.node_locks_per_op", Ratio(d(st1.node_locks, st0.node_locks), n), "1/op"},
      {"pactree.data_read_bytes_per_op", Ratio(f(hc.heap[kData].media_read_bytes), n),
       "B/op"},
      {"pactree.data_write_bytes_per_op", Ratio(f(hc.heap[kData].media_write_bytes), n),
       "B/op"},
      {"pactree.hops_per_op", Ratio(f(hops), n), "1/op"},
      {"pactree.retry_ratio",
       Ratio(d(st1.retries, st0.retries), d(st1.node_locks, st0.node_locks)), "ratio"},
      {"pactree.splits_per_kop", Ratio(d(st1.splits, st0.splits) * 1e3, n), "1/kop"},
      {"pactree.arena_compactions_per_kop",
       Ratio(d(st1.arena_compactions, st0.arena_compactions) * 1e3, n), "1/kop"},
      {"pactree.groups_per_batch",
       Ratio(d(st1.multiget_node_groups, st0.multiget_node_groups),
             d(st1.multiget_batches, st0.multiget_batches)),
       "1/batch"},
      {"pactree.group_retry_ratio",
       Ratio(d(st1.multiget_group_retries, st0.multiget_group_retries),
             d(st1.multiget_node_groups, st0.multiget_node_groups)),
       "ratio"},
      {"nvm.prefetches_per_op", Ratio(f(all.read_prefetches), n), "1/op"},
      {"updater.smo_per_kop", Ratio(d(st1.smo_applied, st0.smo_applied) * 1e3, n), "1/kop"},
      {"updater.items_per_pass", Ratio(f(sv("updater").items), f(sv("updater").passes)),
       "1/pass"},
      {"updater.pass_p99_us", sv("updater").pass_p99_us, "us"},
      {"updater.ring_full_waits", d(st1.smo_ring_full_waits, st0.smo_ring_full_waits),
       "count"},
      // Log-heap bytes written off the client threads: SMO log entries and
      // their applied marks (plus absorb ring upkeep when absorb is on).
      {"updater.log_write_bytes_per_insert",
       Ratio(f(log_all.media_write_bytes) - f(hc.heap[kLog].media_write_bytes), writes),
       "B/op"},
      {"absorb.lookup_hit_ratio", Ratio(f(absorb_hits), f(absorb_probes)), "ratio"},
      {"absorb.ops_per_drain_batch",
       Ratio(d(st1.absorb.drained, st0.absorb.drained),
             d(st1.absorb.batches, st0.absorb.batches)),
       "1/batch"},
      {"absorb.ring_full_waits", d(st1.absorb.ring_full_waits, st0.absorb.ring_full_waits),
       "count"},
      {"absorb.drain_pass_p99_us", sv("absorb_drain").pass_p99_us, "us"},
      {"absorb.log_write_bytes_per_write",
       absorb_on ? Ratio(f(hc.heap[kLog].media_write_bytes), writes) : 0.0, "B/op"},
      {"value.cache_hit_ratio", Ratio(d(st1.value_cache.hits, st0.value_cache.hits), cache_probes),
       "ratio"},
      {"value.read_bytes_per_read",
       value_on ? Ratio(f(hc.heap[kValue].media_read_bytes), reads) : 0.0, "B/op"},
      {"value.log_bytes_per_write", Ratio(f(hc.heap[kValue].media_write_bytes), writes),
       "B/op"},
      {"value.read_retry_ratio",
       value_on ? Ratio(d(st1.value.read_retries, st0.value.read_retries), reads) : 0.0,
       "ratio"},
      {"value.gc_relocated_bytes_per_write",
       Ratio(d(st1.value.gc_bytes_relocated, st0.value.gc_bytes_relocated), writes), "B/op"},
      {"value.gc_pass_p99_us", sv("value_gc").pass_p99_us, "us"},
      {"value.read_us", MedianOf(value_read) / 1e3, "us"},
      {"pmem.allocs_per_write", Ratio(f(all.alloc_ops), writes), "1/op"},
      {"pmem.frees_per_write", Ratio(f(all.free_ops), writes), "1/op"},
      {"pmem.live_bytes_per_key.search", lb(tree->search_heap()), "B/key"},
      {"pmem.live_bytes_per_key.data", lb(tree->data_heap()), "B/key"},
      {"pmem.live_bytes_per_key.log", lb(tree->log_heap()), "B/key"},
      {"pmem.live_bytes_per_key.value", lb(vheap), "B/key"},
      {"nvm.flushes_per_write", Ratio(f(all.flushes), writes), "1/op"},
      {"nvm.fences_per_write", Ratio(f(hc.fences), writes), "1/op"},
      {"nvm.read_cache_hit_ratio", Ratio(f(all.read_hits), f(all.read_hits + all.read_misses)),
       "ratio"},
      {"nvm.remote_read_ratio", Ratio(f(all.remote_reads), f(all.read_misses)), "ratio"},
  };
  for (const char* kind : kServiceKinds) {
    ServiceTotals s = sv(kind);
    std::string p = std::string("runtime.") + kind;
    m.push_back({p + ".passes", f(s.passes), "count"});
    m.push_back({p + ".items", f(s.items), "count"});
    m.push_back({p + ".pass_p50_us", s.pass_p50_us, "us"});
    m.push_back({p + ".pass_p99_us", s.pass_p99_us, "us"});
  }
  return m;
}

// One round: set up a fresh tree (pool creation, load, drain), warm up, and
// measure; a traced round splits the measured time into an untraced and a
// traced half. Ends with the final answer checks on the quiesced tree.
RoundResult RunRound(const Args& a, Universe& u, const ZipfGenerator& zipf, uint32_t round,
                     double measure_s, uint64_t* attempted, uint64_t* failed) {
  const Workload& w = *a.w;
  RoundResult rr;
  u.ResetVersions();
  uint64_t s0 = NowNs();
  Target t = OpenTarget(w, /*direct=*/a.trace);
  if (!t.index && !t.tree) {
    std::fprintf(stderr, "cannot create the index\n");
    std::exit(1);
  }
  bool load_ok = Load(a, u, t, w.clients);
  rr.setup_s = static_cast<double>(NowNs() - s0) / 1e9;
  *attempted += 1;
  *failed += load_ok ? 0 : 1;

  Shared sh;
  sh.args = &a;
  sh.w = &w;
  sh.u = &u;
  sh.target = &t;
  sh.zipf = &zipf;
  sh.SetRound(round);
  std::unique_ptr<HeapPools> pools;
  if (a.trace) {
    pools = std::make_unique<HeapPools>(t.tree.get());
    sh.pools = pools.get();
  }
  sh.clients = std::vector<Client>(w.clients);

  std::vector<PmemHeap*> heaps = t.Heaps();  // search heap first
  const std::vector<uint16_t> search_ids = PoolIds(heaps[0]);
  NvmStatsSnapshot nvm0, nvm1, art_nvm0, art_nvm1;
  TracedWindow tw;
  uint64_t m0 = 0, m1 = 0;
  RunWorkerThreads(
      w.clients, [&](uint32_t tid) { ClientLoop(sh, tid); },
      [&] {
        while (sh.ready.load() < w.clients) {
          std::this_thread::yield();
        }
        SleepS(a.warmup_s);
        nvm0 = GlobalNvmStats();
        art_nvm0 = PoolsStats(search_ids);
        m0 = NowNs();
        sh.phase.store(kMeasure);
        SleepS(measure_s);
        m1 = NowNs();
        nvm1 = GlobalNvmStats();
        art_nvm1 = PoolsStats(search_ids);
        if (a.trace) {
          tw.st0 = t.tree->Stats();
          tw.art0 = t.tree->search_layer()->Stats();
          tw.svc0 = ServiceSnapshot();
          tw.log0 = PoolsStats(pools->ids[kLog]);
          uint64_t tr0 = NowNs();
          sh.phase.store(kTraced);
          SleepS(measure_s);
          tw.seconds = static_cast<double>(NowNs() - tr0) / 1e9;
          tw.st1 = t.tree->Stats();
          tw.art1 = t.tree->search_layer()->Stats();
          tw.svc1 = ServiceSnapshot();
          tw.log1 = PoolsStats(pools->ids[kLog]);
        }
        sh.phase.store(kStop);
      });

  ExactHist lat[kClasses];
  PhaseCounts meas, traced;
  uint64_t inserted = 0;
  for (Client& c : sh.clients) {
    for (int k = 0; k < kClasses; ++k) {
      lat[k].Merge(c.lat[k]);
    }
    meas += c.counts[kMeasure];
    traced += c.counts[kTraced];
    *attempted += c.attempted;
    *failed += c.failed;
    inserted += c.inserted;
  }
  const uint64_t live_keys = u.n + inserted;
  uint64_t pmem_live = 0;
  for (const PmemHeap* h : heaps) {
    pmem_live += LiveBytes(h);
  }
  const double ops = static_cast<double>(meas.ops);
  const NvmStatsSnapshot nvm = nvm1 - nvm0;
  const LatClass read_cls = w.kind == Kind::kScanInsert ? kScan : kRead;
  rr.tput = ops / (static_cast<double>(m1 - m0) / 1e9);
  rr.read_p50_us = lat[read_cls].Percentile(50) / 1e3;
  rr.read_p99_us = lat[read_cls].Percentile(99) / 1e3;
  rr.media_read_per_op = Ratio(static_cast<double>(nvm.media_read_bytes), ops);
  rr.pmem_per_key = Ratio(static_cast<double>(pmem_live), static_cast<double>(live_keys));

  // Every round's full client-side picture goes to stderr, including the
  // search heap's share (the concurrent-load ART anomaly shows here).
  std::fprintf(stderr,
               "# round %u: setup_s=%.3f ops=%" PRIu64 " (%.0f ops/s) reads=%" PRIu64
               " read_calls=%" PRIu64 " writes=%" PRIu64 " scans=%" PRIu64 "\n",
               round, rr.setup_s, meas.ops, rr.tput, meas.reads, meas.read_calls,
               meas.writes, meas.scans);
  for (int k = 0; k < kClasses; ++k) {
    if (lat[k].count() > 0) {
      std::fprintf(stderr, "#   %s_p50_us=%.3f %s_p99_us=%.3f (n=%" PRIu64 ")\n",
                   kClassNames[k], lat[k].Percentile(50) / 1e3, kClassNames[k],
                   lat[k].Percentile(99) / 1e3, lat[k].count());
    }
  }
  std::fprintf(stderr,
               "#   media_read_bytes_per_op=%.2f media_write_bytes_per_op=%.2f"
               " pmem_bytes_per_key=%.2f art.read_bytes_per_op=%.2f"
               " art.live_bytes_per_key=%.3f\n",
               rr.media_read_per_op, Ratio(static_cast<double>(nvm.media_write_bytes), ops),
               rr.pmem_per_key,
               Ratio(static_cast<double>((art_nvm1 - art_nvm0).media_read_bytes), ops),
               Ratio(static_cast<double>(LiveBytes(heaps[0])), static_cast<double>(live_keys)));

  if (a.trace) {
    rr.per_layer = PerLayerMetrics(sh, tw, traced, live_keys);
    const double traced_tput = static_cast<double>(traced.ops) / tw.seconds;
    rr.per_layer.push_back({"client.write_p50_us", lat[kWrite].Percentile(50) / 1e3, "us"});
    rr.per_layer.push_back({"client.write_p99_us", lat[kWrite].Percentile(99) / 1e3, "us"});
    rr.per_layer.push_back({"client.media_write_bytes_per_op",
                            Ratio(static_cast<double>(nvm.media_write_bytes), ops), "B/op"});
    rr.per_layer.push_back({"trace.untraced_ops_s", rr.tput, "1/s"});
    rr.per_layer.push_back({"trace.traced_ops_s", traced_tput, "1/s"});
    rr.per_layer.push_back(
        {"trace.overhead_pct", Ratio(rr.tput - traced_tput, rr.tput) * 100.0, "%"});
    if (!a.spans_path.empty()) {
      WriteSpans(a.spans_path, sh.clients);
    }
  }
  *attempted += 2;  // the final invariant and size checks
  *failed += FinalChecks(t, live_keys);
  CloseTarget(&t);
  return rr;
}

// Mean of the middle values: drops the lowest and highest when there are at
// least four rounds, so one disturbed round cannot move the result.
double TrimmedMean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t lo = v.size() >= 4 ? 1 : 0;
  double sum = 0;
  for (size_t i = lo; i < v.size() - lo; ++i) {
    sum += v[i];
  }
  return sum / static_cast<double>(v.size() - 2 * lo);
}

int RunBench(const Args& a) {
  const Workload& w = *a.w;
  Universe u(w, a.seed, a.keys);
  ZipfGenerator zipf(u.n, kZipfTheta);
  g_corrupt.store(static_cast<int64_t>(a.corrupt));
  std::fprintf(stderr,
               "# %s seed=%" PRIu64 " clients=%u keys=%" PRIu64 " absorb=%d values=%d"
               " trace=%d\n",
               w.name, a.seed, w.clients, u.n, w.absorb, w.values, a.trace);

  // Untraced: |rounds| fresh set-ups share the measured time. Traced: one
  // round, half untraced and half traced.
  const uint32_t rounds = a.trace ? 1 : a.rounds;
  const double measure_s = a.trace ? a.seconds / 2 : a.seconds / rounds;
  uint64_t attempted = 0, failed = 0;
  std::vector<RoundResult> rs;
  for (uint32_t r = 0; r < rounds; ++r) {
    rs.push_back(RunRound(a, u, zipf, r, measure_s, &attempted, &failed));
  }
  auto col = [&](double RoundResult::*field) {
    std::vector<double> v;
    for (const RoundResult& r : rs) {
      v.push_back(r.*field);
    }
    return v;
  };
  std::vector<Metric> m;
  if (!a.trace) {
    m = {
        {"throughput_ops_s", TrimmedMean(col(&RoundResult::tput)), "1/s"},
        {"read_p50_us", TrimmedMean(col(&RoundResult::read_p50_us)), "us"},
        {"read_p99_us", TrimmedMean(col(&RoundResult::read_p99_us)), "us"},
        {"media_read_bytes_per_op", TrimmedMean(col(&RoundResult::media_read_per_op)), "B/op"},
        {"pmem_bytes_per_key", TrimmedMean(col(&RoundResult::pmem_per_key)), "B/key"},
        {"setup_s", MedianOf(col(&RoundResult::setup_s)), "s"},
    };
  } else {
    m = rs[0].per_layer;
  }
  for (const Metric& x : m) {
    std::fprintf(stderr, "# %s = %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  std::fprintf(stderr, "# failed_op_ratio=%.3g (%" PRIu64 "/%" PRIu64 ")\n",
               Ratio(static_cast<double>(failed), static_cast<double>(attempted)), failed,
               attempted);
  PrintResult(failed == 0, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace pactree

int main(int argc, char** argv) {
  pactree::Args a;
  if (!pactree::ParseArgs(argc, argv, &a)) {
    return pactree::Usage();
  }
  pactree::ConfigureMachine();
  return a.replay ? pactree::RunReplay(a) : pactree::RunBench(a);
}
