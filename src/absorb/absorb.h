// DRAM write-absorption buffer (the "batched write absorption" service the
// ROADMAP names; PRISM-style, see PAPERS.md "Evaluating Persistent Memory
// Range Indexes: Part Two").
//
// Motivation: at XPLine (256 B) media granularity every unbatched index write
// pays one-or-more full-line media writes for a few bytes of payload. The
// AbsorbBuffer takes acknowledged writes off that path: an Insert/Update/
// Remove appends one checksummed 128 B entry to a per-shard persistent op-log
// ring (ONE flush+fence; consecutive appends share an XPLine and combine in
// the XPBuffer window) and stages the op in a DRAM-resident sorted map. The
// op is durable -- and therefore acknowledgeable -- the moment its log entry
// is flushed, long before it reaches a data node. Per-shard drain
// BackgroundServices ("<name>/absorb/drain-<i>") later pull batches off the
// ring, sort them by key, and hand them to the index's AbsorbSink, which
// applies all ops targeting one data node under a single lock acquisition
// with coalesced slot flushes and a single bitmap publish.
//
// Sharding: a key's owning shard is hash(key) % shards (so Lookup consults
// exactly one shard); shard i's drain worker is pinned to logical NUMA node
// i % nodes and its ring is allocated from that node's log sub-pool, giving
// one absorb pipeline per NUMA node at the default shard count.
//
// Durability argument (DESIGN.md §6e):
//   * ack => logged: the append's PersistFence covers the whole entry
//     including its checksum; the checksum spans every meaningful word
//     (seq, type, value, all key words), so any torn commit -- including a
//     fresh entry torn over a recycled slot's stale words -- fails
//     validation and collapses to "op never happened", which is only ever
//     the fate of unacknowledged ops.
//   * drain idempotence: applying an upsert/tombstone to the data layer
//     twice converges (same value / already-absent), so recovery replays
//     every un-trimmed entry in per-shard seq order without tracking how far
//     a crashed drain got.
//   * log-trim ordering: a drained batch's entries are durably zeroed only
//     after the data-node application is durable (slot flushes fenced, then
//     the bitmap publish's own fence), so an acked op always survives in at
//     least one of {op log, data layer}.
#ifndef PACTREE_SRC_ABSORB_ABSORB_H_
#define PACTREE_SRC_ABSORB_ABSORB_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/key.h"
#include "src/common/scratch_array.h"
#include "src/common/status.h"

namespace pactree {

class BackgroundService;

inline constexpr uint32_t kAbsorbOpUpsert = 1;
inline constexpr uint32_t kAbsorbOpTombstone = 2;

// Ring sized so sizeof(AbsorbLogRing) = 128 + 1022*128 = 130944 fits the
// allocator's 128 KiB size class exactly.
inline constexpr size_t kAbsorbLogEntries = 1022;
inline constexpr size_t kAbsorbMaxShards = 8;

// One acked-but-not-yet-drained operation. The checksum covers every
// meaningful word *including seq*, so the whole entry publishes with a single
// PersistFence: recovery accepts an entry iff its checksum validates, and
// every torn-commit state (8 B failure atomicity) fails validation. A
// retired slot's first 32 bytes (seq/value/type/checksum) are durably zeroed
// at trim; the stale key bytes that remain can never validate against a
// zero checksum (LogChecksum is seeded nonzero).
struct AbsorbLogEntry {
  uint64_t seq;       // per-shard, strictly increasing; 0 = empty slot
  uint64_t value;     // upsert payload (0 for tombstones)
  uint32_t type;      // kAbsorbOpUpsert / kAbsorbOpTombstone; 0 = empty
  uint32_t pad0;
  uint64_t checksum;
  Key key;
  uint8_t pad1[sizeof(uint64_t) * 12 - sizeof(Key)];
};
static_assert(sizeof(AbsorbLogEntry) == 128, "two cache lines per entry");

inline uint64_t AbsorbEntryChecksum(const AbsorbLogEntry& e) {
  uint64_t kw[5] = {};
  std::memcpy(kw, &e.key, sizeof(Key));
  return LogChecksum({e.seq, e.value, e.type, kw[0], kw[1], kw[2], kw[3], kw[4]});
}

// Persistent per-shard ring. head/tail are element counters (mod the
// effective capacity), persisted lazily at trim time for observability only:
// recovery scans every slot and trusts checksums, never the counters.
struct AbsorbLogRing {
  uint64_t head;
  uint64_t tail;
  uint8_t pad[112];
  AbsorbLogEntry entries[kAbsorbLogEntries];
};
static_assert(sizeof(AbsorbLogRing) == 128 + 128 * kAbsorbLogEntries);

// A drained (or replayed) op in application order: batches handed to the sink
// are sorted by (key, seq), so same-key ops apply oldest-first and runs of
// keys owned by one data node are contiguous.
struct AbsorbOp {
  Key key;
  uint64_t value;
  uint64_t seq;
  uint32_t type;
};

// Staged ops copied out for a scan; a scan's few fit inline.
using StagedOps = ScratchArray<AbsorbOp, 16>;

// The index side of the drain pipeline. Implemented by PacTree.
class AbsorbSink {
 public:
  virtual ~AbsorbSink() = default;
  // Data-layer-only lookup (no absorb consult), used for presence checks
  // under the shard mutex.
  virtual Status AbsorbBaseLookup(const Key& key, uint64_t* value) const = 0;
  // Applies a (key, seq)-sorted batch to the data layer. Returns true when the
  // whole batch is durably applied: the caller trims the op log immediately
  // after. Returns false when a data-layer allocation failed mid-batch (pool
  // exhaustion); a durable *prefix* of the batch may have applied, which is
  // safe because re-application converges (upserts rewrite the same value,
  // tombstones find the key gone) -- the caller must keep every entry logged
  // and staged and retry the batch later.
  virtual bool AbsorbApply(const AbsorbOp* ops, size_t n) = 0;
};

struct AbsorbOptions {
  std::string name = "pactree";  // service-name prefix
  uint32_t shards = 1;           // clamped to [1, kAbsorbMaxShards]
  // Effective ring capacity (<= kAbsorbLogEntries); tests shrink it to force
  // writer-side backpressure with few ops.
  size_t ring_capacity = kAbsorbLogEntries;
  size_t drain_batch = 128;  // max ops pulled off a ring per pass
  bool async = true;         // false: no services; drains run inline
};

struct AbsorbStats {
  uint64_t staged = 0;          // acked ops appended to the log
  uint64_t drained = 0;         // ops applied to the data layer by drains
  uint64_t batches = 0;         // drain batches applied
  uint64_t lookup_hits = 0;     // lookups answered from staging
  uint64_t ring_full_waits = 0; // writer backpressure retries
  uint64_t replayed = 0;        // entries replayed by recovery
  uint64_t pending = 0;         // ops currently staged (all shards)
  uint64_t apply_full = 0;      // drain batches rejected by a full data layer
};

class AbsorbBuffer {
 public:
  AbsorbBuffer(AbsorbOptions opts, AbsorbSink* sink);
  ~AbsorbBuffer();  // stops services; pending ops stay in the rings

  AbsorbBuffer(const AbsorbBuffer&) = delete;
  AbsorbBuffer& operator=(const AbsorbBuffer&) = delete;

  // Ring plumbing (PacTree::Init attaches after the log heap maps, before
  // Replay/StartServices).
  void AttachRing(uint32_t shard, AbsorbLogRing* ring);

  // Recovery: replays every attached ring's valid entries through the sink in
  // per-shard seq order, then durably resets the rings. Single-threaded; call
  // before StartServices. Returns entries replayed (including entries of
  // shards whose application eventually succeeded after internal retries).
  //
  // When the sink rejects a shard's batch (data layer full) even after
  // retries, that shard's ring is left byte-for-byte intact -- it holds the
  // only durable copy of acked ops -- its volatile state reads as full (so a
  // stray append can never overwrite a frozen slot), and the surviving ops
  // are adopted into the *live* staging maps (keyed by this incarnation's
  // ShardOf) so lookups and scans still observe them. |complete| (may be
  // null) is set false in that case; the caller must fail writes fast
  // (degraded mode) and leave the rings for the next recovery.
  size_t ReplayAndReset(bool* complete = nullptr);

  // Registers the per-shard drain services (async mode only). Idempotent.
  void StartServices();
  void StopServices();
  const std::vector<BackgroundService*>& services() const { return services_; }

  uint32_t shards() const { return opts_.shards; }
  uint32_t ShardOf(const Key& key) const {
    // FNV-1a's low bits see only the low bits of each word (odd-multiply
    // carries propagate upward only), and big-endian integer keys vary in the
    // words' HIGH bytes -- a bare modulus would park every small int in one
    // shard. Fold the high bits down first (murmur3 finalizer step).
    uint64_t h = key.Hash();
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<uint32_t>(h % opts_.shards);
  }

  // --- front end (ack => the op's log entry is durable) --------------------
  Status Insert(const Key& key, uint64_t value);  // kOk fresh, kExists overwrite
  Status Update(const Key& key, uint64_t value);  // kNotFound when absent
  Status Remove(const Key& key);                  // kNotFound when absent

  // Value-GC relocation hook (src/value): atomically re-points |key| from
  // |expected| to |desired| iff the staging-aware current value is exactly
  // |expected|, by appending an upsert with a fresh seq under the shard
  // mutex. The fresh seq is what makes relocation safe against an older
  // staged op for the same key that still references |expected|'s record:
  // drains and recovery both apply ops in seq order, so the relocated handle
  // always lands last. False when the key's current value is not |expected|
  // (the index moved on), the shard is frozen, or ring backpressure cannot
  // clear -- the caller must then leave the old record alone.
  bool CompareAndSet(const Key& key, uint64_t expected, uint64_t desired);

  // What the staging area says about a key. kMiss => the caller falls
  // through to the data layer.
  enum class Hit { kMiss, kValue, kTombstone };

  // Staging probe for the read pipeline (PacTree::Lookup is a batch of one):
  // routes every key to its owning shard first, then takes each involved
  // shard's mutex ONCE and probes all of that shard's keys under it.
  // values[i] is written only on kValue. Returns the number of keys answered
  // (kValue or kTombstone).
  size_t MultiLookup(std::span<const Key> keys, Hit* hits, uint64_t* values) const;
  // MultiLookup of one key (the benchmark's traced probe calls it).
  Hit Lookup(const Key& key, uint64_t* value) const {
    Hit hit = Hit::kMiss;
    MultiLookup(std::span<const Key>(&key, 1), &hit, value);
    return hit;
  }

  // The scan overlay (PacTree::ScanRanges): copies into |out| the staged ops
  // a batch of scans can reach, sorted by key, and returns how many. |order|
  // lists the ranges taking part by ascending start. Per shard and range the
  // copy starts at the range's start and stops after counts[r] upserts: those
  // are counts[r] distinct live keys, so no later op of that shard can reach
  // or mask the range's first counts[r] results. Overlapping ranges share one
  // copy of each op. Takes each shard's mutex once.
  size_t CollectStaged(std::span<const Key> starts, std::span<const size_t> counts,
                       std::span<const size_t> order, StagedOps* out) const;
  // Every staged op, sorted by key: the same collect with no bound.
  size_t CollectAll(StagedOps* out) const {
    const Key from = Key::Min();
    const size_t all = SIZE_MAX;
    const size_t only = 0;
    return CollectStaged(std::span<const Key>(&from, 1),
                         std::span<const size_t>(&all, 1),
                         std::span<const size_t>(&only, 1), out);
  }

  // --- drain side ----------------------------------------------------------
  // One drain round over shard |shard|; returns ops applied. A batch the sink
  // rejects (data layer full) applies nothing observable: no trim, no
  // un-stage, apply_full bumped, 0 returned.
  size_t Pass(uint32_t shard);
  // Blocks until every shard's ring is empty: CV drain barrier against live
  // services, inline passes otherwise. Gives up on a shard when consecutive
  // rounds make no head progress while the sink keeps rejecting batches
  // (permanently full data layer); the undrained ops remain durable in the
  // ring and staged in DRAM.
  void Drain();
  bool Drained() const;

  AbsorbStats Stats() const;

 private:
  struct Pending {
    uint64_t value;
    uint64_t seq;  // log seq of the newest staged op for this key
    bool tombstone;
  };

  struct Shard {
    mutable std::mutex mu;
    // Serializes whole drain passes. The service worker already guarantees
    // one pass at a time, but in sync mode several writers stuck in
    // WaitRingSpace can drain concurrently; overlapping passes could apply a
    // superseded value after the newer one. Lock order: drain_mu before mu.
    std::mutex drain_mu;
    std::map<Key, Pending> staging;
    AbsorbLogRing* ring = nullptr;
    uint64_t head = 0;      // volatile element counters; truth is the checksums
    uint64_t tail = 0;
    uint64_t next_seq = 1;
    // Incomplete replay froze this shard: the ring bytes are the acked ops'
    // only durable copy and must survive to the next recovery. Appends and
    // drain passes are refused; staging still serves reads.
    bool frozen = false;
  };

  // Presence of |key| as the shard (mutex held) + data layer see it.
  bool PresentLocked(const Shard& sh, const Key& key) const;
  // Blocks (dropping and re-taking |lock|) until the shard's ring has a free
  // slot: kicks the drain service when one is live, runs a pass inline
  // otherwise. Presence checks must run *after* this returns. Returns false
  // when the ring stays full while the sink keeps rejecting batches (data
  // layer exhausted): waiting longer cannot help, the caller returns kFull.
  bool WaitRingSpace(std::unique_lock<std::mutex>& lock, Shard& sh,
                     uint32_t shard_idx);
  // Appends one entry (single PersistFence) and stages it. Shard mutex held,
  // ring known non-full.
  void AppendLocked(Shard& sh, const Key& key, uint32_t type, uint64_t value);
  bool ShardDrained(uint32_t shard) const;

  AbsorbOptions opts_;
  AbsorbSink* sink_;
  std::unique_ptr<Shard[]> shards_;
  std::vector<BackgroundService*> services_;

  mutable std::atomic<uint64_t> st_staged_{0};
  mutable std::atomic<uint64_t> st_drained_{0};
  mutable std::atomic<uint64_t> st_batches_{0};
  mutable std::atomic<uint64_t> st_lookup_hits_{0};
  mutable std::atomic<uint64_t> st_ring_full_waits_{0};
  mutable std::atomic<uint64_t> st_replayed_{0};
  mutable std::atomic<uint64_t> st_apply_full_{0};
};

}  // namespace pactree

#endif  // PACTREE_SRC_ABSORB_ABSORB_H_
