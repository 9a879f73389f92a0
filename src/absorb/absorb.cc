#include "src/absorb/absorb.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/failpoint.h"
#include "src/common/scratch_array.h"
#include "src/nvm/config.h"
#include "src/nvm/persist.h"
#include "src/nvm/topology.h"
#include "src/runtime/maintenance.h"

namespace pactree {

AbsorbBuffer::AbsorbBuffer(AbsorbOptions opts, AbsorbSink* sink)
    : opts_(std::move(opts)), sink_(sink) {
  opts_.shards = std::max<uint32_t>(
      1, std::min<uint32_t>(opts_.shards, kAbsorbMaxShards));
  opts_.ring_capacity = std::max<size_t>(
      1, std::min<size_t>(opts_.ring_capacity, kAbsorbLogEntries));
  if (opts_.drain_batch == 0) {
    opts_.drain_batch = 1;
  }
  shards_ = std::make_unique<Shard[]>(opts_.shards);
}

AbsorbBuffer::~AbsorbBuffer() { StopServices(); }

void AbsorbBuffer::AttachRing(uint32_t shard, AbsorbLogRing* ring) {
  shards_[shard].ring = ring;
}

// ---------------------------------------------------------------------------
// Front end
// ---------------------------------------------------------------------------

bool AbsorbBuffer::PresentLocked(const Shard& sh, const Key& key) const {
  auto it = sh.staging.find(key);
  if (it != sh.staging.end()) {
    return !it->second.tombstone;
  }
  return sink_->AbsorbBaseLookup(key, nullptr) == Status::kOk;
}

bool AbsorbBuffer::WaitRingSpace(std::unique_lock<std::mutex>& lock, Shard& sh,
                                 uint32_t shard_idx) {
  uint64_t backoff_us = 1;
  // Fail point "absorb/ring_full": forces one backpressure round even with
  // ring space available (exercises the wait path with few ops).
  bool forced = PACTREE_FAILPOINT("absorb/ring_full");
  uint64_t full_at_entry = st_apply_full_.load(std::memory_order_relaxed);
  int stuck_rounds = 0;
  while (forced || sh.tail - sh.head >= opts_.ring_capacity) {
    if (sh.frozen) {
      return false;  // ring preserved for the next recovery; nothing drains it
    }
    forced = false;
    st_ring_full_waits_.fetch_add(1, std::memory_order_relaxed);
    uint64_t head_before = sh.head;
    BackgroundService* svc =
        shard_idx < services_.size() ? services_[shard_idx] : nullptr;
    lock.unlock();
    if (svc != nullptr && svc->running()) {
      svc->Notify();
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      backoff_us = std::min<uint64_t>(backoff_us * 2, 1000);
    } else {
      Pass(shard_idx);  // no worker to wait for: the writer drains
    }
    lock.lock();
    // Escape hatch: a ring that stays full while the sink keeps rejecting
    // batches (data layer exhausted) can never make space; spinning here
    // would wedge the writer forever. Transient rejections recover -- head
    // progress resets the counter -- so only a persistently stuck ring bails.
    if (sh.head == head_before &&
        st_apply_full_.load(std::memory_order_relaxed) > full_at_entry) {
      if (++stuck_rounds >= 16) {
        return false;
      }
    } else if (sh.head != head_before) {
      stuck_rounds = 0;
    }
  }
  return true;
}

void AbsorbBuffer::AppendLocked(Shard& sh, const Key& key, uint32_t type,
                                uint64_t value) {
  AbsorbLogEntry& e = sh.ring->entries[sh.tail % opts_.ring_capacity];
  e.key = key;
  e.value = value;
  e.type = type;
  e.seq = sh.next_seq;
  e.checksum = AbsorbEntryChecksum(e);
  // The single durability point of the op: the checksum spans every word
  // written above, so a crash tearing this 128 B flush leaves a state that
  // recovery provably discards. Consecutive appends land in the same or the
  // adjacent XPLine and write-combine in the XPBuffer window.
  PersistFence(&e, sizeof(e));
  sh.staging[key] =
      Pending{value, sh.next_seq, /*tombstone=*/type == kAbsorbOpTombstone};
  sh.tail++;
  sh.next_seq++;
  st_staged_.fetch_add(1, std::memory_order_relaxed);
}

Status AbsorbBuffer::Insert(const Key& key, uint64_t value) {
  uint32_t idx = ShardOf(key);
  Shard& sh = shards_[idx];
  std::unique_lock<std::mutex> lock(sh.mu);
  if (!WaitRingSpace(lock, sh, idx)) {
    return Status::kFull;
  }
  bool present = PresentLocked(sh, key);
  AppendLocked(sh, key, kAbsorbOpUpsert, value);
  return present ? Status::kExists : Status::kOk;
}

Status AbsorbBuffer::Update(const Key& key, uint64_t value) {
  uint32_t idx = ShardOf(key);
  Shard& sh = shards_[idx];
  std::unique_lock<std::mutex> lock(sh.mu);
  if (!WaitRingSpace(lock, sh, idx)) {
    return Status::kFull;
  }
  if (!PresentLocked(sh, key)) {
    return Status::kNotFound;
  }
  AppendLocked(sh, key, kAbsorbOpUpsert, value);
  return Status::kOk;
}

Status AbsorbBuffer::Remove(const Key& key) {
  uint32_t idx = ShardOf(key);
  Shard& sh = shards_[idx];
  std::unique_lock<std::mutex> lock(sh.mu);
  if (!WaitRingSpace(lock, sh, idx)) {
    return Status::kFull;
  }
  if (!PresentLocked(sh, key)) {
    return Status::kNotFound;
  }
  AppendLocked(sh, key, kAbsorbOpTombstone, 0);
  return Status::kOk;
}

bool AbsorbBuffer::CompareAndSet(const Key& key, uint64_t expected, uint64_t desired) {
  uint32_t idx = ShardOf(key);
  Shard& sh = shards_[idx];
  std::unique_lock<std::mutex> lock(sh.mu);
  auto current_is_expected = [&]() {
    auto it = sh.staging.find(key);
    if (it != sh.staging.end()) {
      return !it->second.tombstone && it->second.value == expected;
    }
    uint64_t v = 0;
    return sink_->AbsorbBaseLookup(key, &v) == Status::kOk && v == expected;
  };
  if (sh.frozen || !current_is_expected()) {
    return false;
  }
  if (!WaitRingSpace(lock, sh, idx)) {
    return false;
  }
  // WaitRingSpace may drop the shard mutex: a writer can slip in, so the
  // compare must re-run against the post-wait state.
  if (!current_is_expected()) {
    return false;
  }
  AppendLocked(sh, key, kAbsorbOpUpsert, desired);
  return true;
}

size_t AbsorbBuffer::MultiLookup(std::span<const Key> keys, Hit* hits,
                                 uint64_t* values) const {
  // Route once, then lock each involved shard once and probe all of its keys
  // under that single acquisition; with B keys over S shards this is
  // min(B, S) lock acquisitions instead of B.
  ScratchArray<uint8_t> route(keys.size());  // shard ids < kAbsorbMaxShards
  uint64_t involved = 0;  // bitmask; kAbsorbMaxShards <= 64
  for (size_t i = 0; i < keys.size(); ++i) {
    route[i] = ShardOf(keys[i]);
    involved |= 1ULL << route[i];
  }
  size_t answered = 0;
  uint64_t lookup_hits = 0;
  for (uint32_t s = 0; s < opts_.shards; ++s) {
    if ((involved & (1ULL << s)) == 0) {
      continue;
    }
    const Shard& sh = shards_[s];
    std::lock_guard<std::mutex> lock(sh.mu);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (route[i] != s) {
        continue;
      }
      auto it = sh.staging.find(keys[i]);
      if (it == sh.staging.end()) {
        hits[i] = Hit::kMiss;
        continue;
      }
      lookup_hits++;
      answered++;
      if (it->second.tombstone) {
        hits[i] = Hit::kTombstone;
      } else {
        hits[i] = Hit::kValue;
        if (values != nullptr) {
          values[i] = it->second.value;
        }
      }
    }
  }
  if (lookup_hits != 0) {
    st_lookup_hits_.fetch_add(lookup_hits, std::memory_order_relaxed);
  }
  return answered;
}

void AbsorbBuffer::CollectFrom(const Key& start,
                               std::map<Key, AbsorbPending>* out) const {
  for (uint32_t i = 0; i < opts_.shards; ++i) {
    const Shard& sh = shards_[i];
    std::lock_guard<std::mutex> lock(sh.mu);
    for (auto it = sh.staging.lower_bound(start); it != sh.staging.end(); ++it) {
      (*out)[it->first] = AbsorbPending{it->second.value, it->second.tombstone};
    }
  }
}

// ---------------------------------------------------------------------------
// Drain side
// ---------------------------------------------------------------------------

size_t AbsorbBuffer::Pass(uint32_t shard) {
  Shard& sh = shards_[shard];
  std::lock_guard<std::mutex> drain_lock(sh.drain_mu);
  std::vector<AbsorbOp> batch;
  uint64_t from;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    if (sh.frozen) {
      return 0;  // ring frozen by incomplete replay; see ReplayAndReset
    }
    uint64_t n = std::min<uint64_t>(sh.tail - sh.head, opts_.drain_batch);
    if (n == 0) {
      return 0;
    }
    from = sh.head;
    batch.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      const AbsorbLogEntry& e =
          sh.ring->entries[(from + i) % opts_.ring_capacity];
      batch.push_back(AbsorbOp{e.key, e.value, e.seq, e.type});
    }
  }
  // Key-sorted application: runs targeting one data node become contiguous,
  // so the sink takes each node's lock once and publishes one bitmap per
  // node. Same-key ops keep seq order (last-writer-wins preserved).
  std::sort(batch.begin(), batch.end(), [](const AbsorbOp& a, const AbsorbOp& b) {
    return a.key != b.key ? a.key < b.key : a.seq < b.seq;
  });
  if (!sink_->AbsorbApply(batch.data(), batch.size())) {
    // Data layer full mid-batch. A durable prefix may have applied, which is
    // fine (re-application converges); what must NOT happen is a trim or
    // un-stage -- the ops' ack durability still rests on the ring entries,
    // and the staged values still mask the partially-applied data layer.
    st_apply_full_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }

  // The application above is durable; now un-stage and trim the log.
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    for (const AbsorbOp& op : batch) {
      auto it = sh.staging.find(op.key);
      if (it != sh.staging.end() && it->second.seq == op.seq) {
        sh.staging.erase(it);  // newest staged op for the key just drained
      }
    }
    for (uint64_t i = 0; i < batch.size(); ++i) {
      AbsorbLogEntry& e = sh.ring->entries[(from + i) % opts_.ring_capacity];
      // Durably retire: zero the checksummed head words in one line flush.
      // The stale key bytes beyond them can never validate again.
      e.seq = 0;
      e.value = 0;
      e.type = 0;
      e.pad0 = 0;
      e.checksum = 0;
      PersistRange(&e, 32);
    }
    Fence();
    // Counters move under mu: a Drain() barrier may observe the shard empty
    // the moment head reaches tail, and the stats it reads next must already
    // include this batch.
    st_drained_.fetch_add(batch.size(), std::memory_order_relaxed);
    st_batches_.fetch_add(1, std::memory_order_relaxed);
    sh.head = from + batch.size();
    sh.ring->head = sh.head;
    sh.ring->tail = sh.tail;
    PersistFence(sh.ring, 2 * sizeof(uint64_t));
  }
  return batch.size();
}

bool AbsorbBuffer::ShardDrained(uint32_t shard) const {
  const Shard& sh = shards_[shard];
  std::lock_guard<std::mutex> lock(sh.mu);
  // A frozen shard is as drained as it will ever be in this incarnation;
  // reporting false would wedge every drain barrier (including shutdown).
  return sh.frozen || sh.tail == sh.head;
}

bool AbsorbBuffer::Drained() const {
  for (uint32_t i = 0; i < opts_.shards; ++i) {
    if (!ShardDrained(i)) {
      return false;
    }
  }
  return true;
}

void AbsorbBuffer::Drain() {
  for (uint32_t i = 0; i < opts_.shards; ++i) {
    int stuck_rounds = 0;
    while (!ShardDrained(i)) {
      uint64_t full_before = st_apply_full_.load(std::memory_order_relaxed);
      uint64_t head_before;
      {
        std::lock_guard<std::mutex> lock(shards_[i].mu);
        head_before = shards_[i].head;
      }
      if (i < services_.size() && services_[i] != nullptr) {
        // CV barrier, additionally released when a pass fails on a full data
        // layer so the stuck check below runs instead of waiting forever.
        services_[i]->Drain([this, i, full_before] {
          return ShardDrained(i) ||
                 st_apply_full_.load(std::memory_order_relaxed) != full_before;
        });
      } else {
        Pass(i);
      }
      if (ShardDrained(i)) {
        break;
      }
      uint64_t head_after;
      {
        std::lock_guard<std::mutex> lock(shards_[i].mu);
        head_after = shards_[i].head;
      }
      if (head_after == head_before &&
          st_apply_full_.load(std::memory_order_relaxed) > full_before) {
        // No progress and the sink rejected again: the data layer is full.
        // Give up after a few rounds -- the undrained ops remain durable in
        // the ring and staged in DRAM, so nothing acked is lost.
        if (++stuck_rounds >= 3) {
          break;
        }
      } else {
        stuck_rounds = 0;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

size_t AbsorbBuffer::ReplayAndReset(bool* complete) {
  if (complete != nullptr) {
    *complete = true;
  }
  size_t replayed = 0;
  // Ops of shards whose application failed: preserved in their rings, adopted
  // into this incarnation's staging maps (below) so reads observe them.
  std::vector<AbsorbOp> stranded;
  for (uint32_t s = 0; s < opts_.shards; ++s) {
    Shard& sh = shards_[s];
    if (sh.ring == nullptr) {
      continue;
    }
    std::vector<AbsorbOp> ops;
    uint64_t max_seq = 0;
    // Scan every slot, not [head, tail]: the persisted counters may lag the
    // last acked append. Checksums are the only truth.
    for (size_t i = 0; i < kAbsorbLogEntries; ++i) {
      const AbsorbLogEntry& e = sh.ring->entries[i];
      if (e.type == 0 || e.checksum != AbsorbEntryChecksum(e)) {
        continue;  // empty, retired, or torn: the op was never acked
      }
      ops.push_back(AbsorbOp{e.key, e.value, e.seq, e.type});
      max_seq = std::max(max_seq, e.seq);
    }
    bool applied = true;
    if (!ops.empty()) {
      // Same (key, seq) order as a drain batch: replay is just a big drain.
      // Re-applying ops a crashed drain already applied converges (upserts
      // rewrite the same value, tombstones find the key already gone) --
      // which also makes the retry loop below safe.
      std::sort(ops.begin(), ops.end(), [](const AbsorbOp& a, const AbsorbOp& b) {
        return a.key != b.key ? a.key < b.key : a.seq < b.seq;
      });
      applied = false;
      for (int attempt = 0; attempt < 3 && !applied; ++attempt) {
        applied = sink_->AbsorbApply(ops.data(), ops.size());
      }
    }
    if (!applied) {
      // Data layer full: the ring is the acked ops' only complete durable
      // copy, so leave its bytes untouched for the next recovery. Volatile
      // counters read as "full" so a write slipping past the caller's
      // degraded-mode gate blocks/kFulls instead of overwriting a slot.
      if (complete != nullptr) {
        *complete = false;
      }
      st_apply_full_.fetch_add(1, std::memory_order_relaxed);
      sh.frozen = true;
      sh.head = 0;
      sh.tail = opts_.ring_capacity;
      sh.next_seq = max_seq + 1;
      stranded.insert(stranded.end(), ops.begin(), ops.end());
      continue;
    }
    replayed += ops.size();
    std::memset(static_cast<void*>(sh.ring), 0, sizeof(AbsorbLogRing));
    PersistFence(sh.ring, sizeof(AbsorbLogRing));
    sh.head = 0;
    sh.tail = 0;
    sh.next_seq = max_seq + 1;
  }
  if (!stranded.empty()) {
    // Stage by this incarnation's ShardOf (shard counts can differ across
    // runs) in ascending seq so the newest op wins per key, exactly like the
    // original appends would have staged.
    std::sort(stranded.begin(), stranded.end(),
              [](const AbsorbOp& a, const AbsorbOp& b) { return a.seq < b.seq; });
    for (const AbsorbOp& op : stranded) {
      Shard& home = shards_[ShardOf(op.key)];
      std::lock_guard<std::mutex> lock(home.mu);
      home.staging[op.key] =
          Pending{op.value, op.seq, op.type == kAbsorbOpTombstone};
    }
  }
  st_replayed_.fetch_add(replayed, std::memory_order_relaxed);
  return replayed;
}

// ---------------------------------------------------------------------------
// Services
// ---------------------------------------------------------------------------

void AbsorbBuffer::StartServices() {
  if (!opts_.async || !services_.empty()) {
    return;
  }
  uint32_t nodes = std::max<uint32_t>(1, GlobalNvmConfig().numa_nodes);
  for (uint32_t i = 0; i < opts_.shards; ++i) {
    BackgroundService::Options o;
    o.name = opts_.name + "/absorb/drain-" + std::to_string(i);
    int node = static_cast<int>(i % nodes);
    o.numa_node = node;
    o.thread_init = [node] { SetCurrentNumaNode(static_cast<uint32_t>(node)); };
    services_.push_back(MaintenanceRegistry::Instance().Register(
        std::move(o), [this, i] { return Pass(i); }));
  }
}

void AbsorbBuffer::StopServices() {
  for (BackgroundService* s : services_) {
    MaintenanceRegistry::Instance().Unregister(s);
  }
  services_.clear();
}

AbsorbStats AbsorbBuffer::Stats() const {
  AbsorbStats s;
  s.staged = st_staged_.load(std::memory_order_relaxed);
  s.drained = st_drained_.load(std::memory_order_relaxed);
  s.batches = st_batches_.load(std::memory_order_relaxed);
  s.lookup_hits = st_lookup_hits_.load(std::memory_order_relaxed);
  s.ring_full_waits = st_ring_full_waits_.load(std::memory_order_relaxed);
  s.replayed = st_replayed_.load(std::memory_order_relaxed);
  s.apply_full = st_apply_full_.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < opts_.shards; ++i) {
    const Shard& sh = shards_[i];
    std::lock_guard<std::mutex> lock(sh.mu);
    // A frozen shard's tail is pinned to "full"; its staged keys are the
    // meaningful pending count.
    s.pending += sh.frozen ? sh.staging.size() : sh.tail - sh.head;
  }
  return s;
}

}  // namespace pactree
