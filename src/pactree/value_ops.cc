// Tiered value storage: PacTree's value-aware entry points plus the GC sink
// that lets the per-NUMA value-log collectors relocate live records through
// the index (src/value/). Split from pactree.cc because everything here is
// about bytes, not keys: the key index only ever stores the tagged 8-B
// handle, and all interpretation of that word lives in this file.
#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/absorb/absorb.h"
#include "src/common/key.h"
#include "src/common/scratch_array.h"
#include "src/common/status.h"
#include "src/pactree/data_node.h"
#include "src/pactree/pac_root.h"
#include "src/pactree/pactree.h"
#include "src/pmem/pptr.h"
#include "src/sync/epoch.h"
#include "src/value/lru_cache.h"
#include "src/value/value_handle.h"
#include "src/value/value_storage.h"

namespace pactree {

// -----------------------------------------------------------------------------
// Value-aware front-end
// -----------------------------------------------------------------------------

Status PacTree::InsertValue(const Key& key, std::string_view value) {
  if (value.size() <= kMaxInlineValue) {
    // Small values never touch the log: Insert runs the hygiene pass (dead-
    // marking any previous log record for this key) and stores the tagged
    // inline word, so the inline path works even with the value tier off.
    return Insert(key, EncodeInlineValue(value));
  }
  if (vstore_ == nullptr || value.size() > vstore_->max_value_bytes()) {
    return Status::kFull;  // no tier (or over segment capacity): reject, §ISSUE
  }
  if (degraded_.load(std::memory_order_relaxed)) {
    stat_write_rejects_.fetch_add(1, std::memory_order_relaxed);
    return Status::kFull;  // match Insert: no side effects in read-only mode
  }
  // Record first, handle second: the ONE fenced append makes the bytes
  // durable before any index state can reference them, so a recovered index
  // handle always dereferences to a checksum-valid record. The reverse is not
  // true -- a crash here leaks a garbage record, reclaimed when the live-count
  // rebuild finds no referent and GC compacts the segment.
  uint64_t handle = 0;
  Status s = vstore_->Append(key, value, &handle);
  if (s != Status::kOk) {
    PollPressure();  // a full value heap must feed the watermark policy
    return s;
  }
  Status is = Insert(key, handle);
  if (is != Status::kOk && is != Status::kExists) {
    vstore_->MarkDead(handle);  // index refused the handle: record is garbage
    return is;
  }
  if (vcache_ != nullptr) {
    vcache_->Invalidate(key);  // hygiene ran before the new handle published
  }
  return is;
}

Status PacTree::LookupValue(const Key& key, std::string* value) const {
  EpochGuard guard;  // spans the handle fetch and ResolveValue's log read
  uint64_t h = 0;
  Status s = Lookup(key, &h);
  return s == Status::kOk ? ResolveValue(key, h, value) : s;
}

size_t PacTree::ScanValues(const Key& start, size_t count,
                           std::vector<std::pair<Key, std::string>>* out) const {
  out->clear();
  EpochGuard guard;  // handle fetch and resolution share one epoch
  std::vector<std::pair<Key, uint64_t>> raw;
  Scan(start, count, &raw);
  out->reserve(raw.size());
  for (const auto& [k, h] : raw) {
    std::string v;
    // kNotFound (the key vanished while its record moved) drops the entry.
    if (ResolveValue(k, h, &v) == Status::kOk) {
      out->emplace_back(k, std::move(v));
    }
  }
  return out->size();
}

size_t PacTree::MultiGetValues(std::span<const Key> keys,
                               std::vector<std::string>* values,
                               Status* statuses) const {
  const size_t n = keys.size();
  values->assign(n, std::string());
  // |statuses| is optional (contract shared with MultiGet and the RangeIndex
  // default); resolution keys off per-key status, so a caller that passes
  // none gets scratch.
  ScratchArray<Status> scratch(statuses == nullptr ? n : 0);
  if (statuses == nullptr) {
    statuses = scratch.data();
  }
  EpochGuard guard;  // spans the handle fetch and every resolution
  ScratchArray<uint64_t> handles(n);
  MultiGet(keys, handles.data(), statuses);
  size_t found = 0;
  for (size_t i = 0; i < n; ++i) {
    if (statuses[i] == Status::kOk) {
      statuses[i] = ResolveValue(keys[i], handles[i], &(*values)[i]);
      found += statuses[i] == Status::kOk ? 1 : 0;
    }
  }
  return found;
}

Status PacTree::ResolveValue(const Key& key, uint64_t handle,
                             std::string* out) const {
  // The caller's guard spans the handle fetch and this read: a record's
  // segment is epoch-retired, so its bytes cannot be recycled while any
  // reader that could have observed its handle is still inside the epoch.
  constexpr int kMaxAttempts = 64;
  for (int attempt = 1;; ++attempt) {
    if (ValueHandleIsInline(handle)) {
      DecodeInlineValue(handle, out);
      return Status::kOk;
    }
    if (vstore_ == nullptr) {
      return Status::kCorrupted;  // log handle but no log: torn configuration
    }
    if (vcache_ != nullptr && vcache_->Get(key, handle, out)) {
      return Status::kOk;  // hit is validated against the CURRENT handle
    }
    Status s = vstore_->Read(handle, key, out);
    if (s == Status::kOk && vcache_ != nullptr) {
      vcache_->Put(key, handle, *out);
    }
    if (s != Status::kRetry || attempt == kMaxAttempts) {
      return s;
    }
    // Checksum/key mismatch: the handle went stale between its fetch and the
    // read (an overwrite or GC relocation observed through a batch or scan
    // snapshot). Re-fetch the key's current handle and resolve that.
    ReadStats().retries.fetch_add(1, std::memory_order_relaxed);
    s = Lookup(key, &handle);
    if (s != Status::kOk) {
      return s;
    }
  }
}

size_t PacTree::CompactValues() {
  return vstore_ == nullptr ? 0 : vstore_->GcPass();
}

// -----------------------------------------------------------------------------
// ValueGcSink: GC reads the authoritative handle through the same staged view
// writers use, and swings it with a compare-and-set that routes through the
// absorb buffer when that is on (a fresh staged op supersedes any older staged
// reference to the old record under seq-ordered replay/drain).
// -----------------------------------------------------------------------------

bool PacTree::CurrentValueHandle(const Key& key, uint64_t* handle) const {
  uint64_t v = 0;
  if (Lookup(key, &v) != Status::kOk) {
    return false;  // key gone: record is dead
  }
  if (ValueHandleIsInline(v)) {
    return false;  // overwritten with an inline value: record is dead
  }
  *handle = v;
  return true;
}

bool PacTree::CasValueHandle(const Key& key, uint64_t old_handle,
                             uint64_t new_handle) {
  if (absorb_ != nullptr) {
    return absorb_->CompareAndSet(key, old_handle, new_handle);
  }
  return CasValueBase(key, old_handle, new_handle);
}

bool PacTree::CasValueBase(const Key& key, uint64_t old_handle,
                           uint64_t new_handle) {
  if (degraded_.load(std::memory_order_relaxed)) {
    return false;  // GC unwinds; no writes in read-only mode
  }
  EpochGuard guard;
  uint8_t fingerprint = key.Fingerprint();
  while (true) {
    uint64_t version;
    DataNode* node = FindDataNode(key, &version);
    int existing = node->FindKey(key, fingerprint);
    if (existing < 0 || node->ValueAt(existing) != old_handle) {
      if (!node->lock.Validate(version)) {
        ReadStats().retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return false;  // key gone or already re-pointed: comparison failed
    }
    if (!node->lock.TryUpgrade(version)) {
      ReadStats().retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    existing = node->FindKey(key, fingerprint);
    if (existing < 0 || node->ValueAt(existing) != old_handle) {
      node->lock.WriteUnlock();
      return false;  // changed between validate and upgrade
    }
    int free = node->FindFreeSlot();
    if (free < 0 || !node->SuffixRoomFor(key)) {
      if (!MakeRoomLocked(&node, key)) {
        // Data pool exhausted: report failure so GC aborts its pass cleanly
        // (the segment stays kSealed and is re-collected once space returns).
        node->lock.WriteUnlock();
        return false;
      }
      existing = node->FindKey(key, fingerprint);
      free = node->FindFreeSlot();
      if (existing < 0 || free < 0) {
        node->lock.WriteUnlock();
        return false;  // defensive: invariant violated
      }
    }
    // Same publish discipline as Update: new slot filled, then both bitmap
    // bits flipped in one atomic store -- crash-atomic handle swing.
    node->FillSlot(free, key, fingerprint, new_handle);
    node->PublishBitmap((node->Bitmap() | (1ULL << free)) &
                        ~(1ULL << existing));
    if (!opts_.selective_persistence) {
      MaintainPermutation(node);
    }
    node->lock.WriteUnlock();
    return true;
  }
}

// -----------------------------------------------------------------------------
// Hygiene + recovery
// -----------------------------------------------------------------------------

void PacTree::PreWriteValueHygiene(const Key& key) {
  if (vstore_ == nullptr) {
    return;
  }
  uint64_t h = 0;
  if (Lookup(key, &h) == Status::kOk && !ValueHandleIsInline(h)) {
    // Racy by design: a concurrent writer may dead-mark the same record, or
    // this op may fail after the mark. Live counts are advisory (GC victim
    // selection only); correctness rides on GC's per-record
    // CurrentValueHandle check, so skew is at worst an early compaction.
    vstore_->MarkDead(h);
  }
  if (vcache_ != nullptr) {
    vcache_->Invalidate(key);
  }
}

void PacTree::RebuildValueLiveCounts() {
  // Runs single-threaded in Init, after the key index is fully recovered
  // (data layer + replayed ops) and the live absorb staging view is attached,
  // but before any service starts. Every handle reachable through the index
  // is live; everything else in the log is garbage awaiting compaction.
  DataNode* node = PPtr<DataNode>(root_->head_raw).get();
  while (node != nullptr) {
    if (!node->IsDeleted()) {
      uint64_t bm = node->Bitmap();
      while (bm != 0) {
        int slot = __builtin_ctzll(bm);
        bm &= bm - 1;
        uint64_t v = node->ValueAt(slot);
        if (!ValueHandleIsInline(v)) {
          vstore_->AddLiveHandle(v);  // no-op for non-handle u64s (no segment)
        }
      }
    }
    node = node->Next();
  }
  if (absorb_ != nullptr) {
    // Frozen shards (incomplete replay) keep acked ops in staging; their
    // handles are as live as published ones. Double-counting a key staged
    // over a data-layer entry only delays GC -- the per-record check still
    // sees the staged (current) handle and skips the superseded record.
    StagedOps staged(0);
    const size_t n = absorb_->CollectAll(&staged);
    for (size_t i = 0; i < n; ++i) {
      if (staged[i].type == kAbsorbOpUpsert && !ValueHandleIsInline(staged[i].value)) {
        vstore_->AddLiveHandle(staged[i].value);
      }
    }
  }
}

}  // namespace pactree
