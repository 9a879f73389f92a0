// The read path (DESIGN.md §6f): every point read and every scan runs here.
// Lookup is a MultiGet batch of one and Scan a MultiScan batch of one; the
// absorb buffer's presence checks enter the point path below its absorb stage.
// Per-call scratch lives in ScratchArrays, so a batch of one allocates
// nothing beyond what its answer needs.
//
// Point reads (Get/GetBase):
//
//   Stage 1 -- absorb routing: AbsorbBuffer::MultiLookup routes every key to
//   its owning shard and takes each involved shard's mutex ONCE, answering
//   staged values and tombstones.
//
//   Stage 2 -- floor resolution: ONE EpochGuard covers the rest of the batch.
//   The remaining (miss) keys are sorted and their ART floors resolved in a
//   software-pipelined loop: before resolving key j, key j+1's trie path is
//   prefetched (PdlArt::PrefetchFloorPath -> AnnotateNvmPrefetch warms the
//   modeled XPLine cache without stalling), and each resolved floor node's
//   metadata/anchor/fingerprint XPLine is prefetched for stage 3. One key's
//   worth of work always sits between a prefetch and its use, which is the
//   overlap window the non-stalling prefetch model assumes. A lone key has
//   no such window, so it issues none of these prefetches.
//
//   Stage 3 -- node-grouped probing: because the miss keys are sorted, keys
//   owned by one data node are contiguous. Each group jump-walks once
//   (JumpWalk re-uses the stage-2 floor as its start), reads the sibling's
//   anchor as the group's upper bound, fingerprint-probes every key of the
//   group, and validates the node version ONCE. Validation failure retries
//   that group only.
//
// Safety of the group upper bound: anchors are immutable after node creation
// and the epoch guard keeps any node reachable through next_raw mapped, so
// reading next->anchor before validation is safe; if a concurrent split or
// merge changed the linkage after JumpWalk's token was taken, the single
// Validate fails and the group re-walks.
#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "src/common/scratch_array.h"
#include "src/nvm/persist.h"
#include "src/pactree/pac_root.h"
#include "src/pactree/pactree.h"
#include "src/sync/epoch.h"

namespace pactree {

using ScanRows = std::vector<std::pair<Key, uint64_t>>;

size_t PacTree::MultiGet(std::span<const Key> keys, uint64_t* values,
                         Status* statuses) const {
  const size_t n = keys.size();
  if (n == 0) {
    return 0;
  }
  ReadStatCell& rs = ReadStats();
  rs.multiget_batches.fetch_add(1, std::memory_order_relaxed);
  rs.multiget_keys.fetch_add(n, std::memory_order_relaxed);
  ScratchArray<Status> scratch(statuses == nullptr ? n : 0);
  return Get(keys, values, statuses != nullptr ? statuses : scratch.data(),
             /*batch=*/true);
}

Status PacTree::Lookup(const Key& key, uint64_t* value) const {
  Status st = Status::kNotFound;
  Get(std::span<const Key>(&key, 1), value, &st, /*batch=*/false);
  return st;
}

size_t PacTree::Get(std::span<const Key> keys, uint64_t* values, Status* st,
                    bool batch) const {
  // --- stage 1: absorb routing --------------------------------------------
  const size_t n = keys.size();
  size_t found = 0;
  ScratchArray<size_t> miss(n);
  size_t m = 0;
  if (absorb_ != nullptr) {
    ScratchArray<AbsorbBuffer::Hit> hits(n);
    absorb_->MultiLookup(keys, hits.data(), values);
    for (size_t i = 0; i < n; ++i) {
      switch (hits[i]) {
        case AbsorbBuffer::Hit::kValue:
          st[i] = Status::kOk;
          ++found;
          break;
        case AbsorbBuffer::Hit::kTombstone:
          st[i] = Status::kNotFound;
          break;
        case AbsorbBuffer::Hit::kMiss:
          miss[m++] = i;
          break;
      }
    }
  } else {
    std::iota(miss.data(), miss.data() + n, size_t{0});
    m = n;
  }
  return found + GetBase(keys, miss.data(), m, values, st, batch);
}

size_t PacTree::GetBase(std::span<const Key> keys, size_t* miss, size_t m,
                        uint64_t* values, Status* st, bool batch) const {
  if (m == 0) {
    return 0;
  }
  ReadStatCell& rs = ReadStats();
  rs.epoch_enters.fetch_add(1, std::memory_order_relaxed);
  EpochGuard guard;

  // Sort the misses by key (ties by position, so duplicate keys resolve
  // deterministically and stay adjacent within their group).
  std::sort(miss, miss + m, [&keys](size_t a, size_t b) {
    if (keys[a] < keys[b]) {
      return true;
    }
    if (keys[b] < keys[a]) {
      return false;
    }
    return a < b;
  });

  // --- stage 2: software-pipelined floor resolution ------------------------
  // floor[j] = trie floor node for keys[miss[j]] (JumpWalk's start). The
  // first key's descent runs cold; every later descent runs against the
  // lines its predecessor's iteration prefetched.
  ScratchArray<DataNode*> floor(m);
  for (size_t j = 0; j < m; ++j) {
    if (j + 1 < m) {
      art_->PrefetchFloorPath(keys[miss[j + 1]]);
    }
    Key fkey;
    uint64_t raw = 0;
    DataNode* node = nullptr;
    if (art_->LookupFloorNoGuard(keys[miss[j]], &fkey, &raw) == Status::kOk &&
        raw != 0) {
      node = PPtr<DataNode>(raw).get();
    } else {
      node = PPtr<DataNode>(root_->head_raw).get();
    }
    if (m > 1) {
      node->PrefetchProbe();  // a lone key would demand-read it right away
    }
    floor[j] = node;
  }

  // --- stage 3: node-grouped probing ---------------------------------------
  struct Probe {
    uint64_t value;
    bool hit;
  };
  ScratchArray<Probe> probe(m);
  size_t found = 0;
  size_t g = 0;
  while (g < m) {
    const Key& gkey = keys[miss[g]];
    while (true) {
      uint64_t version;
      DataNode* node = JumpWalk(floor[g], gkey, &version);
      // Group upper bound = right sibling's anchor (safe pre-validation: see
      // file comment). An unbounded (tail) node owns every remaining key.
      uint64_t next_raw = node->NextRaw();
      DataNode* next = PPtr<DataNode>(next_raw).get();
      size_t gend = g + 1;
      while (gend < m && (next == nullptr || keys[miss[gend]] < next->anchor)) {
        ++gend;
      }
      for (size_t j = g; j < gend; ++j) {
        const Key& k = keys[miss[j]];
        int slot = node->FindKey(k, k.Fingerprint(), /*will_read_value=*/true);
        uint64_t v = 0;
        if (slot >= 0) {
          AnnotateNvmRead(node->ValueSlot(slot), sizeof(uint64_t));
          v = node->ValueAt(slot);
        }
        probe[j] = {v, slot >= 0};
      }
      if (!node->lock.Validate(version)) {
        if (batch) {
          rs.multiget_group_retries.fetch_add(1, std::memory_order_relaxed);
        }
        rs.retries.fetch_add(1, std::memory_order_relaxed);
        continue;  // re-walk this group; JumpWalk absorbs any relink
      }
      if (batch) {
        rs.multiget_node_groups.fetch_add(1, std::memory_order_relaxed);
      }
      for (size_t j = g; j < gend; ++j) {
        size_t i = miss[j];
        if (probe[j].hit) {
          st[i] = Status::kOk;
          if (values != nullptr) {
            values[i] = probe[j].value;
          }
          ++found;
        } else {
          st[i] = Status::kNotFound;
        }
      }
      if (gend < m) {
        floor[gend]->PrefetchProbe();  // overlap the next group's walk
      }
      g = gend;
      break;
    }
  }
  return found;
}

// Range scans share one sibling walk. Independent scans over overlapping (or
// clustered) ranges each walk the same data nodes, paying a lock acquisition,
// a whole-node media read, a sorted-order snapshot, and a version validation
// PER RANGE per node. ScanRanges sorts the starts and runs ONE walk: each node
// is locked, snapshotted, and validated once, and every range whose window
// covers that node consumes the same validated batch.
//
// A range joins the walk ("activates") exactly when the walk reaches the node
// a scan of that range alone would have started at -- its start precedes the
// right sibling's anchor -- and leaves once it holds its count. With absorb
// on, each range merges its staged ops into the node batches it consumes, so
// absorb-on and absorb-off scans run the same loop. When no range is
// consuming, the walk jumps ahead through the trie instead of dragging across
// unconsumed siblings; when none is left, it stops without touching the
// sibling. Validation failure
// re-locates from the current node's span start and re-reads; a per-range
// guard (nothing at or below what the range already consumed) makes re-reads
// idempotent.
void PacTree::MultiScan(std::span<const Key> starts, std::span<const size_t> counts,
                        std::vector<ScanRows>* out) const {
  out->resize(starts.size());
  if (starts.empty()) {
    return;
  }
  ReadStats().multiscan_batches.fetch_add(1, std::memory_order_relaxed);
  ScanRanges(starts, counts, out->data());
}

size_t PacTree::Scan(const Key& start, size_t count, ScanRows* out) const {
  ScanRanges(std::span<const Key>(&start, 1), std::span<const size_t>(&count, 1),
             out);
  return out->size();
}

void PacTree::ScanRanges(std::span<const Key> starts, std::span<const size_t> counts,
                         ScanRows* outs) const {
  const size_t n = starts.size();
  ScratchArray<size_t> order(n);  // ranges taking part, by ascending start
  size_t m = 0;
  for (size_t r = 0; r < n; ++r) {
    outs[r].clear();
    if (counts[r] != 0) {
      order[m++] = r;
    }
  }
  if (m == 0) {
    return;
  }
  std::sort(order.data(), order.data() + m, [&starts](size_t a, size_t b) {
    if (starts[a] < starts[b]) {
      return true;
    }
    if (starts[b] < starts[a]) {
      return false;
    }
    return a < b;
  });

  // With absorb on, collect the staged ops the batch can reach before the
  // walk: an op that drains in between then appears in both streams, and the
  // equal-key merge (staging wins) emits it once. next_op[r] is range r's
  // first staged op not yet consumed.
  StagedOps staged(0);
  size_t n_staged = 0;
  if (absorb_ != nullptr) {
    n_staged = absorb_->CollectStaged(
        starts, counts, std::span<const size_t>(order.data(), m), &staged);
  }
  ScratchArray<size_t> next_op(n);
  for (size_t j = 0; j < m; ++j) {
    const size_t r = order[j];
    next_op[r] = std::lower_bound(staged.data(), staged.data() + n_staged, starts[r],
                                  [](const AbsorbOp& op, const Key& k) {
                                    return op.key < k;
                                  }) -
                 staged.data();
  }

  ReadStatCell& rs = ReadStats();
  rs.epoch_enters.fetch_add(1, std::memory_order_relaxed);
  EpochGuard guard;

  ScratchArray<size_t> active(m);  // ranges consuming the walk, unordered
  size_t n_active = 0;
  size_t next_act = 0;  // next |order| position awaiting activation
  uint64_t shared_nodes = 0;
  uint64_t walks_saved = 0;

  Key cursor = starts[order[0]];  // span start of the current node (re-locate key)
  uint64_t version;
  DataNode* node = FindDataNode(cursor, &version);
  std::pair<Key, uint64_t> batch[kDataNodeEntries];

  while (true) {
    size_t batch_n;
    uint64_t next_raw;
    bool has_next;
    Key next_anchor;
    while (true) {
      batch_n = 0;
      AnnotateNvmRead(node, node->NodeBytes());  // sequential whole-node read
      uint8_t sorder[kDataNodeEntries];
      int cnt = SortedOrderSnapshot(node, version, sorder);
      for (int i = 0; i < cnt && i < static_cast<int>(kDataNodeEntries); ++i) {
        batch[batch_n++] = {node->KeyAt(sorder[i]), node->ValueAt(sorder[i])};
      }
      next_raw = node->NextRaw();
      has_next = next_raw != 0;
      if (has_next) {
        next_anchor = PPtr<DataNode>(next_raw).get()->anchor;  // immutable
      }
      if (node->lock.Validate(version)) {
        break;
      }
      rs.retries.fetch_add(1, std::memory_order_relaxed);
      node = FindDataNode(cursor, &version);
    }

    // Activate every range whose start falls inside this node's span (the
    // tail node's span is unbounded, so all remaining ranges join there).
    while (next_act < m && (!has_next || starts[order[next_act]] < next_anchor)) {
      active[n_active++] = order[next_act++];
    }

    // All covering ranges consume the ONE validated batch. It ascends
    // strictly, so each range skips what lies below its start or what it
    // already consumed from either stream (a re-read after a relocation),
    // merges in its staged ops below the node's span end -- staging wins on
    // equal keys, tombstones skip keys -- and takes the rest in bulk.
    const size_t consumers = n_active;
    for (size_t idx = 0; idx < n_active;) {
      const size_t r = active[idx];
      ScanRows& rows = outs[r];
      size_t& op = next_op[r];
      auto consumed = [&](const Key& k) {
        if (rows.empty() ? k < starts[r] : !(rows.back().first < k)) {
          return true;
        }
        return op > 0 && !(staged[op - 1].key < k);
      };
      size_t i = 0;
      while (i < batch_n && consumed(batch[i].first)) {
        ++i;
      }
      while (rows.size() < counts[r] && op < n_staged &&
             (!has_next || staged[op].key < next_anchor)) {
        if (i < batch_n && batch[i].first < staged[op].key) {
          rows.push_back(batch[i++]);
          continue;
        }
        if (i < batch_n && !(staged[op].key < batch[i].first)) {
          ++i;  // the staged op supersedes the data-layer entry
        }
        if (staged[op].type == kAbsorbOpUpsert) {
          rows.push_back({staged[op].key, staged[op].value});
        }
        ++op;
      }
      const size_t take = std::min(batch_n - i, counts[r] - rows.size());
      rows.insert(rows.end(), batch + i, batch + i + take);
      if (rows.size() >= counts[r]) {
        active[idx] = active[--n_active];  // done: drop from the walk
      } else {
        ++idx;
      }
    }
    if (consumers >= 2) {
      ++shared_nodes;
      walks_saved += consumers - 1;
    }

    if (n_active == 0) {
      if (next_act >= m) {
        break;  // every range satisfied
      }
      // Nobody is consuming: jump ahead to the next range's node through the
      // trie instead of dragging the walk across the gap.
      cursor = starts[order[next_act]];
      node = FindDataNode(cursor, &version);
      continue;
    }
    if (!has_next) {
      break;  // tail: the active ranges have everything the tree holds
    }
    // The walk continues to the sibling: start its metadata/anchor/
    // fingerprint line fetching ahead of the whole-node read.
    node = PPtr<DataNode>(next_raw).get();
    node->PrefetchProbe();
    cursor = node->anchor;
    version = node->lock.ReadLock();
    rs.node_locks.fetch_add(1, std::memory_order_relaxed);
    if (node->IsDeleted()) {
      node = FindDataNode(cursor, &version);
    }
  }
  rs.multiscan_shared_nodes.fetch_add(shared_nodes, std::memory_order_relaxed);
  rs.multiscan_walks_saved.fetch_add(walks_saved, std::memory_order_relaxed);

}

int PacTree::SortedOrderSnapshot(DataNode* node, uint64_t version,
                                 uint8_t* order) const {
  // Permutation-array fast path (§5.4, DESIGN.md §6k): reuse the cached
  // sorted order when its version matches; otherwise rebuild and try to
  // publish it. The array is never persisted (selective persistence, §4.4).
  // The caller validates |version| after consuming the order, as with any
  // optimistic read.
  ReadStatCell& rs = ReadStats();
  const uint64_t seen = node->PermState();  // before any slot read
  if (seen == version) {
    rs.perm_hits.fetch_add(1, std::memory_order_relaxed);
    node->CopyPerm(order);
    return node->CountLive();
  }
  rs.perm_builds.fetch_add(1, std::memory_order_relaxed);
  int n = node->ComputeSortedOrder(order);
  node->PublishPerm(seen, version, order);
  return n;
}

}  // namespace pactree
