// Batched point-read pipeline (DESIGN.md §6f).
//
// PacTree::Lookup pays three per-key costs: an absorb shard-lock, an
// EpochGuard enter/exit, and an ART descent followed by a version-validated
// data-node probe. MultiGet amortizes all three across a batch:
//
//   Stage 1 -- absorb routing: AbsorbBuffer::MultiLookup routes every key to
//   its owning shard and takes each involved shard's mutex ONCE, answering
//   staged values and tombstones exactly as the per-key Lookup would.
//
//   Stage 2 -- floor resolution: ONE EpochGuard covers the rest of the batch.
//   The remaining (miss) keys are sorted and their ART floors resolved in a
//   software-pipelined loop: before resolving key j, key j+1's trie path is
//   prefetched (PdlArt::PrefetchFloorPath -> AnnotateNvmPrefetch warms the
//   modeled XPLine cache without stalling), and each resolved floor node's
//   metadata/anchor/fingerprint XPLine is prefetched for stage 3. One key's
//   worth of work always sits between a prefetch and its use, which is the
//   overlap window the non-stalling prefetch model assumes.
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
// Validate fails and the group re-walks. This is exactly the optimistic
// read protocol of LookupBase, applied once per group instead of per key.
#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "src/nvm/persist.h"
#include "src/pactree/pac_root.h"
#include "src/pactree/pactree.h"
#include "src/sync/epoch.h"

namespace pactree {

size_t PacTree::MultiGet(std::span<const Key> keys, uint64_t* values,
                         Status* statuses) const {
  const size_t n = keys.size();
  if (n == 0) {
    return 0;
  }
  ReadStatCell& rs = ReadStats();
  rs.multiget_batches.fetch_add(1, std::memory_order_relaxed);
  rs.multiget_keys.fetch_add(n, std::memory_order_relaxed);

  std::vector<Status> local_status;
  Status* st = statuses;
  if (st == nullptr) {
    local_status.resize(n);
    st = local_status.data();
  }

  // --- stage 1: absorb routing --------------------------------------------
  size_t found = 0;
  std::vector<size_t> miss;
  miss.reserve(n);
  if (absorb_ != nullptr) {
    std::vector<AbsorbBuffer::Hit> hits(n);
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
          miss.push_back(i);
          break;
      }
    }
  } else {
    miss.resize(n);
    std::iota(miss.begin(), miss.end(), size_t{0});
  }
  if (miss.empty()) {
    return found;
  }

  rs.epoch_enters.fetch_add(1, std::memory_order_relaxed);
  EpochGuard guard;

  // Sort the misses by key (ties by position, so duplicate keys resolve
  // deterministically and stay adjacent within their group).
  std::sort(miss.begin(), miss.end(), [&keys](size_t a, size_t b) {
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
  std::vector<DataNode*> floor(miss.size());
  for (size_t j = 0; j < miss.size(); ++j) {
    if (j + 1 < miss.size()) {
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
    node->PrefetchProbe();
    floor[j] = node;
  }

  // --- stage 3: node-grouped probing ---------------------------------------
  struct Probe {
    uint64_t value;
    bool hit;
  };
  std::vector<Probe> probe;
  size_t g = 0;
  while (g < miss.size()) {
    const Key& gkey = keys[miss[g]];
    while (true) {
      uint64_t version;
      DataNode* node = JumpWalk(floor[g], gkey, &version);
      // Group upper bound = right sibling's anchor (safe pre-validation: see
      // file comment). An unbounded (tail) node owns every remaining key.
      uint64_t next_raw = node->NextRaw();
      DataNode* next = PPtr<DataNode>(next_raw).get();
      size_t gend = g + 1;
      while (gend < miss.size() &&
             (next == nullptr || keys[miss[gend]] < next->anchor)) {
        ++gend;
      }
      probe.resize(gend - g);
      for (size_t j = g; j < gend; ++j) {
        const Key& k = keys[miss[j]];
        int slot = node->FindKey(k, k.Fingerprint(), /*will_read_value=*/true);
        uint64_t v = 0;
        if (slot >= 0) {
          AnnotateNvmRead(node->ValueSlot(slot), sizeof(uint64_t));
          v = node->ValueAt(slot);
        }
        probe[j - g] = {v, slot >= 0};
      }
      if (!node->lock.Validate(version)) {
        rs.multiget_group_retries.fetch_add(1, std::memory_order_relaxed);
        rs.retries.fetch_add(1, std::memory_order_relaxed);
        continue;  // re-walk this group; JumpWalk absorbs any relink
      }
      rs.multiget_node_groups.fetch_add(1, std::memory_order_relaxed);
      for (size_t j = g; j < gend; ++j) {
        size_t i = miss[j];
        if (probe[j - g].hit) {
          st[i] = Status::kOk;
          if (values != nullptr) {
            values[i] = probe[j - g].value;
          }
          ++found;
        } else {
          st[i] = Status::kNotFound;
        }
      }
      if (gend < miss.size()) {
        floor[gend]->PrefetchProbe();  // overlap the next group's walk
      }
      g = gend;
      break;
    }
  }
  return found;
}

// Batched range scan with sibling-walk sharing. Independent Scan calls over
// overlapping (or clustered) ranges each walk the same data nodes, paying a
// lock acquisition, a whole-node media read, a sorted-order snapshot, and a
// version validation PER RANGE per node. MultiScan sorts the starts and runs
// ONE walk: each node is locked, snapshotted, and validated once, and every
// range whose window covers that node consumes the same validated batch.
//
// A range joins the walk ("activates") exactly when the walk reaches the node
// an independent Scan would have started at -- its start precedes the right
// sibling's anchor -- and leaves once it has collected its over-fetched want
// (count + staged tombstones, as in Scan). When no range is consuming, the
// walk jumps ahead through the trie instead of dragging across unconsumed
// siblings. Validation failure re-locates from the current node's span start
// and re-reads; a per-range duplicate guard (strictly-ascending emission)
// makes re-reads idempotent.
void PacTree::MultiScan(std::span<const Key> starts, std::span<const size_t> counts,
                        std::vector<std::vector<std::pair<Key, uint64_t>>>* out) const {
  const size_t n = starts.size();
  out->resize(n);
  if (n == 0) {
    return;
  }
  ReadStatCell& rs = ReadStats();
  rs.multiscan_batches.fetch_add(1, std::memory_order_relaxed);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&starts](size_t a, size_t b) {
    if (starts[a] < starts[b]) {
      return true;
    }
    if (starts[b] < starts[a]) {
      return false;
    }
    return a < b;
  });

  // ONE staged-op snapshot serves every range (Scan does one CollectFrom per
  // call): collected from the smallest start, filtered per range by the
  // shared merge helpers.
  std::map<Key, AbsorbPending> pending;
  if (absorb_ != nullptr) {
    absorb_->CollectFrom(starts[order[0]], &pending);
  }
  std::vector<size_t> want(n);
  for (size_t r = 0; r < n; ++r) {
    want[r] = counts[r] + StagedTombstonesFrom(pending, starts[r]);
  }

  rs.epoch_enters.fetch_add(1, std::memory_order_relaxed);
  EpochGuard guard;

  std::vector<std::vector<std::pair<Key, uint64_t>>> base(n);
  std::vector<size_t> active;  // ranges consuming the walk, unordered
  size_t next_act = 0;         // next |order| position awaiting activation
  uint64_t shared_nodes = 0;
  uint64_t walks_saved = 0;

  Key cursor = starts[order[0]];  // span start of the current node (re-locate key)
  uint64_t version;
  DataNode* node = FindDataNode(cursor, &version);
  std::pair<Key, uint64_t> batch[kDataNodeEntries];

  while (node != nullptr) {
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
    if (has_next) {
      PPtr<DataNode>(next_raw).get()->PrefetchProbe();  // overlap next walk step
    }

    // Activate every range whose start falls inside this node's span (the
    // tail node's span is unbounded, so all remaining ranges join there).
    while (next_act < n && (!has_next || starts[order[next_act]] < next_anchor)) {
      active.push_back(order[next_act]);
      ++next_act;
    }

    // All covering ranges consume the ONE validated batch.
    size_t consumers = 0;
    for (size_t idx = 0; idx < active.size();) {
      const size_t r = active[idx];
      if (base[r].size() < want[r]) {
        ++consumers;
        for (size_t i = 0; i < batch_n && base[r].size() < want[r]; ++i) {
          const auto& e = batch[i];
          if (e.first < starts[r]) {
            continue;
          }
          if (!base[r].empty() && !(base[r].back().first < e.first)) {
            continue;  // validation-retry re-read: already emitted
          }
          base[r].push_back(e);
        }
      }
      if (base[r].size() >= want[r]) {
        active[idx] = active.back();  // done: drop from the walk
        active.pop_back();
      } else {
        ++idx;
      }
    }
    if (consumers >= 2) {
      ++shared_nodes;
      walks_saved += consumers - 1;
    }

    if (active.empty()) {
      if (next_act >= n) {
        break;  // every range satisfied or out of keys
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
    node = PPtr<DataNode>(next_raw).get();
    cursor = node->anchor;
    version = node->lock.ReadLock();
    rs.node_locks.fetch_add(1, std::memory_order_relaxed);
    if (node->IsDeleted()) {
      node = FindDataNode(cursor, &version);
    }
  }
  rs.multiscan_shared_nodes.fetch_add(shared_nodes, std::memory_order_relaxed);
  rs.multiscan_walks_saved.fetch_add(walks_saved, std::memory_order_relaxed);

  for (size_t r = 0; r < n; ++r) {
    if (absorb_ != nullptr) {
      MergeStagedScan(pending, starts[r], base[r], counts[r], &(*out)[r]);
    } else {
      if (base[r].size() > counts[r]) {
        base[r].resize(counts[r]);
      }
      (*out)[r] = std::move(base[r]);
    }
  }
}

}  // namespace pactree
