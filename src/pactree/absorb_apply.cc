// AbsorbSink implementation: applies a key-sorted drain batch from the absorb
// buffer to the data layer (paper §4.2's batched write absorption).
//
// The win over per-op Insert/Remove is media-write coalescing: all ops that
// land in one data node are applied under a single lock acquisition, their
// slot writes are flushed together (adjacent slots share XPLines, all 64
// fingerprints share one), and the valid bitmap -- the durability pivot -- is
// published ONCE per node per batch instead of once per op.
//
// Crash consistency: the caller (AbsorbBuffer::Pass) trims the op log only
// after this returns, so every state this function can crash in is repaired by
// re-replaying the batch. Application is idempotent: an upsert of a present
// key overwrites its value in place (8-byte, media-atomic), a tombstone of an
// absent key is a no-op. Readers never observe intermediate states -- the
// node's write lock is held across the whole group and dirty slots are fenced
// durable before the bitmap publish that makes them visible.
#include <cassert>

#include "src/common/compiler.h"
#include "src/nvm/persist.h"
#include "src/pactree/pactree.h"
#include "src/sync/epoch.h"

namespace pactree {

namespace {

// Slot of |key| among the bits of |bm| (the batch-local live view, which can
// differ from the published bitmap mid-group), or -1. Compares keys directly:
// fingerprints of slots written earlier in this batch are not yet flushed, but
// both live in DRAM-coherent cache, so plain compares are exact under the
// node's write lock. NO_TSAN: slots race with optimistic readers, which
// discard their observations when lock validation fails (see data_node.cc).
PACTREE_NO_TSAN int FindKeyMasked(const DataNode* node, const Key& key,
                                  uint64_t bm) {
  while (bm != 0) {
    int i = __builtin_ctzll(bm);
    if (node->KeyEquals(i, key)) {
      return i;
    }
    bm &= bm - 1;
  }
  return -1;
}

PACTREE_NO_TSAN void WriteValue(DataNode* node, int slot, uint64_t value) {
  *node->ValueSlot(slot) = value;
}

// Tracks the arena bytes a compact group's StageSlot calls appended, so they
// flush once with the slots (classic groups never touch it).
struct ArenaWatermark {
  uint16_t lo = kCompactArenaBytes;
  uint16_t hi = 0;
  void Reset() {
    lo = kCompactArenaBytes;
    hi = 0;
  }
};

// Flushes every dirty slot's key-or-descriptor/value/fingerprint -- plus, for
// compact nodes, the appended arena bytes and the cursor -- and fences once.
// Adjacent dirty slots coalesce into shared XPLines via the flush-combining
// window; the fingerprint array (and a compact node's whole descriptor array)
// contributes at most one line for the batch. The cursor goes durable with
// the suffix bytes BEFORE the bitmap publish that exposes the slots, so a
// recovered image never has a live descriptor above the recovered cursor.
void FlushDirtySlots(DataNode* node, uint64_t dirty, ArenaWatermark* wm) {
  const bool is_compact = node->Format() == NodeFormat::kCompact;
  uint64_t d = dirty;
  while (d != 0) {
    int s = __builtin_ctzll(d);
    d &= d - 1;
    if (is_compact) {
      PersistRange(&node->compact.kdesc[s], sizeof(uint32_t));
      PersistRange(&node->compact.values[s], sizeof(uint64_t));
    } else {
      PersistRange(&node->classic.keys[s], sizeof(Key));
      PersistRange(&node->classic.values[s], sizeof(uint64_t));
    }
    PersistRange(&node->fp[s], 1);
  }
  if (is_compact && wm->hi > wm->lo) {
    PersistRange(&node->compact.arena[wm->lo], wm->hi - wm->lo);
    PersistRange(&node->arena_cursor, sizeof(node->arena_cursor));
  }
  if (dirty != 0 || wm->hi > wm->lo) {
    Fence();  // slots durable BEFORE the bitmap publish that exposes them
  }
  wm->Reset();
}

}  // namespace

bool PacTree::AbsorbApply(const AbsorbOp* ops, size_t n) {
  EpochGuard guard;
  size_t i = 0;
  while (i < n) {
    uint64_t version;
    DataNode* node = FindDataNode(ops[i].key, &version);
    if (!node->lock.TryUpgrade(version)) {
      ReadStats().retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    AnnotateNvmRead(node, node->NodeBytes());
    // |bm| is the batch-local live view, |dirty| the slots needing a flush;
    // both publish at group end (or just before a split).
    uint64_t bm = node->Bitmap();
    ArenaWatermark wm;
    // Last-published bitmap: a slot live here has durable contents readers
    // (and a recovering crash image) may rely on, even if an in-batch
    // tombstone already cleared it from |bm|. Such a slot must not be
    // rewritten until the cleared bitmap is published -- otherwise a torn
    // flush leaves a live slot with mixed old/new key/fingerprint bytes.
    uint64_t published = bm;
    uint64_t dirty = 0;
    bool removed_any = false;
    while (i < n) {
      const AbsorbOp& op = ops[i];
      DataNode* next = node->Next();
      if (op.key < node->anchor ||
          (next != nullptr && next->anchor <= op.key)) {
        break;  // next op belongs to another node: finish this group
      }
      int slot = FindKeyMasked(node, op.key, bm);
      if (op.type == kAbsorbOpTombstone) {
        if (slot >= 0) {
          bm &= ~(1ULL << slot);
          dirty &= ~(1ULL << slot);  // a dead slot never needs its flush
          removed_any = true;
        }
        ++i;
        continue;
      }
      if (slot >= 0) {
        // In-place value overwrite: 8-byte media-atomic, invisible until the
        // write lock drops (optimistic readers fail validation), re-replayed
        // from the op log if it crashes unflushed.
        WriteValue(node, slot, op.value);
        dirty |= 1ULL << slot;
        ++i;
        continue;
      }
      if (bm == ~0ULL || !node->SuffixRoomFor(op.key)) {
        // Slot-full, or (compact) no arena room for this key's suffix: make
        // the batch-local state real, then let MakeRoomLocked compact the
        // arena and/or split. Publishing first matters twice over -- the
        // split reads the published bitmap, and arena compaction treats the
        // published bitmap as the live set (an unpublished staged slot's
        // suffix bytes must not be reclaimed under it). MakeRoomLocked
        // returns with the locked half owning op.key; the op re-dispatches
        // against it.
        FlushDirtySlots(node, dirty, &wm);
        node->PublishBitmap(bm);
        published = bm;
        dirty = 0;
        if (!MakeRoomLocked(&node, op.key)) {
          // Data pool exhausted mid-batch. Everything applied so far is
          // already durably published (flushes + bitmap above), which is
          // safe: the caller keeps the whole batch logged and staged, and
          // re-application converges. Unwind the lock and report failure.
          node->lock.WriteUnlock();
          return false;
        }
        bm = node->Bitmap();
        published = bm;
        continue;
      }
      if ((bm | published) == ~0ULL) {
        // Only tombstone-freed slots remain. Retire them durably (publish the
        // cleared bitmap) before reuse; see |published| above. Re-dispatch the
        // op from the top rather than falling through: the publish just
        // killed those slots, and a SuffixRoomFor verdict that leaned on
        // sharing one of their suffixes no longer holds. (The re-run cannot
        // land here again -- published now equals bm, which has free bits.)
        FlushDirtySlots(node, dirty, &wm);
        node->PublishBitmap(bm);
        published = bm;
        dirty = 0;
        continue;
      }
      int free = __builtin_ctzll(~(bm | published));
      node->StageSlot(free, op.key, op.key.Fingerprint(), op.value, &wm.lo,
                      &wm.hi);
      bm |= 1ULL << free;
      dirty |= 1ULL << free;
      ++i;
    }
    FlushDirtySlots(node, dirty, &wm);
    if (bm != node->Bitmap()) {
      node->PublishBitmap(bm);  // ONE durability-pivot publish for the group
    }
    const bool merged = removed_any && TryMergeLocked(node);
    if (!merged && !opts_.selective_persistence) {
      MaintainPermutation(node);  // a merge maintains its survivor itself
    }
    node->lock.WriteUnlock();
  }
  return true;
}

}  // namespace pactree
