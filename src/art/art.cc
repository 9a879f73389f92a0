#include "src/art/art.h"

#include <cassert>
#include <cstring>

#include "src/art/art_nodes.h"
#include "src/nvm/persist.h"
#include "src/pmem/registry.h"
#include "src/runtime/thread_context.h"
#include "src/sync/epoch.h"

namespace pactree {
namespace {

constexpr uint64_t kArtMagic = 0x3154524144504150ULL;  // "PAPDART1"

inline ArtNode* NodeOf(uint64_t raw) { return PPtr<ArtNode>(raw).get(); }
inline ArtLeaf* LeafOf(uint64_t raw) { return PPtr<ArtLeaf>(ArtUntag(raw)).get(); }

// Approximate NVM traffic of one node visit: header + the accessed slot area.
inline void AnnotateNodeVisit(const ArtNode* n) { AnnotateNvmRead(n, 128); }
inline void AnnotateLeafVisit(const ArtLeaf* l) { AnnotateNvmRead(l, sizeof(ArtLeaf)); }

}  // namespace

PdlArt::PdlArt(PmemHeap* heap, ArtTreeRoot* root)
    : heap_(heap), root_(root), log_busy_(kArtAllocLogSlots) {
  if (root_->magic != kArtMagic) {
    // Fresh tree: build an empty N256 root. A crash inside this window can
    // leak at most one node, re-created on the next attach (documented).
    PPtr<void> block = heap_->Alloc(sizeof(ArtNode256));
    auto* n = static_cast<ArtNode256*>(block.get());
    std::memset(static_cast<void*>(n), 0, sizeof(ArtNode256));
    n->hdr.type = kArtN256;
    PersistFence(n, sizeof(ArtNode256));
    root_->root_raw = block.raw;
    PersistFence(&root_->root_raw, sizeof(uint64_t));
    std::memset(static_cast<void*>(root_->alloc_log), 0, sizeof(root_->alloc_log));
    PersistFence(root_->alloc_log, sizeof(root_->alloc_log));
    root_->magic = kArtMagic;
    PersistFence(&root_->magic, sizeof(uint64_t));
  }
}

// ---------------------------------------------------------------------------
// Allocation-log plumbing (leak prevention, §5.1(3))
// ---------------------------------------------------------------------------

int PdlArt::AcquireLogSlot(const Key& key) {
  // Per-(thread, trie) cursor so independent tries do not share scan positions.
  uint64_t& start = ThreadContext::Current().InstanceWord(this);
  for (size_t i = 0; i < kArtAllocLogSlots; ++i) {
    size_t idx = (start + i) % kArtAllocLogSlots;
    uint8_t expected = 0;
    if (log_busy_[idx].compare_exchange_strong(expected, 1, std::memory_order_acquire)) {
      start = idx + 1;
      ArtAllocLogEntry& e = root_->alloc_log[idx];
      e.blocks[0] = 0;
      e.blocks[1] = 0;
      e.key = key;
      PersistRange(&e, sizeof(e));
      e.state = 1;
      PersistFence(&e, sizeof(e));
      return static_cast<int>(idx);
    }
  }
  return -1;  // log exhausted; callers treat as OOM
}

void PdlArt::ReleaseLogSlot(int slot) {
  ArtAllocLogEntry& e = root_->alloc_log[slot];
  e.state = 0;
  PersistFence(&e.state, sizeof(e.state));
  log_busy_[slot].store(0, std::memory_order_release);
}

void* PdlArt::AllocBlock(int slot, int which, size_t size) {
  ArtAllocLogEntry& e = root_->alloc_log[slot];
  PPtr<uint64_t> dest = ToPPtr(&e.blocks[which]);
  PPtr<void> block = heap_->AllocTo(dest, size);
  return block.get();
}

ArtNode* PdlArt::NewInnerNode(int slot, int which, ArtNodeType type) {
  auto* n = static_cast<ArtNode*>(AllocBlock(slot, which, ArtNodeSize(type)));
  if (n == nullptr) {
    return nullptr;
  }
  n->type = type;
  n->count = 0;
  n->prefix_len = 0;
  return n;
}

uint64_t PdlArt::NewLeaf(int slot, int which, const Key& key, uint64_t value) {
  auto* l = static_cast<ArtLeaf*>(AllocBlock(slot, which, sizeof(ArtLeaf)));
  if (l == nullptr) {
    return 0;
  }
  l->key = key;
  l->value = value;
  PersistFence(l, sizeof(ArtLeaf));
  return ToPPtr(l).Cast<void>().raw | kArtLeafTag;
}

ArtNode* PdlArt::GrowCopy(int slot, int which, const ArtNode* n) {
  ArtNodeType bigger;
  switch (n->type) {
    case kArtN4:
      bigger = kArtN16;
      break;
    case kArtN16:
      bigger = kArtN48;
      break;
    case kArtN48:
      bigger = kArtN256;
      break;
    default:
      return nullptr;
  }
  ArtNode* d = NewInnerNode(slot, which, bigger);
  if (d == nullptr) {
    return nullptr;
  }
  d->prefix_len = n->prefix_len;
  std::memcpy(d->prefix, n->prefix, ArtNode::kMaxPrefix);
  ArtCopyEntries(n, d);
  return d;
}

ArtNode* PdlArt::ShrinkCopy(int slot, int which, const ArtNode* n) {
  ArtNodeType smaller;
  switch (n->type) {
    case kArtN16:
      smaller = kArtN4;
      break;
    case kArtN48:
      smaller = kArtN16;
      break;
    case kArtN256:
      smaller = kArtN48;
      break;
    default:
      return nullptr;
  }
  ArtNode* d = NewInnerNode(slot, which, smaller);
  if (d == nullptr) {
    return nullptr;
  }
  d->prefix_len = n->prefix_len;
  std::memcpy(d->prefix, n->prefix, ArtNode::kMaxPrefix);
  ArtCopyEntries(n, d);
  return d;
}

void PdlArt::RetireSubtreeNode(ArtNode* n) {
  EpochManager::Instance().Retire(ToPPtr(n).Cast<void>());
}

// ---------------------------------------------------------------------------
// Shared traversal helpers
// ---------------------------------------------------------------------------

namespace {

// Reads the key of some leaf under |node| to reconstruct prefix bytes that are
// not stored inline (prefix_len > kMaxPrefix). Returns false on a concurrent
// change (caller restarts).
bool LoadSubtreeKey(const ArtNode* node, uint64_t version, Key* out) {
  const ArtNode* cur = node;
  uint64_t cur_version = version;
  for (int hops = 0; hops < 64; ++hops) {
    uint8_t byte;
    uint64_t child = ArtMinChild(cur, &byte);
    if (!cur->lock.Validate(cur_version)) {
      return false;
    }
    if (child == 0) {
      return false;  // empty node mid-walk: racing structural change
    }
    if (ArtIsLeaf(child)) {
      const ArtLeaf* leaf = LeafOf(child);
      *out = leaf->key;
      return cur->lock.Validate(cur_version) && node->lock.Validate(version);
    }
    const ArtNode* next = NodeOf(child);
    uint64_t next_version = next->lock.ReadLock();
    if (!cur->lock.Validate(cur_version)) {
      return false;
    }
    cur = next;
    cur_version = next_version;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

Status PdlArt::Insert(const Key& key, uint64_t value) {
  bool existed = false;
  Status s = InsertImpl(key, value, /*upsert=*/true, &existed);
  if (s != Status::kOk) {
    return s;
  }
  return existed ? Status::kExists : Status::kOk;
}

Status PdlArt::InsertIfAbsent(const Key& key, uint64_t value) {
  bool existed = false;
  Status s = InsertImpl(key, value, /*upsert=*/false, &existed);
  if (s != Status::kOk) {
    return s;
  }
  return existed ? Status::kExists : Status::kOk;
}

Status PdlArt::InsertImpl(const Key& key, uint64_t value, bool upsert, bool* existed) {
  EpochGuard guard;
  Status result = Status::kOk;
  while (!InsertAttempt(key, value, upsert, existed, &result)) {
    restarts_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

bool PdlArt::InsertAttempt(const Key& key, uint64_t value, bool upsert, bool* existed,
                           Status* result) {
  ArtNode* parent = nullptr;
  uint64_t parent_version = 0;
  uint8_t parent_byte = 0;
  ArtNode* node = RootNode();
  uint64_t version = node->lock.ReadLock();
  uint32_t depth = 0;

  while (true) {
    AnnotateNodeVisit(node);
    // ---- prefix check (prefix is immutable) ----
    uint32_t plen = node->prefix_len;
    uint32_t stored = plen < ArtNode::kMaxPrefix ? plen : ArtNode::kMaxPrefix;
    uint32_t mismatch = stored;
    uint8_t existing_byte = 0;
    for (uint32_t i = 0; i < stored; ++i) {
      if (node->prefix[i] != key.At(depth + i)) {
        mismatch = i;
        existing_byte = node->prefix[i];
        break;
      }
    }
    bool have_mismatch = mismatch < stored;
    if (!have_mismatch && plen > stored) {
      // Reconstruct the unstored tail from any leaf in the subtree.
      Key probe;
      if (!LoadSubtreeKey(node, version, &probe)) {
        return false;
      }
      for (uint32_t i = stored; i < plen; ++i) {
        if (probe.At(depth + i) != key.At(depth + i)) {
          mismatch = i;
          existing_byte = probe.At(depth + i);
          have_mismatch = true;
          break;
        }
      }
    }
    if (!node->lock.Validate(version)) {
      return false;
    }

    if (have_mismatch) {
      // ---- prefix split (copy-on-write) ----
      assert(parent != nullptr && "root has no prefix");
      // Fetch a full key from the subtree: the trimmed copy's prefix bytes may
      // extend past what |node| stores inline and must be reconstructed.
      Key probe;
      if (!LoadSubtreeKey(node, version, &probe)) {
        return false;
      }
      if (!parent->lock.TryUpgrade(parent_version)) {
        return false;
      }
      if (!node->lock.TryUpgrade(version)) {
        parent->lock.WriteUnlock();
        return false;
      }
      int slot = AcquireLogSlot(key);
      if (slot < 0) {
        node->lock.WriteUnlock();
        parent->lock.WriteUnlock();
        *result = Status::kFull;
        return true;
      }
      // New inner N4 holding the common prefix [0, mismatch).
      auto* split = reinterpret_cast<ArtNode4*>(NewInnerNode(slot, 0, kArtN4));
      // Copy of |node| with its prefix trimmed past the mismatch byte.
      int slot2 = AcquireLogSlot(key);
      ArtNode* trimmed = nullptr;
      uint64_t leaf_raw = 0;
      if (split != nullptr && slot2 >= 0) {
        trimmed = NewInnerNode(slot2, 0, static_cast<ArtNodeType>(node->type));
        if (trimmed != nullptr) {
          std::memset(reinterpret_cast<char*>(trimmed) + sizeof(ArtNode), 0,
                      ArtNodeSize(node->type) - sizeof(ArtNode));
          trimmed->count = 0;
          trimmed->prefix_len = plen - mismatch - 1;
          uint32_t to_copy = trimmed->prefix_len < ArtNode::kMaxPrefix
                                 ? trimmed->prefix_len
                                 : ArtNode::kMaxPrefix;
          for (uint32_t j = 0; j < to_copy; ++j) {
            trimmed->prefix[j] = probe.At(depth + mismatch + 1 + j);
          }
          ArtCopyEntries(node, trimmed);
          leaf_raw = NewLeaf(slot2, 1, key, value);
        }
      }
      if (split == nullptr || trimmed == nullptr || leaf_raw == 0) {
        if (slot >= 0) {
          ReleaseLogSlot(slot);
        }
        if (slot2 >= 0) {
          ReleaseLogSlot(slot2);
        }
        node->lock.WriteUnlock();
        parent->lock.WriteUnlock();
        *result = Status::kFull;
        return true;
      }
      split->hdr.prefix_len = mismatch;
      std::memcpy(split->hdr.prefix, node->prefix,
                  mismatch < ArtNode::kMaxPrefix ? mismatch : ArtNode::kMaxPrefix);
      split->keys[0] = existing_byte;
      split->children[0] = ToPPtr(trimmed).Cast<void>().raw;
      split->keys[1] = key.At(depth + mismatch);
      split->children[1] = leaf_raw;
      split->hdr.count = 2;
      PersistRange(trimmed, ArtNodeSize(trimmed->type));
      PersistFence(split, sizeof(ArtNode4));
      // Linearization: swing the parent's child pointer.
      uint64_t* pslot = ArtChildSlot(parent, parent_byte);
      std::atomic_ref<uint64_t>(*pslot).store(ToPPtr(&split->hdr).Cast<void>().raw,
                                              std::memory_order_release);
      PersistFence(pslot, sizeof(uint64_t));
      ReleaseLogSlot(slot);
      ReleaseLogSlot(slot2);
      node->lock.WriteUnlock();
      parent->lock.WriteUnlock();
      RetireSubtreeNode(node);
      *result = Status::kOk;
      return true;
    }

    depth += plen;
    uint8_t b = key.At(depth);
    uint64_t child = ArtFindChild(node, b);
    if (!node->lock.Validate(version)) {
      return false;
    }

    if (child == 0) {
      // ---- add a leaf to this node ----
      // Optimistic read: a concurrent ArtAddChild stores count atomically.
      const uint16_t count =
          std::atomic_ref<uint16_t>(node->count).load(std::memory_order_relaxed);
      bool full = count >= ArtNodeCapacity(node->type) && node->type != kArtN256;
      if (full) {
        if (parent == nullptr || !parent->lock.TryUpgrade(parent_version)) {
          return false;
        }
        if (!node->lock.TryUpgrade(version)) {
          parent->lock.WriteUnlock();
          return false;
        }
        int slot = AcquireLogSlot(key);
        ArtNode* bigger = slot >= 0 ? GrowCopy(slot, 0, node) : nullptr;
        uint64_t leaf_raw = bigger != nullptr ? NewLeaf(slot, 1, key, value) : 0;
        if (bigger == nullptr || leaf_raw == 0) {
          if (slot >= 0) {
            ReleaseLogSlot(slot);
          }
          node->lock.WriteUnlock();
          parent->lock.WriteUnlock();
          *result = Status::kFull;
          return true;
        }
        ArtAddChild(bigger, b, leaf_raw);
        PersistFence(bigger, ArtNodeSize(bigger->type));
        uint64_t* pslot = ArtChildSlot(parent, parent_byte);
        std::atomic_ref<uint64_t>(*pslot).store(ToPPtr(bigger).Cast<void>().raw,
                                                std::memory_order_release);
        PersistFence(pslot, sizeof(uint64_t));
        ReleaseLogSlot(slot);
        node->lock.WriteUnlock();
        parent->lock.WriteUnlock();
        RetireSubtreeNode(node);
        *result = Status::kOk;
        return true;
      }
      if (!node->lock.TryUpgrade(version)) {
        return false;
      }
      int slot = AcquireLogSlot(key);
      uint64_t leaf_raw = slot >= 0 ? NewLeaf(slot, 0, key, value) : 0;
      if (leaf_raw == 0) {
        if (slot >= 0) {
          ReleaseLogSlot(slot);
        }
        node->lock.WriteUnlock();
        *result = Status::kFull;
        return true;
      }
      ArtAddChild(node, b, leaf_raw);
      ReleaseLogSlot(slot);
      node->lock.WriteUnlock();
      *result = Status::kOk;
      return true;
    }

    if (ArtIsLeaf(child)) {
      ArtLeaf* leaf = LeafOf(child);
      AnnotateLeafVisit(leaf);
      Key leaf_key = leaf->key;
      if (!node->lock.Validate(version)) {
        return false;
      }
      if (leaf_key == key) {
        *existed = true;
        if (!upsert) {
          *result = Status::kOk;
          return true;
        }
        if (!node->lock.TryUpgrade(version)) {
          return false;
        }
        // Out-of-place update, like the paper's P-ART/RECIPE lineage: a fresh
        // leaf record per update -- one NVM allocation every time (GA3; this
        // cost is exactly what Figures 3/9/10 charge PDL-ART for).
        int slot = AcquireLogSlot(key);
        uint64_t fresh = slot >= 0 ? NewLeaf(slot, 0, key, value) : 0;
        if (fresh == 0) {
          if (slot >= 0) {
            ReleaseLogSlot(slot);
          }
          node->lock.WriteUnlock();
          *result = Status::kFull;
          return true;
        }
        uint64_t* cslot = ArtChildSlot(node, b);
        std::atomic_ref<uint64_t>(*cslot).store(fresh, std::memory_order_release);
        PersistFence(cslot, sizeof(uint64_t));
        ReleaseLogSlot(slot);
        node->lock.WriteUnlock();
        EpochManager::Instance().Retire(PPtr<void>(ArtUntag(child)));
        *result = Status::kOk;
        return true;
      }
      // ---- leaf split: push both keys below a new N4 ----
      uint32_t i = depth + 1;
      while (i < Key::kMaxLen && key.At(i) == leaf_key.At(i)) {
        ++i;
      }
      assert(i < Key::kMaxLen && "distinct keys must diverge");
      if (!node->lock.TryUpgrade(version)) {
        return false;
      }
      int slot = AcquireLogSlot(key);
      auto* n4 = slot >= 0 ? reinterpret_cast<ArtNode4*>(NewInnerNode(slot, 0, kArtN4))
                           : nullptr;
      uint64_t new_leaf = n4 != nullptr ? NewLeaf(slot, 1, key, value) : 0;
      if (n4 == nullptr || new_leaf == 0) {
        if (slot >= 0) {
          ReleaseLogSlot(slot);
        }
        node->lock.WriteUnlock();
        *result = Status::kFull;
        return true;
      }
      n4->hdr.prefix_len = i - (depth + 1);
      uint32_t to_copy = n4->hdr.prefix_len < ArtNode::kMaxPrefix ? n4->hdr.prefix_len
                                                                  : ArtNode::kMaxPrefix;
      for (uint32_t j = 0; j < to_copy; ++j) {
        n4->hdr.prefix[j] = key.At(depth + 1 + j);
      }
      n4->keys[0] = leaf_key.At(i);
      n4->children[0] = child;
      n4->keys[1] = key.At(i);
      n4->children[1] = new_leaf;
      n4->hdr.count = 2;
      PersistFence(n4, sizeof(ArtNode4));
      uint64_t* cslot = ArtChildSlot(node, b);
      std::atomic_ref<uint64_t>(*cslot).store(ToPPtr(&n4->hdr).Cast<void>().raw,
                                              std::memory_order_release);
      PersistFence(cslot, sizeof(uint64_t));
      ReleaseLogSlot(slot);
      node->lock.WriteUnlock();
      *result = Status::kOk;
      return true;
    }

    // ---- descend (hand-over-hand validation) ----
    ArtNode* next = NodeOf(child);
    uint64_t next_version = next->lock.ReadLock();
    if (!node->lock.Validate(version)) {
      return false;
    }
    parent = node;
    parent_version = version;
    parent_byte = b;
    node = next;
    version = next_version;
    depth += 1;
  }
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

Status PdlArt::Lookup(const Key& key, uint64_t* value) const {
  EpochGuard guard;
  while (true) {
    ArtNode* node = RootNode();
    uint64_t version = node->lock.ReadLock();
    uint32_t depth = 0;
    bool restart = false;
    while (true) {
      AnnotateNodeVisit(node);
      uint32_t plen = node->prefix_len;
      uint32_t stored = plen < ArtNode::kMaxPrefix ? plen : ArtNode::kMaxPrefix;
      bool mismatch = false;
      for (uint32_t i = 0; i < stored; ++i) {
        if (node->prefix[i] != key.At(depth + i)) {
          mismatch = true;
          break;
        }
      }
      if (!node->lock.Validate(version)) {
        restart = true;
        break;
      }
      if (mismatch) {
        return Status::kNotFound;
      }
      depth += plen;  // bytes beyond |stored| are verified at the leaf
      uint8_t b = key.At(depth);
      uint64_t child = ArtFindChild(node, b);
      if (!node->lock.Validate(version)) {
        restart = true;
        break;
      }
      if (child == 0) {
        return Status::kNotFound;
      }
      if (ArtIsLeaf(child)) {
        ArtLeaf* leaf = LeafOf(child);
        AnnotateLeafVisit(leaf);
        Key leaf_key = leaf->key;
        uint64_t v =
            std::atomic_ref<uint64_t>(leaf->value).load(std::memory_order_acquire);
        if (!node->lock.Validate(version)) {
          restart = true;
          break;
        }
        if (leaf_key != key) {
          return Status::kNotFound;
        }
        if (value != nullptr) {
          *value = v;
        }
        return Status::kOk;
      }
      ArtNode* next = NodeOf(child);
      uint64_t next_version = next->lock.ReadLock();
      if (!node->lock.Validate(version)) {
        restart = true;
        break;
      }
      node = next;
      version = next_version;
      depth += 1;
    }
    if (restart) {
      restarts_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
  }
}

// ---------------------------------------------------------------------------
// Remove
// ---------------------------------------------------------------------------

Status PdlArt::Remove(const Key& key) {
  EpochGuard guard;
  Status result = Status::kOk;
  while (!RemoveAttempt(key, &result)) {
    restarts_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

bool PdlArt::RemoveAttempt(const Key& key, Status* result) {
  ArtNode* parent = nullptr;
  uint64_t parent_version = 0;
  uint8_t parent_byte = 0;
  ArtNode* node = RootNode();
  uint64_t version = node->lock.ReadLock();
  uint32_t depth = 0;

  while (true) {
    AnnotateNodeVisit(node);
    uint32_t plen = node->prefix_len;
    uint32_t stored = plen < ArtNode::kMaxPrefix ? plen : ArtNode::kMaxPrefix;
    bool mismatch = false;
    for (uint32_t i = 0; i < stored; ++i) {
      if (node->prefix[i] != key.At(depth + i)) {
        mismatch = true;
        break;
      }
    }
    if (!node->lock.Validate(version)) {
      return false;
    }
    if (mismatch) {
      *result = Status::kNotFound;
      return true;
    }
    depth += plen;
    uint8_t b = key.At(depth);
    uint64_t child = ArtFindChild(node, b);
    if (!node->lock.Validate(version)) {
      return false;
    }
    if (child == 0) {
      *result = Status::kNotFound;
      return true;
    }
    if (ArtIsLeaf(child)) {
      ArtLeaf* leaf = LeafOf(child);
      Key leaf_key = leaf->key;
      if (!node->lock.Validate(version)) {
        return false;
      }
      if (leaf_key != key) {
        *result = Status::kNotFound;
        return true;
      }
      // Shrink to a smaller node type when occupancy drops low enough.
      uint16_t cnt = node->count;
      bool shrink = parent != nullptr &&
                    ((node->type == kArtN16 && cnt - 1 <= 3) ||
                     (node->type == kArtN48 && cnt - 1 <= 12) ||
                     (node->type == kArtN256 && cnt - 1 <= 40));
      if (shrink) {
        if (!parent->lock.TryUpgrade(parent_version)) {
          return false;
        }
        if (!node->lock.TryUpgrade(version)) {
          parent->lock.WriteUnlock();
          return false;
        }
        int slot = AcquireLogSlot(key);
        ArtNode* smaller = slot >= 0 ? ShrinkCopy(slot, 0, node) : nullptr;
        if (smaller == nullptr) {
          // Fall back to the in-place removal below.
          if (slot >= 0) {
            ReleaseLogSlot(slot);
          }
          ArtRemoveChild(node, b);
          node->lock.WriteUnlock();
          parent->lock.WriteUnlock();
          EpochManager::Instance().Retire(PPtr<void>(ArtUntag(child)));
          *result = Status::kOk;
          return true;
        }
        ArtRemoveChild(smaller, b);
        PersistFence(smaller, ArtNodeSize(smaller->type));
        uint64_t* pslot = ArtChildSlot(parent, parent_byte);
        std::atomic_ref<uint64_t>(*pslot).store(ToPPtr(smaller).Cast<void>().raw,
                                                std::memory_order_release);
        PersistFence(pslot, sizeof(uint64_t));
        ReleaseLogSlot(slot);
        node->lock.WriteUnlock();
        parent->lock.WriteUnlock();
        RetireSubtreeNode(node);
        EpochManager::Instance().Retire(PPtr<void>(ArtUntag(child)));
        *result = Status::kOk;
        return true;
      }
      if (!node->lock.TryUpgrade(version)) {
        return false;
      }
      ArtRemoveChild(node, b);
      node->lock.WriteUnlock();
      EpochManager::Instance().Retire(PPtr<void>(ArtUntag(child)));
      *result = Status::kOk;
      return true;
    }
    ArtNode* next = NodeOf(child);
    uint64_t next_version = next->lock.ReadLock();
    if (!node->lock.Validate(version)) {
      return false;
    }
    parent = node;
    parent_version = version;
    parent_byte = b;
    node = next;
    version = next_version;
    depth += 1;
  }
}

// ---------------------------------------------------------------------------
// Floor lookup (greatest key <= target) -- used by PACTree's search layer
// ---------------------------------------------------------------------------

bool PdlArt::SubtreeMax(uint64_t raw, Key* found, uint64_t* value, bool* ok) const {
  // Returns false on concurrency restart; *ok=false when the subtree holds no
  // leaf. Removes leave emptied inner nodes in place, so a child that turns
  // out empty sends the search on to the next smaller child.
  if (ArtIsLeaf(raw)) {
    ArtLeaf* leaf = LeafOf(raw);
    AnnotateLeafVisit(leaf);
    *found = leaf->key;
    if (value != nullptr) {
      *value = std::atomic_ref<uint64_t>(leaf->value).load(std::memory_order_acquire);
    }
    *ok = true;
    return true;
  }
  ArtNode* node = NodeOf(raw);
  uint64_t version = node->lock.ReadLock();
  AnnotateNodeVisit(node);
  return MaxBelow(node, version, 256, found, value, ok);
}

bool PdlArt::MaxBelow(const ArtNode* node, uint64_t version, int below,
                      Key* found, uint64_t* value, bool* ok) const {
  *ok = false;
  while (true) {
    uint8_t byte;
    uint64_t child = ArtMaxChildBelow(node, below, &byte);
    if (!node->lock.Validate(version)) {
      return false;
    }
    if (child == 0) {
      return true;
    }
    if (!SubtreeMax(child, found, value, ok)) {
      return false;
    }
    if (*ok) {
      return true;
    }
    below = byte;
  }
}

Status PdlArt::LookupFloor(const Key& key, Key* found, uint64_t* value) const {
  EpochGuard guard;
  return LookupFloorNoGuard(key, found, value);
}

Status PdlArt::LookupFloorNoGuard(const Key& key, Key* found, uint64_t* value) const {
  Status result = Status::kNotFound;
  while (!FloorAttempt(key, found, value, &result)) {
    restarts_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

void PdlArt::PrefetchFloorPath(const Key& key, int max_levels) const {
  // Advisory only: no ReadLock, no Validate. Prefixes are immutable after
  // construction and child slots are 8-byte valid-or-null words, so every
  // pointer this walk chases is a node that is (or recently was) reachable;
  // the epoch guard the caller holds keeps retired nodes mapped. A racing
  // writer can at worst send the walk down a stale path, warming lines the
  // validated walk will not touch.
  ArtNode* node = RootNode();
  uint32_t depth = 0;
  for (int level = 0; level < max_levels && node != nullptr; ++level) {
    AnnotateNvmPrefetch(node, 128);
    uint32_t plen = node->prefix_len;
    depth += plen;
    if (plen > Key::kMaxLen || depth >= Key::kMaxLen) {
      return;
    }
    uint64_t child = ArtFindChild(node, key.At(depth));
    if (child == 0) {
      return;
    }
    if (ArtIsLeaf(child)) {
      AnnotateNvmPrefetch(LeafOf(child), sizeof(ArtLeaf));
      return;
    }
    node = NodeOf(child);
    depth += 1;
  }
}

bool PdlArt::FloorAttempt(const Key& key, Key* found, uint64_t* value,
                          Status* result) const {
  struct Frame {
    ArtNode* node;
    uint64_t version;
    uint32_t depth;   // depth at node entry (before prefix)
    uint8_t byte;     // branch byte taken downward
  };
  Frame stack[64];
  int top = 0;

  ArtNode* node = RootNode();
  uint64_t version = node->lock.ReadLock();
  uint32_t depth = 0;

  // Phase 1: descend along the key, recording the path.
  while (true) {
    AnnotateNodeVisit(node);
    uint32_t plen = node->prefix_len;
    uint32_t stored = plen < ArtNode::kMaxPrefix ? plen : ArtNode::kMaxPrefix;
    int cmp = 0;
    for (uint32_t i = 0; i < stored && cmp == 0; ++i) {
      uint8_t kb = key.At(depth + i);
      if (node->prefix[i] != kb) {
        cmp = node->prefix[i] < kb ? -1 : 1;
      }
    }
    if (cmp == 0 && plen > stored) {
      Key probe;
      if (!LoadSubtreeKey(node, version, &probe)) {
        return false;
      }
      for (uint32_t i = stored; i < plen && cmp == 0; ++i) {
        uint8_t kb = key.At(depth + i);
        if (probe.At(depth + i) != kb) {
          cmp = probe.At(depth + i) < kb ? -1 : 1;
        }
      }
    }
    if (!node->lock.Validate(version)) {
      return false;
    }
    if (cmp < 0) {
      // Entire subtree < key: its max is the floor.
      bool ok = false;
      if (!SubtreeMax(ToPPtr(node).Cast<void>().raw, found, value, &ok)) {
        return false;
      }
      if (ok) {
        *result = Status::kOk;
        return true;
      }
      break;  // empty subtree: backtrack
    }
    if (cmp > 0) {
      break;  // entire subtree > key: backtrack to find a left sibling
    }
    depth += plen;
    uint8_t b = key.At(depth);
    uint64_t child = ArtFindChild(node, b);
    if (!node->lock.Validate(version)) {
      return false;
    }
    if (child != 0 && ArtIsLeaf(child)) {
      ArtLeaf* leaf = LeafOf(child);
      AnnotateLeafVisit(leaf);
      Key leaf_key = leaf->key;
      uint64_t v = std::atomic_ref<uint64_t>(leaf->value).load(std::memory_order_acquire);
      if (!node->lock.Validate(version)) {
        return false;
      }
      if (leaf_key <= key) {
        *found = leaf_key;
        if (value != nullptr) {
          *value = v;
        }
        *result = Status::kOk;
        return true;
      }
      // Leaf > key: fall through to the left-sibling search at this node.
      stack[top++] = {node, version, depth, b};
      break;
    }
    if (child == 0) {
      stack[top++] = {node, version, depth, b};
      break;
    }
    ArtNode* next = NodeOf(child);
    uint64_t next_version = next->lock.ReadLock();
    if (!node->lock.Validate(version)) {
      return false;
    }
    if (top >= 63) {
      return false;  // defensive; depth is bounded by key length
    }
    stack[top++] = {node, version, depth, b};
    node = next;
    version = next_version;
    depth += 1;
  }

  // Phase 2: walk the recorded path upward looking for a smaller branch.
  for (int i = top - 1; i >= 0; --i) {
    const Frame& f = stack[i];
    bool ok = false;
    if (!MaxBelow(f.node, f.version, f.byte, found, value, &ok)) {
      return false;
    }
    if (ok) {
      *result = Status::kOk;
      return true;
    }
  }
  *result = Status::kNotFound;
  return true;
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

size_t PdlArt::Scan(const Key& start, size_t limit,
                    std::vector<std::pair<Key, uint64_t>>* out) const {
  EpochGuard guard;
  while (true) {
    out->clear();
    if (ScanAttempt(start, limit, out)) {
      return out->size();
    }
    restarts_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool PdlArt::ScanAttempt(const Key& start, size_t limit,
                         std::vector<std::pair<Key, uint64_t>>* out) const {
  return ScanNode(root_->root_raw, 0, start, /*bounded=*/true, limit, out);
}

bool PdlArt::ScanNode(uint64_t raw, uint32_t depth, const Key& start, bool bounded,
                      size_t limit, std::vector<std::pair<Key, uint64_t>>* out) const {
  if (out->size() >= limit) {
    return true;
  }
  if (ArtIsLeaf(raw)) {
    ArtLeaf* leaf = LeafOf(raw);
    AnnotateLeafVisit(leaf);
    Key k = leaf->key;
    uint64_t v = std::atomic_ref<uint64_t>(leaf->value).load(std::memory_order_acquire);
    if (!bounded || k >= start) {
      out->emplace_back(k, v);
    }
    return true;
  }
  ArtNode* node = NodeOf(raw);
  uint64_t version = node->lock.ReadLock();
  AnnotateNodeVisit(node);

  uint32_t plen = node->prefix_len;
  bool sub_bounded = bounded;
  if (bounded && plen > 0) {
    uint32_t stored = plen < ArtNode::kMaxPrefix ? plen : ArtNode::kMaxPrefix;
    int cmp = 0;
    for (uint32_t i = 0; i < stored && cmp == 0; ++i) {
      uint8_t sb = start.At(depth + i);
      if (node->prefix[i] != sb) {
        cmp = node->prefix[i] < sb ? -1 : 1;
      }
    }
    if (cmp == 0 && plen > stored) {
      Key probe;
      if (!LoadSubtreeKey(node, version, &probe)) {
        return false;
      }
      for (uint32_t i = stored; i < plen && cmp == 0; ++i) {
        uint8_t sb = start.At(depth + i);
        if (probe.At(depth + i) != sb) {
          cmp = probe.At(depth + i) < sb ? -1 : 1;
        }
      }
    }
    if (!node->lock.Validate(version)) {
      return false;
    }
    if (cmp < 0) {
      return true;  // subtree entirely < start
    }
    if (cmp > 0) {
      sub_bounded = false;  // subtree entirely > start: take everything
    }
  }
  depth += plen;

  uint8_t bytes[256];
  uint64_t children[256];
  int cnt = ArtCollectSorted(node, bytes, children);
  if (!node->lock.Validate(version)) {
    return false;
  }
  uint8_t start_byte = sub_bounded ? start.At(depth) : 0;
  for (int i = 0; i < cnt && out->size() < limit; ++i) {
    if (sub_bounded && bytes[i] < start_byte) {
      continue;
    }
    bool child_bounded = sub_bounded && bytes[i] == start_byte;
    if (!ScanNode(children[i], depth + 1, start, child_bounded, limit, out)) {
      return false;
    }
    if (!node->lock.Validate(version)) {
      return false;
    }
  }
  return true;
}

void PdlArt::ForEach(const std::function<void(const Key&, uint64_t)>& fn) const {
  std::vector<std::pair<Key, uint64_t>> all;
  Scan(Key::Min(), ~size_t{0} >> 1, &all);
  for (const auto& [k, v] : all) {
    fn(k, v);
  }
}

uint64_t PdlArt::Size() const {
  uint64_t n = 0;
  ForEach([&](const Key&, uint64_t) { n++; });
  return n;
}

// ---------------------------------------------------------------------------
// Recovery (allocation-log GC)
// ---------------------------------------------------------------------------

bool PdlArt::IsReachableOnPath(uint64_t block_raw, const Key& key) const {
  uint64_t raw = root_->root_raw;
  uint32_t depth = 0;
  for (int hops = 0; hops < 64; ++hops) {
    if (ArtUntag(raw) == block_raw) {
      return true;
    }
    if (ArtIsLeaf(raw)) {
      return false;
    }
    ArtNode* node = NodeOf(raw);
    depth += node->prefix_len;
    if (depth >= Key::kMaxLen) {
      return false;
    }
    uint64_t child = ArtFindChild(node, key.At(depth));
    if (child == 0) {
      return false;
    }
    raw = child;
    depth += 1;
  }
  return false;
}

void PdlArt::Recover() {
  for (size_t i = 0; i < kArtAllocLogSlots; ++i) {
    ArtAllocLogEntry& e = root_->alloc_log[i];
    if (e.state == 0) {
      continue;
    }
    for (uint64_t block : e.blocks) {
      if (block != 0 && !IsReachableOnPath(ArtUntag(block), e.key)) {
        PmemFree(PPtr<void>(ArtUntag(block)));
      }
    }
    e.state = 0;
    PersistFence(&e.state, sizeof(e.state));
  }
}

}  // namespace pactree
