#include "src/art/art_nodes.h"

#include <cstring>

#include "src/nvm/persist.h"

namespace pactree {
namespace {

inline std::atomic_ref<uint64_t> Slot(uint64_t* p) { return std::atomic_ref<uint64_t>(*p); }
inline uint64_t LoadSlot(const uint64_t* p) {
  return std::atomic_ref<uint64_t>(*const_cast<uint64_t*>(p)).load(std::memory_order_acquire);
}
inline uint8_t LoadByte(const uint8_t* p) {
  return std::atomic_ref<uint8_t>(*const_cast<uint8_t*>(p)).load(std::memory_order_acquire);
}
inline void StoreByte(uint8_t* p, uint8_t v) {
  std::atomic_ref<uint8_t>(*p).store(v, std::memory_order_release);
}
inline uint16_t LoadCount(const ArtNode* n) {
  return std::atomic_ref<uint16_t>(const_cast<ArtNode*>(n)->count).load(std::memory_order_acquire);
}
inline void StoreCount(ArtNode* n, uint16_t c) {
  std::atomic_ref<uint16_t>(n->count).store(c, std::memory_order_release);
}

}  // namespace

size_t ArtNodeSize(uint8_t type) {
  switch (type) {
    case kArtN4:
      return sizeof(ArtNode4);
    case kArtN16:
      return sizeof(ArtNode16);
    case kArtN48:
      return sizeof(ArtNode48);
    case kArtN256:
      return sizeof(ArtNode256);
  }
  return 0;
}

uint16_t ArtNodeCapacity(uint8_t type) {
  switch (type) {
    case kArtN4:
      return 4;
    case kArtN16:
      return 16;
    case kArtN48:
      return 48;
    case kArtN256:
      return 256;
  }
  return 0;
}

uint64_t ArtFindChild(const ArtNode* n, uint8_t b) {
  switch (n->type) {
    case kArtN4: {
      const auto* n4 = reinterpret_cast<const ArtNode4*>(n);
      uint16_t cnt = LoadCount(n);
      for (uint16_t i = 0; i < cnt && i < 4; ++i) {
        if (LoadByte(&n4->keys[i]) == b) {
          return LoadSlot(&n4->children[i]);
        }
      }
      return 0;
    }
    case kArtN16: {
      const auto* n16 = reinterpret_cast<const ArtNode16*>(n);
      uint16_t cnt = LoadCount(n);
      for (uint16_t i = 0; i < cnt && i < 16; ++i) {
        if (LoadByte(&n16->keys[i]) == b) {
          return LoadSlot(&n16->children[i]);
        }
      }
      return 0;
    }
    case kArtN48: {
      const auto* n48 = reinterpret_cast<const ArtNode48*>(n);
      uint8_t idx = LoadByte(&n48->child_index[b]);
      if (idx == 0) {
        return 0;
      }
      return LoadSlot(&n48->children[idx - 1]);
    }
    case kArtN256: {
      const auto* n256 = reinterpret_cast<const ArtNode256*>(n);
      return LoadSlot(&n256->children[b]);
    }
  }
  return 0;
}

uint64_t* ArtChildSlot(ArtNode* n, uint8_t b) {
  switch (n->type) {
    case kArtN4: {
      auto* n4 = reinterpret_cast<ArtNode4*>(n);
      for (uint16_t i = 0; i < n->count; ++i) {
        if (n4->keys[i] == b) {
          return &n4->children[i];
        }
      }
      return nullptr;
    }
    case kArtN16: {
      auto* n16 = reinterpret_cast<ArtNode16*>(n);
      for (uint16_t i = 0; i < n->count; ++i) {
        if (n16->keys[i] == b) {
          return &n16->children[i];
        }
      }
      return nullptr;
    }
    case kArtN48: {
      auto* n48 = reinterpret_cast<ArtNode48*>(n);
      uint8_t idx = n48->child_index[b];
      return idx == 0 ? nullptr : &n48->children[idx - 1];
    }
    case kArtN256: {
      auto* n256 = reinterpret_cast<ArtNode256*>(n);
      return n256->children[b] != 0 ? &n256->children[b] : nullptr;
    }
  }
  return nullptr;
}

bool ArtAddChild(ArtNode* n, uint8_t b, uint64_t child) {
  switch (n->type) {
    case kArtN4:
    case kArtN16: {
      uint16_t cap = ArtNodeCapacity(n->type);
      if (n->count >= cap) {
        return false;
      }
      uint8_t* keys = n->type == kArtN4 ? reinterpret_cast<ArtNode4*>(n)->keys
                                        : reinterpret_cast<ArtNode16*>(n)->keys;
      uint64_t* children = n->type == kArtN4 ? reinterpret_cast<ArtNode4*>(n)->children
                                             : reinterpret_cast<ArtNode16*>(n)->children;
      uint16_t slot = n->count;
      StoreByte(&keys[slot], b);
      Slot(&children[slot]).store(child, std::memory_order_release);
      // Persist the entry before making it visible through count (GA4: the
      // count store is the single-word visibility/durability pivot).
      PersistRange(&keys[slot], 1);
      PersistFence(&children[slot], sizeof(uint64_t));
      StoreCount(n, slot + 1);
      PersistFence(&n->count, sizeof(n->count));
      return true;
    }
    case kArtN48: {
      auto* n48 = reinterpret_cast<ArtNode48*>(n);
      if (n->count >= 48) {
        return false;
      }
      int slot = -1;
      for (int i = 0; i < 48; ++i) {
        if (n48->children[i] == 0) {
          slot = i;
          break;
        }
      }
      if (slot < 0) {
        return false;
      }
      Slot(&n48->children[slot]).store(child, std::memory_order_release);
      PersistFence(&n48->children[slot], sizeof(uint64_t));
      std::atomic_ref<uint8_t>(n48->child_index[b])
          .store(static_cast<uint8_t>(slot + 1), std::memory_order_release);
      PersistFence(&n48->child_index[b], 1);
      StoreCount(n, n->count + 1);
      PersistFence(&n->count, sizeof(n->count));
      return true;
    }
    case kArtN256: {
      auto* n256 = reinterpret_cast<ArtNode256*>(n);
      Slot(&n256->children[b]).store(child, std::memory_order_release);
      PersistFence(&n256->children[b], sizeof(uint64_t));
      StoreCount(n, n->count + 1);
      PersistFence(&n->count, sizeof(n->count));
      return true;
    }
  }
  return false;
}

bool ArtRemoveChild(ArtNode* n, uint8_t b) {
  switch (n->type) {
    case kArtN4:
    case kArtN16: {
      uint8_t* keys = n->type == kArtN4 ? reinterpret_cast<ArtNode4*>(n)->keys
                                        : reinterpret_cast<ArtNode16*>(n)->keys;
      uint64_t* children = n->type == kArtN4 ? reinterpret_cast<ArtNode4*>(n)->children
                                             : reinterpret_cast<ArtNode16*>(n)->children;
      for (uint16_t i = 0; i < n->count; ++i) {
        if (keys[i] == b) {
          uint16_t last = n->count - 1;
          // Swap-remove: copy the last entry over the hole, persist, then
          // shrink count. A crash in between leaves a duplicate entry past the
          // new count, which is invisible.
          StoreByte(&keys[i], keys[last]);
          Slot(&children[i]).store(children[last], std::memory_order_release);
          PersistRange(&keys[i], 1);
          PersistFence(&children[i], sizeof(uint64_t));
          StoreCount(n, last);
          PersistFence(&n->count, sizeof(n->count));
          Slot(&children[last]).store(0, std::memory_order_release);
          return true;
        }
      }
      return false;
    }
    case kArtN48: {
      auto* n48 = reinterpret_cast<ArtNode48*>(n);
      uint8_t idx = n48->child_index[b];
      if (idx == 0) {
        return false;
      }
      std::atomic_ref<uint8_t>(n48->child_index[b]).store(0, std::memory_order_release);
      PersistFence(&n48->child_index[b], 1);
      Slot(&n48->children[idx - 1]).store(0, std::memory_order_release);
      PersistFence(&n48->children[idx - 1], sizeof(uint64_t));
      StoreCount(n, n->count - 1);
      PersistFence(&n->count, sizeof(n->count));
      return true;
    }
    case kArtN256: {
      auto* n256 = reinterpret_cast<ArtNode256*>(n);
      if (n256->children[b] == 0) {
        return false;
      }
      Slot(&n256->children[b]).store(0, std::memory_order_release);
      PersistFence(&n256->children[b], sizeof(uint64_t));
      StoreCount(n, n->count - 1);
      PersistFence(&n->count, sizeof(n->count));
      return true;
    }
  }
  return false;
}

uint64_t ArtMaxChildBelow(const ArtNode* n, int below_exclusive, uint8_t* byte) {
  int best = -1;
  uint64_t best_child = 0;
  switch (n->type) {
    case kArtN4:
    case kArtN16: {
      const uint8_t* keys = n->type == kArtN4
                                ? reinterpret_cast<const ArtNode4*>(n)->keys
                                : reinterpret_cast<const ArtNode16*>(n)->keys;
      const uint64_t* children = n->type == kArtN4
                                     ? reinterpret_cast<const ArtNode4*>(n)->children
                                     : reinterpret_cast<const ArtNode16*>(n)->children;
      uint16_t cnt = LoadCount(n);
      uint16_t cap = ArtNodeCapacity(n->type);
      for (uint16_t i = 0; i < cnt && i < cap; ++i) {
        int k = LoadByte(&keys[i]);
        if (k < below_exclusive && k > best) {
          uint64_t c = LoadSlot(&children[i]);
          if (c != 0) {
            best = k;
            best_child = c;
          }
        }
      }
      break;
    }
    case kArtN48: {
      const auto* n48 = reinterpret_cast<const ArtNode48*>(n);
      for (int k = below_exclusive - 1; k >= 0; --k) {
        uint8_t idx = LoadByte(&n48->child_index[k]);
        if (idx != 0) {
          uint64_t c = LoadSlot(&n48->children[idx - 1]);
          if (c != 0) {
            best = k;
            best_child = c;
            break;
          }
        }
      }
      break;
    }
    case kArtN256: {
      const auto* n256 = reinterpret_cast<const ArtNode256*>(n);
      for (int k = below_exclusive - 1; k >= 0; --k) {
        uint64_t c = LoadSlot(&n256->children[k]);
        if (c != 0) {
          best = k;
          best_child = c;
          break;
        }
      }
      break;
    }
  }
  if (best < 0) {
    return 0;
  }
  *byte = static_cast<uint8_t>(best);
  return best_child;
}

uint64_t ArtMinChild(const ArtNode* n, uint8_t* byte) {
  int best = 256;
  uint64_t best_child = 0;
  switch (n->type) {
    case kArtN4:
    case kArtN16: {
      const uint8_t* keys = n->type == kArtN4
                                ? reinterpret_cast<const ArtNode4*>(n)->keys
                                : reinterpret_cast<const ArtNode16*>(n)->keys;
      const uint64_t* children = n->type == kArtN4
                                     ? reinterpret_cast<const ArtNode4*>(n)->children
                                     : reinterpret_cast<const ArtNode16*>(n)->children;
      uint16_t cnt = LoadCount(n);
      uint16_t cap = ArtNodeCapacity(n->type);
      for (uint16_t i = 0; i < cnt && i < cap; ++i) {
        int k = LoadByte(&keys[i]);
        if (k < best) {
          uint64_t c = LoadSlot(&children[i]);
          if (c != 0) {
            best = k;
            best_child = c;
          }
        }
      }
      break;
    }
    case kArtN48: {
      const auto* n48 = reinterpret_cast<const ArtNode48*>(n);
      for (int k = 0; k < 256; ++k) {
        uint8_t idx = LoadByte(&n48->child_index[k]);
        if (idx != 0) {
          uint64_t c = LoadSlot(&n48->children[idx - 1]);
          if (c != 0) {
            best = k;
            best_child = c;
            break;
          }
        }
      }
      break;
    }
    case kArtN256: {
      const auto* n256 = reinterpret_cast<const ArtNode256*>(n);
      for (int k = 0; k < 256; ++k) {
        uint64_t c = LoadSlot(&n256->children[k]);
        if (c != 0) {
          best = k;
          best_child = c;
          break;
        }
      }
      break;
    }
  }
  if (best > 255) {
    return 0;
  }
  *byte = static_cast<uint8_t>(best);
  return best_child;
}

int ArtCollectSorted(const ArtNode* n, uint8_t* bytes, uint64_t* children) {
  int count = 0;
  switch (n->type) {
    case kArtN4:
    case kArtN16: {
      const uint8_t* keys = n->type == kArtN4
                                ? reinterpret_cast<const ArtNode4*>(n)->keys
                                : reinterpret_cast<const ArtNode16*>(n)->keys;
      const uint64_t* kids = n->type == kArtN4
                                 ? reinterpret_cast<const ArtNode4*>(n)->children
                                 : reinterpret_cast<const ArtNode16*>(n)->children;
      uint16_t cnt = LoadCount(n);
      uint16_t cap = ArtNodeCapacity(n->type);
      for (uint16_t i = 0; i < cnt && i < cap; ++i) {
        uint64_t c = LoadSlot(&kids[i]);
        if (c != 0) {
          bytes[count] = LoadByte(&keys[i]);
          children[count] = c;
          count++;
        }
      }
      // Insertion sort by byte (<=16 entries).
      for (int i = 1; i < count; ++i) {
        uint8_t b = bytes[i];
        uint64_t c = children[i];
        int j = i - 1;
        while (j >= 0 && bytes[j] > b) {
          bytes[j + 1] = bytes[j];
          children[j + 1] = children[j];
          --j;
        }
        bytes[j + 1] = b;
        children[j + 1] = c;
      }
      return count;
    }
    case kArtN48: {
      const auto* n48 = reinterpret_cast<const ArtNode48*>(n);
      for (int k = 0; k < 256; ++k) {
        uint8_t idx = LoadByte(&n48->child_index[k]);
        if (idx != 0) {
          uint64_t c = LoadSlot(&n48->children[idx - 1]);
          if (c != 0) {
            bytes[count] = static_cast<uint8_t>(k);
            children[count] = c;
            count++;
          }
        }
      }
      return count;
    }
    case kArtN256: {
      const auto* n256 = reinterpret_cast<const ArtNode256*>(n);
      for (int k = 0; k < 256; ++k) {
        uint64_t c = LoadSlot(&n256->children[k]);
        if (c != 0) {
          bytes[count] = static_cast<uint8_t>(k);
          children[count] = c;
          count++;
        }
      }
      return count;
    }
  }
  return 0;
}

void ArtCopyEntries(const ArtNode* src, ArtNode* dst) {
  uint8_t bytes[256];
  uint64_t children[256];
  int cnt = ArtCollectSorted(src, bytes, children);
  for (int i = 0; i < cnt; ++i) {
    switch (dst->type) {
      case kArtN4: {
        auto* d = reinterpret_cast<ArtNode4*>(dst);
        d->keys[dst->count] = bytes[i];
        d->children[dst->count] = children[i];
        break;
      }
      case kArtN16: {
        auto* d = reinterpret_cast<ArtNode16*>(dst);
        d->keys[dst->count] = bytes[i];
        d->children[dst->count] = children[i];
        break;
      }
      case kArtN48: {
        auto* d = reinterpret_cast<ArtNode48*>(dst);
        d->children[dst->count] = children[i];
        d->child_index[bytes[i]] = static_cast<uint8_t>(dst->count + 1);
        break;
      }
      case kArtN256: {
        auto* d = reinterpret_cast<ArtNode256*>(dst);
        d->children[bytes[i]] = children[i];
        break;
      }
    }
    dst->count++;
  }
}

}  // namespace pactree
