// Internal node variants and per-type operations for PDL-ART.
//
// Invariants load-bearing for optimistic concurrency:
//   * a node's prefix is immutable after construction (structural changes are
//     copy-on-write), so readers may copy it without atomics;
//   * child slots and key bytes are mutated only under the node's write lock,
//     through 1- or 8-byte stores readers re-validate against the version.
#ifndef PACTREE_SRC_ART_ART_NODES_H_
#define PACTREE_SRC_ART_ART_NODES_H_

#include <cstdint>

#include "src/art/art.h"

namespace pactree {

struct ArtNode4 {
  ArtNode hdr;
  uint8_t keys[4];
  uint8_t pad[4];
  uint64_t children[4];
};

struct ArtNode16 {
  ArtNode hdr;
  uint8_t keys[16];
  uint64_t children[16];
};

struct ArtNode48 {
  ArtNode hdr;
  uint8_t child_index[256];  // 0 = empty, else slot+1
  uint64_t children[48];
};

struct ArtNode256 {
  ArtNode hdr;
  uint64_t children[256];
};

size_t ArtNodeSize(uint8_t type);
uint16_t ArtNodeCapacity(uint8_t type);

// Returns the child pointer for byte |b| (0 if absent).
uint64_t ArtFindChild(const ArtNode* n, uint8_t b);

// Address of the slot holding byte |b|'s child, or nullptr. Caller holds the
// node's write lock (used for in-place pointer swings).
uint64_t* ArtChildSlot(ArtNode* n, uint8_t b);

// Adds (b -> child) in place with crash-ordered persists. Returns false when
// the node is full. Caller holds the write lock.
bool ArtAddChild(ArtNode* n, uint8_t b, uint64_t child);

// Removes byte |b|'s entry in place; returns false if absent. Caller holds the
// write lock.
bool ArtRemoveChild(ArtNode* n, uint8_t b);

// Greatest mapped byte strictly below limits / helpers for floor & scans.
// Returns the child and sets *byte; 0 if none.
uint64_t ArtMaxChildBelow(const ArtNode* n, int below_exclusive, uint8_t* byte);
uint64_t ArtMinChild(const ArtNode* n, uint8_t* byte);

// Copies entries into (bytes[], children[]) sorted by byte; returns count.
// Readers must validate the version afterwards.
int ArtCollectSorted(const ArtNode* n, uint8_t* bytes, uint64_t* children);

// Copies all of |src|'s entries into |dst| (fresh, unpublished node).
void ArtCopyEntries(const ArtNode* src, ArtNode* dst);

}  // namespace pactree

#endif  // PACTREE_SRC_ART_ART_NODES_H_
