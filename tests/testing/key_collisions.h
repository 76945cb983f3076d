// Distinct two-column Int64 join keys with equal JoinKeyHash, for the
// adversarial tests that check equality, not the hash, decides a match
// (hash join, view-maintenance key probes).
//
// The construction inverts the hash-combine chain, which requires
// knowing the combine formula: MirrorKeyHash mirrors JoinKeyHash and is
// asserted against it in join_key_test.cc, so any drift in the
// implementation fails loudly there instead of silently weakening the
// collision tests.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "relation/value.h"

namespace ongoingdb {
namespace key_collisions {

constexpr uint64_t kFnvSeed = 0xcbf29ce484222325ULL;
constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

inline uint64_t Combine(uint64_t seed, uint64_t h) {
  return seed ^ (h + kGolden + (seed << 6) + (seed >> 2));
}

inline uint64_t MirrorInt64ValueHash(int64_t v) {
  uint64_t tag_seed = std::hash<int64_t>{}(
      static_cast<int64_t>(ValueType::kInt64));
  return Combine(tag_seed, std::hash<int64_t>{}(v));
}

inline uint64_t MirrorKeyHash(const std::vector<int64_t>& key) {
  uint64_t h = kFnvSeed;
  for (int64_t v : key) h = Combine(h, MirrorInt64ValueHash(v));
  return h;
}

/// True when std::hash<int64_t> is the identity cast (the standard
/// libraries this builds against), which SolveSecondColumn requires.
inline bool Available() {
  return std::hash<int64_t>{}(int64_t{123456789}) == 123456789ULL;
}

/// Solves the combine chain backwards for the second key column: returns
/// d such that the two-column key (c, d) hashes to `target`. Requires
/// Available().
inline int64_t SolveSecondColumn(int64_t c, uint64_t target) {
  uint64_t h1 = Combine(kFnvSeed, MirrorInt64ValueHash(c));
  // Combine(h1, vh_d) == target  =>  vh_d:
  uint64_t vh_d = (h1 ^ target) - kGolden - (h1 << 6) - (h1 >> 2);
  // vh_d == Combine(tag_seed, std::hash(d))  =>  std::hash(d):
  uint64_t tag_seed = std::hash<int64_t>{}(
      static_cast<int64_t>(ValueType::kInt64));
  uint64_t hash_d = (tag_seed ^ vh_d) - kGolden - (tag_seed << 6) -
                    (tag_seed >> 2);
  return static_cast<int64_t>(hash_d);
}

}  // namespace key_collisions
}  // namespace ongoingdb
