// ChainedHashIndex: a flat, array-chained hash index over dense ids
// 0..size()-1 — typically the positions of a tuple vector. It stores one
// 64-bit hash per id plus an intrusive next-chain and power-of-two bucket
// heads: three contiguous vectors, O(1) allocations per (re)build, no
// node per entry. It never sees the keys themselves: a lookup walks the
// bucket chain of a hash, and the caller confirms each candidate with
// its own typed equality (HashAt() filters most of them first).
//
// Besides build-once use (the hash join's build side), the index follows
// an indexed sequence that is patched in place: Append mirrors a push to
// the back, SwapRemove mirrors removing an element by moving the last
// one into its slot (OngoingRelation::SwapRemove). Ids therefore stay
// equal to the positions they index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ongoingdb {

class ChainedHashIndex {
 public:
  static constexpr uint32_t kEnd = UINT32_MAX;

  /// Replaces the contents with ids 0..n-1, id i hashed to hash_of(i).
  /// Every bucket chain enumerates its ids in ascending order.
  template <typename HashOf>
  void Assign(size_t n, HashOf&& hash_of) {
    hashes_.resize(n);
    for (size_t i = 0; i < n; ++i) hashes_[i] = hash_of(i);
    Relink();
  }

  /// Adds id size() with `hash` (at the head of its bucket chain).
  void Append(size_t hash) {
    hashes_.push_back(hash);
    next_.push_back(kEnd);
    if (hashes_.size() * 2 > head_.size()) {
      Relink();
      return;
    }
    const uint32_t id = static_cast<uint32_t>(hashes_.size() - 1);
    uint32_t& head = head_[hash & mask_];
    next_[id] = head;
    head = id;
  }

  /// Removes `id` and moves the last id into its slot, keeping that
  /// entry's hash — the mirror of a swap-remove on the indexed sequence.
  /// Walks the (one or two) affected bucket chains.
  void SwapRemove(uint32_t id) {
    *LinkTo(id) = next_[id];
    const uint32_t last = static_cast<uint32_t>(hashes_.size() - 1);
    if (id != last) {
      *LinkTo(last) = id;
      next_[id] = next_[last];
      hashes_[id] = hashes_[last];
    }
    hashes_.pop_back();
    next_.pop_back();
  }

  void Clear() {
    hashes_.clear();
    Relink();
  }

  size_t size() const { return hashes_.size(); }

  /// The first id of `hash`'s bucket chain, or kEnd. The chain also
  /// holds ids of other hashes that share the bucket.
  uint32_t First(size_t hash) const { return head_[hash & mask_]; }
  uint32_t Next(uint32_t id) const { return next_[id]; }
  size_t HashAt(uint32_t id) const { return hashes_[id]; }

  /// The first id on `hash`'s chain whose stored hash equals `hash` and
  /// for which `eq(id)` holds, or kEnd.
  template <typename Eq>
  uint32_t Find(size_t hash, Eq&& eq) const {
    for (uint32_t id = First(hash); id != kEnd; id = next_[id]) {
      if (hashes_[id] == hash && eq(id)) return id;
    }
    return kEnd;
  }

 private:
  // Sizes the buckets to at least twice the entry count and rebuilds
  // every chain, inserting at the heads in reverse so chains ascend.
  void Relink() {
    const size_t n = hashes_.size();
    size_t buckets = 16;
    while (buckets < n * 2) buckets <<= 1;
    mask_ = buckets - 1;
    head_.assign(buckets, kEnd);
    next_.assign(n, kEnd);
    for (size_t i = n; i-- > 0;) {
      uint32_t& head = head_[hashes_[i] & mask_];
      next_[i] = head;
      head = static_cast<uint32_t>(i);
    }
  }

  // The link (bucket head or next-pointer) that currently points at id.
  uint32_t* LinkTo(uint32_t id) {
    uint32_t* link = &head_[hashes_[id] & mask_];
    while (*link != id) link = &next_[*link];
    return link;
  }

  std::vector<uint32_t> head_ = {kEnd};
  std::vector<uint32_t> next_;
  std::vector<size_t> hashes_;
  size_t mask_ = 0;
};

}  // namespace ongoingdb
