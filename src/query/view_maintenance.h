// Delta-driven maintenance of materialized ongoing views: instead of
// re-running the whole plan after every base modification (O(|base|)),
// the maintainer replays each base relation's ModificationLog
// (relation/relation.h) through per-operator delta rules and patches the
// cached view output in place — O(|delta|) work for small write batches.
//
// Deltas are signed tuple multisets: an insert is (+1, t), a removal is
// (-1, t); Torp's valid-time close decomposes into a removal of the open
// tuple plus an insert of the closed replacement. A tuple's multiset
// identity is typed: TupleHash/TupleEq (relation/tuple.h) — ValueEq per
// value plus RT equality, checked against the tuple already stored, so
// no per-tuple key is rendered or kept. Each operator kind pushes deltas
// through with exactly the semantics of its full evaluation:
//
//   Scan     the log entries themselves.
//   Filter   per delta tuple: rt' = rt ^ theta(t); drop if empty.
//   Project  project the values; RT unchanged (Theorem 2).
//   Join     over the *pre-state* cached inputs L0, R0:
//            dV = dL |x| R0  +  L0 |x| dR  +  dL |x| dR
//            (signs multiply in the cross term). When the predicate has
//            fixed equality conjuncts (PrepareEquiJoin, query/join.h),
//            every term probes a key-hash table — one per cached input,
//            one over dR for the cross term — built with the hash join's
//            own JoinKeyHash/JoinKeysEqual, and only the residual
//            predicate is evaluated per matching pair. A purely temporal
//            join instead probes a maintainer-owned IntervalIndex on the
//            cached inner for dL |x| R0 when its conjunct is
//            index-eligible (MatchIndexJoin, query/optimizer.h); its
//            other terms are nested loops.
//
// The apply protocol is three-phase so the query-lifecycle contract
// holds: Phase A computes all node deltas bottom-up without mutating any
// cache or the result (cancellation, deadline, budget and the
// `view.delta_apply` failpoint surface here, leaving everything
// pre-delta); Phase B validates that every removal is actually present
// (a mismatch means the caches drifted — the caller falls back to a full
// recompute); Phase C commits infallibly: caches with their position
// and key tables, the interval index of a temporal join (patched in
// place via ApplyInsert/ApplyRemove, or marked for rebuild once the
// applied-delta fraction passes a threshold), the view result, and the
// log cursors.
//
// Whether a pending batch is worth applying incrementally is a cost
// decision (PreferDeltaApply): per-join delta cost — a keyed probe at
// the mean key-bucket size of the probed input, an index probe estimated
// with the interval histograms of storage/stats.h — against the cost of
// a full recompute, plus a cap on the pending fraction of the base data.
// MaterializedView (query/materialized_view.h) consults it on every
// Refresh and silently recomputes when the answer is no.
#pragma once

#include <memory>
#include <vector>

#include "query/exec_context.h"
#include "query/plan.h"
#include "util/chained_hash_index.h"
#include "util/result.h"

namespace ongoingdb {

/// Incremental maintenance state of one materialized view: a shadow tree
/// of the plan holding log cursors at the scans, cached inputs with
/// their tuple-position and join-key tables (or an interval index) at
/// the joins, and a tuple-position table over the view result for
/// in-place patching. Not thread-safe; owned and serialized by the view
/// that created it.
class ViewDeltaMaintainer {
 public:
  /// Passkey: lets TryCreate use std::make_unique while keeping the
  /// class constructible only through the factory.
  struct Passkey {
    explicit Passkey() = default;
  };
  explicit ViewDeltaMaintainer(Passkey);

  /// Builds the shadow tree for `plan`, or returns nullptr when the plan
  /// is not maintainable: a scanned base relation has no modification
  /// log, a predicate is missing, or a projection name does not resolve.
  /// The maintainer is created un-ready; Reseed() after a full recompute
  /// makes it usable.
  static std::unique_ptr<ViewDeltaMaintainer> TryCreate(const PlanPtr& plan);

  ~ViewDeltaMaintainer();
  ViewDeltaMaintainer(const ViewDeltaMaintainer&) = delete;
  ViewDeltaMaintainer& operator=(const ViewDeltaMaintainer&) = delete;

  /// True once Reseed() has anchored the caches and cursors to a freshly
  /// recomputed result (and no Invalidate() since).
  bool ready() const { return ready_; }

  /// True when some base relation has logged changes past this
  /// maintainer's cursors — or replaced/detached its log entirely, which
  /// also means the view is stale (but see CanApplyIncrementally).
  bool HasPendingDeltas() const;

  /// True when every scan's log is still the one the maintainer anchored
  /// to and none has trimmed past its cursor, i.e. the pending changes
  /// are replayable. False forces the full-recompute path.
  bool CanApplyIncrementally() const;

  /// The cost gate: true when applying the pending deltas is estimated
  /// cheaper than recomputing the view, and the pending batch is a small
  /// fraction of the base data. Uses the cached input sizes, their
  /// distinct join-key counts and (temporal joins) the inner-column
  /// interval histograms captured at Reseed time.
  bool PreferDeltaApply() const;

  /// Anchors the maintainer to `result`, which must be a fresh full
  /// evaluation of the plan against the bases' current state: drains the
  /// join input subplans into the caches, (re)builds their position and
  /// key tables (or interval indexes and histograms), hashes the result
  /// positions, and advances every cursor to its log's next sequence. On
  /// error the maintainer is left un-ready (the view keeps working
  /// through full recomputes).
  Status Reseed(const OngoingRelation& result, QueryContext* ctx);

  /// Applies everything logged since the cursors to `*result` in place.
  /// Returns true on success, false when the apply should not or could
  /// not proceed (not ready, log trimmed, or a Phase-B validation
  /// mismatch) — the caller recomputes instead. An error Status (a
  /// lifecycle event, the `view.delta_apply` failpoint, an evaluation
  /// failure) leaves `*result`, the caches, and the cursors exactly
  /// pre-delta, so the view keeps serving its previous materialization.
  Result<bool> ApplyPending(OngoingRelation* result, QueryContext* ctx);

  /// Drops the anchored state (caches, tables, indexes) and marks the
  /// maintainer un-ready until the next Reseed().
  void Invalidate();

 private:
  struct DeltaNode;
  struct KeyTable;

  /// One signed element of a tuple-multiset delta.
  struct DeltaEntry {
    int sign = 1;  // +1 insert, -1 remove
    Tuple tuple;
  };

  /// Net count change of one distinct delta tuple, with a representative
  /// to insert (borrowed from the delta vector that produced the net).
  struct NetDelta {
    size_t hash = 0;  // TupleHash(*rep)
    long long net = 0;
    const Tuple* rep = nullptr;
  };
  /// A node's netted delta: one entry per distinct tuple (TupleEq),
  /// indexed by TupleHash.
  struct NetSet {
    std::vector<NetDelta> entries;
    ChainedHashIndex index;
    void Clear() {
      entries.clear();
      index.Clear();
    }
  };

  static std::unique_ptr<DeltaNode> BuildNode(const PlanPtr& plan);
  static Status ReseedNode(DeltaNode* node, QueryContext* ctx);
  static bool NodeHasPending(const DeltaNode* node);
  static bool NodeCanApply(const DeltaNode* node);
  static double CostWalk(const DeltaNode* node, double* delta_cost,
                         double* recompute_cost, double* pending,
                         double* base_total);
  static Status ComputeDelta(DeltaNode* node, QueryContext* ctx,
                             MemoryCharge* charge);
  static Status EmitJoinPair(DeltaNode* node, const Tuple& lt,
                             const Tuple& rt, int sign, MemoryCharge* charge);
  static void BuildNets(DeltaNode* node);
  static bool ValidateTree(const DeltaNode* node);
  static void CommitTree(DeltaNode* node);
  static void ClearDeltas(DeltaNode* node);
  static bool ValidateNet(const OngoingRelation& rel,
                          const ChainedHashIndex& positions, const NetSet& net);
  static void CommitInto(OngoingRelation* rel, ChainedHashIndex* positions,
                         KeyTable* keys, const NetSet& net,
                         DeltaNode* index_owner);

  std::unique_ptr<DeltaNode> root_;
  ChainedHashIndex root_positions_;  // TupleHash per result position
  bool ready_ = false;
};

}  // namespace ongoingdb
