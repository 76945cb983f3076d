#include "query/view_maintenance.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "query/interval_index.h"
#include "query/join.h"
#include "query/optimizer.h"
#include "query/physical.h"
#include "storage/stats.h"
#include "util/failpoint.h"

namespace ongoingdb {

namespace {

// The delta-apply fault seam: planted at the top of ApplyPending, before
// Phase A touches any log. A triggered failure proves the all-or-nothing
// contract — the view result, the caches, and the cursors stay exactly
// pre-delta, and the next (disarmed) refresh converges.
Failpoint& fp_view_delta_apply = Failpoint::GetOrCreate("view.delta_apply");

// Deltas below this fraction of the base data are candidates for
// incremental apply; larger batches recompute (the crossover the
// view_refresh bench locates sits well above this for join plans).
constexpr double kMaxPendingFraction = 0.25;

// Once this fraction of a cached inner has been patched in place, the
// owned interval index is rebuilt instead of patched further (each
// in-place patch is O(n) in the worst case, so unbounded patching would
// quietly degrade probes).
constexpr double kIndexRebuildFraction = 0.10;

// Cost-unit ratio between one swept index entry (a couple of integer
// comparisons against the probe bounds) and one tuple of recompute work
// (a full pull through the operator pipeline: batch staging, predicate
// evaluation, copies). Discounting the sweep term by this keeps the
// cost gate from recomputing small batches whose probes sweep a wide
// start-range but match almost nothing — the measured imbalance in
// bench/view_refresh.cc is well above 16x, so this is still
// conservative.
constexpr double kSweptEntryCostDiscount = 16.0;

// Calls fn(id, tuple) for every entry of a key-hash table whose join key
// equals the probe's: candidates share the probe's JoinKeyHash and
// JoinKeysEqual confirms them, as in the hash join.
template <typename TupleAt, typename Fn>
Status ForEachKeyMatch(const ChainedHashIndex& table, TupleAt&& tuple_at,
                       const std::vector<size_t>& table_columns,
                       const Tuple& probe,
                       const std::vector<size_t>& probe_columns, Fn&& fn) {
  const size_t hash = JoinKeyHash(probe, probe_columns);
  for (uint32_t id = table.First(hash); id != ChainedHashIndex::kEnd;
       id = table.Next(id)) {
    if (table.HashAt(id) != hash) continue;
    const Tuple& t = tuple_at(id);
    if (!JoinKeysEqual(probe, probe_columns, t, table_columns)) continue;
    ONGOINGDB_RETURN_NOT_OK(fn(id, t));
  }
  return Status::OK();
}

// Indexes every position of `rel` by TupleHash: the table a multiset
// removal finds its tuple through.
void HashPositions(const OngoingRelation& rel, ChainedHashIndex* out) {
  out->Assign(rel.size(), [&](size_t i) { return TupleHash(rel.tuple(i)); });
}

// Median fence of an equi-depth histogram (0 when empty).
TimePoint HistMedian(const EquiDepthHistogram& h) {
  if (h.empty()) return 0;
  return h.fences[h.fences.size() / 2];
}

}  // namespace

// The equality-key table of one cached join input: JoinKeyHash of each
// position's key columns, kept in step with the cache like its tuple
// positions. Empty `columns` means the join is not keyed.
struct ViewDeltaMaintainer::KeyTable {
  std::vector<size_t> columns;
  ChainedHashIndex index;
  size_t distinct = 0;  // distinct keys at the last Reseed

  void Rebuild(const OngoingRelation& rel) {
    if (columns.empty()) return;
    index.Assign(rel.size(), [&](size_t i) {
      return JoinKeyHash(rel.tuple(i), columns);
    });
    // Fresh chains ascend, so a key is new iff no smaller id on its
    // chain carries it.
    distinct = 0;
    for (uint32_t i = 0; i < rel.size(); ++i) {
      const size_t hash = index.HashAt(i);
      bool seen = false;
      for (uint32_t j = index.First(hash); j < i && !seen; j = index.Next(j)) {
        seen = index.HashAt(j) == hash &&
               JoinKeysEqual(rel.tuple(j), columns, rel.tuple(i), columns);
      }
      if (!seen) ++distinct;
    }
  }

  void Clear() {
    index.Clear();
    distinct = 0;
  }
};

// One node of the shadow tree. `left` doubles as the single child of
// Filter/Project nodes.
struct ViewDeltaMaintainer::DeltaNode {
  // A cached join input: the materialized pre-state relation plus the
  // tables that follow its in-place patches.
  struct CachedInput {
    OngoingRelation rel;
    ChainedHashIndex positions;  // TupleHash per position
    KeyTable keys;

    void Anchor(OngoingRelation r) {
      rel = std::move(r);
      HashPositions(rel, &positions);
      keys.Rebuild(rel);
    }

    void Clear() {
      rel = OngoingRelation();
      positions.Clear();
      keys.Clear();
    }
  };

  PlanKind kind = PlanKind::kScan;
  PlanPtr plan;   // the mirrored logical node (keeps the plan alive)
  Schema schema;  // output schema under ongoing semantics

  // Scan.
  const OngoingRelation* base = nullptr;
  std::shared_ptr<ModificationLog> log;
  uint64_t cursor = 1;          // next log sequence not yet applied
  uint64_t consumed_until = 1;  // Phase A high-water mark, committed in C

  // Filter: the predicate. Join: the per-pair predicate — the residual
  // of the equality keys (nullptr when every conjunct is a key), or the
  // whole predicate when the join is not keyed.
  ExprPtr predicate;

  // Project: resolved ordinals into the child schema.
  std::vector<size_t> indices;

  // Children (Filter/Project use `left` only).
  std::unique_ptr<DeltaNode> left, right;

  // Join. The key columns live in the caches' key tables; a temporal
  // (not keyed) join may own an interval index over the cached inner.
  CachedInput left_cache, right_cache;
  std::optional<IndexJoinInfo> index_info;
  std::optional<IntervalIndex> index;  // over right_cache.rel
  std::optional<IntervalColumnStats> inner_stats;
  bool index_needs_rebuild = false;
  size_t index_deltas_applied = 0;

  bool keyed() const { return !left_cache.keys.columns.empty(); }

  // Transient per-ApplyPending state (cleared on every exit path).
  std::vector<DeltaEntry> delta;
  NetSet net;
};

ViewDeltaMaintainer::ViewDeltaMaintainer(Passkey) {}
ViewDeltaMaintainer::~ViewDeltaMaintainer() = default;

// --- construction -----------------------------------------------------------

std::unique_ptr<ViewDeltaMaintainer::DeltaNode> ViewDeltaMaintainer::BuildNode(
    const PlanPtr& plan) {
  if (plan == nullptr) return nullptr;
  auto n = std::make_unique<DeltaNode>();
  n->kind = plan->kind();
  n->plan = plan;
  switch (plan->kind()) {
    case PlanKind::kScan: {
      const auto* scan = static_cast<const ScanNode*>(plan.get());
      n->base = &scan->relation();
      n->log = n->base->SharedModificationLog();
      if (n->log == nullptr) return nullptr;
      n->cursor = n->log->next_seq();
      n->schema = n->base->schema();
      return n;
    }
    case PlanKind::kFilter: {
      const auto* filter = static_cast<const FilterNode*>(plan.get());
      n->left = BuildNode(filter->child());
      if (n->left == nullptr) return nullptr;
      n->predicate = filter->predicate();
      if (n->predicate == nullptr) return nullptr;
      n->schema = n->left->schema;
      return n;
    }
    case PlanKind::kProject: {
      const auto* project = static_cast<const ProjectNode*>(plan.get());
      n->left = BuildNode(project->child());
      if (n->left == nullptr) return nullptr;
      for (const std::string& name : project->names()) {
        Result<size_t> idx = n->left->schema.IndexOf(name);
        if (!idx.ok()) return nullptr;
        n->indices.push_back(*idx);
      }
      n->schema = n->left->schema.Project(n->indices);
      return n;
    }
    case PlanKind::kJoin: {
      const auto* join = static_cast<const JoinNode*>(plan.get());
      n->left = BuildNode(join->left());
      n->right = BuildNode(join->right());
      if (n->left == nullptr || n->right == nullptr) return nullptr;
      if (join->predicate() == nullptr) return nullptr;
      Result<EquiJoinPlan> equi =
          PrepareEquiJoin(n->left->schema, n->right->schema,
                          join->predicate(), join->left_prefix(),
                          join->right_prefix());
      if (!equi.ok()) return nullptr;
      n->schema = std::move(equi->joined);
      n->predicate = std::move(equi->residual);
      if (equi->has_keys) {
        n->left_cache.keys.columns = std::move(equi->left_indices);
        n->right_cache.keys.columns = std::move(equi->right_indices);
      } else {
        n->index_info =
            MatchIndexJoin(*join, n->left->schema, n->right->schema);
      }
      return n;
    }
  }
  return nullptr;
}

std::unique_ptr<ViewDeltaMaintainer> ViewDeltaMaintainer::TryCreate(
    const PlanPtr& plan) {
  std::unique_ptr<DeltaNode> root = BuildNode(plan);
  if (root == nullptr) return nullptr;
  auto m = std::make_unique<ViewDeltaMaintainer>(Passkey{});
  m->root_ = std::move(root);
  return m;
}

// --- reseed -----------------------------------------------------------------

Status ViewDeltaMaintainer::ReseedNode(DeltaNode* n, QueryContext* ctx) {
  switch (n->kind) {
    case PlanKind::kScan: {
      ModificationLog* cur = n->base->modification_log();
      if (cur == nullptr) {
        return Status::Internal(
            "view maintenance: scanned relation lost its modification log");
      }
      n->log = n->base->SharedModificationLog();
      n->cursor = cur->next_seq();
      return Status::OK();
    }
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return ReseedNode(n->left.get(), ctx);
    case PlanKind::kJoin: {
      ONGOINGDB_RETURN_NOT_OK(ReseedNode(n->left.get(), ctx));
      ONGOINGDB_RETURN_NOT_OK(ReseedNode(n->right.get(), ctx));
      ONGOINGDB_ASSIGN_OR_RETURN(
          PhysicalOpPtr lop,
          Compile(n->left->plan, ExecMode::kOngoing, 0, ctx));
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingRelation lrel,
                                 DrainToRelation(*lop, ctx));
      ONGOINGDB_ASSIGN_OR_RETURN(
          PhysicalOpPtr rop,
          Compile(n->right->plan, ExecMode::kOngoing, 0, ctx));
      ONGOINGDB_ASSIGN_OR_RETURN(OngoingRelation rrel,
                                 DrainToRelation(*rop, ctx));
      n->left_cache.Anchor(std::move(lrel));
      n->right_cache.Anchor(std::move(rrel));
      n->index.reset();
      n->inner_stats.reset();
      n->index_needs_rebuild = false;
      n->index_deltas_applied = 0;
      if (n->index_info.has_value()) {
        Result<IntervalIndex> built = IntervalIndex::Build(
            n->right_cache.rel, n->index_info->inner_column);
        if (built.ok()) n->index.emplace(std::move(built).ValueOrDie());
        Result<IntervalColumnStats> stats = ComputeIntervalColumnStats(
            n->right_cache.rel, n->index_info->inner_column_index);
        if (stats.ok()) n->inner_stats.emplace(std::move(stats).ValueOrDie());
      }
      return Status::OK();
    }
  }
  return Status::Internal("view maintenance: unknown plan node kind");
}

Status ViewDeltaMaintainer::Reseed(const OngoingRelation& result,
                                   QueryContext* ctx) {
  ready_ = false;
  ONGOINGDB_RETURN_NOT_OK(ReseedNode(root_.get(), ctx));
  HashPositions(result, &root_positions_);
  ready_ = true;
  return Status::OK();
}

void ViewDeltaMaintainer::Invalidate() {
  ready_ = false;
  root_positions_.Clear();
  // Drop anchored bulk state so an invalidated maintainer does not pin
  // stale copies of the join inputs.
  struct Dropper {
    static void Drop(DeltaNode* n) {
      if (n == nullptr) return;
      n->delta.clear();
      n->net.Clear();
      n->left_cache.Clear();
      n->right_cache.Clear();
      n->index.reset();
      n->inner_stats.reset();
      n->index_needs_rebuild = false;
      n->index_deltas_applied = 0;
      Drop(n->left.get());
      Drop(n->right.get());
    }
  };
  Dropper::Drop(root_.get());
}

// --- staleness and cost gating ----------------------------------------------

bool ViewDeltaMaintainer::NodeHasPending(const DeltaNode* n) {
  switch (n->kind) {
    case PlanKind::kScan: {
      ModificationLog* cur = n->base->modification_log();
      if (cur != n->log.get()) return true;  // detached or replaced
      return cur->next_seq() > n->cursor;
    }
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return NodeHasPending(n->left.get());
    case PlanKind::kJoin:
      return NodeHasPending(n->left.get()) || NodeHasPending(n->right.get());
  }
  return false;
}

bool ViewDeltaMaintainer::HasPendingDeltas() const {
  return ready_ && NodeHasPending(root_.get());
}

bool ViewDeltaMaintainer::NodeCanApply(const DeltaNode* n) {
  switch (n->kind) {
    case PlanKind::kScan: {
      ModificationLog* cur = n->base->modification_log();
      return cur != nullptr && cur == n->log.get() &&
             n->cursor >= cur->first_available_seq();
    }
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return NodeCanApply(n->left.get());
    case PlanKind::kJoin:
      return NodeCanApply(n->left.get()) && NodeCanApply(n->right.get());
  }
  return false;
}

bool ViewDeltaMaintainer::CanApplyIncrementally() const {
  return ready_ && NodeCanApply(root_.get());
}

// Returns the node's delta-size estimate while accumulating the cost
// terms: delta_cost charges each join for its three delta terms (a keyed
// probe meets the mean key bucket of the probed input, |cache| / distinct
// keys; an index probe is estimated via the sweep fraction), and
// recompute_cost charges scans and join inputs linearly — the shape of a
// full re-evaluation.
double ViewDeltaMaintainer::CostWalk(const DeltaNode* n, double* delta_cost,
                                     double* recompute_cost, double* pending,
                                     double* base_total) {
  switch (n->kind) {
    case PlanKind::kScan: {
      ModificationLog* cur = n->base->modification_log();
      const double p =
          (cur == n->log.get() && cur != nullptr && cur->next_seq() > n->cursor)
              ? static_cast<double>(cur->next_seq() - n->cursor)
              : 0.0;
      *pending += p;
      *delta_cost += p;
      *base_total += static_cast<double>(n->base->size());
      *recompute_cost += static_cast<double>(n->base->size());
      return p;
    }
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return CostWalk(n->left.get(), delta_cost, recompute_cost, pending,
                      base_total);
    case PlanKind::kJoin: {
      const double dl = CostWalk(n->left.get(), delta_cost, recompute_cost,
                                 pending, base_total);
      const double dr = CostWalk(n->right.get(), delta_cost, recompute_cost,
                                 pending, base_total);
      const double l0 = static_cast<double>(n->left_cache.rel.size());
      const double r0 = static_cast<double>(n->right_cache.rel.size());
      *recompute_cost += l0 + r0;
      if (n->keyed()) {
        const double left_keys = std::max<double>(
            1.0, static_cast<double>(n->left_cache.keys.distinct));
        const double right_keys = std::max<double>(
            1.0, static_cast<double>(n->right_cache.keys.distinct));
        const double matches =
            dl * r0 / right_keys + l0 * dr / left_keys + dl * dr / right_keys;
        *delta_cost += dl + dr + matches;
        return matches;
      }
      double per_probe = r0;
      if (n->index.has_value() && !n->index_needs_rebuild) {
        double sweep = 1.0;
        if (n->inner_stats.has_value()) {
          const IntervalColumnStats& s = *n->inner_stats;
          const IntervalBounds probe{
              HistMedian(s.min_start), HistMedian(s.max_start),
              HistMedian(s.min_end), HistMedian(s.max_end)};
          sweep = s.EstimateSweepFraction(n->index_info->op, probe);
        }
        per_probe = std::max(r0 > 1.0 ? std::log2(r0) : 1.0,
                             sweep * r0 / kSweptEntryCostDiscount);
      }
      *delta_cost += dl * per_probe + l0 * dr + dl * dr;
      return dl * r0 + l0 * dr + dl * dr;
    }
  }
  return 0.0;
}

bool ViewDeltaMaintainer::PreferDeltaApply() const {
  if (!ready_) return false;
  double delta_cost = 0, recompute_cost = 0, pending = 0, base_total = 0;
  (void)CostWalk(root_.get(), &delta_cost, &recompute_cost, &pending,
                 &base_total);
  if (pending <= 0) return true;  // nothing to do is always cheap
  if (pending > kMaxPendingFraction * std::max(1.0, base_total)) return false;
  return delta_cost < recompute_cost;
}

// --- Phase A: delta computation ---------------------------------------------

Status ViewDeltaMaintainer::EmitJoinPair(DeltaNode* n, const Tuple& lt,
                                         const Tuple& rt, int sign,
                                         MemoryCharge* charge) {
  IntervalSet joined_rt = lt.rt().Intersect(rt.rt());
  if (joined_rt.IsEmpty()) return Status::OK();
  std::vector<Value> values;
  values.reserve(lt.num_values() + rt.num_values());
  values.insert(values.end(), lt.values().begin(), lt.values().end());
  values.insert(values.end(), rt.values().begin(), rt.values().end());
  Tuple out(std::move(values), std::move(joined_rt));
  if (n->predicate != nullptr) {
    ONGOINGDB_ASSIGN_OR_RETURN(OngoingBoolean b,
                               n->predicate->EvalPredicate(n->schema, out));
    IntervalSet restricted = out.rt().Intersect(b.st());
    if (restricted.IsEmpty()) return Status::OK();
    out.set_rt(std::move(restricted));
  }
  ONGOINGDB_RETURN_NOT_OK(charge->Add(ApproxTupleBytes(out)));
  n->delta.push_back(DeltaEntry{sign, std::move(out)});
  return Status::OK();
}

Status ViewDeltaMaintainer::ComputeDelta(DeltaNode* n, QueryContext* ctx,
                                         MemoryCharge* charge) {
  n->delta.clear();
  n->net.Clear();
  if (ctx != nullptr) ONGOINGDB_RETURN_NOT_OK(ctx->Check());
  switch (n->kind) {
    case PlanKind::kScan: {
      if (n->log == nullptr || n->base->modification_log() != n->log.get()) {
        return Status::Internal(
            "view maintenance: modification log detached mid-apply");
      }
      std::vector<const Modification*> entries;
      if (!n->log->EntriesSince(n->cursor, &entries)) {
        return Status::Internal(
            "view maintenance: modification log trimmed past cursor");
      }
      n->consumed_until = n->log->next_seq();
      n->delta.reserve(entries.size());
      for (const Modification* m : entries) {
        ONGOINGDB_RETURN_NOT_OK(charge->Add(ApproxTupleBytes(m->tuple)));
        n->delta.push_back(DeltaEntry{
            m->kind == Modification::Kind::kInsert ? 1 : -1, m->tuple});
      }
      return Status::OK();
    }
    case PlanKind::kFilter: {
      ONGOINGDB_RETURN_NOT_OK(ComputeDelta(n->left.get(), ctx, charge));
      for (const DeltaEntry& d : n->left->delta) {
        ONGOINGDB_ASSIGN_OR_RETURN(
            OngoingBoolean b,
            n->predicate->EvalPredicate(n->left->schema, d.tuple));
        IntervalSet rt = d.tuple.rt().Intersect(b.st());
        if (rt.IsEmpty()) continue;
        Tuple out(d.tuple.values(), std::move(rt));
        ONGOINGDB_RETURN_NOT_OK(charge->Add(ApproxTupleBytes(out)));
        n->delta.push_back(DeltaEntry{d.sign, std::move(out)});
      }
      return Status::OK();
    }
    case PlanKind::kProject: {
      ONGOINGDB_RETURN_NOT_OK(ComputeDelta(n->left.get(), ctx, charge));
      for (const DeltaEntry& d : n->left->delta) {
        std::vector<Value> values;
        values.reserve(n->indices.size());
        for (size_t idx : n->indices) values.push_back(d.tuple.value(idx));
        Tuple out(std::move(values), d.tuple.rt());
        ONGOINGDB_RETURN_NOT_OK(charge->Add(ApproxTupleBytes(out)));
        n->delta.push_back(DeltaEntry{d.sign, std::move(out)});
      }
      return Status::OK();
    }
    case PlanKind::kJoin: {
      ONGOINGDB_RETURN_NOT_OK(ComputeDelta(n->left.get(), ctx, charge));
      ONGOINGDB_RETURN_NOT_OK(ComputeDelta(n->right.get(), ctx, charge));
      const std::vector<DeltaEntry>& dls = n->left->delta;
      const std::vector<DeltaEntry>& drs = n->right->delta;
      size_t pairs = 0;
      auto emit = [&](const Tuple& lt, const Tuple& rt, int sign) -> Status {
        if (ctx != nullptr && (++pairs & 0xFF) == 0) {
          ONGOINGDB_RETURN_NOT_OK(ctx->Check());
        }
        return EmitJoinPair(n, lt, rt, sign, charge);
      };
      if (n->keyed()) {
        const KeyTable& lk = n->left_cache.keys;
        const KeyTable& rk = n->right_cache.keys;
        auto left_at = [&](uint32_t i) -> const Tuple& {
          return n->left_cache.rel.tuple(i);
        };
        auto right_at = [&](uint32_t i) -> const Tuple& {
          return n->right_cache.rel.tuple(i);
        };
        // dL |x| R0 and L0 |x| dR probe the cached inputs' key tables.
        for (const DeltaEntry& dl : dls) {
          ONGOINGDB_RETURN_NOT_OK(ForEachKeyMatch(
              rk.index, right_at, rk.columns, dl.tuple, lk.columns,
              [&](uint32_t, const Tuple& rt) {
                return emit(dl.tuple, rt, dl.sign);
              }));
        }
        for (const DeltaEntry& dr : drs) {
          ONGOINGDB_RETURN_NOT_OK(ForEachKeyMatch(
              lk.index, left_at, lk.columns, dr.tuple, rk.columns,
              [&](uint32_t, const Tuple& lt) {
                return emit(lt, dr.tuple, dr.sign);
              }));
        }
        // dL |x| dR probes a transient key table over dR.
        if (!dls.empty() && !drs.empty()) {
          ChainedHashIndex dr_keys;
          dr_keys.Assign(drs.size(), [&](size_t i) {
            return JoinKeyHash(drs[i].tuple, rk.columns);
          });
          for (const DeltaEntry& dl : dls) {
            ONGOINGDB_RETURN_NOT_OK(ForEachKeyMatch(
                dr_keys,
                [&](uint32_t i) -> const Tuple& { return drs[i].tuple; },
                rk.columns, dl.tuple, lk.columns,
                [&](uint32_t i, const Tuple& rt) {
                  return emit(dl.tuple, rt, dl.sign * drs[i].sign);
                }));
          }
        }
        return Status::OK();
      }
      // Rebuild the owned index lazily over the (pre-delta) cache: a
      // failure here is benign — the terms fall back to nested loops.
      if (n->index_info.has_value() &&
          (n->index_needs_rebuild || !n->index.has_value())) {
        Result<IntervalIndex> built = IntervalIndex::Build(
            n->right_cache.rel, n->index_info->inner_column);
        if (built.ok()) {
          n->index.emplace(std::move(built).ValueOrDie());
          n->index_needs_rebuild = false;
          n->index_deltas_applied = 0;
        } else {
          n->index.reset();
          n->index_needs_rebuild = false;
        }
      }
      const bool use_index = n->index.has_value() && !n->index_needs_rebuild;
      // dL |x| R0 (pre-state inner), via the owned index when possible.
      std::vector<size_t> candidates;
      for (const DeltaEntry& dl : dls) {
        if (use_index) {
          const Value& probe =
              dl.tuple.value(n->index_info->outer_column_index);
          n->index->CandidatesInto(n->index_info->op,
                                   IntervalBoundsOfValue(probe), &candidates);
          for (size_t ri : candidates) {
            ONGOINGDB_RETURN_NOT_OK(
                emit(dl.tuple, n->right_cache.rel.tuple(ri), dl.sign));
          }
        } else {
          for (const Tuple& rt : n->right_cache.rel.tuples()) {
            ONGOINGDB_RETURN_NOT_OK(emit(dl.tuple, rt, dl.sign));
          }
        }
      }
      // L0 |x| dR (pre-state outer).
      for (const DeltaEntry& dr : drs) {
        for (const Tuple& lt : n->left_cache.rel.tuples()) {
          ONGOINGDB_RETURN_NOT_OK(emit(lt, dr.tuple, dr.sign));
        }
      }
      // dL |x| dR (signs multiply).
      for (const DeltaEntry& dl : dls) {
        for (const DeltaEntry& dr : drs) {
          ONGOINGDB_RETURN_NOT_OK(emit(dl.tuple, dr.tuple, dl.sign * dr.sign));
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("view maintenance: unknown plan node kind");
}

// --- Phase B: validation ----------------------------------------------------

void ViewDeltaMaintainer::BuildNets(DeltaNode* n) {
  if (n == nullptr) return;
  BuildNets(n->left.get());
  BuildNets(n->right.get());
  NetSet& net = n->net;
  net.Clear();
  for (const DeltaEntry& d : n->delta) {
    const size_t hash = TupleHash(d.tuple);
    uint32_t id = net.index.Find(hash, [&](uint32_t i) {
      return TupleEq(*net.entries[i].rep, d.tuple);
    });
    if (id == ChainedHashIndex::kEnd) {
      id = static_cast<uint32_t>(net.entries.size());
      net.entries.push_back(NetDelta{hash, 0, &d.tuple});
      net.index.Append(hash);
    }
    net.entries[id].net += d.sign;
  }
}

bool ViewDeltaMaintainer::ValidateNet(const OngoingRelation& rel,
                                      const ChainedHashIndex& positions,
                                      const NetSet& net) {
  for (const NetDelta& nd : net.entries) {
    long long have = 0;
    for (uint32_t i = positions.First(nd.hash);
         i != ChainedHashIndex::kEnd && have + nd.net < 0;
         i = positions.Next(i)) {
      if (positions.HashAt(i) == nd.hash && TupleEq(rel.tuple(i), *nd.rep)) {
        ++have;
      }
    }
    if (have + nd.net < 0) return false;
  }
  return true;
}

bool ViewDeltaMaintainer::ValidateTree(const DeltaNode* n) {
  if (n == nullptr) return true;
  if (!ValidateTree(n->left.get()) || !ValidateTree(n->right.get())) {
    return false;
  }
  if (n->kind == PlanKind::kJoin) {
    if (!ValidateNet(n->left_cache.rel, n->left_cache.positions,
                     n->left->net) ||
        !ValidateNet(n->right_cache.rel, n->right_cache.positions,
                     n->right->net)) {
      return false;
    }
  }
  return true;
}

// --- Phase C: commit --------------------------------------------------------

void ViewDeltaMaintainer::CommitInto(OngoingRelation* rel,
                                     ChainedHashIndex* positions,
                                     KeyTable* keys, const NetSet& net,
                                     DeltaNode* index_owner) {
  if (keys != nullptr && keys->columns.empty()) keys = nullptr;
  IntervalIndex* index = nullptr;
  if (index_owner != nullptr && index_owner->index.has_value() &&
      !index_owner->index_needs_rebuild) {
    index = &*index_owner->index;
  }
  size_t applied = 0;
  // Removals first so inserted tuples are never relocated by a swap.
  // Every table follows the relation's swap-remove, so positions stay
  // the ids of the tables.
  for (const NetDelta& nd : net.entries) {
    for (long long k = -nd.net; k > 0; --k) {
      const uint32_t pos = positions->Find(nd.hash, [&](uint32_t i) {
        return TupleEq(rel->tuple(i), *nd.rep);
      });
      if (pos == ChainedHashIndex::kEnd) break;  // validated in Phase B
      const size_t last = rel->size() - 1;
      if (index != nullptr) {
        const size_t moved_from = pos == last ? IntervalIndex::kNoMove : last;
        if (!index->ApplyRemove(pos, moved_from).ok()) {
          index_owner->index_needs_rebuild = true;
          index = nullptr;
        }
      }
      rel->SwapRemove(pos);
      positions->SwapRemove(pos);
      if (keys != nullptr) keys->index.SwapRemove(pos);
      ++applied;
    }
  }
  for (const NetDelta& nd : net.entries) {
    for (long long k = nd.net; k > 0; --k) {
      const size_t idx = rel->size();
      rel->AppendUnchecked(Tuple(*nd.rep));
      if (rel->size() == idx) continue;  // empty-RT drop (cannot happen)
      positions->Append(nd.hash);
      if (keys != nullptr) {
        keys->index.Append(JoinKeyHash(rel->tuple(idx), keys->columns));
      }
      ++applied;
      if (index != nullptr &&
          !index->ApplyInsert(rel->tuple(idx), idx).ok()) {
        index_owner->index_needs_rebuild = true;
        index = nullptr;
      }
    }
  }
  if (index_owner != nullptr) {
    index_owner->index_deltas_applied += applied;
    if (index_owner->index.has_value() &&
        index_owner->index_deltas_applied >
            kIndexRebuildFraction *
                std::max<double>(16.0, static_cast<double>(rel->size()))) {
      index_owner->index_needs_rebuild = true;
    }
  }
}

void ViewDeltaMaintainer::CommitTree(DeltaNode* n) {
  if (n == nullptr) return;
  CommitTree(n->left.get());
  CommitTree(n->right.get());
  switch (n->kind) {
    case PlanKind::kScan:
      n->cursor = n->consumed_until;
      return;
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return;
    case PlanKind::kJoin:
      CommitInto(&n->left_cache.rel, &n->left_cache.positions,
                 &n->left_cache.keys, n->left->net, nullptr);
      CommitInto(&n->right_cache.rel, &n->right_cache.positions,
                 &n->right_cache.keys, n->right->net,
                 n->index_info.has_value() ? n : nullptr);
      return;
  }
}

void ViewDeltaMaintainer::ClearDeltas(DeltaNode* n) {
  if (n == nullptr) return;
  ClearDeltas(n->left.get());
  ClearDeltas(n->right.get());
  n->delta.clear();
  n->net.Clear();
}

// --- apply ------------------------------------------------------------------

Result<bool> ViewDeltaMaintainer::ApplyPending(OngoingRelation* result,
                                               QueryContext* ctx) {
  if (!ready_ || !CanApplyIncrementally()) return false;
  ONGOINGDB_FAILPOINT(fp_view_delta_apply);
  if (ctx != nullptr) ONGOINGDB_RETURN_NOT_OK(ctx->Check());

  // Phase A: compute every node's delta bottom-up. Nothing below mutates
  // a cache, the result, or a cursor, so any error leaves the view
  // exactly pre-delta (the charge's destructor releases the accounting).
  MemoryCharge charge;
  charge.Init(ctx);
  Status st = ComputeDelta(root_.get(), ctx, &charge);
  if (!st.ok()) {
    ClearDeltas(root_.get());
    return st;
  }

  // Phase B: validate that every removal is present where it will be
  // applied — the join caches and the result. A mismatch means the
  // anchored state drifted; fall back to a recompute (benign).
  BuildNets(root_.get());
  if (!ValidateTree(root_.get()) ||
      !ValidateNet(*result, root_positions_, root_->net)) {
    ClearDeltas(root_.get());
    return false;
  }

  // Phase C: commit — infallible by construction (validated removals,
  // appends, index patches that degrade to a rebuild mark on failure).
  CommitTree(root_.get());
  CommitInto(result, &root_positions_, nullptr, root_->net, nullptr);
  ClearDeltas(root_.get());
  return true;
}

}  // namespace ongoingdb
