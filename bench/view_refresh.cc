// Refresh latency of a materialized view vs write-batch size: delta
// maintenance (Refresh over the base relations' ModificationLogs,
// query/view_maintenance.h) against a full recompute (RefreshFull).
//
// Three sweeps, each over write batches of {0.1%, 1%, 10%, 50%} of the
// base size:
//
//  (a) a selection ProjectPlan(Filter(Scan(B))) — the cheapest delta
//      path: each logged tuple is filtered and projected once;
//  (b) an equi+overlaps join L |x|_{L.K = R.K ^ L.VT ovlp R.VT} R with
//      the batch landing on the outer (left) side — each logged tuple
//      probes the cached R's key table on L.K = R.K;
//  (c) the same join with the batch landing on the inner (right) side —
//      each logged tuple probes the cached L's key table.
//
// The interesting output is the crossover: below it the delta path wins
// (the acceptance bar is >= 5x at <= 1% batches on the join plan),
// above it Refresh's cost gate is expected to pick the recompute
// itself, so Refresh never does much worse than RefreshFull. The
// measured refresh mode is printed per point so a gate misprediction is
// visible in the table.
//
// Results are collected with BenchJsonWriter (suite "view_refresh") and
// written to ONGOINGDB_BENCH_JSON when set, like every other bench.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "expr/expr.h"
#include "query/plan.h"
#include "relation/modifications.h"
#include "util/rng.h"

using namespace ongoingdb;
using namespace ongoingdb::bench;

namespace {

// A MakeBase-shaped relation {ID, K, S, VT} with a wider join-key
// domain (256 values) so the join's result stays linear-ish in the
// input instead of quadratic, and a modification log sized to hold the
// largest swept batch without trimming.
OngoingRelation MakeLoggedBase(Rng& rng, const std::string& prefix,
                               int64_t n) {
  OngoingRelation r(
      Schema({{prefix + "ID", ValueType::kInt64},
              {prefix + "K", ValueType::kInt64},
              {prefix + "S", ValueType::kString},
              {prefix + "VT", ValueType::kOngoingInterval}}));
  static const char* kStrings[] = {"component-core", "component-ui",
                                   "component-net", "component-db"};
  // Starts spread over a wide time domain with short-lived rows and a
  // small open-ended ("still valid") fraction: probe selectivity in the
  // low percents, like the paper's bug-tracker data — not the
  // everything-overlaps-everything degenerate case.
  for (int64_t i = 0; i < n; ++i) {
    OngoingInterval vt;
    TimePoint s = rng.Uniform(0, 5000);
    if (rng.Bernoulli(0.1)) {
      vt = OngoingInterval::SinceUntilNow(s);
    } else {
      vt = OngoingInterval::Fixed(s, s + rng.Uniform(1, 40));
    }
    if (!r.Insert({Value::Int64(i), Value::Int64(rng.Uniform(0, 255)),
                   Value::String(kStrings[static_cast<size_t>(
                       rng.Uniform(0, 3))]),
                   Value::Ongoing(vt)})
             .ok()) {
      std::fprintf(stderr, "base insert failed\n");
      std::abort();
    }
  }
  r.EnableModificationLog(/*capacity=*/1 << 20);
  return r;
}

// Appends `batch` fresh writes to `target` (the logged deltas the next
// Refresh consumes): mostly short closed-interval rows (an insert
// whose valid time was later closed) plus a Torp open-ended
// TemporalInsert now and then. IDs keep growing so inserted tuples are
// distinct across repetitions.
void ApplyBatch(OngoingRelation* target, int64_t batch, int64_t* next_id,
                Rng& rng) {
  for (int64_t i = 0; i < batch; ++i) {
    TimePoint s = rng.Uniform(0, 5000);
    Status st;
    if (rng.Bernoulli(0.1)) {
      std::vector<Value> values = {
          Value::Int64((*next_id)++), Value::Int64(rng.Uniform(0, 255)),
          Value::String("component-core"),
          Value::Ongoing(OngoingInterval::SinceUntilNow(0))};
      st = TemporalInsert(target, std::move(values), /*vt_index=*/3,
                          /*tc=*/s);
    } else {
      st = target->Insert(
          {Value::Int64((*next_id)++), Value::Int64(rng.Uniform(0, 255)),
           Value::String("component-core"),
           Value::Ongoing(
               OngoingInterval::Fixed(s, s + rng.Uniform(1, 40)))});
    }
    if (!st.ok()) {
      std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
}

const char* ModeName(RefreshMode mode) {
  switch (mode) {
    case RefreshMode::kRecompute: return "recompute";
    case RefreshMode::kDelta: return "delta";
    case RefreshMode::kNoop: return "noop";
  }
  return "?";
}

struct SweepPoint {
  double pct;            // batch size as % of the base
  int64_t batch;         // batch size in tuples
  double recompute_ms;   // median RefreshFull latency
  double refresh_ms;     // median Refresh latency after the batch
  RefreshMode mode;      // mode the last Refresh actually took
};

// One sweep over a plan: for each batch fraction, measure the full
// recompute (RefreshFull, no pending writes — the O(|base|) baseline)
// and then Refresh after a freshly applied write batch (O(|delta|)
// when the cost gate picks the delta path). Writes are applied
// untimed; only the refresh call is inside the timer.
std::vector<SweepPoint> Sweep(MaterializedView* view,
                              OngoingRelation* write_target,
                              int64_t base_size, int64_t* next_id,
                              Rng& rng) {
  static const double kFractions[] = {0.001, 0.01, 0.10, 0.50};
  static const int kReps = 3;
  std::vector<SweepPoint> points;
  for (double f : kFractions) {
    SweepPoint p;
    p.pct = f * 100.0;
    p.batch = std::max<int64_t>(1, static_cast<int64_t>(
                                       f * static_cast<double>(base_size)));
    p.recompute_ms =
        MedianSeconds([&] {
          if (!view->RefreshFull().ok()) std::abort();
        }, kReps) * 1e3;
    double samples[kReps];
    for (int rep = 0; rep < kReps; ++rep) {
      ApplyBatch(write_target, p.batch, next_id, rng);
      Timer t;
      Status st = view->Refresh();
      samples[rep] = t.ElapsedMillis();
      if (!st.ok()) {
        std::fprintf(stderr, "Refresh: %s\n", st.ToString().c_str());
        std::abort();
      }
    }
    std::sort(samples, samples + kReps);
    p.refresh_ms = samples[kReps / 2];
    p.mode = view->last_refresh_mode();
    points.push_back(p);
  }
  return points;
}

void Report(const char* label, const std::vector<SweepPoint>& points,
            BenchJsonWriter* json) {
  TablePrinter table;
  table.SetHeader({"batch [% of base]", "batch [tuples]",
                   "recompute [ms]", "refresh [ms]", "mode", "speedup"});
  double crossover_pct = -1;
  for (const SweepPoint& p : points) {
    const double speedup =
        p.refresh_ms > 0 ? p.recompute_ms / p.refresh_ms : 0;
    if (crossover_pct < 0 && p.refresh_ms >= p.recompute_ms) {
      crossover_pct = p.pct;
    }
    table.AddRow({FormatDouble(p.pct, 1), std::to_string(p.batch),
                  FormatDouble(p.recompute_ms, 3),
                  FormatDouble(p.refresh_ms, 3), ModeName(p.mode),
                  FormatDouble(speedup, 1)});
    const std::string pct = FormatDouble(p.pct, 1);
    json->AddMs(std::string("refresh/") + label + "/recompute/" + pct,
                p.recompute_ms);
    json->AddMs(std::string("refresh/") + label + "/delta/" + pct,
                p.refresh_ms);
  }
  table.Print();
  if (crossover_pct < 0) {
    std::printf("  crossover: none within the sweep (delta wins "
                "through 50%% batches)\n");
  } else {
    std::printf("  crossover: refresh stops winning at ~%.1f%% "
                "batches\n", crossover_pct);
  }
}

}  // namespace

int main() {
  std::printf("view_refresh: incremental maintenance vs recompute, by "
              "write-batch size\n");
  BenchJsonWriter json("view_refresh");

  std::printf("\n(a) Selection Project(Filter(Scan(B)))\n");
  {
    Rng rng(41);
    const int64_t n = Scaled(20000);
    OngoingRelation base = MakeLoggedBase(rng, "B_", n);
    PlanPtr plan = ProjectPlan(
        Filter(Scan(&base, "B"),
               Lt(Col("B_ID"), Lit(static_cast<int64_t>(1) << 60))),
        {"B_ID", "B_S", "B_VT"});
    auto view = MaterializedView::Create(plan);
    if (!view.ok()) {
      std::fprintf(stderr, "Create: %s\n", view.status().ToString().c_str());
      return 1;
    }
    int64_t next_id = n;
    std::vector<SweepPoint> points =
        Sweep(&*view, &base, n, &next_id, rng);
    Report("filter", points, &json);
  }

  const struct {
    const char* title;
    const char* label;
    bool inner;
  } kJoinSweeps[] = {
      {"(b) Join L |x|_{L.K = R.K ^ L.VT ovlp R.VT} R (batch on the outer "
       "side)",
       "join", false},
      {"(c) Join L |x|_{L.K = R.K ^ L.VT ovlp R.VT} R (batch on the inner "
       "side)",
       "join_inner", true},
  };
  for (const auto& sweep : kJoinSweeps) {
    std::printf("\n%s\n", sweep.title);
    Rng rng(42);
    const int64_t n = Scaled(4000);
    OngoingRelation left = MakeLoggedBase(rng, "L_", n);
    OngoingRelation right = MakeLoggedBase(rng, "R_", n);
    PlanPtr plan =
        Join(Scan(&left, "L"), Scan(&right, "R"),
             And(Eq(Col("L_K"), Col("R_K")),
                 OverlapsExpr(Col("L_VT"), Col("R_VT"))),
             "L", "R");
    auto view = MaterializedView::Create(plan);
    if (!view.ok()) {
      std::fprintf(stderr, "Create: %s\n", view.status().ToString().c_str());
      return 1;
    }
    int64_t next_id = n;
    std::vector<SweepPoint> points = Sweep(
        &*view, sweep.inner ? &right : &left, n, &next_id, rng);
    Report(sweep.label, points, &json);
  }

  json.WriteFromEnv();
  return 0;
}
