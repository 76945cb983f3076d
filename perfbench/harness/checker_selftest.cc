// Self-test of the harness's checks: each must reject a corrupted
// result. Exits 0 when every corruption is rejected and the uncorrupted
// inputs pass.
//
//   checker_selftest
#include <cstdio>
#include <string>

#include "check.h"
#include "datasets/synthetic.h"
#include "expr/expr.h"
#include "model.h"
#include "query/executor.h"
#include "query/plan.h"

using namespace perfbench;
using namespace ongoingdb;

namespace {

int failures = 0;

void ExpectRejected(const char* what, const std::string& diff) {
  std::printf("%-58s %s\n", what, diff.empty() ? "ACCEPTED (wrong)" : "rejected");
  if (diff.empty()) ++failures;
}

void ExpectAccepted(const char* what, const std::string& diff) {
  std::printf("%-58s %s\n", what, diff.empty() ? "accepted" : diff.c_str());
  if (!diff.empty()) ++failures;
}

}  // namespace

int main() {
  // A small keyed relation with ongoing rows, and an ongoing selection
  // over it whose result carries restricted reference times.
  datasets::SyntheticOptions options;
  options.cardinality = 400;
  options.ongoing_fraction = 0.20;
  options.key_cardinality = 20;
  options.history_years = 3;
  options.seed = 11;
  OngoingRelation r = datasets::GenerateSynthetic(options);
  std::vector<KeyedRow> rows = DecodeKeyed(r);
  const TimePoint history_end = options.history_end;
  const TimePoint w1 = history_end - 200, w2 = history_end - 100;
  PlanPtr plan = Filter(Scan(&r, "R"),
                        OverlapsExpr(Col("VT"), Lit(OngoingInterval::Fixed(w1, w2))));
  auto result = Execute(plan);
  if (!result.ok()) {
    std::printf("Execute failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const TimePoint rt = history_end - 150;
  auto expected_at = [&](TimePoint at) {
    Rows out;
    for (const KeyedRow& k : rows) {
      const TimePoint e = k.vt.EndAt(at);
      if (OverlapsAt(k.vt.start, e, w1, w2)) {
        out.push_back(RowKey().Int(k.id).Int(k.k).Iv(k.vt.start, e).Take());
      }
    }
    return out;
  };

  {
    Rows actual = EncodeAt(*result, rt), expected = expected_at(rt);
    ExpectAccepted("uncorrupted result at rt", DiffMultisets(&actual, &expected));
  }
  {
    OngoingRelation dropped(result->schema());
    for (size_t i = 1; i < result->size(); ++i) dropped.AppendUnchecked(result->tuple(i));
    Rows actual = EncodeAt(dropped, rt), expected = expected_at(rt);
    ExpectRejected("result with one tuple dropped", DiffMultisets(&actual, &expected));
  }
  {
    // One tuple's reference times shifted past rt: it no longer belongs
    // at rt.
    OngoingRelation shifted(result->schema());
    bool done = false;
    for (const Tuple& t : result->tuples()) {
      Tuple copy = t;
      if (!done && t.BelongsAt(rt)) {
        copy.set_rt(IntervalSet::FromUnsorted({FixedInterval{rt + 1, kMaxInfinity}}));
        done = true;
      }
      shifted.AppendUnchecked(std::move(copy));
    }
    Rows actual = EncodeAt(shifted, rt), expected = expected_at(rt);
    ExpectRejected("result with one tuple's reference times shifted",
                   DiffMultisets(&actual, &expected));
  }
  {
    // The right rows, bound at the wrong reference time.
    Rows actual = EncodeAt(*result, rt + 1), expected = expected_at(rt);
    ExpectRejected("result instantiated at a shifted reference time",
                   DiffMultisets(&actual, &expected));
  }
  {
    auto at_rt = ExecuteAtReferenceTime(plan, rt - 1);
    Rows actual = at_rt.ok() ? EncodeFixedRelation(*at_rt) : Rows{};
    Rows expected = expected_at(rt);
    ExpectRejected("Clifford result evaluated at a shifted reference time",
                   DiffMultisets(&actual, &expected));
  }
  ExpectAccepted("commit sequence 5, 6, 7", DiffCommitSequence({5, 6, 7}, 5));
  ExpectRejected("commit sequence with a gap (5, 6, 8)", DiffCommitSequence({5, 6, 8}, 5));
  ExpectRejected("commit sequence repeating a number (5, 5)", DiffCommitSequence({5, 5}, 5));
  ExpectRejected("newly pinned snapshot behind the last commit",
                 DiffCommitSequence({6}, 7));

  std::printf(failures == 0 ? "checker self-test passed\n"
                            : "checker self-test FAILED (%d)\n",
              failures);
  return failures == 0 ? 0 : 1;
}
