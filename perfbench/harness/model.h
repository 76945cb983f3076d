// The harness's own plain copy of every generated row, and its own model
// of the Torp modifications (insert, close, update) applied to them.
// Inputs come from the engine's data-set generators (src/datasets/); the
// rows are decoded once into plain structs, and every check runs on those.
//
// Nothing here calls the engine's query code: valid times are a fixed
// start plus an end point modelled as the clamp ||[lo, hi]||rt =
// min(max(rt, lo), hi) of the paper's bind operator (a fixed end is
// [e, e], NOW is [-inf, +inf], and closing at tc takes the minimum with
// tc), and every predicate is evaluated on the instantiated, fixed
// values at one reference time. The workloads build the engine's input
// relations from the generators and compare the engine's results
// against brute-force evaluation over these rows.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/ongoing_interval.h"
#include "core/time.h"
#include "datasets/mozilla.h"
#include "relation/relation.h"

namespace perfbench {

using ongoingdb::kMaxInfinity;
using ongoingdb::kMinInfinity;
using ongoingdb::TimePoint;

/// A valid-time interval [start, end) with a fixed start and an end
/// point that may be NOW or NOW closed at some commit times.
struct PlainVt {
  TimePoint start = 0;
  TimePoint end_lo = 0;
  TimePoint end_hi = 0;

  static PlainVt Fixed(TimePoint s, TimePoint e) { return {s, e, e}; }
  static PlainVt SinceNow(TimePoint s) {
    return {s, kMinInfinity, kMaxInfinity};
  }
  TimePoint EndAt(TimePoint rt) const {
    return rt <= end_lo ? end_lo : (rt < end_hi ? rt : end_hi);
  }
  /// Torp delete at tc: end := min(end, tc).
  void CloseAt(TimePoint tc) {
    end_lo = std::min(end_lo, tc);
    end_hi = std::min(end_hi, tc);
  }
  /// Empty at every reference time: Torp removes such versions.
  bool AlwaysEmpty() const { return end_hi <= start; }
  ongoingdb::OngoingInterval ToEngine() const;
  /// The plain copy of a generated interval; its start must be fixed.
  static PlainVt FromEngine(const ongoingdb::OngoingInterval& vt);
};

/// Fixed-semantics Allen predicates on instantiated intervals, both
/// operands non-empty (the paper's Table II).
inline bool OverlapsAt(TimePoint s1, TimePoint e1, TimePoint s2, TimePoint e2) {
  return s1 < e1 && s2 < e2 && s1 < e2 && s2 < e1;
}
inline bool ContainsAt(TimePoint s, TimePoint e, TimePoint t) {
  return s <= t && t < e;
}

// --- Plain copies of the generated data sets ------------------------------

struct BugRow {  // B (ID, Product, Component, OS, Description, VT)
  int64_t id;
  std::string product, component, os, description;
  PlainVt vt;
};
struct AssignRow {  // A (ID, Email, VT)
  int64_t id;
  std::string email;
  PlainVt vt;
};
struct SeverityRow {  // S (ID, Severity, VT)
  int64_t id;
  std::string severity;
  PlainVt vt;
};

/// Plain copy of datasets::GenerateMozillaBugs' B, A and S.
struct MozillaData {
  std::vector<BugRow> b;
  std::vector<AssignRow> a;
  std::vector<SeverityRow> s;
  TimePoint history_start = 0;
  TimePoint history_end = 0;
};

MozillaData DecodeMozilla(const ongoingdb::datasets::MozillaBugs& data);

struct KeyedRow {  // (ID, K, VT) of datasets::GenerateSynthetic
  int64_t id;
  int64_t k;
  PlainVt vt;
};

std::vector<KeyedRow> DecodeKeyed(const ongoingdb::OngoingRelation& relation);

/// The Torp model on plain rows: closes every row `match` selects at tc,
/// dropping versions that become empty at every reference time. Returns
/// the number of rows matched.
template <typename Row, typename Match>
size_t ModelClose(std::vector<Row>* rows, TimePoint tc, Match match) {
  size_t matched = 0;
  std::vector<Row> kept;
  kept.reserve(rows->size());
  for (Row& r : *rows) {
    if (match(r)) {
      ++matched;
      r.vt.CloseAt(tc);
      if (r.vt.AlwaysEmpty()) continue;
    }
    kept.push_back(std::move(r));
  }
  *rows = std::move(kept);
  return matched;
}

/// "yyyy/mm/dd", the SQL date literal of a time point.
std::string DateLiteral(TimePoint t);

}  // namespace perfbench
