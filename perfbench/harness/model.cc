#include "model.h"

#include <cstdio>
#include <cstdlib>

#include "core/time.h"

namespace perfbench {

using namespace ongoingdb;

OngoingInterval PlainVt::ToEngine() const {
  return OngoingInterval(OngoingTimePoint::Fixed(start),
                         OngoingTimePoint(end_lo, end_hi));
}

PlainVt PlainVt::FromEngine(const OngoingInterval& vt) {
  if (!vt.start().IsFixed()) {
    std::fprintf(stderr, "generated interval %s has a non-fixed start\n",
                 vt.ToString().c_str());
    std::exit(2);
  }
  return {vt.start().a(), vt.end().a(), vt.end().b()};
}

std::string DateLiteral(TimePoint t) {
  const CivilDate d = CivilFromDays(t);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d/%02u/%02u", d.year, d.month, d.day);
  return buf;
}

namespace {

PlainVt Vt(const Tuple& t, size_t i) {
  return PlainVt::FromEngine(t.value(i).AsOngoingInterval());
}

}  // namespace

MozillaData DecodeMozilla(const datasets::MozillaBugs& data) {
  MozillaData d;
  d.history_start = data.history_start;
  d.history_end = data.history_end;
  d.b.reserve(data.bug_info.size());
  for (const Tuple& t : data.bug_info.tuples()) {
    d.b.push_back({t.value(0).AsInt64(), t.value(1).AsString(), t.value(2).AsString(),
                   t.value(3).AsString(), t.value(4).AsString(), Vt(t, 5)});
  }
  d.a.reserve(data.bug_assignment.size());
  for (const Tuple& t : data.bug_assignment.tuples()) {
    d.a.push_back({t.value(0).AsInt64(), t.value(1).AsString(), Vt(t, 2)});
  }
  d.s.reserve(data.bug_severity.size());
  for (const Tuple& t : data.bug_severity.tuples()) {
    d.s.push_back({t.value(0).AsInt64(), t.value(1).AsString(), Vt(t, 2)});
  }
  return d;
}

std::vector<KeyedRow> DecodeKeyed(const OngoingRelation& relation) {
  std::vector<KeyedRow> rows;
  rows.reserve(relation.size());
  for (const Tuple& t : relation.tuples()) {
    rows.push_back({t.value(0).AsInt64(), t.value(1).AsInt64(), Vt(t, 2)});
  }
  return rows;
}

}  // namespace perfbench
