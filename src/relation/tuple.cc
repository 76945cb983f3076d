#include "relation/tuple.h"

#include <functional>

namespace ongoingdb {

std::vector<Value> Tuple::InstantiateValues(TimePoint rt) const {
  std::vector<Value> out;
  out.reserve(values_.size());
  for (const Value& v : values_) {
    out.push_back(v.Instantiate(rt));
  }
  return out;
}

std::string Tuple::ToString() const {
  std::string s = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) s += ", ";
    s += values_[i].ToString();
  }
  if (!values_.empty()) s += ", ";
  s += rt_.ToString();
  s += ")";
  return s;
}

size_t TupleValuesHash(const Tuple& t) {
  size_t h = 0xcbf29ce484222325ULL;
  for (const Value& v : t.values()) h = HashCombine(h, ValueHash{}(v));
  return h;
}

bool TupleValuesEq(const Tuple& a, const Tuple& b) {
  if (a.num_values() != b.num_values()) return false;
  for (size_t i = 0; i < a.num_values(); ++i) {
    if (!ValueEq{}(a.value(i), b.value(i))) return false;
  }
  return true;
}

size_t TupleHash(const Tuple& t) {
  size_t h = TupleValuesHash(t);
  for (const FixedInterval& f : t.rt().intervals()) {
    h = HashCombine(h, std::hash<int64_t>{}(f.start));
    h = HashCombine(h, std::hash<int64_t>{}(f.end));
  }
  return h;
}

bool TupleEq(const Tuple& a, const Tuple& b) {
  return a.rt() == b.rt() && TupleValuesEq(a, b);
}

}  // namespace ongoingdb
