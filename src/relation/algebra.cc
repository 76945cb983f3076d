#include "relation/algebra.h"

#include "util/chained_hash_index.h"

namespace ongoingdb {

Result<OngoingRelation> Project(const OngoingRelation& r,
                                const std::vector<size_t>& indices) {
  for (size_t i : indices) {
    if (i >= r.schema().num_attributes()) {
      return Status::OutOfRange("projection index " + std::to_string(i) +
                                " out of range");
    }
  }
  OngoingRelation result(r.schema().Project(indices));
  result.Reserve(r.size());
  for (const Tuple& t : r.tuples()) {
    std::vector<Value> values;
    values.reserve(indices.size());
    for (size_t i : indices) values.push_back(t.value(i));
    result.AppendUnchecked(Tuple(std::move(values), t.rt()));
  }
  return result;
}

Result<OngoingRelation> Project(const OngoingRelation& r,
                                const std::vector<std::string>& names) {
  std::vector<size_t> indices;
  indices.reserve(names.size());
  for (const std::string& name : names) {
    ONGOINGDB_ASSIGN_OR_RETURN(size_t idx, r.schema().IndexOf(name));
    indices.push_back(idx);
  }
  return Project(r, indices);
}

OngoingRelation ProjectCompute(const OngoingRelation& r, Schema out_schema,
                               const TupleProjector& projector) {
  OngoingRelation result(std::move(out_schema));
  result.Reserve(r.size());
  for (const Tuple& t : r.tuples()) {
    result.AppendUnchecked(Tuple(projector(t), t.rt()));
  }
  return result;
}

OngoingRelation Select(const OngoingRelation& r, const TuplePredicate& theta) {
  OngoingRelation result(r.schema());
  for (const Tuple& t : r.tuples()) {
    // x.RT = r.RT ^ theta(r); AppendUnchecked drops empty reference
    // times (the x.RT != {} condition of Theorem 2).
    IntervalSet rt = t.rt().Intersect(theta(t).st());
    if (rt.IsEmpty()) continue;
    result.AppendUnchecked(Tuple(t.values(), std::move(rt)));
  }
  return result;
}

namespace {

std::vector<Value> ConcatValues(const Tuple& r, const Tuple& s) {
  std::vector<Value> values;
  values.reserve(r.num_values() + s.num_values());
  for (const Value& v : r.values()) values.push_back(v);
  for (const Value& v : s.values()) values.push_back(v);
  return values;
}

}  // namespace

OngoingRelation CrossProduct(const OngoingRelation& r,
                             const OngoingRelation& s,
                             const std::string& left_prefix,
                             const std::string& right_prefix) {
  OngoingRelation result(
      r.schema().Concat(s.schema(), left_prefix, right_prefix));
  for (const Tuple& rt_ : r.tuples()) {
    for (const Tuple& st_ : s.tuples()) {
      IntervalSet rt = rt_.rt().Intersect(st_.rt());
      if (rt.IsEmpty()) continue;
      result.AppendUnchecked(Tuple(ConcatValues(rt_, st_), std::move(rt)));
    }
  }
  return result;
}

OngoingRelation ThetaJoin(const OngoingRelation& r, const OngoingRelation& s,
                          const JoinPredicate& theta,
                          const std::string& left_prefix,
                          const std::string& right_prefix) {
  OngoingRelation result(
      r.schema().Concat(s.schema(), left_prefix, right_prefix));
  for (const Tuple& rt_ : r.tuples()) {
    for (const Tuple& st_ : s.tuples()) {
      // Restrict by both input reference times first: if they are
      // already disjoint the (possibly expensive) predicate is skipped.
      IntervalSet rt = rt_.rt().Intersect(st_.rt());
      if (rt.IsEmpty()) continue;
      rt = rt.Intersect(theta(rt_, st_).st());
      if (rt.IsEmpty()) continue;
      result.AppendUnchecked(Tuple(ConcatValues(rt_, st_), std::move(rt)));
    }
  }
  return result;
}

namespace {

// Merges tuples with equal attribute values (TupleValuesHash /
// TupleValuesEq) by uniting their RTs, in first-seen order.
class RtMerger {
 public:
  void Add(const Tuple& t) {
    const size_t hash = TupleValuesHash(t);
    const uint32_t id = index_.Find(
        hash, [&](uint32_t i) { return TupleValuesEq(merged_[i], t); });
    if (id == ChainedHashIndex::kEnd) {
      merged_.push_back(t);
      index_.Append(hash);
    } else {
      merged_[id].set_rt(merged_[id].rt().Union(t.rt()));
    }
  }

  OngoingRelation Finish(const Schema& schema) {
    OngoingRelation result(schema);
    result.Reserve(merged_.size());
    for (Tuple& t : merged_) result.AppendUnchecked(std::move(t));
    return result;
  }

 private:
  std::vector<Tuple> merged_;
  ChainedHashIndex index_;
};

}  // namespace

Result<OngoingRelation> Union(const OngoingRelation& r,
                              const OngoingRelation& s) {
  if (!r.schema().TypeCompatible(s.schema())) {
    return Status::SchemaMismatch("union requires type-compatible schemas: " +
                                  r.schema().ToString() + " vs " +
                                  s.schema().ToString());
  }
  RtMerger merger;
  for (const Tuple& t : r.tuples()) merger.Add(t);
  for (const Tuple& t : s.tuples()) merger.Add(t);
  return merger.Finish(r.schema());
}

OngoingRelation CoalesceRt(const OngoingRelation& r) {
  RtMerger merger;
  for (const Tuple& t : r.tuples()) merger.Add(t);
  return merger.Finish(r.schema());
}

Result<OngoingRelation> Difference(const OngoingRelation& r,
                                   const OngoingRelation& s) {
  if (!r.schema().TypeCompatible(s.schema())) {
    return Status::SchemaMismatch(
        "difference requires type-compatible schemas: " +
        r.schema().ToString() + " vs " + s.schema().ToString());
  }
  OngoingRelation result(r.schema());
  for (const Tuple& rt_ : r.tuples()) {
    // Subtract, for every s in S, the reference times at which r and s
    // instantiate to the same attribute values while s belongs to S.
    IntervalSet rt = rt_.rt();
    for (const Tuple& st_ : s.tuples()) {
      if (rt.IsEmpty()) break;
      // Equality of the full attribute lists as an ongoing boolean.
      OngoingBoolean eq = OngoingBoolean::True();
      for (size_t i = 0; i < rt_.num_values() && !eq.IsAlwaysFalse(); ++i) {
        eq = eq.And(OngoingValueEqual(rt_.value(i), st_.value(i)));
      }
      IntervalSet matched = eq.st().Intersect(st_.rt());
      rt = rt.Difference(matched);
    }
    if (rt.IsEmpty()) continue;
    result.AppendUnchecked(Tuple(rt_.values(), std::move(rt)));
  }
  return result;
}

}  // namespace ongoingdb
