// Tuples of ongoing relations: a list of attribute values plus the
// reference time attribute RT. The RT value — a set of fixed time
// intervals — records the reference times at which the tuple belongs to
// the instantiated relations (Sec. VII-A). RT is set by the database
// system: base tuples carry the trivial reference time {(-inf, inf)}, and
// query operators restrict it via predicates on ongoing attributes.
#pragma once

#include <string>
#include <vector>

#include "core/interval_set.h"
#include "relation/value.h"

namespace ongoingdb {

/// One tuple of an ongoing relation.
class Tuple {
 public:
  Tuple() = default;

  /// Constructs a base tuple with the trivial reference time.
  explicit Tuple(std::vector<Value> values)
      : values_(std::move(values)), rt_(IntervalSet::All()) {}

  /// Constructs a tuple with an explicit reference time.
  Tuple(std::vector<Value> values, IntervalSet rt)
      : values_(std::move(values)), rt_(std::move(rt)) {}

  size_t num_values() const { return values_.size(); }
  const std::vector<Value>& values() const { return values_; }
  const Value& value(size_t i) const { return values_[i]; }

  /// Mutable access for operators that maintain a reusable scratch tuple
  /// (e.g. join emission): lets the value vector be refilled in place and
  /// moved out without reallocating per tuple pair.
  std::vector<Value>& mutable_values() { return values_; }

  /// The reference time attribute RT.
  const IntervalSet& rt() const { return rt_; }

  /// Replaces RT (used by operators to restrict the reference time).
  void set_rt(IntervalSet rt) { rt_ = std::move(rt); }

  /// Mutable RT access for operators that recycle tuple slots
  /// (relation/tuple_batch.h): writing via IntersectInto or
  /// copy-assignment reuses the slot's (possibly spilled) interval
  /// buffer, where set_rt would free it and install a fresh copy.
  IntervalSet& mutable_rt() { return rt_; }

  /// True iff the tuple belongs to the instantiated relation at rt.
  bool BelongsAt(TimePoint rt) const { return rt_.Contains(rt); }

  /// The instantiated attribute values ||r.A||rt (RT not included).
  std::vector<Value> InstantiateValues(TimePoint rt) const;

  /// Structural equality of attributes and RT.
  bool operator==(const Tuple& other) const = default;

  /// Renders "(v1, v2, ..., RT)".
  std::string ToString() const;

 private:
  std::vector<Value> values_;
  IntervalSet rt_;
};

/// Typed hash of a tuple's attribute values: ValueHash per value, no
/// string formatting. Consistent with TupleValuesEq.
size_t TupleValuesHash(const Tuple& t);

/// Attribute-wise ValueEq (so NaN equals NaN, as in the join keys).
bool TupleValuesEq(const Tuple& a, const Tuple& b);

/// TupleValuesHash combined with the RT's intervals. Consistent with
/// TupleEq.
size_t TupleHash(const Tuple& t);

/// TupleValuesEq plus RT ==: the identity of a tuple in a multiset of
/// ongoing tuples (view maintenance nets and removes by it).
bool TupleEq(const Tuple& a, const Tuple& b);

}  // namespace ongoingdb
