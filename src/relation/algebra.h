// The relational algebra on ongoing relations (Sec. VII-B, Theorem 2).
// Every operator computes result tuples whose reference time is the
// conjunction of the input tuples' reference times and the reference
// times at which the predicate holds; tuples with empty reference times
// are removed. The result of each operator again remains valid as time
// passes by: forall rt  ||op(R)||rt == opF(||R||rt).
#pragma once

#include <functional>
#include <vector>

#include "relation/relation.h"
#include "util/result.h"

namespace ongoingdb {

/// A predicate on one tuple whose result is an ongoing boolean. Predicates
/// on fixed attributes return constant booleans (True()/False()); see
/// expr/ for a composable expression language that produces these.
using TuplePredicate = std::function<OngoingBoolean(const Tuple&)>;

/// A join predicate over a pair of tuples.
using JoinPredicate =
    std::function<OngoingBoolean(const Tuple&, const Tuple&)>;

/// A per-tuple value computation for generalized projection.
using TupleProjector = std::function<std::vector<Value>(const Tuple&)>;

/// Projection pi_B(R): keeps the attributes at `indices`; the reference
/// time of each tuple is unchanged (Theorem 2).
Result<OngoingRelation> Project(const OngoingRelation& r,
                                const std::vector<size_t>& indices);

/// Projection by attribute names.
Result<OngoingRelation> Project(const OngoingRelation& r,
                                const std::vector<std::string>& names);

/// Generalized projection: computes each output tuple's values with
/// `projector` under the given output schema (used for expressions like
/// B.VT intersect L.VT in the paper's running example). RT is unchanged.
OngoingRelation ProjectCompute(const OngoingRelation& r, Schema out_schema,
                               const TupleProjector& projector);

/// Selection sigma_theta(R): the result tuple's RT is r.RT ^ theta(r);
/// tuples whose restricted RT is empty are removed (Theorem 2).
OngoingRelation Select(const OngoingRelation& r, const TuplePredicate& theta);

/// Cartesian product R x S: concatenated tuples with RT = r.RT ^ s.RT;
/// empty-RT tuples are removed (Theorem 2). Name clashes are qualified
/// with the given prefixes.
OngoingRelation CrossProduct(const OngoingRelation& r,
                             const OngoingRelation& s,
                             const std::string& left_prefix = "L",
                             const std::string& right_prefix = "R");

/// Theta join R |x|_theta S = sigma_theta(R x S), evaluated without
/// materializing the product: RT = r.RT ^ s.RT ^ theta(r, s).
OngoingRelation ThetaJoin(const OngoingRelation& r, const OngoingRelation& s,
                          const JoinPredicate& theta,
                          const std::string& left_prefix = "L",
                          const std::string& right_prefix = "R");

/// Union R u S (Theorem 2): tuples of both inputs; tuples with
/// structurally equal attribute values (TupleValuesEq) are merged by
/// taking the union of their reference times (sound because structurally
/// equal ongoing values instantiate identically). Fails unless the schemas are
/// type-compatible.
Result<OngoingRelation> Union(const OngoingRelation& r,
                              const OngoingRelation& s);

/// Normalizes a relation by merging tuples with structurally equal
/// attribute values into one tuple whose RT is the union of the merged
/// reference times. Instantiations are unchanged at every reference
/// time; useful after unions or projections that create value-equal
/// tuples with fragmented reference times.
OngoingRelation CoalesceRt(const OngoingRelation& r);

/// Difference R - S (Theorem 2): each result tuple keeps the reference
/// times in r.RT at which no tuple of S instantiates to the same values
/// while belonging to S:
///   x.RT = { rt in r.RT | not exists s in S
///            (||r.A||rt == ||s.A||rt and rt in s.RT) }.
Result<OngoingRelation> Difference(const OngoingRelation& r,
                                   const OngoingRelation& s);

}  // namespace ongoingdb
