// Tests of the relational algebra on ongoing relations (Theorem 2):
// per-operator semantics plus the paper's Example 3.
#include "relation/algebra.h"

#include <gtest/gtest.h>

#include "core/operations.h"

namespace ongoingdb {
namespace {

Schema XSchema() {
  return Schema({{"BID", ValueType::kInt64},
                 {"C", ValueType::kString},
                 {"VT", ValueType::kOngoingInterval}});
}

// Example 3 of the paper: selection with VT overlaps [01/20, 08/18) on a
// tuple with RT = {(-inf, 08/16)} yields RT = {[01/26, 08/16)}.
TEST(AlgebraTest, PaperExample3Selection) {
  OngoingRelation x(XSchema());
  ASSERT_TRUE(
      x.InsertWithRt(
           {Value::Int64(500), Value::String("Spam filter"),
            Value::Ongoing(OngoingInterval::SinceUntilNow(MD(1, 25)))},
           IntervalSet{{kMinInfinity, MD(8, 16)}})
          .ok());
  OngoingRelation q = Select(x, [](const Tuple& t) {
    return Overlaps(t.value(2).AsOngoingInterval(),
                    OngoingInterval::Fixed(MD(1, 20), MD(8, 18)));
  });
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.tuple(0).rt(), (IntervalSet{{MD(1, 26), MD(8, 16)}}));
  // Attribute values are unchanged (ongoing time points preserved).
  EXPECT_EQ(q.tuple(0).value(2).AsOngoingInterval().ToString(),
            "[01/25, now)");
}

TEST(AlgebraTest, SelectionDropsTuplesWithEmptyRt) {
  OngoingRelation x(XSchema());
  ASSERT_TRUE(x.Insert({Value::Int64(1), Value::String("a"),
                        Value::Ongoing(OngoingInterval::Fixed(0, 10))})
                  .ok());
  OngoingRelation q =
      Select(x, [](const Tuple&) { return OngoingBoolean::False(); });
  EXPECT_EQ(q.size(), 0u);
}

TEST(AlgebraTest, SelectionOnFixedPredicateKeepsRtUnchanged) {
  // Predicates on fixed attributes retain their standard behavior
  // (Sec. VII-B): true keeps RT, false drops the tuple.
  OngoingRelation x(XSchema());
  auto vt = Value::Ongoing(OngoingInterval::SinceUntilNow(0));
  ASSERT_TRUE(x.InsertWithRt({Value::Int64(1), Value::String("spam"), vt},
                             IntervalSet{{3, 9}})
                  .ok());
  ASSERT_TRUE(x.InsertWithRt({Value::Int64(2), Value::String("ui"), vt},
                             IntervalSet{{3, 9}})
                  .ok());
  OngoingRelation q = Select(x, [](const Tuple& t) {
    return OngoingBoolean::FromBool(t.value(1).AsString() == "spam");
  });
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.tuple(0).value(0).AsInt64(), 1);
  EXPECT_EQ(q.tuple(0).rt(), (IntervalSet{{3, 9}}));
}

TEST(AlgebraTest, ProjectionKeepsReferenceTime) {
  OngoingRelation x(XSchema());
  ASSERT_TRUE(
      x.InsertWithRt({Value::Int64(500), Value::String("Spam filter"),
                      Value::Ongoing(OngoingInterval::SinceUntilNow(0))},
                     IntervalSet{{5, 15}})
          .ok());
  auto q = Project(x, std::vector<std::string>{"BID"});
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->size(), 1u);
  EXPECT_EQ(q->schema().num_attributes(), 1u);
  EXPECT_EQ(q->tuple(0).rt(), (IntervalSet{{5, 15}}));
}

TEST(AlgebraTest, CrossProductIntersectsReferenceTimes) {
  OngoingRelation r(Schema({{"A", ValueType::kInt64}}));
  OngoingRelation s(Schema({{"B", ValueType::kInt64}}));
  ASSERT_TRUE(r.InsertWithRt({Value::Int64(1)}, IntervalSet{{0, 10}}).ok());
  ASSERT_TRUE(s.InsertWithRt({Value::Int64(2)}, IntervalSet{{5, 20}}).ok());
  ASSERT_TRUE(s.InsertWithRt({Value::Int64(3)}, IntervalSet{{15, 20}}).ok());
  OngoingRelation product = CrossProduct(r, s);
  // The (1, 3) pair has disjoint reference times and is dropped.
  ASSERT_EQ(product.size(), 1u);
  EXPECT_EQ(product.tuple(0).rt(), (IntervalSet{{5, 10}}));
  EXPECT_EQ(product.tuple(0).value(1).AsInt64(), 2);
}

TEST(AlgebraTest, ThetaJoinRestrictsByPredicate) {
  OngoingRelation r(XSchema());
  OngoingRelation s(XSchema());
  ASSERT_TRUE(
      r.Insert({Value::Int64(500), Value::String("Spam filter"),
                Value::Ongoing(OngoingInterval::SinceUntilNow(MD(1, 25)))})
          .ok());
  ASSERT_TRUE(
      s.Insert({Value::Int64(201), Value::String("Spam filter"),
                Value::Ongoing(OngoingInterval::Fixed(MD(8, 15), MD(8, 24)))})
          .ok());
  OngoingRelation joined =
      ThetaJoin(r, s,
                [](const Tuple& a, const Tuple& b) {
                  OngoingBoolean same_component = OngoingBoolean::FromBool(
                      a.value(1).AsString() == b.value(1).AsString());
                  return same_component.And(
                      Before(a.value(2).AsOngoingInterval(),
                             b.value(2).AsOngoingInterval()));
                },
                "B", "P");
  // Sec. II: RT = {[01/26, 08/16)}.
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined.tuple(0).rt(), (IntervalSet{{MD(1, 26), MD(8, 16)}}));
}

TEST(AlgebraTest, UnionMergesStructurallyEqualTuples) {
  OngoingRelation r(Schema({{"A", ValueType::kInt64}}));
  OngoingRelation s(Schema({{"A", ValueType::kInt64}}));
  ASSERT_TRUE(r.InsertWithRt({Value::Int64(1)}, IntervalSet{{0, 10}}).ok());
  ASSERT_TRUE(s.InsertWithRt({Value::Int64(1)}, IntervalSet{{5, 20}}).ok());
  ASSERT_TRUE(s.InsertWithRt({Value::Int64(2)}, IntervalSet{{0, 5}}).ok());
  auto u = Union(r, s);
  ASSERT_TRUE(u.ok());
  ASSERT_EQ(u->size(), 2u);
  // Tuple 1 got the merged reference time.
  EXPECT_EQ(u->tuple(0).rt(), (IntervalSet{{0, 20}}));
}

// Regression: Union used to merge by a rendering of the values, under
// which doubles that differ past the 6th decimal looked equal.
TEST(AlgebraTest, UnionKeepsDoublesDifferingPastSixDecimals) {
  OngoingRelation r(Schema({{"X", ValueType::kDouble}}));
  OngoingRelation s(Schema({{"X", ValueType::kDouble}}));
  ASSERT_TRUE(r.InsertWithRt({Value::Double(0.1234561)}, IntervalSet{{0, 10}})
                  .ok());
  ASSERT_TRUE(s.InsertWithRt({Value::Double(0.1234562)}, IntervalSet{{5, 20}})
                  .ok());
  auto u = Union(r, s);
  ASSERT_TRUE(u.ok());
  ASSERT_EQ(u->size(), 2u);
  EXPECT_EQ(u->tuple(0).value(0).AsDouble(), 0.1234561);
  EXPECT_EQ(u->tuple(0).rt(), (IntervalSet{{0, 10}}));
  EXPECT_EQ(u->tuple(1).value(0).AsDouble(), 0.1234562);
  EXPECT_EQ(u->tuple(1).rt(), (IntervalSet{{5, 20}}));
}

TEST(AlgebraTest, UnionRejectsIncompatibleSchemas) {
  OngoingRelation r(Schema({{"A", ValueType::kInt64}}));
  OngoingRelation s(Schema({{"A", ValueType::kString}}));
  EXPECT_FALSE(Union(r, s).ok());
  EXPECT_FALSE(Difference(r, s).ok());
}

TEST(AlgebraTest, CoalesceRtMergesValueEqualTuples) {
  OngoingRelation r(Schema({{"A", ValueType::kInt64}}));
  ASSERT_TRUE(r.InsertWithRt({Value::Int64(1)}, IntervalSet{{0, 10}}).ok());
  ASSERT_TRUE(r.InsertWithRt({Value::Int64(1)}, IntervalSet{{10, 20}}).ok());
  ASSERT_TRUE(r.InsertWithRt({Value::Int64(2)}, IntervalSet{{0, 5}}).ok());
  OngoingRelation coalesced = CoalesceRt(r);
  ASSERT_EQ(coalesced.size(), 2u);
  EXPECT_EQ(coalesced.tuple(0).rt(), (IntervalSet{{0, 20}}));
  // Instantiations unchanged at every reference time.
  for (TimePoint rt = -5; rt <= 25; ++rt) {
    EXPECT_TRUE(InstantiatedRelationsEqual(InstantiateRelation(r, rt),
                                           InstantiateRelation(coalesced, rt)))
        << rt;
  }
}

TEST(AlgebraTest, DifferenceSubtractsMatchingReferenceTimes) {
  // r and s contain the same fixed tuple, but s only belongs to the
  // instantiated relations during [5, 15): the difference keeps the
  // remaining reference times.
  OngoingRelation r(Schema({{"A", ValueType::kInt64}}));
  OngoingRelation s(Schema({{"A", ValueType::kInt64}}));
  ASSERT_TRUE(r.InsertWithRt({Value::Int64(1)}, IntervalSet{{0, 20}}).ok());
  ASSERT_TRUE(s.InsertWithRt({Value::Int64(1)}, IntervalSet{{5, 15}}).ok());
  auto d = Difference(r, s);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->size(), 1u);
  EXPECT_EQ(d->tuple(0).rt(), (IntervalSet{{0, 5}, {15, 20}}));
}

TEST(AlgebraTest, DifferenceWithOngoingAttributesUsesInstantiatedEquality) {
  // r holds now, s holds fixed 10: they instantiate equal only at rt=10,
  // so exactly that reference time is subtracted.
  OngoingRelation r(Schema({{"T", ValueType::kOngoingTimePoint}}));
  OngoingRelation s(Schema({{"T", ValueType::kOngoingTimePoint}}));
  ASSERT_TRUE(
      r.Insert({Value::Ongoing(OngoingTimePoint::Now())}).ok());
  ASSERT_TRUE(
      s.Insert({Value::Ongoing(OngoingTimePoint::Fixed(10))}).ok());
  auto d = Difference(r, s);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->size(), 1u);
  EXPECT_FALSE(d->tuple(0).rt().Contains(10));
  EXPECT_TRUE(d->tuple(0).rt().Contains(9));
  EXPECT_TRUE(d->tuple(0).rt().Contains(11));
}

TEST(AlgebraTest, DifferenceRemovesFullyShadowedTuples) {
  OngoingRelation r(Schema({{"A", ValueType::kInt64}}));
  OngoingRelation s(Schema({{"A", ValueType::kInt64}}));
  ASSERT_TRUE(r.InsertWithRt({Value::Int64(1)}, IntervalSet{{5, 15}}).ok());
  ASSERT_TRUE(s.Insert({Value::Int64(1)}).ok());  // trivial RT
  auto d = Difference(r, s);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->size(), 0u);
}

}  // namespace
}  // namespace ongoingdb
