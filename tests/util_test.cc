// Tests of the util layer: Status/Result error handling, RNG, timing,
// table printing, and the chained hash index.
#include <gtest/gtest.h>

#include <sstream>

#include "util/chained_hash_index.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace ongoingdb {
namespace {

// Random appends and swap-removes against a plain vector of hashes, in
// a hash space small enough that chains share buckets and hashes: every
// id must stay reachable from its hash's bucket exactly once.
TEST(ChainedHashIndexTest, FollowsAppendAndSwapRemove) {
  Rng rng(5);
  ChainedHashIndex index;
  std::vector<size_t> model;
  auto check = [&] {
    ASSERT_EQ(index.size(), model.size());
    std::vector<int> seen(model.size(), 0);
    for (size_t id = 0; id < model.size(); ++id) {
      ASSERT_EQ(index.HashAt(static_cast<uint32_t>(id)), model[id]);
      for (uint32_t e = index.First(model[id]); e != ChainedHashIndex::kEnd;
           e = index.Next(e)) {
        if (e == id) ++seen[id];
      }
    }
    for (size_t id = 0; id < model.size(); ++id) EXPECT_EQ(seen[id], 1) << id;
  };
  index.Assign(40, [](size_t i) { return i % 7; });
  for (size_t i = 0; i < 40; ++i) model.push_back(i % 7);
  check();
  for (int step = 0; step < 600; ++step) {
    if (model.empty() || rng.Bernoulli(0.55)) {
      const size_t hash = static_cast<size_t>(rng.Uniform(0, 40));
      index.Append(hash);
      model.push_back(hash);
    } else {
      const size_t id = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(model.size()) - 1));
      index.SwapRemove(static_cast<uint32_t>(id));
      model[id] = model.back();
      model.pop_back();
    }
    if (step % 50 == 0) check();
  }
  check();
  const size_t probe = model.front();
  EXPECT_EQ(index.Find(probe, [&](uint32_t id) { return id == 0; }), 0u);
  EXPECT_EQ(index.Find(probe, [](uint32_t) { return false; }),
            ChainedHashIndex::kEnd);
}

TEST(StatusTest, OkState) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_EQ(Status::OK(), st);
}

TEST(StatusTest, ErrorStatesCarryCodeAndMessage) {
  Status st = Status::InvalidArgument("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad input");
  std::ostringstream os;
  os << st;
  EXPECT_EQ(os.str(), "Invalid argument: bad input");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::TypeError("x").code(), StatusCode::kTypeError);
  EXPECT_EQ(Status::SchemaMismatch("x").code(), StatusCode::kSchemaMismatch);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

Status FailsHalfway(bool fail) {
  ONGOINGDB_RETURN_NOT_OK(fail ? Status::IOError("boom") : Status::OK());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacro) {
  EXPECT_TRUE(FailsHalfway(false).ok());
  EXPECT_EQ(FailsHalfway(true).code(), StatusCode::kIOError);
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Result<int> DoublePositive(int v) {
  ONGOINGDB_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(ResultTest, ValueAndErrorStates) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 21);
  EXPECT_TRUE(ok.status().ok());
  Result<int> err = ParsePositive(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto doubled = DoublePositive(21);
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(*doubled, 42);
  EXPECT_FALSE(DoublePositive(0).ok());
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RngTest, UniformBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.UniformReal();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, SkewedTowardsHighConcentratesMassLate) {
  Rng rng(13);
  int late = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (rng.SkewedTowardsHigh(0, 100, 3.0) >= 50) ++late;
  }
  // With skew 3 well over half the mass is in the upper half.
  EXPECT_GT(late, n * 6 / 10);
}

TEST(RngTest, StringLengthAndAlphabet) {
  Rng rng(17);
  std::string s = rng.String(64);
  EXPECT_EQ(s.size(), 64u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile int64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), 0.0);
  t.Reset();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

TEST(TimerTest, MedianSecondsUsesMiddleValue) {
  int calls = 0;
  double median = MedianSeconds([&calls] { ++calls; }, 5);
  EXPECT_EQ(calls, 5);
  EXPECT_GE(median, 0.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter printer;
  printer.SetHeader({"a", "long header"});
  printer.AddRow({"value", "x"});
  std::ostringstream os;
  printer.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("a      long header"), std::string::npos);
  EXPECT_NE(out.find("value  x"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TablePrinterTest, FormatDoublePrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

}  // namespace
}  // namespace ongoingdb
