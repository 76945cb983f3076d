// Independent result checks of the benchmark harness.
//
// Engine results are compared as multisets of canonical row strings.
// A row is encoded value by value ("I<int>", "S<text>", "V<start>,<end>"
// for a fixed interval, ...), so an engine tuple and a harness model row
// encode identically exactly when they hold the same values. The
// harness computes its expected rows without the engine (model.h); the
// checks here only compare.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/time.h"
#include "relation/relation.h"

namespace perfbench {

using ongoingdb::TimePoint;

/// Builds one canonical row string, value by value.
class RowKey {
 public:
  RowKey& Int(int64_t v);
  RowKey& Str(const std::string& v);
  RowKey& Iv(TimePoint start, TimePoint end);
  std::string Take() { return std::move(key_); }

 private:
  std::string key_;
};

using Rows = std::vector<std::string>;

/// Encodes every tuple of a relation whose values are all fixed (an
/// instantiated result or an ExecuteAtReferenceTime result). Ongoing
/// values are encoded verbatim and never match a model row.
Rows EncodeFixedRelation(const ongoingdb::OngoingRelation& relation);

/// Instantiates an ongoing result at `rt` (the bind operator) and
/// encodes it.
Rows EncodeAt(const ongoingdb::OngoingRelation& ongoing, TimePoint rt);

/// Empty when `actual` and `expected` hold the same rows with the same
/// multiplicities; otherwise a one-line description of the first
/// difference. Both vectors are sorted in place.
std::string DiffMultisets(Rows* actual, Rows* expected);

/// Empty when the sequence numbers rise by exactly one from
/// `first_expected` on; otherwise a description of the first gap.
std::string DiffCommitSequence(const std::vector<uint64_t>& seqs,
                               uint64_t first_expected);

/// Collects check failures of one run.
class Checker {
 public:
  /// Records a failure when `diff` is non-empty. Returns diff.empty().
  bool Expect(const std::string& label, const std::string& diff);
  void Fail(const std::string& message) { failures_.push_back(message); }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  uint64_t comparisons() const { return comparisons_; }

 private:
  std::vector<std::string> failures_;
  uint64_t comparisons_ = 0;
};

}  // namespace perfbench
