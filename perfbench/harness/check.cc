#include "check.h"

#include <algorithm>
#include <iterator>

namespace perfbench {

using namespace ongoingdb;

RowKey& RowKey::Int(int64_t v) {
  key_ += 'I';
  key_ += std::to_string(v);
  key_ += '|';
  return *this;
}

RowKey& RowKey::Str(const std::string& v) {
  key_ += 'S';
  key_ += std::to_string(v.size());
  key_ += ':';
  key_ += v;
  key_ += '|';
  return *this;
}

RowKey& RowKey::Iv(TimePoint start, TimePoint end) {
  key_ += 'V';
  key_ += std::to_string(start);
  key_ += ',';
  key_ += std::to_string(end);
  key_ += '|';
  return *this;
}

namespace {

std::string EncodeTuple(const Tuple& t) {
  RowKey key;
  for (const Value& v : t.values()) {
    switch (v.type()) {
      case ValueType::kInt64:
        key.Int(v.AsInt64());
        break;
      case ValueType::kString:
        key.Str(v.AsString());
        break;
      case ValueType::kFixedInterval:
        key.Iv(v.AsInterval().start, v.AsInterval().end);
        break;
      default:
        // Types the harness never produces on its side: encode them so
        // they cannot collide with a model row.
        key.Str("?" + std::string(ValueTypeToString(v.type())) + ":" +
                v.ToString());
        break;
    }
  }
  return key.Take();
}

}  // namespace

Rows EncodeFixedRelation(const OngoingRelation& relation) {
  Rows rows;
  rows.reserve(relation.size());
  for (const Tuple& t : relation.tuples()) rows.push_back(EncodeTuple(t));
  return rows;
}

Rows EncodeAt(const OngoingRelation& ongoing, TimePoint rt) {
  return EncodeFixedRelation(InstantiateRelation(ongoing, rt));
}

std::string DiffMultisets(Rows* actual, Rows* expected) {
  std::sort(actual->begin(), actual->end());
  std::sort(expected->begin(), expected->end());
  if (*actual == *expected) return "";
  std::vector<std::string> missing, extra;
  std::set_difference(expected->begin(), expected->end(), actual->begin(),
                      actual->end(), std::back_inserter(missing));
  std::set_difference(actual->begin(), actual->end(), expected->begin(),
                      expected->end(), std::back_inserter(extra));
  std::string out = std::to_string(actual->size()) + " rows vs " +
                    std::to_string(expected->size()) + " expected; " +
                    std::to_string(missing.size()) + " missing, " +
                    std::to_string(extra.size()) + " unexpected";
  if (!missing.empty()) out += "; first missing " + missing.front();
  if (!extra.empty()) out += "; first unexpected " + extra.front();
  return out;
}

std::string DiffCommitSequence(const std::vector<uint64_t>& seqs,
                               uint64_t first_expected) {
  uint64_t want = first_expected;
  for (size_t i = 0; i < seqs.size(); ++i, ++want) {
    if (seqs[i] != want) {
      return "commit " + std::to_string(i) + " published sequence " +
             std::to_string(seqs[i]) + ", expected " + std::to_string(want);
    }
  }
  return "";
}

bool Checker::Expect(const std::string& label, const std::string& diff) {
  ++comparisons_;
  if (diff.empty()) return true;
  failures_.push_back(label + ": " + diff);
  return false;
}

}  // namespace perfbench
