// The four workloads of the end-to-end benchmark. Each builds its inputs
// from the seed in Setup(), and Round() runs one whole round of its
// operation mix through the harness. Rounds are identical: a workload
// whose round modifies data restores its inputs (untimed) before the
// next round, so every round does the same work and allocates the same
// bytes however many rounds a run completes.
#pragma once

#include <memory>
#include <string>

#include "harness.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds inputs, registers tables, creates views (timed as setup).
  virtual void Setup(uint64_t seed, Harness* h) = 0;
  /// One whole round of the operation mix. With h->checking set (the
  /// warm-up round), every result is also checked.
  virtual void Round(Harness* h) = 0;
  /// Untimed checks of the final state and the per-layer counters that
  /// are read once at the end.
  virtual void Finish(Harness* /*h*/) {}
  /// The quantile of its operation times a workload's timings report.
  /// A serial operation repeats the same work, and a shared host can run
  /// it at one of two speeds for seconds at a time, so a run's median
  /// falls on whichever speed held longer; the lower decile is the cost at
  /// the fast speed and holds still as long as some of the run had it.
  virtual double TimingQuantile() const { return 0.1; }
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench
