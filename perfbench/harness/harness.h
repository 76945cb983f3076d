// The run loop's shared state: op timing on the client thread, the
// in-memory span trace, and the statistics both are reported with.
//
// Every workload runs on one closed-loop client thread: it issues one
// operation, waits for its reply, and only then issues the next. An
// operation is timed from the call until it returns, together with the
// bytes the calling thread requested from operator new meanwhile
// (util/alloc_counter.h, linked into the harness only).
#pragma once

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check.h"
#include "util/alloc_counter.h"
#include "util/status.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// CPU time of the whole process (all threads), for the parallel plans.
inline int64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 + tv.tv_usec * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

/// Resident set size from /proc/self/statm, in MiB, after the heap has
/// returned its free pages (malloc_trim), so the figure is the memory
/// the process still holds rather than how many per-thread arenas
/// happen to cache freed blocks.
inline double ResidentMiB() {
  malloc_trim(0);
  long pages_total = 0, pages_resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2) {
      pages_resident = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Quantile by linear interpolation between closest ranks; 0 if empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Which reported operation class a span was recorded in: the
/// workload's lead or second operation, or neither. Per-layer medians
/// are taken within one class, so that they, like the end-to-end
/// medians, are medians of one repeated operation and not of a mix.
enum class SpanClass : uint8_t { kOther, kLead, kSecond };

/// One recorded span: a call into one module, timed from the harness.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  ///< index of the enclosing span, -1 at top level
  uint32_t op;     ///< the client operation (statement) it belongs to
  SpanClass cls;   ///< the reported class of that operation
  uint64_t alloc_bytes;
};

/// Spans kept in memory and written out at the end of a traced run.
/// Recording never allocates once the trace is enabled (capacity is
/// reserved up front), so spans do not perturb the byte counts they sit
/// beside.
class Tracer {
 public:
  static constexpr size_t kCapacity = size_t{1} << 20;

  void Enable() {
    on_ = true;
    spans_.reserve(kCapacity);
    stack_.reserve(64);
  }
  /// The traced code path runs while on; spans are kept only while
  /// recording (the warm-up round runs the traced path unrecorded).
  bool on() const { return on_; }
  void SetRecording(bool recording) { recording_ = on_ && recording; }
  /// Starts the next client operation; spans until the next call
  /// belong to it and to class `cls`.
  void NextOp(SpanClass cls) {
    ++op_;
    cls_ = cls;
  }
  /// Spans recorded from now on belong to class `cls`.
  void SetClass(SpanClass cls) { cls_ = cls; }
  SpanClass current_class() const { return cls_; }

  int Begin(const char* name) {
    if (!recording_ || spans_.size() == kCapacity) return -1;
    const int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, NowNs(), 0, parent, op_, cls_, 0});
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void End(int id, uint64_t alloc_bytes) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    spans_[static_cast<size_t>(id)].alloc_bytes = alloc_bytes;
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every span named `name`, within class `cls`
  /// unless it is kOther.
  std::vector<double> DurationsMs(const std::string& name,
                                  SpanClass cls = SpanClass::kOther) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name && (cls == SpanClass::kOther || s.cls == cls)) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
    return out;
  }
  /// Mean bytes per span named `name` in class `cls`, in KiB.
  double MeanAllocKiB(const std::string& name, SpanClass cls) const {
    double bytes = 0, n = 0;
    for (const Span& s : spans_) {
      if (name == s.name && s.cls == cls) {
        bytes += static_cast<double>(s.alloc_bytes);
        n += 1;
      }
    }
    return n == 0 ? 0 : bytes / n / 1024.0;
  }
  /// Self time (ms) per span: duration minus the direct children's.
  std::vector<double> SelfMs() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<size_t>(s.parent)] -=
            static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
    }
    return self;
  }

  /// One JSON object per span, one per line.
  bool WriteJsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::vector<double> self = SelfMs();
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"op\":" << s.op
          << ",\"class\":" << static_cast<int>(s.cls) << ",\"parent\":" << s.parent
          << ",\"start_us\":" << (s.start_ns - t0) / 1000
          << ",\"dur_us\":" << (s.end_ns - s.start_ns) / 1000
          << ",\"self_us\":" << static_cast<int64_t>(self[i] * 1000)
          << ",\"alloc_bytes\":" << s.alloc_bytes << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool on_ = false;
  bool recording_ = false;
  uint32_t op_ = 0;
  SpanClass cls_ = SpanClass::kOther;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// Records a span around one call into a module; no-op when tracing is
/// off.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~SpanScope() { tracer_->End(id_, alloc_.bytes()); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
  ongoingdb::AllocScope alloc_;
};

/// Latencies and allocated bytes of one class of timed operations.
struct OpClass {
  std::vector<double> ms;
  uint64_t bytes = 0;
  double AllocKiBPerOp() const {
    return ms.empty() ? 0 : static_cast<double>(bytes) / static_cast<double>(ms.size()) / 1024.0;
  }
};

/// Shared state of one benchmark run.
class Harness {
 public:
  Tracer tracer;
  Checker checker;
  /// The two reported operation classes of the workload.
  OpClass lead, second;
  /// Wall time per whole round, minus excluded (check/reset) time.
  std::vector<double> round_ms;
  uint64_t attempted = 0, failed = 0;
  /// Client-thread CPU and wall time summed over timed operations.
  double op_cpu_ms = 0, op_wall_ms = 0;
  /// Named layer counters and samples the workloads fill (traced run).
  std::map<std::string, std::vector<double>> layer_samples;
  std::map<std::string, double> layer_counts;

  /// True while the timed phase runs; the warm-up round executes the
  /// same operations without recording them.
  bool timing = false;
  bool checking = false;

  /// Times one operation. `rows` (optional) receives its result size;
  /// outside the warm-up round the size must equal the one the checked
  /// warm-up round produced at the same position.
  template <typename F>
  void Op(OpClass* cls, F&& f) {
    const size_t position = op_position_++;
    tracer.NextOp(ClassOf(cls));
    const int64_t cpu0 = ThreadCpuNs();
    ongoingdb::AllocScope alloc;
    const int64_t t0 = NowNs();
    size_t rows = 0;
    ongoingdb::Status st = f(&rows);
    const int64_t t1 = NowNs();
    const uint64_t bytes = alloc.bytes();
    const int64_t cpu1 = ThreadCpuNs();
    if (timing) {
      ++attempted;
      if (!st.ok()) {
        ++failed;
        if (failed == 1) {
          std::fprintf(stderr, "first failed operation: %s\n",
                       st.ToString().c_str());
        }
      }
      const double ms = static_cast<double>(t1 - t0) / 1e6;
      op_wall_ms += ms;
      op_cpu_ms += static_cast<double>(cpu1 - cpu0) / 1e6;
      if (cls != nullptr) {
        cls->ms.push_back(ms);
        cls->bytes += bytes;
      }
    } else if (!st.ok()) {
      checker.Fail("warm-up operation failed: " + st.ToString());
    }
    const int64_t x0 = NowNs();
    if (checking) {
      expected_rows_.push_back(rows);
    } else if (position < expected_rows_.size() &&
               rows != expected_rows_[position] && st.ok()) {
      checker.Fail("operation " + std::to_string(position) + " of a round returned " +
                   std::to_string(rows) + " rows; the checked warm-up round returned " +
                   std::to_string(expected_rows_[position]));
    }
    excluded_ns += NowNs() - x0;
    tracer.SetClass(SpanClass::kOther);
  }
  SpanClass ClassOf(const OpClass* cls) const {
    return cls == &lead     ? SpanClass::kLead
           : cls == &second ? SpanClass::kSecond
                            : SpanClass::kOther;
  }

  /// Runs `f` outside the timed region (checks, resets, reference-only
  /// calls): its wall time is excluded from the phase clock.
  template <typename F>
  void Untimed(F&& f) {
    const int64_t t0 = NowNs();
    f();
    excluded_ns += NowNs() - t0;
  }

  void BeginRound() { op_position_ = 0; }

  int64_t excluded_ns = 0;

 private:
  size_t op_position_ = 0;
  std::vector<size_t> expected_rows_;
};

}  // namespace perfbench
