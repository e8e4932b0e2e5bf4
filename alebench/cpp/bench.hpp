// Shared pieces of the ALE benchmark binary: the benchmark's own input
// generators, clocks, trace spans, metric maps and the workload results.
//
// Inputs are generated here, from the --seed argument, with generators
// that belong to the benchmark rather than to the library, so a library
// change can never change what the benchmark feeds it.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/cycles.hpp"

namespace alebench {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- inputs

inline std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream) noexcept {
    std::uint64_t x = seed * 0x2545f4914f6cdd1dULL + stream;
    for (auto& w : s_) w = mix64(x += 0x9e3779b97f4a7c15ULL);
  }
  std::uint64_t next() noexcept {
    const std::uint64_t r = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return r;
  }
  /// Uniform in [0, n) for n < 2^32 (multiply-shift; the bias is far
  /// below what the benchmark can measure).
  std::uint64_t below(std::uint64_t n) noexcept {
    return ((next() >> 32) * n) >> 32;
  }
  /// Uniform in [0, 1).
  double unit() noexcept { return static_cast<double>(next() >> 11) * 0x1p-53; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

/// Zipfian ranks over [0, n) by Gray et al.'s method (as in YCSB); rank 0
/// is the hottest. The O(n) zeta sum is computed once per instance, so
/// build one and copy it into each thread.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n) {
    double zetan = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(i, theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    zetan_ = zetan;
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
    half_pow_ = 1.0 + std::pow(0.5, theta);
  }
  std::uint64_t next(Rng& rng) const noexcept {
    const double u = rng.unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < half_pow_) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }
  /// Spread ranks over the id space so hot ids are not adjacent.
  std::uint64_t scramble(std::uint64_t rank) const noexcept {
    return mix64(rank ^ 0x5eedULL) % n_;
  }

 private:
  std::uint64_t n_;
  double alpha_ = 0, zetan_ = 0, eta_ = 0, half_pow_ = 0;
};

// ---------------------------------------------------------------- clocks

/// TSC ticks (the unit the library's service latency recorder uses) and
/// their rate, measured against steady_clock from process start, so a
/// conversion made at the end of a run rests on seconds of clock.
class TickClock {
 public:
  TickClock() : wall0_(Clock::now()), tick0_(ale::raw_ticks()) {}
  static std::uint64_t now() noexcept { return ale::raw_ticks(); }
  double ticks_per_ns() const noexcept {
    const auto wall = Clock::now();
    const std::uint64_t t = ale::raw_ticks();
    const double ns =
        std::chrono::duration<double, std::nano>(wall - wall0_).count();
    return ns > 0 ? static_cast<double>(t - tick0_) / ns : 1.0;
  }
  Clock::time_point start() const noexcept { return wall0_; }
  std::uint64_t start_ticks() const noexcept { return tick0_; }

 private:
  Clock::time_point wall0_;
  std::uint64_t tick0_;
};

/// The process clock, constructed on entering main().
TickClock& process_clock();

/// One progress line on stderr, stamped with seconds since process start.
void progress(const char* what);

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Throughput is rated per slice of the measured window; a workload
/// reports the median slice, so a stretch in which the host took the CPUs
/// away moves one slice, not the figure.
inline constexpr double kSliceSeconds = 0.1;

/// A measured window cut into segments that the main thread advances on
/// the clock while workers read `current` between requests. In a traced
/// run the odd segments are traced and the even ones are not, so traced
/// and untraced throughput come from interleaved stretches of one run.
class Segments {
 public:
  Segments(int count, bool trace_odd, bool trace_all)
      : count_(count), trace_odd_(trace_odd), trace_all_(trace_all) {}
  int count() const noexcept { return count_; }
  int current() const noexcept {
    return current_.load(std::memory_order_acquire);
  }
  bool traced(int k) const noexcept {
    return trace_all_ || (trace_odd_ && (k & 1) == 1);
  }
  /// Runs the window on the calling thread, reading `done` (operations
  /// completed so far by all workers) at every slice boundary; returns
  /// once the window has ended.
  void run(double seconds, const std::function<std::uint64_t()>& done);
  /// Operations per second of every slice of the traced (or untraced)
  /// segments.
  std::vector<double> slice_rates(bool traced) const;

 private:
  struct Slice {
    int segment;
    double seconds;
    std::uint64_t ops;
  };
  int count_;
  bool trace_odd_, trace_all_;
  std::vector<Slice> slices_;
  std::atomic<int> current_{-1};
};

/// Prints the distribution of slice rates on one stdout line.
void print_rates(const char* what, std::vector<double> rates);

// ---------------------------------------------------------------- spans

enum class SpanName : std::uint8_t {
  kOp,            // bench.op: one sampled benchmark operation (request)
  kHashmapGet,
  kHashmapInsert,
  kHashmapRemove,
  kSvcEnqueue,
  kSvcDrain,      // one drain_shard call; aux = requests it served
  kKvdbGet,
  kKvdbSet,
  kKvdbScan,
  kKvdbRemove,
};
const char* to_string(SpanName n) noexcept;

struct Span {
  std::uint64_t start = 0, end = 0;  // ticks
  std::uint64_t request = 0;         // shared by the spans of one request
  std::int32_t parent = -1;          // index in the same log, or -1
  std::uint32_t aux = 0;
  SpanName name = SpanName::kOp;
};

/// One thread's spans, kept in memory until the run ends. The log holds at
/// most kCapacity spans, allocated up front so recording never reallocates
/// in the middle of a measurement; spans beyond it are dropped.
class SpanLog {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 17;

  explicit SpanLog(std::uint32_t thread) : thread_(thread) {
    spans_.reserve(kCapacity);
  }
  std::uint64_t new_request() noexcept {
    return (static_cast<std::uint64_t>(thread_) << 40) | ++requests_;
  }
  /// Opens a span now; returns its index, or -1 when the log is full.
  std::int32_t open(SpanName name, std::uint64_t request,
                    std::int32_t parent = -1) {
    return record(name, request, parent, TickClock::now(), 0);
  }
  void close(std::int32_t idx, std::uint32_t aux = 0) noexcept {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end = TickClock::now();
    spans_[static_cast<std::size_t>(idx)].aux = aux;
  }
  /// Appends a span whose times are already known.
  std::int32_t record(SpanName name, std::uint64_t request,
                      std::int32_t parent, std::uint64_t start,
                      std::uint64_t end, std::uint32_t aux = 0) {
    if (spans_.size() == kCapacity) return -1;
    Span s;
    s.name = name;
    s.request = request;
    s.parent = parent;
    s.start = start;
    s.end = end;
    s.aux = aux;
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint32_t thread() const noexcept { return thread_; }

 private:
  std::uint32_t thread_;
  std::uint64_t requests_ = 0;
  std::vector<Span> spans_;
};

/// Median span duration (ns) per name over all logs; names with no spans
/// are absent.
std::map<SpanName, double> span_medians_ns(const std::vector<SpanLog>& logs,
                                           double ticks_per_ns);

/// Append every span to `path` as CSV (thread,index,name,request,parent,
/// start_ns,end_ns,aux), times relative to process start. Returns false on
/// an I/O error.
bool write_spans(const std::string& path, const std::string& workload,
                 const std::vector<SpanLog>& logs, double ticks_per_ns,
                 bool append);

// ---------------------------------------------------------------- results

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What every workload hands back: the operation counts, the outcome of
/// its output checks, and its metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  Metrics end_to_end;
  Metrics per_layer;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// How far Σ granule executions may stray from the operations the
/// benchmark issued: four standard errors of a BFP counter at the default
/// threshold T = 512 (relative standard error sqrt(2/T) = 6.25%, §4.3).
inline constexpr double kExecCountTolerance = 4 * 0.0625;

/// Per-worker counters, one cache line each.
template <typename T>
struct alignas(64) Padded {
  T value{};
};

inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  return (hi + *std::max_element(v.begin(),
                                 v.begin() + static_cast<std::ptrdiff_t>(mid))) /
         2.0;
}

/// Resident set size of this process in MB (from /proc/self/statm).
double rss_mb();

/// CPUs this process may run on (what nproc reports).
unsigned online_workers();

}  // namespace alebench
