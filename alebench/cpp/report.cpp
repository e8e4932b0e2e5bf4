#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "bench.hpp"

namespace alebench {

TickClock& process_clock() {
  static TickClock clock;
  return clock;
}

void progress(const char* what) {
  std::fprintf(stderr, "[alebench %7.3fs] %s\n",
               seconds_between(process_clock().start(), Clock::now()), what);
}

void Segments::run(double seconds, const std::function<std::uint64_t()>& done) {
  const auto len = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / count_));
  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kSliceSeconds));
  const Clock::time_point start = Clock::now();
  current_.store(0, std::memory_order_release);
  Clock::time_point t = start;
  std::uint64_t ops = done();
  for (int k = 0; k < count_; ++k) {
    const Clock::time_point end = start + len * (k + 1);
    while (t < end) {
      std::this_thread::sleep_until(std::min(t + slice, end));
      const Clock::time_point now = Clock::now();
      const std::uint64_t now_ops = done();
      // A stub shorter than half a slice is too short to rate on its own.
      if (now - t >= slice / 2) {
        slices_.push_back({k, seconds_between(t, now), now_ops - ops});
      }
      t = now;
      ops = now_ops;
    }
    current_.store(k + 1, std::memory_order_release);
  }
}

std::vector<double> Segments::slice_rates(bool traced) const {
  std::vector<double> out;
  for (const Slice& s : slices_) {
    if (this->traced(s.segment) == traced && s.seconds > 0) {
      out.push_back(static_cast<double>(s.ops) / s.seconds);
    }
  }
  return out;
}

void print_rates(const char* what, std::vector<double> rates) {
  if (rates.empty()) return;
  std::sort(rates.begin(), rates.end());
  const auto at = [&](double q) {
    return rates[static_cast<std::size_t>(q * static_cast<double>(rates.size() - 1))];
  };
  std::printf("%s: %zu slices of %.0f ms, ops/s min %.4g q1 %.4g median %.4g "
              "q3 %.4g max %.4g\n",
              what, rates.size(), kSliceSeconds * 1000, rates.front(), at(0.25),
              at(0.5), at(0.75), rates.back());
}

const char* to_string(SpanName n) noexcept {
  switch (n) {
    case SpanName::kOp: return "bench.op";
    case SpanName::kHashmapGet: return "hashmap.get";
    case SpanName::kHashmapInsert: return "hashmap.insert";
    case SpanName::kHashmapRemove: return "hashmap.remove";
    case SpanName::kSvcEnqueue: return "svc.enqueue";
    case SpanName::kSvcDrain: return "svc.drain";
    case SpanName::kKvdbGet: return "kvdb.get";
    case SpanName::kKvdbSet: return "kvdb.set";
    case SpanName::kKvdbScan: return "kvdb.scan";
    case SpanName::kKvdbRemove: return "kvdb.remove";
  }
  return "?";
}

std::map<SpanName, double> span_medians_ns(const std::vector<SpanLog>& logs,
                                           double ticks_per_ns) {
  std::map<SpanName, std::vector<double>> by_name;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      if (s.end < s.start) continue;  // left open by a stopped worker
      by_name[s.name].push_back(static_cast<double>(s.end - s.start) /
                                ticks_per_ns);
    }
  }
  std::map<SpanName, double> out;
  for (auto& [name, v] : by_name) out[name] = median_of(std::move(v));
  return out;
}

bool write_spans(const std::string& path, const std::string& workload,
                 const std::vector<SpanLog>& logs, double ticks_per_ns,
                 bool append) {
  std::ofstream f(path, append ? std::ios::app : std::ios::trunc);
  if (!f) return false;
  if (!append) f << "workload,thread,index,name,request,parent,start_ns,end_ns,aux\n";
  const std::uint64_t base = process_clock().start_ticks();
  const auto ns = [&](std::uint64_t t) {
    return static_cast<double>(t - base) / ticks_per_ns;
  };
  char line[256];
  for (const SpanLog& log : logs) {
    const auto& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::snprintf(line, sizeof line, "%s,%u,%zu,%s,%llu,%d,%.1f,%.1f,%u\n",
                    workload.c_str(), log.thread(), i, to_string(s.name),
                    static_cast<unsigned long long>(s.request), s.parent,
                    ns(s.start), ns(s.end), s.aux);
      f << line;
    }
  }
  return static_cast<bool>(f);
}

double rss_mb() {
  std::ifstream f("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  if (!(f >> size >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

unsigned online_workers() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

}  // namespace alebench
