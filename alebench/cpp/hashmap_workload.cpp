// hashmap_read / hashmap_write: the paper's §3 HashMap (one lock, 1024
// buckets) over a 4096-key range, half of it loaded, driven by one worker
// per CPU. A "request" is a chunk of 64 consecutive operations of one
// worker; its duration is the latency the workload reports.
//
// The adaptive policy learns each lock once, from its first executions, and
// on this map the mode it settles on for HashMap.Get (HTM or SWOpt) differs
// from one learning to the next, with throughputs far apart. One learning
// per run would make every run a coin flip, so a run is up to kRounds rounds:
// each builds a fresh map (a fresh lock, learnt from scratch under the one
// installed policy), loads it and measures it for an equal share of the
// window. A run reports the mean over its rounds, which is what a user of
// the map sees on average over the policy's outcomes.
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "hashmap/hashmap.hpp"
#include "policy/adaptive_policy.hpp"
#include "probes.hpp"
#include "sync/parking.hpp"
#include "workloads.hpp"

namespace alebench {

namespace {

constexpr std::size_t kBuckets = 1024;
constexpr std::uint64_t kKeyRange = 4096;
constexpr std::uint64_t kLoaded = kKeyRange / 2;
constexpr std::uint64_t kChunk = 64;
constexpr std::uint64_t kSampleChunks = 16;  // traced: first op of 1 in 16
constexpr int kRounds = 40;
constexpr double kRoundSeconds = 0.5;
const std::string kLockName = "hashmap.tblLock";

/// The value every key maps to; a get that hits must return exactly this.
std::uint64_t value_of(std::uint64_t key) noexcept {
  return mix64(key ^ 0xa1e0a1e0ULL) | 1;
}

struct WorkerResult {
  std::uint64_t ops = 0;
  std::uint64_t inserted = 0, removed = 0, bad_values = 0;
  std::vector<double> chunk_ticks;  // untraced segments only
};

/// What one round measured.
struct Round {
  std::uint64_t ops = 0;
  double throughput = 0;      // median untraced slice, ops/s
  double traced_throughput = 0;
  double p50_ticks = 0;       // median untraced request
  std::uint64_t converge_execs = 0;
  double exec_error = 0;
  LockTotals totals;
  std::string mode_of_get;    // the mode most gets finished in
};

Round run_round(const RunConfig& cfg, bool writes, int round, double seconds,
                std::vector<SpanLog>& logs, Outcome& out) {
  Round result;
  ale::AdaptivePolicy* adaptive = adaptive_policy();
  ale::AleHashMap map(kBuckets, kLockName);
  const std::uint64_t stream = 1000 * static_cast<std::uint64_t>(round);

  // ---- load: a seeded half of the key range, one thread, in seeded order.
  std::vector<std::uint64_t> keys(kKeyRange);
  std::iota(keys.begin(), keys.end(), 0);
  Rng load_rng(cfg.seed, stream);
  for (std::uint64_t i = kKeyRange - 1; i > 0; --i) {
    std::swap(keys[i], keys[load_rng.below(i + 1)]);
  }
  bool converged = false;
  std::uint64_t load_inserted = 0;
  for (std::uint64_t i = 0; i < kLoaded; ++i) {
    load_inserted += map.insert(keys[i], value_of(keys[i])) ? 1 : 0;
    if (adaptive != nullptr && !converged && adaptive->converged(map.lock_md())) {
      converged = true;
      result.converge_execs = i + 1;
    }
  }
  out.check(load_inserted == kLoaded, "load: every loaded key is new");
  if (round == 0) {
    out.end_to_end["loaded_rss_mb"] = {rss_mb(), "MB"};
    progress("hashmap: loaded");
  }
  // No telemetry snapshot is taken before the workers start: capturing one
  // flushes buffered statistics into the policy's view right after the
  // load, and traced and untraced runs must learn alike.

  // ---- measure
  const bool traced = cfg.traced || cfg.trace_all;
  Segments segs(traced && !cfg.trace_all ? 4 : 1, traced, cfg.trace_all);
  const unsigned n = cfg.threads;
  std::vector<WorkerResult> results(n);
  std::vector<Padded<std::atomic<std::uint64_t>>> published(n);
  std::atomic<std::uint64_t> seen_converged_at{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < n; ++t) {
    pool.emplace_back([&, t] {
      WorkerResult& r = results[t];
      SpanLog& log = logs[t];
      Rng rng(cfg.seed, stream + 100 + t);
      r.chunk_ticks.reserve(1 << 16);
      bool watch = t == 0 && adaptive != nullptr && !converged;
      std::uint64_t total = 0;
      int s;
      while ((s = segs.current()) < 0) std::this_thread::yield();
      while ((s = segs.current()) < segs.count()) {
        const bool traced_seg = segs.traced(s);
        const std::uint64_t t0 = TickClock::now();
        for (std::uint64_t i = 0; i < kChunk; ++i) {
          const std::uint64_t k = rng.below(kKeyRange);
          const std::uint64_t roll = writes ? rng.below(10) : 9;
          std::uint64_t v = 0;
          const bool sample =
              traced_seg && i == 0 && (total / kChunk) % kSampleChunks == 0;
          std::uint64_t req = 0;
          std::int32_t parent = -1, child = -1;
          if (sample) {
            req = log.new_request();
            parent = log.open(SpanName::kOp, req);
          }
          if (roll == 0) {
            if (sample) child = log.open(SpanName::kHashmapInsert, req, parent);
            r.inserted += map.insert(k, value_of(k)) ? 1 : 0;
          } else if (roll == 1) {
            if (sample) child = log.open(SpanName::kHashmapRemove, req, parent);
            r.removed += map.remove(k) ? 1 : 0;
          } else {
            if (sample) child = log.open(SpanName::kHashmapGet, req, parent);
            if (map.get(k, v) && v != value_of(k)) ++r.bad_values;
          }
          if (sample) {
            log.close(child);
            log.close(parent);
          }
        }
        const std::uint64_t t1 = TickClock::now();
        total += kChunk;
        if (!traced_seg) r.chunk_ticks.push_back(static_cast<double>(t1 - t0));
        published[t].value.store(total, std::memory_order_relaxed);
        if (watch && adaptive->converged(map.lock_md())) {
          std::uint64_t sum = kLoaded;
          for (auto& p : published) sum += p.value.load(std::memory_order_relaxed);
          seen_converged_at.store(sum);
          watch = false;
        }
      }
      r.ops = total;
    });
  }
  if (round == 0) {
    out.end_to_end["setup_s"] = {
        seconds_between(process_clock().start(), Clock::now()), "s"};
  }
  segs.run(seconds, [&] {
    std::uint64_t sum = 0;
    for (auto& p : published) sum += p.value.load(std::memory_order_relaxed);
    return sum;
  });
  for (auto& th : pool) th.join();

  std::uint64_t inserted = 0, removed = 0, bad = 0;
  std::vector<double> chunk_ticks;
  for (const WorkerResult& r : results) {
    result.ops += r.ops;
    inserted += r.inserted;
    removed += r.removed;
    bad += r.bad_values;
    chunk_ticks.insert(chunk_ticks.end(), r.chunk_ticks.begin(),
                       r.chunk_ticks.end());
  }
  result.throughput = median_of(segs.slice_rates(false));
  result.traced_throughput = median_of(segs.slice_rates(true));
  result.p50_ticks = median_of(std::move(chunk_ticks));
  if (!converged) {
    const std::uint64_t at = seen_converged_at.load();
    result.converge_execs = at != 0 ? at : kLoaded + result.ops;
  }

  // ---- checks: statistics first (nothing else has touched the lock yet),
  // then the map's contents.
  result.totals = lock_totals(kLockName);
  const double expected_execs = static_cast<double>(kLoaded + result.ops);
  result.exec_error =
      std::fabs(result.totals.executions - expected_execs) / expected_execs;
  out.check(result.exec_error <= kExecCountTolerance,
            "stats: granule executions " +
                std::to_string(result.totals.executions) + " vs " +
                std::to_string(expected_execs) + " operations");
  out.check(bad == 0, "get: " + std::to_string(bad) +
                          " hits returned a value other than their key's");
  const std::size_t size = map.size();
  const std::uint64_t expect_size = kLoaded + inserted - removed;
  out.check(size == expect_size,
            "size " + std::to_string(size) +
                " != loaded + inserted - removed = " +
                std::to_string(expect_size));
  std::uint64_t found = 0, walk_bad = 0;
  for (std::uint64_t k = 0; k < kKeyRange; ++k) {
    std::uint64_t v = 0;
    if (map.get(k, v)) {
      ++found;
      if (v != value_of(k)) ++walk_bad;
    }
  }
  out.check(walk_bad == 0, "walk: keys holding a value other than their own");
  out.check(found == size, "walk: " + std::to_string(size - found) +
                               " entries lie outside the key range");
  result.mode_of_get = get_mode(kLockName, "HashMap.Get");
  return result;
}

double mean_of(const std::vector<Round>& rounds, double Round::*field) {
  double sum = 0;
  for (const Round& r : rounds) sum += r.*field;
  return rounds.empty() ? 0.0 : sum / static_cast<double>(rounds.size());
}

}  // namespace

Outcome run_hashmap(const RunConfig& cfg, bool writes) {
  Outcome out;
  // Rounds of at least kRoundSeconds, so each is rated over whole slices.
  const int rounds =
      cfg.trace_all
          ? 1
          : std::clamp(static_cast<int>(cfg.seconds / kRoundSeconds), 1, kRounds);
  const std::uint64_t parks_before = ale::parking::park_count();
  std::vector<SpanLog> logs;
  for (unsigned t = 0; t < cfg.threads; ++t) logs.emplace_back(t);
  std::vector<Round> results;
  for (int r = 0; r < rounds; ++r) {
    results.push_back(
        run_round(cfg, writes, r, cfg.seconds / rounds, logs, out));
  }
  const double tpn = process_clock().ticks_per_ns();

  std::uint64_t ops = 0, max_converge = 0;
  double max_error = 0;
  LockTotals totals;
  std::string modes;
  for (const Round& r : results) {
    ops += r.ops;
    max_converge = std::max(max_converge, r.converge_execs);
    max_error = std::max(max_error, r.exec_error);
    totals += r.totals;
    modes += " " + r.mode_of_get;
  }
  out.attempted = ops;
  std::printf("hashmap: %d rounds, ops=%llu, HashMap.Get mode per round:%s\n",
              rounds, static_cast<unsigned long long>(ops), modes.c_str());
  std::printf("hashmap: per-round ops/s:");
  for (const Round& r : results) std::printf(" %.4g", r.throughput);
  std::printf("\n");

  if (!cfg.traced && !cfg.trace_all) {
    out.end_to_end["throughput_ops_s"] = {mean_of(results, &Round::throughput),
                                          "ops/s"};
    out.end_to_end["latency_p50_us"] = {
        mean_of(results, &Round::p50_ticks) / tpn / 1000.0, "us"};
    return out;
  }
  Metrics& m = out.per_layer;
  add_engine_metrics(LockTotals{}, totals, m);
  const auto spans = span_medians_ns(logs, tpn);
  const auto put_span = [&](const char* metric, SpanName name) {
    const auto it = spans.find(name);
    if (it != spans.end()) m[metric] = {it->second, "ns"};
  };
  put_span("hashmap.get_ns", SpanName::kHashmapGet);
  put_span("hashmap.insert_ns", SpanName::kHashmapInsert);
  put_span("hashmap.remove_ns", SpanName::kHashmapRemove);
  if (adaptive_policy() != nullptr) {
    m["policy.converge_execs"] = {static_cast<double>(max_converge), "execs"};
  }
  m["stats.exec_count_error"] = {max_error, "share"};
  m["sync.parks_per_kop"] = {
      static_cast<double>(ale::parking::park_count() - parks_before) /
          (static_cast<double>(ops) / 1000.0),
      "count"};
  if (!cfg.trace_all) {
    m["trace.overhead"] = {1.0 - mean_of(results, &Round::traced_throughput) /
                                     mean_of(results, &Round::throughput),
                           "share"};
  }
  if (!cfg.trace_file.empty() &&
      !write_spans(cfg.trace_file, writes ? "hashmap_write" : "hashmap_read",
                   logs, tpn, cfg.append_spans)) {
    std::fprintf(stderr, "alebench: could not write %s\n",
                 cfg.trace_file.c_str());
  }
  return out;
}

}  // namespace alebench
