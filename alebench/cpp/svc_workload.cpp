// svc: a KvService of 8 ShardedDb shards loaded with 2^20 keys, driven by
// one worker per CPU. Worker w owns a contiguous range of shards: it
// generates the requests that route to its shards and drains their queues.
// Traffic is 75/20/4/1 get/set/scan/remove over Zipf(0.99)-distributed
// keys, drawn from the benchmark's own generators.
//
// Phase 1 (saturated, closed loop): each worker keeps its queues fed, 16
// requests per round, and serves them; throughput comes from here.
// Phase 2 (fixed rate, open loop): each worker follows its share of one
// Poisson stream at a fixed total rate; a request is stamped with its
// scheduled arrival, so its latency counts the time it was due but not yet
// sent as well as queueing and service.
#include <cmath>
#include <cstdio>
#include <thread>

#include "policy/adaptive_policy.hpp"
#include "probes.hpp"
#include "svc/kv_service.hpp"
#include "sync/parking.hpp"
#include "workloads.hpp"

namespace alebench {

namespace {

using ale::svc::KvService;
using ale::svc::ReqKind;
using ale::svc::Request;

constexpr std::size_t kShards = 8;
constexpr std::size_t kSlotsPerShard = 8;
constexpr std::uint32_t kScanLimit = 16;
constexpr double kZipfTheta = 0.99;
constexpr std::size_t kFeed = 16;          // requests per saturated round
constexpr std::uint64_t kSampleEvery = 256;  // traced: 1 in 256 requests
constexpr std::uint64_t kDrainSampleEvery = 16;
const std::string kName = "svc";

void key_of(std::uint64_t id, std::string& out) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof buf, "k%010llu",
                              static_cast<unsigned long long>(id));
  out.assign(buf, static_cast<std::size_t>(n));
}

/// The canonical value of a key: 16 hex digits derived from its id.
void value_of(std::uint64_t id, std::string& out) {
  static const char* const kHex = "0123456789abcdef";
  std::uint64_t v = mix64(id ^ 0xc0ffee0ddf00dULL);
  out.resize(16);
  for (int i = 15; i >= 0; --i, v >>= 4) out[static_cast<std::size_t>(i)] = kHex[v & 15];
}

bool id_of(std::string_view key, std::uint64_t& id) {
  if (key.size() != 11 || key[0] != 'k') return false;
  id = 0;
  for (std::size_t i = 1; i < key.size(); ++i) {
    if (key[i] < '0' || key[i] > '9') return false;
    id = id * 10 + static_cast<std::uint64_t>(key[i] - '0');
  }
  return true;
}

bool canonical(std::string_view key, std::string_view value,
               std::string& scratch) {
  std::uint64_t id = 0;
  if (!id_of(key, id)) return false;
  value_of(id, scratch);
  return value == scratch;
}

struct Item {
  ReqKind kind = ReqKind::kGet;
  std::uint64_t id = 0;
  std::string key;
  double due = 0;  // scheduled arrival, ticks
};

/// One worker's share of the request stream: draws from the full stream
/// (keys, verbs and Poisson gaps at the total rate) and keeps the requests
/// that route to the worker's shards, so the union over workers is the
/// full stream.
class Traffic {
 public:
  Traffic(const Zipf& zipf, std::uint64_t seed, unsigned worker,
          const KvService& svc, std::size_t lo, std::size_t hi)
      : zipf_(zipf), rng_(seed, 1000 + worker), svc_(svc), lo_(lo), hi_(hi) {}

  void start_clock(double t0_ticks, double mean_gap_ticks) {
    due_ = t0_ticks;
    mean_gap_ = mean_gap_ticks;
  }

  void next(Item& it) {
    for (;;) {
      const std::uint64_t id = zipf_.scramble(zipf_.next(rng_));
      const double u = rng_.unit();
      due_ += -std::log(1.0 - rng_.unit()) * mean_gap_;
      key_of(id, it.key);
      const std::size_t s = svc_.shard_of(it.key);
      if (s < lo_ || s >= hi_) continue;
      it.kind = u < 0.75   ? ReqKind::kGet
                : u < 0.95 ? ReqKind::kSet
                : u < 0.99 ? ReqKind::kScan
                           : ReqKind::kRemove;
      it.id = id;
      it.due = due_;
      return;
    }
  }

 private:
  Zipf zipf_;
  Rng rng_;
  const KvService& svc_;
  std::size_t lo_, hi_;
  double due_ = 0, mean_gap_ = 0;
};

struct WorkerResult {
  // load
  std::uint64_t loaded = 0, load_not_new = 0;
  std::uint64_t converge_max = 0, unconverged = 0;
  // phases
  std::uint64_t enqueued = 0, shed = 0, drained = 0, direct = 0;
  std::uint64_t direct_bad = 0;
  std::uint64_t fix_generated = 0;
  double lag_ticks = 0;
};

}  // namespace

Outcome run_svc(const RunConfig& cfg, const SvcShape& shape) {
  Outcome out;
  ale::AdaptivePolicy* adaptive = adaptive_policy();
  ale::svc::SvcConfig scfg;
  scfg.num_shards = kShards;
  scfg.slots_per_shard = kSlotsPerShard;
  // About one record per bucket once loaded.
  scfg.buckets_per_slot = std::max<std::size_t>(
      256, static_cast<std::size_t>(shape.keys / (kShards * kSlotsPerShard)));
  // Deep enough that a healthy run never sheds: a worker that is descheduled
  // for a second at the fixed rate queues well under this.
  scfg.queue_capacity = std::size_t{1} << 22;
  scfg.name = kName;
  KvService svc(scfg);

  const unsigned n = cfg.threads;
  const bool traced = cfg.traced || cfg.trace_all;
  Segments segs(traced && !cfg.trace_all ? 4 : 1, traced, cfg.trace_all);
  const double sat_seconds = cfg.seconds / 2;
  const double fix_seconds = cfg.seconds / 2;
  const Zipf zipf(shape.keys, kZipfTheta);
  std::vector<WorkerResult> results(n);
  std::vector<SpanLog> logs;
  for (unsigned t = 0; t < n; ++t) logs.emplace_back(t);
  ale::svc::LatencyRecorder recorder(n);
  std::atomic<unsigned> loaded_workers{0}, saturated_done{0};
  std::atomic<bool> fixed_go{false};
  std::atomic<std::uint64_t> fix_t0{0}, fix_end{0};
  std::atomic<double> mean_gap{0};
  // Requests each worker has served in the saturated phase so far.
  std::vector<Padded<std::atomic<std::uint64_t>>> published(n);

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < n; ++t) {
    pool.emplace_back([&, t] {
      WorkerResult& r = results[t];
      SpanLog& log = logs[t];
      const std::size_t lo = kShards * t / n, hi = kShards * (t + 1) / n;
      std::string key, value, scratch;

      // ---- load: every key that routes to this worker's shards. Each set
      // is one execution of its shard's method lock (a slot section nested
      // in an elided one runs inside it and is not an execution of its own),
      // so the worker can count the executions before each method lock
      // reports converged.
      std::vector<std::uint64_t> execs(hi - lo, 0);
      std::vector<char> conv(execs.size(), 0);
      for (std::uint64_t id = 0; id < shape.keys; ++id) {
        key_of(id, key);
        const std::size_t s = svc.shard_of(key);
        if (s < lo || s >= hi) continue;
        value_of(id, value);
        if (!svc.set(key, value)) ++r.load_not_new;
        ++r.loaded;
        const std::size_t i = s - lo;
        if (adaptive != nullptr && conv[i] == 0 && (++execs[i] & 31) == 0 &&
            adaptive->converged(svc.db(s).method_lock_md())) {
          conv[i] = 1;
          r.converge_max = std::max(r.converge_max, execs[i]);
        }
      }
      if (adaptive != nullptr) {
        for (std::size_t i = 0; i < execs.size(); ++i) {
          if (conv[i] == 0) {
            ++r.unconverged;
            r.converge_max = std::max(r.converge_max, execs[i]);
          }
        }
      }
      loaded_workers.fetch_add(1);

      Traffic traffic(zipf, cfg.seed, t, svc, lo, hi);
      Item item;
      std::uint64_t generated = 0, drains = 0;
      // Serves one generated request: directly (a sampled request of a
      // traced stretch, timed as a kvdb call) or through the queue.
      const auto submit = [&](bool traced_now, std::uint64_t arrival) {
        ++generated;
        const bool sample = traced_now && generated % kSampleEvery == 0;
        const bool sample_enqueue =
            traced_now && generated % kSampleEvery == kSampleEvery / 2;
        std::uint64_t req = 0;
        std::int32_t parent = -1, child = -1;
        if (sample || sample_enqueue) {
          req = log.new_request();
          parent = log.open(SpanName::kOp, req);
        }
        if (sample) {
          switch (item.kind) {
            case ReqKind::kGet:
              child = log.open(SpanName::kKvdbGet, req, parent);
              if (svc.get(item.key, value) && !canonical(item.key, value, scratch)) {
                ++r.direct_bad;
              }
              break;
            case ReqKind::kSet:
              child = log.open(SpanName::kKvdbSet, req, parent);
              value_of(item.id, value);
              svc.set(item.key, value);
              break;
            case ReqKind::kScan: {
              std::vector<std::pair<std::string, std::string>> recs;
              child = log.open(SpanName::kKvdbScan, req, parent);
              svc.scan(item.key, kScanLimit, recs);
              log.close(child);
              child = -1;
              for (const auto& [k, v] : recs) {
                if (!canonical(k, v, scratch)) ++r.direct_bad;
              }
              break;
            }
            case ReqKind::kRemove:
              child = log.open(SpanName::kKvdbRemove, req, parent);
              svc.remove(item.key);
              break;
          }
          if (child >= 0) log.close(child);
          log.close(parent);
          ++r.direct;
          return std::uint64_t{1};
        }
        Request rq;
        rq.kind = item.kind;
        rq.key = item.key;
        if (item.kind == ReqKind::kSet) value_of(item.id, rq.value);
        if (item.kind == ReqKind::kScan) rq.scan_limit = kScanLimit;
        rq.arrival_ticks = arrival;
        if (sample_enqueue) child = log.open(SpanName::kSvcEnqueue, req, parent);
        const bool ok = svc.enqueue(std::move(rq));
        if (sample_enqueue) {
          log.close(child);
          log.close(parent);
        }
        (ok ? r.enqueued : r.shed) += 1;
        return std::uint64_t{0};
      };
      const auto drain = [&](std::size_t s, bool traced_now,
                             ale::svc::LatencyRecorder* rec) {
        const std::uint64_t t0 = traced_now ? TickClock::now() : 0;
        const std::size_t got = svc.drain_shard(s, rec, t);
        // Only drains that served something are sampled: an idle worker
        // polls empty queues millions of times.
        if (traced_now && got > 0 && ++drains % kDrainSampleEvery == 0) {
          log.record(SpanName::kSvcDrain, log.new_request(), -1, t0,
                     TickClock::now(), static_cast<std::uint32_t>(got));
        }
        r.drained += got;
        return static_cast<std::uint64_t>(got);
      };

      // ---- phase 1: saturated.
      int seg;
      std::uint64_t sat_served = 0;
      while ((seg = segs.current()) < 0) std::this_thread::yield();
      while ((seg = segs.current()) < segs.count()) {
        const bool traced_now = segs.traced(seg);
        std::uint64_t served = 0;
        for (std::size_t i = 0; i < kFeed; ++i) {
          traffic.next(item);
          served += submit(traced_now, TickClock::now());
        }
        for (std::size_t s = lo; s < hi; ++s) {
          while (const std::uint64_t got = drain(s, traced_now, nullptr)) {
            served += got;
          }
        }
        sat_served += served;
        published[t].value.store(sat_served, std::memory_order_relaxed);
      }
      for (std::size_t s = lo; s < hi; ++s) {
        while (drain(s, false, nullptr) != 0) {
        }
      }
      saturated_done.fetch_add(1);

      // ---- phase 2: fixed rate.
      while (!fixed_go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::uint64_t end = fix_end.load();
      traffic.start_clock(static_cast<double>(fix_t0.load()), mean_gap.load());
      traffic.next(item);
      for (;;) {
        const std::uint64_t now = TickClock::now();
        if (now >= end) break;
        while (item.due <= static_cast<double>(now)) {
          const auto due = static_cast<std::uint64_t>(item.due);
          r.lag_ticks += static_cast<double>(now - due);
          ++r.fix_generated;
          submit(traced, due);
          traffic.next(item);
        }
        for (std::size_t s = lo; s < hi; ++s) {
          while (drain(s, traced, &recorder) != 0) {
          }
        }
      }
      for (std::size_t s = lo; s < hi; ++s) {
        while (drain(s, false, &recorder) != 0) {
        }
      }
    });
  }

  while (loaded_workers.load() < n) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::uint64_t loaded = 0, not_new = 0, converge_max = 0, unconverged = 0;
  for (const WorkerResult& r : results) {
    loaded += r.loaded;
    not_new += r.load_not_new;
    converge_max = std::max(converge_max, r.converge_max);
    unconverged += r.unconverged;
  }
  out.end_to_end["loaded_rss_mb"] = {rss_mb(), "MB"};
  out.check(loaded == shape.keys && not_new == 0,
            "load: every key loaded once, as a new key");
  const LockTotals after_load = lock_totals(kName + ".s", ".methodLock");
  const double load_execs = static_cast<double>(loaded);
  const double exec_error =
      std::fabs(after_load.executions - load_execs) / load_execs;
  out.check(exec_error <= kExecCountTolerance,
            "stats: granule executions " + std::to_string(after_load.executions) +
                " vs " + std::to_string(load_execs) + " load operations");
  // Taken in untraced runs too, so both kinds of run learn alike.
  const LockTotals before = lock_totals(kName + ".s");
  const ale::svc::SvcStats stats_before = svc.stats();
  const std::uint64_t parks_before = ale::parking::park_count();

  const Clock::time_point first_request = Clock::now();
  out.end_to_end["setup_s"] = {
      seconds_between(process_clock().start(), first_request), "s"};
  progress("svc: loaded; saturated phase");
  segs.run(sat_seconds, [&] {
    std::uint64_t sum = 0;
    for (auto& p : published) sum += p.value.load(std::memory_order_relaxed);
    return sum;
  });
  while (saturated_done.load() < n) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  const double tpn = process_clock().ticks_per_ns();
  const double ticks_per_s = tpn * 1e9;
  mean_gap.store(ticks_per_s / shape.rate_per_s);
  const std::uint64_t t0 = TickClock::now();
  fix_t0.store(t0);
  fix_end.store(t0 + static_cast<std::uint64_t>(fix_seconds * ticks_per_s));
  fixed_go.store(true, std::memory_order_release);
  progress("svc: fixed-rate phase");
  for (auto& th : pool) th.join();
  progress("svc: checking");

  // ---- results
  WorkerResult sum;
  for (const WorkerResult& r : results) {
    sum.enqueued += r.enqueued;
    sum.shed += r.shed;
    sum.drained += r.drained;
    sum.direct += r.direct;
    sum.direct_bad += r.direct_bad;
    sum.fix_generated += r.fix_generated;
    sum.lag_ticks += r.lag_ticks;
  }
  const std::vector<double> untraced_rates = segs.slice_rates(false);
  const std::vector<double> traced_rates = segs.slice_rates(true);
  out.attempted = sum.enqueued + sum.shed + sum.direct;
  out.failed = sum.shed;
  const ale::svc::SvcStats stats = svc.stats();
  const ale::svc::LatencyHistogram lat = recorder.merged();

  // ---- checks
  out.check(sum.enqueued == sum.drained && stats.enqueued == stats.drained &&
                stats.enqueued == sum.enqueued,
            "accepted " + std::to_string(sum.enqueued) + " (service: " +
                std::to_string(stats.enqueued) + ") != served " +
                std::to_string(sum.drained) + " (service: " +
                std::to_string(stats.drained) + ")");
  out.check(sum.shed == stats.shed, "shed counts disagree");
  out.check(sum.direct_bad == 0, "direct get/scan returned non-canonical values");
  std::uint64_t records = 0, bad_route = 0, bad_slot = 0, bad_value = 0;
  std::string scratch;
  for (std::size_t i = 0; i < svc.num_shards(); ++i) {
    auto& db = svc.db(i);
    const std::uint64_t visited =
        db.iterate([&](std::string_view k, std::string_view v) {
          if (svc.shard_of(k) != i) ++bad_route;
          if (!canonical(k, v, scratch)) ++bad_value;
        });
    std::uint64_t in_slots = 0;
    for (std::size_t j = 0; j < db.num_slots(); ++j) {
      in_slots += db.for_each_in_slot(j, [&](std::string_view k, std::string_view) {
        if (db.slot_of(k) != j) ++bad_slot;
      });
    }
    const std::uint64_t count = db.count();
    out.check(count == visited, "shard " + std::to_string(i) + ": count() " +
                                    std::to_string(count) + " != iterate " +
                                    std::to_string(visited));
    out.check(in_slots == visited, "shard " + std::to_string(i) +
                                       ": slot walks disagree with iterate");
    records += visited;
  }
  out.check(bad_route == 0, "records sitting in a shard they do not route to");
  out.check(bad_slot == 0, "records sitting in a slot they do not hash to");
  out.check(bad_value == 0, "records holding a non-canonical value");
  out.check(records > 0 && records <= shape.keys, "record count out of range");

  progress("svc: checked");

  // ---- metrics
  const double lat_us = 1.0 / (tpn * 1000.0);
  print_rates("svc saturated untraced", untraced_rates);
  print_rates("svc saturated traced", traced_rates);
  if (!untraced_rates.empty()) {
    out.end_to_end["throughput_ops_s"] = {median_of(untraced_rates), "ops/s"};
  }
  out.end_to_end["latency_p50_us"] = {lat.percentile(50) * lat_us, "us"};
  std::printf("svc: keys=%llu records=%llu served=%llu direct=%llu shed=%llu "
              "fixed-rate=%.0f/s latency samples=%llu p99=%.2fus "
              "method locks unconverged after load=%llu\n",
              static_cast<unsigned long long>(shape.keys),
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(sum.drained),
              static_cast<unsigned long long>(sum.direct),
              static_cast<unsigned long long>(sum.shed), shape.rate_per_s,
              static_cast<unsigned long long>(lat.total()),
              lat.percentile(99) * lat_us,
              static_cast<unsigned long long>(unconverged));
  if (traced) {
    Metrics& m = out.per_layer;
    add_engine_metrics(before, lock_totals(kName + ".s"), m);
    const auto spans = span_medians_ns(logs, tpn);
    const auto put_span = [&](const char* metric, SpanName name) {
      const auto it = spans.find(name);
      if (it != spans.end()) m[metric] = {it->second, "ns"};
    };
    put_span("kvdb.get_ns", SpanName::kKvdbGet);
    put_span("kvdb.set_ns", SpanName::kKvdbSet);
    put_span("kvdb.scan_ns", SpanName::kKvdbScan);
    put_span("svc.enqueue_ns", SpanName::kSvcEnqueue);
    double drain_ticks = 0, drain_reqs = 0;
    for (const SpanLog& log : logs) {
      for (const Span& s : log.spans()) {
        if (s.name == SpanName::kSvcDrain && s.aux > 0) {
          drain_ticks += static_cast<double>(s.end - s.start);
          drain_reqs += s.aux;
        }
      }
    }
    m["svc.drain_ns_per_req"] = {
        drain_reqs > 0 ? drain_ticks / tpn / drain_reqs : 0.0, "ns"};
    const double batches = static_cast<double>(stats.batches - stats_before.batches);
    m["svc.batch_ops_mean"] = {
        batches > 0 ? static_cast<double>(stats.batch_ops - stats_before.batch_ops) /
                          batches
                    : 0.0,
        "ops"};
    m["svc.latency_p99_us"] = {lat.percentile(99) * lat_us, "us"};
    m["svc.latency_p999_us"] = {lat.percentile(99.9) * lat_us, "us"};
    m["svc.generator_lag_us"] = {
        sum.fix_generated > 0
            ? sum.lag_ticks / static_cast<double>(sum.fix_generated) * lat_us
            : 0.0,
        "us"};
    if (adaptive != nullptr) {
      m["policy.converge_execs"] = {static_cast<double>(converge_max), "execs"};
    }
    m["stats.exec_count_error"] = {exec_error, "share"};
    const double ops = static_cast<double>(out.attempted);
    m["sync.parks_per_kop"] = {
        static_cast<double>(ale::parking::park_count() - parks_before) /
            (ops / 1000.0),
        "count"};
    if (!untraced_rates.empty() && !traced_rates.empty()) {
      m["trace.overhead"] = {
          1.0 - median_of(traced_rates) / median_of(untraced_rates), "share"};
    }
    if (!cfg.trace_file.empty() &&
        !write_spans(cfg.trace_file, "svc", logs, tpn, cfg.append_spans)) {
      std::fprintf(stderr, "alebench: could not write %s\n",
                   cfg.trace_file.c_str());
    }
    print_mode_mix(kName + ".s0.");
  }
  return out;
}

}  // namespace alebench
