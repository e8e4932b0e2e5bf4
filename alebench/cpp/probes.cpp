#include "probes.hpp"

#include <cstdio>
#include <thread>

#include "core/elidable_lock.hpp"
#include "htm/access.hpp"
#include "htm/htm.hpp"
#include "policy/adaptive_policy.hpp"
#include "sync/spinlock.hpp"
#include "telemetry/snapshot.hpp"

namespace alebench {

namespace {

ale::AdaptivePolicy* g_adaptive = nullptr;

ale::telemetry::Snapshot snapshot() {
  ale::telemetry::SnapshotOptions opts;
  opts.include_events = false;
  return ale::telemetry::capture_snapshot(opts);
}

bool has_prefix(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

constexpr std::uint64_t kBatch = 4096;
constexpr int kBatches = 48;

// One cache line per transactional location, so 8 loads touch 8 lines.
struct alignas(64) Line {
  std::uint64_t word = 0;
};

// begin + 8 loads (+ 8 stores) + commit, retried until it commits; returns
// the ticks of the fastest batch of kBatch transactions.
std::vector<std::uint64_t> tx_batches(Line* lines, bool writes) {
  std::vector<std::uint64_t> out;
  out.reserve(kBatches);
  for (int b = 0; b < kBatches + 1; ++b) {
    const std::uint64_t t0 = TickClock::now();
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      for (;;) {
        try {
          if (ale::htm::tx_begin().state != ale::htm::BeginState::kStarted) {
            return {};
          }
          std::uint64_t sum = 0;
          for (int l = 0; l < 8; ++l) sum += ale::tx_load(lines[l].word);
          if (writes) {
            for (int l = 0; l < 8; ++l) ale::tx_store(lines[l].word, sum + l);
          }
          ale::htm::tx_commit();
          break;
        } catch (const ale::htm::TxAbortException&) {
        }
      }
    }
    // The first batch warms caches and the version table; it is not kept.
    if (b > 0) out.push_back(TickClock::now() - t0);
  }
  return out;
}

}  // namespace

ale::AdaptivePolicy* adaptive_policy() { return g_adaptive; }
void set_adaptive_policy(ale::AdaptivePolicy* p) { g_adaptive = p; }

LockTotals lock_totals(const std::string& prefix, const std::string& suffix) {
  LockTotals t;
  for (const auto& lock : snapshot().locks) {
    if (!has_prefix(lock.name, prefix) || !has_suffix(lock.name, suffix)) {
      continue;
    }
    ++t.locks;
    t.relearns += static_cast<double>(lock.relearn_count);
    for (const auto& g : lock.granules) {
      t.executions += static_cast<double>(g.executions);
      for (std::size_t m = 0; m < ale::kNumExecModes; ++m) {
        t.attempts[m] += static_cast<double>(g.modes[m].attempts);
        t.successes[m] += static_cast<double>(g.modes[m].successes);
      }
      for (std::size_t c = 0; c < ale::htm::kNumAbortCauses; ++c) {
        t.aborts[c] += static_cast<double>(g.abort_causes[c]);
      }
      t.swopt_failures += static_cast<double>(g.swopt_failures);
      t.lock_wait_ns_sum +=
          g.lock_wait_mean_ns * static_cast<double>(g.lock_wait_samples);
      t.lock_wait_samples += static_cast<double>(g.lock_wait_samples);
    }
  }
  return t;
}

void add_engine_metrics(const LockTotals& a, const LockTotals& b,
                        Metrics& m) {
  using ale::ExecMode;
  const auto idx = [](ExecMode mode) { return static_cast<std::size_t>(mode); };
  const auto cause = [](ale::htm::AbortCause c) {
    return static_cast<std::size_t>(c);
  };
  const double execs = std::max(1.0, b.executions - a.executions);
  double attempts = 0;
  for (std::size_t i = 0; i < ale::kNumExecModes; ++i) {
    attempts += b.attempts[i] - a.attempts[i];
  }
  const double lock_succ =
      b.successes[idx(ExecMode::kLock)] - a.successes[idx(ExecMode::kLock)];
  const double htm_att =
      (b.attempts[idx(ExecMode::kHtm)] - a.attempts[idx(ExecMode::kHtm)]) +
      (b.attempts[idx(ExecMode::kHtmLazy)] -
       a.attempts[idx(ExecMode::kHtmLazy)]);
  const double htm_succ =
      (b.successes[idx(ExecMode::kHtm)] - a.successes[idx(ExecMode::kHtm)]) +
      (b.successes[idx(ExecMode::kHtmLazy)] -
       a.successes[idx(ExecMode::kHtmLazy)]);
  const auto per_kexec = [&](ale::htm::AbortCause c) {
    return 1000.0 * (b.aborts[cause(c)] - a.aborts[cause(c)]) / execs;
  };
  const double waits = b.lock_wait_samples - a.lock_wait_samples;

  m["core.attempts_per_exec"] = {attempts / execs, "attempts"};
  m["core.lock_exec_share"] = {lock_succ / execs, "share"};
  m["core.lock_wait_ns"] = {
      waits > 0 ? (b.lock_wait_ns_sum - a.lock_wait_ns_sum) / waits : 0.0,
      "ns"};
  m["core.swopt_fails_per_kexec"] = {
      1000.0 * (b.swopt_failures - a.swopt_failures) / execs, "count"};
  m["htm.commit_ratio"] = {htm_att > 0 ? htm_succ / htm_att : 0.0, "share"};
  m["htm.conflict_aborts_per_kexec"] = {
      per_kexec(ale::htm::AbortCause::kConflict), "count"};
  m["htm.capacity_aborts_per_kexec"] = {
      per_kexec(ale::htm::AbortCause::kCapacity), "count"};
  m["htm.locked_aborts_per_kexec"] = {
      per_kexec(ale::htm::AbortCause::kLockedByOther), "count"};
  m["policy.relearns"] = {b.relearns - a.relearns, "count"};
}

void print_mode_mix(const std::string& prefix) {
  for (const auto& lock : snapshot().locks) {
    if (!has_prefix(lock.name, prefix)) continue;
    for (const auto& g : lock.granules) {
      if (g.executions == 0) continue;
      std::printf("mode-mix %s %s phase=%s execs=%llu", lock.name.c_str(),
                  g.context.c_str(), lock.phase_name.c_str(),
                  static_cast<unsigned long long>(g.executions));
      for (std::size_t i = 0; i < ale::kNumExecModes; ++i) {
        std::printf(" %s=%.3f", ale::to_string(static_cast<ale::ExecMode>(i)),
                    static_cast<double>(g.modes[i].successes) /
                        static_cast<double>(g.executions));
      }
      std::printf("\n");
    }
  }
}

std::string get_mode(const std::string& lock, const std::string& context) {
  std::array<double, ale::kNumExecModes> succ{};
  for (const auto& l : snapshot().locks) {
    if (l.name != lock) continue;
    for (const auto& g : l.granules) {
      if (g.context.find(context) == std::string::npos) continue;
      for (std::size_t i = 0; i < ale::kNumExecModes; ++i) {
        succ[i] += static_cast<double>(g.modes[i].successes);
      }
    }
  }
  const auto best = std::max_element(succ.begin(), succ.end());
  if (*best <= 0) return "-";
  return ale::to_string(
      static_cast<ale::ExecMode>(std::distance(succ.begin(), best)));
}

LockTotals& LockTotals::operator+=(const LockTotals& o) {
  executions += o.executions;
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    attempts[i] += o.attempts[i];
    successes[i] += o.successes[i];
  }
  for (std::size_t i = 0; i < aborts.size(); ++i) aborts[i] += o.aborts[i];
  swopt_failures += o.swopt_failures;
  lock_wait_ns_sum += o.lock_wait_ns_sum;
  lock_wait_samples += o.lock_wait_samples;
  relearns += o.relearns;
  locks += o.locks;
  return *this;
}

double min_batch_ns(const std::vector<std::uint64_t>& batch_ticks,
                    std::uint64_t calls_per_batch) {
  if (batch_ticks.empty()) return 0.0;
  const std::uint64_t best =
      *std::min_element(batch_ticks.begin(), batch_ticks.end());
  return static_cast<double>(best) / process_clock().ticks_per_ns() /
         static_cast<double>(calls_per_batch);
}

MicroProbes run_micro_probes(unsigned threads) {
  MicroProbes r;
  std::vector<std::uint64_t> batches;

  {  // core: a converged, uncontended, elided empty critical section.
    ale::ElidableLock<> lk("probe.elide");
    const auto run_one = [&lk] { lk.elide([](ale::CsExec&) {}); };
    for (int i = 0; i < 1 << 20; ++i) {
      run_one();
      if ((i & 255) == 0 && (g_adaptive == nullptr || g_adaptive->converged(lk.md()))) {
        break;
      }
    }
    for (int b = 0; b < kBatches; ++b) {
      const std::uint64_t t0 = TickClock::now();
      for (std::uint64_t i = 0; i < kBatch; ++i) run_one();
      batches.push_back(TickClock::now() - t0);
    }
    r.elide_ns = min_batch_ns(batches, kBatch);
  }

  {  // sync: the lock the elided section falls back to.
    ale::TatasLock lock;
    batches.clear();
    for (int b = 0; b < kBatches; ++b) {
      const std::uint64_t t0 = TickClock::now();
      for (std::uint64_t i = 0; i < kBatch; ++i) {
        lock.lock();
        lock.unlock();
      }
      batches.push_back(TickClock::now() - t0);
    }
    r.lock_ns = min_batch_ns(batches, kBatch);
  }

  {  // htm: transactions through the backend facade.
    std::vector<Line> lines(8);
    r.tx_read_ns = min_batch_ns(tx_batches(lines.data(), false), kBatch);
    r.tx_write_ns = min_batch_ns(tx_batches(lines.data(), true), kBatch);
  }

  {  // htm on every worker at once, each over its own lines.
    std::vector<std::vector<Line>> lines(threads, std::vector<Line>(8));
    std::vector<double> per_thread(threads, 0.0);
    std::atomic<unsigned> ready{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < threads) {
        }
        per_thread[t] = min_batch_ns(tx_batches(lines[t].data(), true), kBatch);
      });
    }
    for (auto& th : pool) th.join();
    double sum = 0;
    for (const double v : per_thread) sum += v;
    r.tx_write_ns_all_threads = sum / static_cast<double>(threads);
  }
  return r;
}

}  // namespace alebench
