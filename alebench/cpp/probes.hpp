// Layer measurements taken from outside the library: sums over telemetry
// snapshots (core, htm, policy, stats) and single-purpose probes that time
// calls into one layer's public functions (core, htm, sync).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "bench.hpp"
#include "core/mode.hpp"
#include "htm/abort.hpp"

namespace ale {
class AdaptivePolicy;
}

namespace alebench {

/// Counters of every lock whose name starts with `prefix` and ends with
/// `suffix`, summed over the lock's granules, from one
/// telemetry::capture_snapshot().
struct LockTotals {
  double executions = 0;
  std::array<double, ale::kNumExecModes> attempts{};
  std::array<double, ale::kNumExecModes> successes{};
  std::array<double, ale::htm::kNumAbortCauses> aborts{};
  double swopt_failures = 0;
  double lock_wait_ns_sum = 0;  // Σ mean × samples
  double lock_wait_samples = 0;
  double relearns = 0;
  unsigned locks = 0;

  LockTotals& operator+=(const LockTotals& o);
};
LockTotals lock_totals(const std::string& prefix,
                       const std::string& suffix = "");

/// The core.* and htm.* ratios of the executions between two snapshots.
void add_engine_metrics(const LockTotals& before, const LockTotals& after,
                        Metrics& m);

/// Writes one line per (lock, granule) with its per-mode successes, for the
/// mode mix the README reports.
void print_mode_mix(const std::string& prefix);

/// The mode in which most executions of the granules of lock `lock` whose
/// context path contains `context` succeeded ("-" when there are none).
std::string get_mode(const std::string& lock, const std::string& context);

/// The adaptive policy installed at start-up, or nullptr under a reference
/// policy.
ale::AdaptivePolicy* adaptive_policy();
void set_adaptive_policy(ale::AdaptivePolicy* p);

/// Per-layer probes on one thread (all threads for the _all_threads one):
/// each is the minimum over batches of the per-call time, in ns.
struct MicroProbes {
  double elide_ns = 0;      // converged, uncontended, empty elided CS
  double lock_ns = 0;       // TatasLock lock + unlock
  double tx_read_ns = 0;    // tx_begin + 8 loads + tx_commit
  double tx_write_ns = 0;   // tx_begin + 8 loads + 8 stores + tx_commit
  double tx_write_ns_all_threads = 0;  // the same on every worker at once
};
MicroProbes run_micro_probes(unsigned threads);

/// The minimum of a set of equally sized batch timings, in ns per call.
double min_batch_ns(const std::vector<std::uint64_t>& batch_ticks,
                    std::uint64_t calls_per_batch);

}  // namespace alebench
