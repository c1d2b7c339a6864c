// Shared types of the benchmark program: run options, the per-run report,
// and the sample statistics every workload reports with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/allocation.hpp"
#include "core/utility.hpp"
#include "obs/perfcount.hpp"
#include "obs/stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< scales the fixed operation counts, never a timer
  bool trace = false;
  std::size_t workers = 2;  ///< churn-poisson pool size
};

/// Seed of every set-up input (initial shard profiles, classed
/// populations, warm-up calls). Set-up inputs do not vary with --seed, so
/// setup_s compares like with like across runs; --seed draws the timed
/// operations.
inline constexpr std::uint64_t kSetupSeed = 0x5e7a9ULL;

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run of a workload produced. `metrics` holds the end-to-end
/// metrics (untraced run) or the per-layer metrics (traced run);
/// `fingerprint` holds the exact work counts that must repeat for a seed.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::uint64_t> fingerprint;
  std::vector<std::string> notes;  ///< printed as "# ..." lines

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Linear-interpolated quantile, q in [0,1] (NaN on an empty sample; every
/// sample the benchmark passes holds at least one value).
using gw::obs::stats::quantile;

/// The highest of p90, p99, p99.9, p99.99 that leaves at least ten samples
/// above it (p50 when even p90 does not), as the percentile in percent.
[[nodiscard]] double tail_percentile(std::size_t samples);

/// Writes call_ms_p50 and call_ms_tail for per-call latencies (ms) and
/// notes which percentile the tail is and how many samples back it.
void report_calls(Report& report, const std::vector<double>& call_ms);

/// Median of per-construction set-up times, reported as setup_s.
void report_setup(Report& report, const std::vector<double>& setup_seconds);

/// Peak resident set size of this process in MB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Process CPU time in seconds (all threads).
[[nodiscard]] double process_cpu_seconds();

/// The three analytic disciplines the solver workloads cycle through, in
/// this order: Fair Share, FIFO (proportional), serial M/G/1 (scv 1).
struct Discipline {
  std::string label;
  std::shared_ptr<const gw::core::AllocationFunction> alloc;
};
[[nodiscard]] std::vector<Discipline> solver_disciplines();

/// Wraps each discipline in a TappedAllocation when `trace` is set.
[[nodiscard]] std::vector<Discipline> maybe_tapped(
    std::vector<Discipline> disciplines, bool trace);

/// Arms the WorkMeter for the scope of one timed call, so the work totals
/// (and the fingerprint) count the timed phase only — not set-up, warm-up
/// or output checks, which run disarmed.
class MeteredCall {
 public:
  MeteredCall() noexcept { gw::obs::work::set_armed(true); }
  ~MeteredCall() { gw::obs::work::set_armed(false); }
  MeteredCall(const MeteredCall&) = delete;
  MeteredCall& operator=(const MeteredCall&) = delete;
};

/// WorkMeter totals between two collect() calls.
[[nodiscard]] gw::obs::work::Totals work_delta(
    const gw::obs::work::Totals& before, const gw::obs::work::Totals& after);

/// Adds the WorkMeter totals to `report.fingerprint` as work.<kind>.
void fingerprint_work(Report& report, const gw::obs::work::Totals& totals);

/// Per-layer metrics shared by every traced run: span self/busy times,
/// core.eval call counts and WorkMeter-derived per-unit costs, the
/// bench.other remainder and the span coverage of the timed phase.
void report_layers(Report& report, const gw::obs::work::Totals& work,
                   double wall_seconds);

/// Solver counts the library already exposes in the default obs registry
/// (core.nash.*), read before and after a traced pass. They cover solves
/// the library runs internally (the repair ladder) as well as direct ones.
struct SolverCounters {
  std::uint64_t solves = 0;
  std::uint64_t non_converged = 0;
  std::uint64_t classed_solves = 0;
  std::uint64_t classed_polish = 0;
  std::uint64_t classed_non_converged = 0;
};
[[nodiscard]] SolverCounters solver_counters();

/// core.solve.calls, converged_ratio and classed_polish_iterations from
/// the registry deltas; iterations_p50/max from `iterations`, the
/// per-solve counts of the benchmark's own direct solver calls.
void report_solver(Report& report, const SolverCounters& before,
                   const SolverCounters& after,
                   const std::vector<double>& iterations);

/// Writes every per-layer metric name the benchmark defines with value 0,
/// so each traced run reports the full set (a layer a workload does not
/// touch reads 0).
void zero_layer_metrics(Report& report);

// ---- workloads --------------------------------------------------------

Report run_churn(const Options& options);
Report run_solve(const Options& options);
Report run_classed(const Options& options);
Report run_sim(const Options& options);

}  // namespace perfbench
