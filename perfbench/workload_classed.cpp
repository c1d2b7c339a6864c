// classed-1m: three classed ctrl::SolverShards (FS, FIFO, serial M/G/1),
// each N = 10^6 users in k = 64 classes with heterogeneous per-class
// utilities. One operation stages seeded class-count and class-utility
// churn on one shard and calls SolverShard::repair. The classed closed
// forms and the classed Newton do all the work; expanded kernels, the
// Controller and expanded best-response dynamics do none.
//
// The known classed defects stay in the workload and count as failed
// operations (heterogeneous classed FIFO does not converge; a share of FS
// count-churn repairs stops near 1e-8 against the 1e-9 tolerance).
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/nash.hpp"
#include "ctrl/shard.hpp"
#include "numerics/rng.hpp"
#include "tapped_allocation.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace work = gw::obs::work;

/// Class repairs per second on the seed commit (4-vCPU x86-64 VM,
/// Release); fixes the operation count for a given --seconds.
constexpr double kRepairsPerSecond = 40.0;
constexpr std::size_t kUsers = 1'000'000;
constexpr std::size_t kClasses = 64;
constexpr std::size_t kSetupRepeats = 9;
/// The solver tolerance, which the KKT output check applies unchanged.
constexpr double kTolerance = 1e-9;
/// Known defects (ROADMAP item 3) count as failed operations but do not
/// make the run incorrect: any failure on the FIFO shard, and FS repairs
/// that stop above the tolerance but within this residual. Any other
/// failure is unexpected and fails the run.
constexpr double kKnownNearMiss = 1e-6;
/// Shard indices, in solver_disciplines() order.
constexpr std::size_t kFsShard = 0;
constexpr std::size_t kFifoShard = 1;
/// Per-user rates at N = 10^6 sit near 5e-7, below the library's default
/// 1e-6 best-response floor, so both solves lower it (as E-SCALE does).
constexpr double kRateFloor = 1e-9;

gw::ctrl::RepairPolicy classed_policy() {
  gw::ctrl::RepairPolicy policy;
  policy.warm_solve.best_response.r_min = kRateFloor;
  policy.warm_solve.tolerance = kTolerance;
  policy.full_solve.best_response.r_min = kRateFloor;
  policy.full_solve.max_iterations = 60;
  policy.full_solve.tolerance = kTolerance;
  return policy;
}

gw::core::UtilityPtr class_utility(gw::numerics::Rng& rng) {
  return gw::core::make_linear(1.0, rng.uniform(0.3, 0.85));
}

/// k classes of unequal sizes summing to kUsers, each with its own delay
/// aversion, at the canonical interior start 0.5 / N; drawn from
/// kSetupSeed (set-up inputs do not vary with --seed).
std::vector<gw::ctrl::SolverShard> make_shards(
    const std::vector<Discipline>& disciplines,
    std::vector<gw::core::ClassedNashResult>* stats = nullptr) {
  gw::numerics::Rng rng(kSetupSeed);
  std::vector<double> weights(kClasses);
  double sum = 0.0;
  for (double& w : weights) sum += (w = rng.uniform(0.5, 1.5));
  std::vector<gw::core::RateClass> classes(kClasses);
  std::size_t assigned = 0;
  for (std::size_t a = 0; a < kClasses; ++a) {
    const std::size_t count =
        a + 1 == kClasses
            ? kUsers - assigned
            : static_cast<std::size_t>(static_cast<double>(kUsers) *
                                       weights[a] / sum);
    classes[a] = gw::core::RateClass{0.5 / static_cast<double>(kUsers), 1.0,
                                     count};
    assigned += count;
  }
  std::vector<gw::ctrl::SolverShard> shards;
  for (const auto& d : disciplines) {
    gw::core::UtilityProfile profile;
    for (std::size_t a = 0; a < kClasses; ++a) {
      profile.push_back(class_utility(rng));
    }
    // The cold solve runs here, with the workload's own options, so the
    // set-up's solve layer is visible; the shard adopts its equilibrium as
    // the warm start of its own construction-time solve.
    gw::core::ClassedNashResult cold;
    {
      const Span solve(Layer::kSolve);
      cold = gw::core::solve_nash_classed(
          *d.alloc, profile, gw::core::ClassedPopulation::from_classes(classes),
          classed_policy().full_solve);
    }
    if (stats != nullptr) stats->push_back(cold);
    const Span shard(Layer::kShard);
    shards.emplace_back(d.alloc, std::move(profile),
                        std::move(cold.population));
  }
  return shards;
}

/// One operation's staged churn: a class-count change and a class-utility
/// change on shard `shard`.
struct Churn {
  std::size_t shard = 0;
  std::size_t count_class = 0;
  double count_factor = 1.0;
  std::size_t utility_class = 0;
  gw::core::UtilityPtr utility;
};

std::vector<Churn> make_churn(std::size_t count, std::uint64_t seed) {
  gw::numerics::Rng rng(seed ^ 0xc1a55edULL);
  std::vector<Churn> ops(count);
  for (std::size_t j = 0; j < count; ++j) {
    ops[j].shard = j % 3;
    ops[j].count_class = static_cast<std::size_t>(rng.uniform_index(kClasses));
    ops[j].count_factor = rng.uniform(0.9, 1.1);
    ops[j].utility_class =
        static_cast<std::size_t>(rng.uniform_index(kClasses));
    ops[j].utility = class_utility(rng);
  }
  return ops;
}

/// Max projected classed KKT residual of `shard`'s served population,
/// evaluated with `alloc` (the untapped discipline, so a traced run's
/// check stays out of the layer spans): a class pinned at the rate floor
/// with E >= 0 is at its best response; NaN (infinite congestion) fails.
double max_projected_residual(const gw::ctrl::SolverShard& shard,
                              const gw::core::AllocationFunction& alloc) {
  const auto residuals = gw::core::classed_kkt_residuals(
      alloc, shard.profile(), shard.population());
  double worst = 0.0;
  for (std::size_t a = 0; a < residuals.size(); ++a) {
    const double e = residuals[a];
    if (std::isnan(e)) return std::numeric_limits<double>::infinity();
    const bool at_floor = shard.population()[a].rate <= kRateFloor * 1.000001;
    worst = std::max(worst, at_floor ? std::max(0.0, -e) : std::abs(e));
  }
  return worst;
}

struct Pass {
  std::vector<double> call_ms;
  std::vector<gw::ctrl::RepairOutcome> outcomes;
  std::vector<double> residuals;  ///< output check, per operation
  double wall_s = 0.0;
  work::Totals work;
};

Pass repair_all(std::vector<gw::ctrl::SolverShard>& shards,
                const std::vector<Churn>& ops,
                const std::vector<Discipline>& disciplines,
                std::size_t extra_setups,
                std::vector<double>& setup_seconds) {
  Pass pass;
  const auto checkers = solver_disciplines();
  const auto policy = classed_policy();
  const std::size_t chunks = extra_setups + 1;
  double timed_ns = 0.0;
  const work::Totals before = work::collect();
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * ops.size() / chunks;
    const std::size_t end = (c + 1) * ops.size() / chunks;
    for (std::size_t j = begin; j < end; ++j) {
      const Churn& op = ops[j];
      auto& shard = shards[op.shard];
      const auto& cls = shard.population()[op.count_class];
      const std::size_t count = std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(cls.count) *
                                      op.count_factor));
      shard.stage_class_count(op.count_class, count);
      shard.stage_class_utility(op.utility_class, op.utility);
      const std::int64_t t0 = now_ns();
      {
        const MeteredCall metered;
        const Span bench(Layer::kBench);
        const Span repair(Layer::kShard);
        pass.outcomes.push_back(shard.repair(policy));
      }
      const std::int64_t dt = now_ns() - t0;
      timed_ns += static_cast<double>(dt);
      pass.call_ms.push_back(static_cast<double>(dt) * 1e-6);
      // Output check, outside the timed region.
      pass.residuals.push_back(
          max_projected_residual(shard, *checkers[op.shard].alloc));
    }
    if (c + 1 < chunks) {
      const std::int64_t t0 = now_ns();
      const auto fresh = make_shards(disciplines);
      setup_seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  }
  pass.wall_s = timed_ns * 1e-9;
  pass.work = work_delta(before, work::collect());
  return pass;
}

}  // namespace

Report run_classed(const Options& options) {
  Report report;
  const auto op_count = static_cast<std::size_t>(
      std::max(30.0, std::round(kRepairsPerSecond * options.seconds)));
  const std::vector<Churn> ops = make_churn(op_count, options.seed);

  Pass pass;
  std::vector<double> setup_seconds;
  if (options.trace) {
    zero_layer_metrics(report);
    const auto raw = solver_disciplines();
    auto untraced_shards = make_shards(raw);
    const Pass untraced =
        repair_all(untraced_shards, ops, raw, 0, setup_seconds);
    const auto tapped = maybe_tapped(solver_disciplines(), true);
    std::vector<gw::core::ClassedNashResult> cold;
    set_tracing(true);
    reset();
    auto shards = make_shards(tapped, &cold);
    const double setup_solve_s = collect().self_s(Layer::kSolve);
    reset();
    reset_eval_calls();
    const SolverCounters before = solver_counters();
    pass = repair_all(shards, ops, tapped, 0, setup_seconds);
    const SolverCounters after = solver_counters();
    report_layers(report, pass.work, pass.wall_s);
    // Per-solve iterations and expansion fallbacks are visible only on the
    // benchmark's direct calls: the set-up's cold classed solves.
    std::vector<double> iterations;
    double fallbacks = 0.0;
    for (const auto& solve : cold) {
      iterations.push_back(solve.iterations + solve.polish_iterations);
      fallbacks += solve.used_expansion ? 1.0 : 0.0;
    }
    report_solver(report, before, after, iterations);
    report.set("core.solve.expansion_fallbacks", fallbacks, "count");
    report.set("core.solve.setup_busy_s", setup_solve_s, "s");
    set_tracing(false);
    report.set("obs.trace_overhead_frac", pass.wall_s / untraced.wall_s - 1.0,
               "1");
  } else {
    const auto raw = solver_disciplines();
    const std::int64_t t0 = now_ns();
    auto shards = make_shards(raw);
    setup_seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    pass = repair_all(shards, ops, raw, kSetupRepeats - 1,
                      setup_seconds);
    report_setup(report, setup_seconds);
    report.set("ops_per_s", static_cast<double>(ops.size()) / pass.wall_s,
               "1/s");
    report_calls(report, pass.call_ms);
  }

  // A repair fails when the library reports it unconverged or its served
  // population misses the KKT tolerance; see kKnownNearMiss for which
  // failures are known defects.
  std::array<std::uint64_t, 3> failed_by{};
  std::array<std::uint64_t, 3> ops_by{};
  std::uint64_t nonconverged = 0;
  std::map<std::string, std::uint64_t> paths;
  for (std::size_t j = 0; j < ops.size(); ++j) {
    const auto& outcome = pass.outcomes[j];
    const bool ok = outcome.converged && pass.residuals[j] <= kTolerance;
    ++ops_by[ops[j].shard];
    const bool known = ops[j].shard == kFifoShard ||
                       (ops[j].shard == kFsShard &&
                        pass.residuals[j] <= kKnownNearMiss);
    if (!ok) ++failed_by[ops[j].shard];
    if (!ok && !known) report.correct = false;
    if (!outcome.converged) ++nonconverged;
    ++paths[outcome.path == gw::ctrl::RepairPath::kClassRepair ? "class_repair"
                                                               : "full_solve"];
  }
  report.attempted = ops.size();
  report.failed = failed_by[0] + failed_by[1] + failed_by[2];
  report.fingerprint["ops"] = ops.size();
  report.fingerprint["failed"] = report.failed;
  report.fingerprint["rung.class_repair"] = paths["class_repair"];
  report.fingerprint["rung.full_solve"] = paths["full_solve"];
  fingerprint_work(report, pass.work);
  const auto labels = solver_disciplines();
  for (std::size_t d = 0; d < 3; ++d) {
    report.notes.push_back(labels[d].label + ": " +
                           std::to_string(failed_by[d]) + " of " +
                           std::to_string(ops_by[d]) + " repairs failed");
  }

  if (options.trace) {
    for (std::size_t d = 0; d < 3; ++d) {
      report.set("classed.fail_frac." + labels[d].label,
                 static_cast<double>(failed_by[d]) /
                     static_cast<double>(ops_by[d]),
                 "1");
    }
    report.set("bench.fail_frac",
               static_cast<double>(report.failed) /
                   static_cast<double>(report.attempted),
               "1");
    report.set("ctrl.shard.repairs.class_repair",
               static_cast<double>(paths["class_repair"]), "count");
    report.set("ctrl.shard.repairs.full_solve",
               static_cast<double>(paths["full_solve"]), "count");
    report.set("ctrl.shard.escalation_ratio",
               static_cast<double>(paths["full_solve"]) /
                   static_cast<double>(ops.size()),
               "1");
    report.set("ctrl.shard.nonconverged", static_cast<double>(nonconverged),
               "count");
    report.set("ctrl.shard.repair_ms_p50", quantile(pass.call_ms, 0.5), "ms");
    report.set("ctrl.shard.repair_ms_tail",
               quantile(pass.call_ms,
                        tail_percentile(pass.call_ms.size()) / 100.0),
               "ms");
  }
  return report;
}

}  // namespace perfbench
