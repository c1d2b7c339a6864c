// solve-cold: a seeded stream of independent games, each solved cold with
// core::solve_nash at library defaults on one thread — the researcher's
// path. Best-response scans, Brent refinement and the scan tables do
// nearly all the work; no ctrl code runs.
#include <cmath>
#include <vector>

#include "common.hpp"
#include "core/nash.hpp"
#include "numerics/rng.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace work = gw::obs::work;

/// Games solved per second on the seed commit (4-vCPU x86-64 VM, Release);
/// fixes the operation count for a given --seconds.
constexpr double kGamesPerSecond = 77.0;
/// Set-ups behind setup_s (the median), spread across the run.
constexpr std::size_t kSetupRepeats = 7;

struct Game {
  std::size_t discipline = 0;
  gw::core::UtilityProfile profile;
};

/// The run's game list: discipline cycles FS, FIFO, serial M/G/1 and each
/// discipline's N sweeps 8..64 in turn, so every seed solves the same mix
/// of sizes; the seed draws each user's utility.
std::vector<Game> make_games(std::size_t count, std::uint64_t seed) {
  gw::numerics::Rng rng(seed);
  std::vector<Game> games(count);
  for (std::size_t g = 0; g < count; ++g) {
    games[g].discipline = g % 3;
    const std::size_t n = 8 + (g / 3) % 57;
    games[g].profile.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      games[g].profile.push_back(
          gw::core::make_linear(rng.uniform(0.8, 1.2), rng.uniform(0.2, 0.9)));
    }
  }
  return games;
}

std::vector<double> cold_start(std::size_t n) {
  return std::vector<double>(n, 0.5 / static_cast<double>(n));
}

/// Set-up: builds the game list, then solves one N = 64 warm-up game per
/// discipline so lazily grown solver scratch and caches are in place
/// before the first timed call. Returns the list and the elapsed seconds.
std::vector<Game> set_up(std::size_t count, std::uint64_t seed,
                         const std::vector<Discipline>& disciplines,
                         double& seconds) {
  const std::int64_t t0 = now_ns();
  std::vector<Game> games = make_games(count, seed);
  gw::numerics::Rng rng(kSetupSeed);
  for (const auto& d : disciplines) {
    gw::core::UtilityProfile profile;
    for (std::size_t i = 0; i < 64; ++i) {
      profile.push_back(
          gw::core::make_linear(rng.uniform(0.8, 1.2), rng.uniform(0.2, 0.9)));
    }
    const Span solve(Layer::kSolve);
    const auto warm = gw::core::solve_nash(*d.alloc, profile, cold_start(64));
  }
  seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return games;
}

struct Pass {
  std::vector<gw::core::NashResult> results;
  std::vector<double> call_ms;
  double wall_s = 0.0;
  work::Totals work;
};

/// Solves every game once; between chunks it repeats the set-up from
/// scratch `extra_setups` times, timing each into `setup_seconds`.
Pass solve_all(const std::vector<Game>& games,
               const std::vector<Discipline>& disciplines,
               std::uint64_t seed, std::size_t extra_setups,
               std::vector<double>& setup_seconds) {
  Pass pass;
  pass.results.reserve(games.size());
  pass.call_ms.reserve(games.size());
  const std::size_t chunks = extra_setups + 1;
  double timed_ns = 0.0;
  const work::Totals before = work::collect();
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * games.size() / chunks;
    const std::size_t end = (c + 1) * games.size() / chunks;
    {
      const Span bench(Layer::kBench);
      const std::int64_t chunk_start = now_ns();
      for (std::size_t g = begin; g < end; ++g) {
        const Game& game = games[g];
        const std::int64_t t0 = now_ns();
        {
          const MeteredCall metered;
          const Span solve(Layer::kSolve);
          pass.results.push_back(gw::core::solve_nash(
              *disciplines[game.discipline].alloc, game.profile,
              cold_start(game.profile.size())));
        }
        pass.call_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      }
      timed_ns += static_cast<double>(now_ns() - chunk_start);
    }
    if (c + 1 < chunks) {
      double seconds = 0.0;
      const auto rebuilt = set_up(games.size(), seed, disciplines, seconds);
      setup_seconds.push_back(seconds);
    }
  }
  pass.work = work_delta(before, work::collect());
  pass.wall_s = timed_ns * 1e-9;
  return pass;
}

}  // namespace

Report run_solve(const Options& options) {
  Report report;
  const auto games_count = static_cast<std::size_t>(
      std::max(30.0, std::round(kGamesPerSecond * options.seconds)));

  std::vector<double> setup_seconds(1);
  const std::vector<Game> games = set_up(games_count, options.seed,
                                         solver_disciplines(),
                                         setup_seconds[0]);

  Pass pass;
  SolverCounters before;
  SolverCounters after;
  if (options.trace) {
    zero_layer_metrics(report);
    std::vector<double> unused;
    const Pass untraced = solve_all(games, solver_disciplines(), options.seed,
                                    0, unused);
    set_tracing(true);
    reset();
    before = solver_counters();
    pass = solve_all(games, maybe_tapped(solver_disciplines(), true),
                     options.seed, 0, unused);
    after = solver_counters();
    report_layers(report, pass.work, pass.wall_s);
    set_tracing(false);
    report.set("obs.trace_overhead_frac", pass.wall_s / untraced.wall_s - 1.0,
               "1");
  } else {
    pass = solve_all(games, solver_disciplines(), options.seed,
                     kSetupRepeats - 1, setup_seconds);
    report_setup(report, setup_seconds);
    report.set("ops_per_s", static_cast<double>(games.size()) / pass.wall_s,
               "1/s");
    report_calls(report, pass.call_ms);
  }

  // Output check, outside the timed phase: every solution must have
  // converged and pass the direct Nash test (no profitable unilateral
  // deviation), which also covers boundary equilibria where the FDC
  // residual is legitimately nonzero.
  const auto disciplines = solver_disciplines();
  std::vector<double> iterations;
  for (std::size_t g = 0; g < games.size(); ++g) {
    const auto& result = pass.results[g];
    iterations.push_back(result.iterations);
    const bool ok =
        result.converged &&
        gw::core::is_nash(*disciplines[games[g].discipline].alloc,
                          games[g].profile, result.rates);
    if (!ok) ++report.failed;
  }
  report.attempted = games.size();
  report.correct = report.failed == 0;
  report.fingerprint["ops"] = games.size();
  report.fingerprint["failed"] = report.failed;
  fingerprint_work(report, pass.work);

  if (options.trace) {
    report_solver(report, before, after, iterations);
    report.set("bench.fail_frac",
               static_cast<double>(report.failed) /
                   static_cast<double>(report.attempted),
               "1");
  }
  return report;
}

}  // namespace perfbench
