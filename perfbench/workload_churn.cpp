// churn-poisson: the control plane's serving path. A ctrl::Controller over
// 512 users in 8 shards of 64 (shard disciplines cycle FS, FIFO, serial
// M/G/1, as in E-CHURN) takes a seeded PoissonChurn stream in a closed
// loop of fixed 32-update batches over an exec::ThreadPool; the traced run
// adds a virtual-time open loop at a fixed absolute offered rate for the
// staleness metrics. The cheap ladder rungs, the expanded evaluation
// kernels and Controller batching do most of the work; best-response
// dynamics runs only in set-up.
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <span>
#include <vector>

#include "common.hpp"
#include "core/nash.hpp"
#include "ctrl/churn.hpp"
#include "ctrl/controller.hpp"
#include "exec/thread_pool.hpp"
#include "numerics/rng.hpp"
#include "obs/metrics.hpp"
#include "tapped_allocation.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace work = gw::obs::work;
using gw::ctrl::Controller;
using gw::ctrl::RateUpdate;
using gw::ctrl::SolverShard;

constexpr std::size_t kUsers = 512;
constexpr std::size_t kShardSize = 64;
constexpr std::size_t kBatch = 32;
/// Closed-loop updates per second on the seed commit (4-vCPU x86-64 VM,
/// Release, 2 workers); fixes the operation counts for a given --seconds.
constexpr double kUpdatesPerSecond = 5600.0;
/// Share of --seconds the closed loop takes at seed speed (the rest is
/// set-up and the output check).
constexpr double kClosedShare = 0.85;
/// The traced run's open loop offers a fixed absolute rate, a sixteenth
/// of the seed commit's closed-loop capacity, never rescaled to a measured
/// capacity, so a faster program shows as lower staleness. Its epochs
/// carry one or a few updates, not 32, so per-update cost is higher than
/// in the closed loop: at half the closed-loop capacity the seed commit
/// was ~80% busy and staleness percentiles moved 2-3x between runs of one
/// seed; at a quarter it was ~55% busy.
constexpr double kOfferedPerSecond = kUpdatesPerSecond / 16.0;
/// Open-loop updates per --second; 9000 in a traced run at the default
/// 45 s (which runs 22.5 s of work), so the staleness tail is p99 (~90
/// samples beyond) rather than the far noisier p99.9.
constexpr double kOpenUpdatesPerSecond = 400.0;
constexpr std::size_t kSetupRepeats = 7;
/// Served vs cold-solve agreement (the E-CHURN consistency threshold).
constexpr double kConsistency = 1e-4;

/// E-CHURN's policy: ladder defaults with a raised cold-solve sweep budget.
gw::ctrl::RepairPolicy churn_policy() {
  gw::ctrl::RepairPolicy policy;
  policy.full_solve.max_iterations = 2000;
  return policy;
}

gw::ctrl::ControllerConfig churn_config() {
  gw::ctrl::ControllerConfig config;
  config.policy = churn_policy();
  return config;
}

/// Per-user delay aversions from the churn's own draw range, drawn from
/// kSetupSeed (set-up inputs do not vary with --seed).
std::vector<gw::core::UtilityProfile> initial_profiles() {
  gw::numerics::Rng rng(kSetupSeed);
  const gw::ctrl::PoissonChurnOptions churn;
  std::vector<gw::core::UtilityProfile> profiles(kUsers / kShardSize);
  for (auto& profile : profiles) {
    for (std::size_t i = 0; i < kShardSize; ++i) {
      profile.push_back(gw::core::make_linear(
          churn.a, rng.uniform(churn.gamma_min, churn.gamma_max)));
    }
  }
  return profiles;
}

/// Builds the shards, cold-solving each from the canonical interior start
/// with the options the shard constructor itself would use.
std::vector<SolverShard> make_shards(
    const std::vector<Discipline>& disciplines,
    const std::vector<gw::core::UtilityProfile>& profiles,
    std::vector<double>* iterations = nullptr) {
  std::vector<SolverShard> shards;
  for (std::size_t k = 0; k < profiles.size(); ++k) {
    const auto& alloc = disciplines[k % disciplines.size()].alloc;
    const std::vector<double> start(
        kShardSize, 0.5 / static_cast<double>(kShardSize));
    gw::core::NashResult cold;
    {
      const Span solve(Layer::kSolve);
      cold = gw::core::solve_nash(*alloc, profiles[k], start,
                                  gw::ctrl::RepairPolicy{}.full_solve);
    }
    if (iterations != nullptr) iterations->push_back(cold.iterations);
    shards.emplace_back(alloc, profiles[k], std::move(cold.rates));
  }
  return shards;
}

/// Controllers hold mutexes and cannot move, hence the unique_ptr.
std::unique_ptr<Controller> make_controller(
    const std::vector<Discipline>& disciplines,
    std::vector<double>* iterations = nullptr) {
  return std::make_unique<Controller>(
      make_shards(disciplines, initial_profiles(), iterations),
      churn_config());
}

std::vector<RateUpdate> make_stream(std::size_t count, double rate,
                                    std::uint64_t seed) {
  gw::ctrl::PoissonChurnOptions options;
  options.updates_per_second = rate;
  gw::ctrl::PoissonChurn churn(kUsers, options, seed);
  std::vector<RateUpdate> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) stream.push_back(churn.next());
  return stream;
}

struct ClosedLoop {
  std::vector<double> call_ms;  ///< per batch: submit + apply_pending
  double wall_s = 0.0;
  double cpu_s = 0.0;
  work::Totals work;
  std::uint64_t shards_repaired = 0;
  std::map<std::string, std::uint64_t> rungs;
  std::uint64_t nonconverged_updates = 0;
};

/// Feeds `stream` in fixed batches; `between` runs untimed after the
/// batches that end each of `chunks` equal parts (set-up samples).
template <typename Between>
ClosedLoop run_closed(Controller& ctrl, const std::vector<RateUpdate>& stream,
                      gw::exec::ThreadPool* pool, std::size_t chunks,
                      Between&& between) {
  ClosedLoop loop;
  const std::size_t batches = (stream.size() + kBatch - 1) / kBatch;
  double timed_ns = 0.0;
  double cpu = 0.0;
  std::size_t next_chunk = 1;
  const work::Totals before = work::collect();
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t begin = b * kBatch;
    const std::size_t end = std::min(begin + kBatch, stream.size());
    const double cpu0 = process_cpu_seconds();
    const std::int64_t t0 = now_ns();
    gw::ctrl::BatchReport report;
    {
      const MeteredCall metered;
      const Span bench(Layer::kBench);
      {
        const Span submit(Layer::kControllerSubmit);
        ctrl.submit(std::span<const RateUpdate>(stream.data() + begin,
                                                end - begin));
      }
      const Span apply(Layer::kControllerApply);
      report = ctrl.apply_pending(pool);
    }
    const std::int64_t dt = now_ns() - t0;
    cpu += process_cpu_seconds() - cpu0;
    timed_ns += static_cast<double>(dt);
    loop.call_ms.push_back(static_cast<double>(dt) * 1e-6);
    loop.shards_repaired += report.shards_repaired;
    loop.rungs["single_user"] += report.single_user;
    loop.rungs["relax"] += report.relax;
    loop.rungs["newton"] += report.newton;
    loop.rungs["warm_solve"] += report.warm_solve;
    loop.rungs["full_solve"] += report.full_solve;
    if (!report.all_converged) loop.nonconverged_updates += end - begin;
    if (next_chunk < chunks && b + 1 == next_chunk * batches / chunks) {
      between();
      ++next_chunk;
    }
  }
  loop.work = work_delta(before, work::collect());
  loop.wall_s = timed_ns * 1e-9;
  loop.cpu_s = cpu;
  return loop;
}

/// Virtual-time open loop: updates are due at their arrival times; each
/// epoch applies everything due by the virtual clock, which
/// then advances by the epoch's measured wall time. The generator cannot
/// run late — its schedule is virtual — so each staleness sample is the
/// full time from an update's due time to the epoch that served it.
struct OpenLoop {
  std::vector<double> stale_ms;
  std::size_t epochs = 0;
  double busy_s = 0.0;  ///< summed epoch wall time
  double span_s = 0.0;  ///< virtual time from 0 to the last epoch's end
};

OpenLoop run_open(Controller& ctrl, const std::vector<RateUpdate>& stream,
                  gw::exec::ThreadPool* pool) {
  OpenLoop loop;
  loop.stale_ms.reserve(stream.size());
  double clock = 0.0;
  std::size_t next = 0;
  while (next < stream.size()) {
    clock = std::max(clock, stream[next].arrival_time);
    const std::size_t first = next;
    while (next < stream.size() && stream[next].arrival_time <= clock) ++next;
    const std::int64_t t0 = now_ns();
    ctrl.submit(std::span<const RateUpdate>(stream.data() + first,
                                            next - first));
    ctrl.apply_pending(pool);
    const double busy = static_cast<double>(now_ns() - t0) * 1e-9;
    clock += busy;
    loop.busy_s += busy;
    ++loop.epochs;
    for (std::size_t i = first; i < next; ++i) {
      loop.stale_ms.push_back((clock - stream[i].arrival_time) * 1e3);
    }
  }
  loop.span_s = clock;
  return loop;
}

/// Output check: every shard's served rates against a cold solve of its
/// current profile. Returns the number of updates routed to shards that
/// disagree (all of them count as failed operations).
std::uint64_t check_served(const Controller& ctrl,
                           const std::vector<RateUpdate>& stream) {
  const auto options = churn_policy().full_solve;
  std::vector<char> bad(ctrl.shard_count(), 0);
  for (std::size_t k = 0; k < ctrl.shard_count(); ++k) {
    const auto oracle = ctrl.shard(k).cold_solve(options);
    const auto& served = ctrl.shard(k).rates();
    for (std::size_t i = 0; i < served.size(); ++i) {
      if (!(std::abs(served[i] - oracle[i]) <= kConsistency)) bad[k] = 1;
    }
  }
  std::uint64_t failed = 0;
  for (const auto& update : stream) failed += bad[ctrl.locate(update.user).first];
  return failed;
}

/// Replays the closed loop's batches through benchmark-owned shards routed
/// with Controller::locate. The Controller's served state depends only on
/// (initial state, update stream, batch boundaries), so these are exactly
/// the repairs its pool runs — here each one is visible and timed. Batch by
/// batch, the same batch is first applied by `inline_ctrl` at one (inline)
/// worker, so the difference of the two times is the Controller's own
/// cost, with host-speed drift cancelling between neighbours.
struct Replay {
  std::map<std::string, std::uint64_t> rungs;
  std::vector<double> repair_ms;
  std::uint64_t nonconverged = 0;
  double repair_s = 0.0;    ///< replayed SolverShard::repair time
  double t1_apply_s = 0.0;  ///< inline Controller submit + apply time
};

Replay replay(Controller& inline_ctrl, gw::exec::ThreadPool& inline_pool,
              const std::vector<Discipline>& disciplines,
              const std::vector<RateUpdate>& stream) {
  Replay out;
  auto shards = make_shards(disciplines, initial_profiles());
  const auto policy = churn_policy();
  for (std::size_t begin = 0; begin < stream.size(); begin += kBatch) {
    const std::size_t end = std::min(begin + kBatch, stream.size());
    const std::int64_t a0 = now_ns();
    {
      const Span bench(Layer::kBench);
      {
        const Span submit(Layer::kControllerSubmit);
        inline_ctrl.submit(
            std::span<const RateUpdate>(stream.data() + begin, end - begin));
      }
      const Span apply(Layer::kControllerApply);
      inline_ctrl.apply_pending(&inline_pool);
    }
    out.t1_apply_s += static_cast<double>(now_ns() - a0) * 1e-9;

    for (std::size_t i = begin; i < end; ++i) {
      const auto [k, local] = inline_ctrl.locate(stream[i].user);
      shards[k].stage(local, stream[i].utility);
    }
    for (auto& shard : shards) {
      if (!shard.dirty()) continue;
      const std::int64_t t0 = now_ns();
      gw::ctrl::RepairOutcome outcome;
      {
        const Span bench(Layer::kBench);
        const Span repair(Layer::kShard);
        outcome = shard.repair(policy);
      }
      const std::int64_t dt = now_ns() - t0;
      out.repair_ms.push_back(static_cast<double>(dt) * 1e-6);
      out.repair_s += static_cast<double>(dt) * 1e-9;
      if (!outcome.converged) ++out.nonconverged;
      switch (outcome.path) {
        case gw::ctrl::RepairPath::kSingleUser: ++out.rungs["single_user"]; break;
        case gw::ctrl::RepairPath::kRelax: ++out.rungs["relax"]; break;
        case gw::ctrl::RepairPath::kNewton: ++out.rungs["newton"]; break;
        case gw::ctrl::RepairPath::kWarmSolve: ++out.rungs["warm_solve"]; break;
        case gw::ctrl::RepairPath::kFullSolve: ++out.rungs["full_solve"]; break;
        case gw::ctrl::RepairPath::kClassRepair:
          ++out.rungs["class_repair"];
          break;
        case gw::ctrl::RepairPath::kNoop: break;
      }
    }
  }
  return out;
}

std::size_t closed_count(double seconds) {
  return static_cast<std::size_t>(
      std::max(256.0, std::round(kClosedShare * seconds * kUpdatesPerSecond)));
}

/// Open-loop updates fall due evenly spaced at the offered rate, so every
/// seed sees the same arrival pattern; the churn itself stays Poisson's.
std::vector<RateUpdate> make_open_stream(const Options& options) {
  const auto count = static_cast<std::size_t>(
      std::max(256.0, std::round(kOpenUpdatesPerSecond * options.seconds)));
  auto stream = make_stream(count, kOfferedPerSecond, options.seed + 2);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i].arrival_time = static_cast<double>(i + 1) / kOfferedPerSecond;
  }
  return stream;
}

Report run_churn_traced(const Options& options) {
  Report report;
  zero_layer_metrics(report);
  const auto stream =
      make_stream(closed_count(options.seconds), kUpdatesPerSecond,
                  options.seed + 1);
  const auto raw = solver_disciplines();
  const auto tapped = maybe_tapped(solver_disciplines(), true);
  gw::exec::ThreadPool pool(options.workers);
  gw::exec::ThreadPool inline_pool(1);

  // Untraced reference for the tracing overhead.
  const auto plain = make_controller(raw);
  const ClosedLoop untraced = run_closed(*plain, stream, &pool, 1, [] {});

  set_tracing(true);
  // One inline worker, interleaved with the shard replay.
  const auto one = make_controller(tapped);
  reset();
  const Replay rep = replay(*one, inline_pool, tapped, stream);
  const double shard_self_s = collect().self_s(Layer::kShard);

  // The workload as measured, with `workers` pool threads. Per-solve
  // iterations and solver time are visible only on the benchmark's direct
  // calls, the set-up's cold solves: the closed loop's warm and full
  // solves run inside SolverShard::repair.
  std::vector<double> iterations;
  reset();
  const auto many = make_controller(tapped, &iterations);
  const double setup_solve_s = collect().self_s(Layer::kSolve);
  reset();
  reset_eval_calls();
  const SolverCounters before = solver_counters();
  const ClosedLoop traced = run_closed(*many, stream, &pool, 1, [] {});
  const SolverCounters after = solver_counters();
  report_layers(report, traced.work, traced.wall_s);
  report_solver(report, before, after, iterations);
  set_tracing(false);

  report.set("core.solve.setup_busy_s", setup_solve_s, "s");
  report.set("ctrl.shard.busy_s", shard_self_s, "s");
  for (const auto& [rung, count] : rep.rungs) {
    report.set("ctrl.shard.repairs." + rung, static_cast<double>(count),
               "count");
  }
  double escalated = 0.0;
  double repairs = 0.0;
  for (const auto& [rung, count] : rep.rungs) {
    repairs += static_cast<double>(count);
    if (rung != "single_user" && rung != "relax") {
      escalated += static_cast<double>(count);
    }
  }
  report.set("ctrl.shard.escalation_ratio",
             repairs > 0 ? escalated / repairs : 0.0, "1");
  report.set("ctrl.shard.repair_ms_p50", quantile(rep.repair_ms, 0.5), "ms");
  report.set("ctrl.shard.repair_ms_tail",
             quantile(rep.repair_ms,
                      tail_percentile(rep.repair_ms.size()) / 100.0),
             "ms");
  report.set("ctrl.shard.nonconverged", static_cast<double>(rep.nonconverged),
             "count");
  const double batches = static_cast<double>(traced.call_ms.size());
  report.set("ctrl.controller.updates_per_batch",
             static_cast<double>(stream.size()) / batches, "count");
  report.set("ctrl.controller.shards_per_batch",
             static_cast<double>(traced.shards_repaired) / batches, "count");
  report.set("ctrl.controller.self_s", rep.t1_apply_s - rep.repair_s, "s");
  report.set("ctrl.controller.pool_efficiency",
             rep.t1_apply_s /
                 (static_cast<double>(options.workers) * traced.wall_s),
             "1");
  report.set("ctrl.controller.cpu_per_wall", traced.cpu_s / traced.wall_s,
             "1");
  report.set("obs.trace_overhead_frac", traced.wall_s / untraced.wall_s - 1.0,
             "1");

  // Open-loop staleness, untraced.
  const auto open_stream = make_open_stream(options);
  const auto open_ctrl = make_controller(raw);
  const OpenLoop open = run_open(*open_ctrl, open_stream, &pool);
  report.set("ctrl.controller.stale_ms_p50", quantile(open.stale_ms, 0.5),
             "ms");
  report.set("ctrl.controller.stale_ms_tail",
             quantile(open.stale_ms,
                      tail_percentile(open.stale_ms.size()) / 100.0),
             "ms");
  report.notes.push_back(
      "open loop: " + std::to_string(open_stream.size()) + " updates at " +
      std::to_string(kOfferedPerSecond) + "/s in " +
      std::to_string(open.epochs) + " epochs, busy " +
      std::to_string(open.busy_s / open.span_s) +
      " of virtual time; stale_ms_tail is p" +
      std::to_string(tail_percentile(open.stale_ms.size())));

  const std::uint64_t failed =
      traced.nonconverged_updates + check_served(*many, stream);
  report.attempted = stream.size();
  report.failed = failed;
  report.correct = failed == 0;
  report.set("bench.fail_frac",
             static_cast<double>(failed) / static_cast<double>(stream.size()),
             "1");
  report.fingerprint["ops"] = stream.size();
  report.fingerprint["failed"] = failed;
  for (const auto& [rung, count] : traced.rungs) {
    report.fingerprint["rung." + rung] = count;
  }
  fingerprint_work(report, traced.work);
  return report;
}

}  // namespace

Report run_churn(const Options& options) {
  if (options.trace) return run_churn_traced(options);
  Report report;
  const auto raw = solver_disciplines();
  const auto stream =
      make_stream(closed_count(options.seconds), kUpdatesPerSecond,
                  options.seed + 1);
  gw::exec::ThreadPool pool(options.workers);

  // Set-up: the first construction serves the closed loop; fresh ones,
  // timed and discarded, are spread across it.
  std::vector<double> setup_seconds;
  auto timed_build = [&] {
    const std::int64_t t0 = now_ns();
    auto ctrl = make_controller(raw);
    setup_seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    return ctrl;
  };
  const auto ctrl = timed_build();
  const ClosedLoop closed = run_closed(*ctrl, stream, &pool, kSetupRepeats,
                                      [&] { static_cast<void>(timed_build()); });

  report_setup(report, setup_seconds);
  report.set("ops_per_s", static_cast<double>(stream.size()) / closed.wall_s,
             "1/s");
  report_calls(report, closed.call_ms);

  report.failed =
      closed.nonconverged_updates + check_served(*ctrl, stream);
  report.attempted = stream.size();
  report.correct = report.failed == 0;
  report.fingerprint["ops"] = stream.size();
  report.fingerprint["failed"] = report.failed;
  for (const auto& [rung, count] : closed.rungs) {
    report.fingerprint["rung." + rung] = count;
  }
  fingerprint_work(report, closed.work);
  return report;
}

}  // namespace perfbench
