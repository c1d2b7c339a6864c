// gw_perfbench: the repository benchmark program (run through run.py).
//
//   gw_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--workers <n>]
//
// Every workload runs a fixed, seeded operation sequence whose length
// scales with --seconds (it is never a time budget), checks every result
// outside the timed phase, and prints "# ..." notes, one "fingerprint"
// line of exact work counts, and, last, one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 reruns the workload with layer spans and
// reports the per-layer metrics. The exit code is 0 only when every
// output check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

#include "common.hpp"
#include "core/fair_share.hpp"
#include "core/gfunction.hpp"
#include "core/proportional.hpp"
#include "core/serial_general.hpp"
#include "obs/metrics.hpp"
#include "tapped_allocation.hpp"
#include "trace.hpp"

namespace perfbench {

double tail_percentile(std::size_t samples) {
  double best = 50.0;
  for (const double p : {90.0, 99.0, 99.9, 99.99}) {
    // The epsilon keeps 100 samples' p90 (exactly ten beyond) eligible.
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0 - 1e-9) {
      best = p;
    }
  }
  return best;
}

void report_calls(Report& report, const std::vector<double>& call_ms) {
  const double p = tail_percentile(call_ms.size());
  report.set("call_ms_p50", quantile(call_ms, 0.5), "ms");
  report.set("call_ms_tail", quantile(call_ms, p / 100.0), "ms");
  std::ostringstream note;
  note << "call_ms_tail is p" << p << " of " << call_ms.size()
       << " samples ("
       << static_cast<std::size_t>(std::lround(
              static_cast<double>(call_ms.size()) * (1.0 - p / 100.0)))
       << " beyond it)";
  report.notes.push_back(note.str());
}

void report_setup(Report& report, const std::vector<double>& setup_seconds) {
  report.set("setup_s", gw::obs::stats::median(setup_seconds), "s");
  std::ostringstream note;
  note << "setup_s is the median of " << setup_seconds.size()
       << " fresh constructions:";
  for (const double s : setup_seconds) note << ' ' << s;
  report.notes.push_back(note.str());
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::vector<Discipline> solver_disciplines() {
  return {
      {"fs", std::make_shared<gw::core::FairShareAllocation>()},
      {"fifo", std::make_shared<gw::core::ProportionalAllocation>()},
      {"serial_mg1", std::make_shared<gw::core::GeneralSerialAllocation>(
                         gw::core::GFunction::mg1(1.0))},
  };
}

std::vector<Discipline> maybe_tapped(std::vector<Discipline> disciplines,
                                     bool trace) {
  if (!trace) return disciplines;
  for (auto& d : disciplines) {
    d.alloc = std::make_shared<TappedAllocation>(std::move(d.alloc));
  }
  return disciplines;
}

gw::obs::work::Totals work_delta(const gw::obs::work::Totals& before,
                                 const gw::obs::work::Totals& after) {
  gw::obs::work::Totals delta;
  for (std::size_t i = 0; i < gw::obs::work::kKindCount; ++i) {
    delta.counts[i] = after.counts[i] - before.counts[i];
  }
  return delta;
}

void fingerprint_work(Report& report, const gw::obs::work::Totals& totals) {
  namespace work = gw::obs::work;
  for (std::size_t i = 0; i < work::kKindCount; ++i) {
    report.fingerprint[std::string("work.") +
                       work::kind_name(static_cast<work::Kind>(i))] =
        totals.counts[i];
  }
}

namespace {

/// Every per-layer metric and its unit; BENCHMARK.json lists the same set.
std::vector<std::pair<std::string, std::string>> layer_metric_names() {
  std::vector<std::pair<std::string, std::string>> names = {
      {"core.eval.busy_s", "s"},
      {"core.eval.users_evaluated", "count"},
      {"core.eval.jacobian_cells", "count"},
      {"core.eval.ns_per_user", "ns"},
      {"core.solve.busy_s", "s"},
      {"core.solve.setup_busy_s", "s"},
      {"core.solve.calls", "count"},
      {"core.solve.iterations_p50", "count"},
      {"core.solve.iterations_max", "count"},
      {"core.solve.best_response_calls", "count"},
      {"core.solve.gs_sweeps", "count"},
      {"core.solve.converged_ratio", "1"},
      {"core.solve.classed_polish_iterations", "count"},
      {"core.solve.expansion_fallbacks", "count"},
      {"ctrl.shard.busy_s", "s"},
      {"ctrl.shard.repairs.single_user", "count"},
      {"ctrl.shard.repairs.relax", "count"},
      {"ctrl.shard.repairs.newton", "count"},
      {"ctrl.shard.repairs.warm_solve", "count"},
      {"ctrl.shard.repairs.full_solve", "count"},
      {"ctrl.shard.repairs.class_repair", "count"},
      {"ctrl.shard.escalation_ratio", "1"},
      {"ctrl.shard.repair_ms_p50", "ms"},
      {"ctrl.shard.repair_ms_tail", "ms"},
      {"ctrl.shard.nonconverged", "count"},
      {"ctrl.controller.apply_busy_s", "s"},
      {"ctrl.controller.submit_busy_s", "s"},
      {"ctrl.controller.self_s", "s"},
      {"ctrl.controller.updates_per_batch", "count"},
      {"ctrl.controller.shards_per_batch", "count"},
      {"ctrl.controller.pool_efficiency", "1"},
      {"ctrl.controller.cpu_per_wall", "1"},
      {"ctrl.controller.stale_ms_p50", "ms"},
      {"ctrl.controller.stale_ms_tail", "ms"},
      {"sim.busy_s", "s"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.run_ms_p50.fifo", "ms"},
      {"sim.run_ms_p50.fs_adaptive", "ms"},
      {"sim.run_ms_p50.drr", "ms"},
      {"sim.run_ms_p50.sfq", "ms"},
      {"sim.run_ms_p50.rate_priority", "ms"},
      {"classed.fail_frac.fs", "1"},
      {"classed.fail_frac.fifo", "1"},
      {"classed.fail_frac.serial_mg1", "1"},
      {"bench.fail_frac", "1"},
      {"bench.wall_s", "s"},
      {"bench.other_s", "s"},
      {"bench.coverage", "1"},
      {"obs.trace_overhead_frac", "1"},
  };
  for (std::size_t m = 0; m < kEvalMethodCount; ++m) {
    names.emplace_back(std::string("core.eval.calls.") +
                           eval_method_name(static_cast<EvalMethod>(m)),
                       "count");
  }
  return names;
}

}  // namespace

SolverCounters solver_counters() {
  auto& registry = gw::obs::default_registry();
  SolverCounters c;
  c.solves = registry.counter("core.nash.solves").value();
  c.non_converged = registry.counter("core.nash.non_converged").value();
  c.classed_solves = registry.counter("core.nash.classed_solves").value();
  c.classed_polish =
      registry.counter("core.nash.classed_newton_iterations_total").value();
  c.classed_non_converged =
      registry.counter("core.nash.classed_non_converged").value();
  return c;
}

void report_solver(Report& report, const SolverCounters& before,
                   const SolverCounters& after,
                   const std::vector<double>& iterations) {
  const auto calls = static_cast<double>(
      after.solves - before.solves + after.classed_solves -
      before.classed_solves);
  const auto failed = static_cast<double>(
      after.non_converged - before.non_converged +
      after.classed_non_converged - before.classed_non_converged);
  report.set("core.solve.calls", calls, "count");
  report.set("core.solve.converged_ratio",
             calls > 0 ? 1.0 - failed / calls : 0.0, "1");
  report.set("core.solve.classed_polish_iterations",
             static_cast<double>(after.classed_polish - before.classed_polish),
             "count");
  report.set("core.solve.iterations_p50", quantile(iterations, 0.5), "count");
  report.set("core.solve.iterations_max", quantile(iterations, 1.0), "count");
}

void zero_layer_metrics(Report& report) {
  for (const auto& [name, unit] : layer_metric_names()) {
    report.set(name, 0.0, unit);
  }
}

void report_layers(Report& report, const gw::obs::work::Totals& work,
                   double wall_seconds) {
  namespace w = gw::obs::work;
  const LayerTotals all = collect();
  const LayerTotals main_thread = collect_this_thread();
  report.set("core.eval.busy_s", all.total_s(Layer::kEval), "s");
  report.set("core.solve.busy_s", all.self_s(Layer::kSolve), "s");
  report.set("ctrl.shard.busy_s", all.self_s(Layer::kShard), "s");
  report.set("ctrl.controller.apply_busy_s",
             all.total_s(Layer::kControllerApply), "s");
  report.set("ctrl.controller.submit_busy_s",
             all.total_s(Layer::kControllerSubmit), "s");
  report.set("sim.busy_s", all.self_s(Layer::kSim), "s");

  const double users = static_cast<double>(work[w::Kind::kUsersEvaluated]);
  report.set("core.eval.users_evaluated", users, "count");
  report.set("core.eval.jacobian_cells",
             static_cast<double>(work[w::Kind::kJacobianCells]), "count");
  report.set("core.eval.ns_per_user",
             users > 0 ? all.total_s(Layer::kEval) * 1e9 / users : 0.0, "ns");
  report.set("core.solve.best_response_calls",
             static_cast<double>(work[w::Kind::kBestResponseCalls]), "count");
  report.set("core.solve.gs_sweeps",
             static_cast<double>(work[w::Kind::kGsSweeps]), "count");
  const double events = static_cast<double>(work[w::Kind::kEventsProcessed]);
  report.set("sim.events", events, "count");
  report.set("sim.ns_per_event",
             events > 0 ? all.self_s(Layer::kSim) * 1e9 / events : 0.0, "ns");

  const EvalCalls calls = collect_eval_calls();
  for (std::size_t m = 0; m < kEvalMethodCount; ++m) {
    report.set(std::string("core.eval.calls.") +
                   eval_method_name(static_cast<EvalMethod>(m)),
               static_cast<double>(calls[m]), "count");
  }

  // Self times on the thread that ran the timed phase partition its wall
  // time exactly; bench.other is what no layer span covered.
  double covered = 0.0;
  for (std::size_t i = 1; i < kLayerCount; ++i) {
    covered += main_thread.self_s(static_cast<Layer>(i));
  }
  const double other = main_thread.self_s(Layer::kBench);
  report.set("bench.wall_s", wall_seconds, "s");
  report.set("bench.other_s", other, "s");
  report.set("bench.coverage",
             wall_seconds > 0 ? covered / wall_seconds : 0.0, "1");
  std::ostringstream note;
  note << "layer self times on the timed thread (s):";
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const auto layer = static_cast<Layer>(i);
    note << ' ' << (layer == Layer::kBench ? "bench.other" : layer_name(layer))
         << '=' << main_thread.self_s(layer);
  }
  note << " wall=" << wall_seconds;
  report.notes.push_back(note.str());
}

}  // namespace perfbench

namespace {

void usage() {
  std::cerr << "usage: gw_perfbench --workload "
               "<churn-poisson|solve-cold|classed-1m|sim-switch> --seed <n> "
               "--seconds <s> --trace <0|1> [--workers <n>]\n";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--workers") {
      options.workers = std::strtoul(value.c_str(), &end, 10);
    } else {
      usage();
      return 2;
    }
    if (end != nullptr && *end != '\0') {
      usage();
      return 2;
    }
  }
  if (!have_trace || !(options.seconds > 0.0) || options.seconds > 600.0 ||
      options.workers == 0 || options.workers > 64) {
    usage();
    return 2;
  }

  // A traced run times the phase twice (untraced, then traced at ~2-4x
  // the cost), so it runs half the operations to stay near the length of
  // an untraced run.
  if (options.trace) options.seconds *= 0.5;

  perfbench::Report report;
  try {
    if (options.workload == "churn-poisson") {
      report = perfbench::run_churn(options);
    } else if (options.workload == "solve-cold") {
      report = perfbench::run_solve(options);
    } else if (options.workload == "classed-1m") {
      report = perfbench::run_classed(options);
    } else if (options.workload == "sim-switch") {
      report = perfbench::run_sim(options);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "gw_perfbench: " << e.what() << '\n';
    return 1;
  }
  if (!options.trace) {
    report.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  }

  for (const auto& note : report.notes) std::cout << "# " << note << '\n';
  std::cout << "fingerprint";
  for (const auto& [name, count] : report.fingerprint) {
    std::cout << ' ' << name << '=' << count;
  }
  std::cout << '\n';
  std::ostringstream json;
  json << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    json << (first ? "" : ", ") << '"' << json_escape(name)
         << "\": {\"value\": " << json_number(metric.value)
         << ", \"unit\": \"" << json_escape(metric.unit) << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return report.correct ? 0 : 1;
}
