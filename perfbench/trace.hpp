// Layer spans for the benchmark's traced runs.
//
// A Span brackets one call from the benchmark into a layer of the library
// (or, for core.eval, one call through the TappedAllocation wrapper). Each
// thread keeps a stack of open spans, so a span's *self* time is its
// duration minus the time its child spans on the same thread cover. Totals
// are per-thread blocks summed by collect(); nothing is shared on the hot
// path. With tracing off a Span is one relaxed load and a branch.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace perfbench {

enum class Layer : std::uint8_t {
  kBench,             ///< the timed phase itself; self time = bench.other
  kEval,              ///< core.eval: AllocationFunction virtuals
  kSolve,             ///< core.solve: solver entry points
  kShard,             ///< ctrl.shard: SolverShard::repair
  kControllerApply,   ///< ctrl.controller: Controller::apply_pending
  kControllerSubmit,  ///< ctrl.controller: Controller::submit
  kSim,               ///< sim: sim::run_switch
};
inline constexpr std::size_t kLayerCount = 7;

[[nodiscard]] const char* layer_name(Layer layer) noexcept;

struct LayerTotals {
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::array<std::int64_t, kLayerCount> total_ns{};
  std::array<std::uint64_t, kLayerCount> spans{};

  [[nodiscard]] double self_s(Layer layer) const noexcept {
    return static_cast<double>(self_ns[static_cast<std::size_t>(layer)]) * 1e-9;
  }
  [[nodiscard]] double total_s(Layer layer) const noexcept {
    return static_cast<double>(total_ns[static_cast<std::size_t>(layer)]) *
           1e-9;
  }
  [[nodiscard]] std::uint64_t count(Layer layer) const noexcept {
    return spans[static_cast<std::size_t>(layer)];
  }
};

/// Turns span recording on or off process-wide (call while quiescent).
void set_tracing(bool on) noexcept;
[[nodiscard]] bool tracing() noexcept;

/// Sums every thread's totals (quiescent: no span open on another thread).
/// Call before set_tracing(false): the tick-to-ns ratio is taken over the
/// tracing window up to the call.
[[nodiscard]] LayerTotals collect();
/// The calling thread's totals only.
[[nodiscard]] LayerTotals collect_this_thread();
/// Zeroes every thread's totals (quiescent).
void reset();

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns() noexcept;

class Span {
 public:
  explicit Span(Layer layer) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool open_ = false;
};

}  // namespace perfbench
