#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {
namespace {

constexpr std::size_t kMaxDepth = 32;

/// Span timestamps: the TSC where there is one (a few ns to read, against
/// ~20 ns for steady_clock), converted to ns by the ratio observed across
/// the tracing window; steady_clock ns elsewhere.
std::int64_t ticks() noexcept {
#if defined(__x86_64__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return now_ns();
#endif
}

struct Frame {
  Layer layer = Layer::kBench;
  std::int64_t start_ns = 0;
  std::int64_t child_ns = 0;
};

/// One thread's span stack and totals. Only the owning thread writes;
/// collect()/reset() read or clear it while every thread is quiescent.
struct ThreadBlock {
  std::array<Frame, kMaxDepth> stack{};
  std::size_t depth = 0;
  LayerTotals totals;
};

std::atomic<bool> g_tracing{false};
// Tracing window endpoints for the tick -> ns ratio (quiescent access).
std::int64_t g_window_ticks = 0;
std::int64_t g_window_ns = 0;
std::mutex g_blocks_mutex;
std::vector<std::unique_ptr<ThreadBlock>> g_blocks;  // guarded by the mutex
thread_local ThreadBlock* t_block = nullptr;

ThreadBlock& this_block() {
  if (t_block == nullptr) {
    auto block = std::make_unique<ThreadBlock>();
    t_block = block.get();
    const std::lock_guard<std::mutex> lock(g_blocks_mutex);
    g_blocks.push_back(std::move(block));
  }
  return *t_block;
}

double ns_per_tick() {
  const std::int64_t dt = ticks() - g_window_ticks;
  return dt > 0 ? static_cast<double>(now_ns() - g_window_ns) /
                      static_cast<double>(dt)
                : 1.0;
}

/// Adds `from` (in ticks) into `into` (in ns).
void add_into(LayerTotals& into, const LayerTotals& from, double scale) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    into.self_ns[i] += static_cast<std::int64_t>(
        static_cast<double>(from.self_ns[i]) * scale);
    into.total_ns[i] += static_cast<std::int64_t>(
        static_cast<double>(from.total_ns[i]) * scale);
    into.spans[i] += from.spans[i];
  }
}

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kEval: return "core.eval";
    case Layer::kSolve: return "core.solve";
    case Layer::kShard: return "ctrl.shard";
    case Layer::kControllerApply: return "ctrl.controller.apply";
    case Layer::kControllerSubmit: return "ctrl.controller.submit";
    case Layer::kSim: return "sim";
  }
  return "?";
}

void set_tracing(bool on) noexcept {
  if (on && !tracing()) {
    g_window_ticks = ticks();
    g_window_ns = now_ns();
  }
  g_tracing.store(on, std::memory_order_relaxed);
}

bool tracing() noexcept { return g_tracing.load(std::memory_order_relaxed); }

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LayerTotals collect() {
  LayerTotals sum;
  const double scale = ns_per_tick();
  const std::lock_guard<std::mutex> lock(g_blocks_mutex);
  for (const auto& block : g_blocks) add_into(sum, block->totals, scale);
  return sum;
}

LayerTotals collect_this_thread() {
  LayerTotals sum;
  add_into(sum, this_block().totals, ns_per_tick());
  return sum;
}

void reset() {
  const std::lock_guard<std::mutex> lock(g_blocks_mutex);
  for (const auto& block : g_blocks) block->totals = LayerTotals{};
}

Span::Span(Layer layer) noexcept {
  if (!tracing()) return;
  ThreadBlock& block = this_block();
  if (block.depth == kMaxDepth) std::terminate();  // unbalanced nesting
  block.stack[block.depth++] = Frame{layer, ticks(), 0};
  open_ = true;
}

Span::~Span() {
  if (!open_) return;
  const std::int64_t end = ticks();
  ThreadBlock& block = *t_block;
  const Frame frame = block.stack[--block.depth];
  const std::int64_t duration = end - frame.start_ns;
  const auto i = static_cast<std::size_t>(frame.layer);
  block.totals.self_ns[i] += duration - frame.child_ns;
  block.totals.total_ns[i] += duration;
  ++block.totals.spans[i];
  if (block.depth > 0) block.stack[block.depth - 1].child_ns += duration;
}

}  // namespace perfbench
