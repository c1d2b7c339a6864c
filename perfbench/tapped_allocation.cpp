#include "tapped_allocation.hpp"

#include <mutex>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {
namespace {

std::mutex g_counts_mutex;
std::vector<std::unique_ptr<EvalCalls>> g_counts;  // guarded by the mutex
thread_local EvalCalls* t_counts = nullptr;

/// Counts the call against this thread and opens its core.eval span.
class EvalTap {
 public:
  explicit EvalTap(EvalMethod method) : span_(Layer::kEval) {
    if (!tracing()) return;
    if (t_counts == nullptr) {
      auto counts = std::make_unique<EvalCalls>();
      t_counts = counts.get();
      const std::lock_guard<std::mutex> lock(g_counts_mutex);
      g_counts.push_back(std::move(counts));
    }
    ++(*t_counts)[static_cast<std::size_t>(method)];
  }

 private:
  Span span_;
};

}  // namespace

const char* eval_method_name(EvalMethod method) noexcept {
  switch (method) {
    case EvalMethod::kCongestionInto: return "congestion_into";
    case EvalMethod::kCongestionOfInto: return "congestion_of_into";
    case EvalMethod::kJacobianInto: return "jacobian_into";
    case EvalMethod::kSecondPartialsInto: return "second_partials_into";
    case EvalMethod::kScanPrepare: return "scan_prepare";
    case EvalMethod::kScanCongestionOf: return "scan_congestion_of";
    case EvalMethod::kCongestionClassesInto: return "congestion_classes_into";
    case EvalMethod::kJacobianClassesInto: return "jacobian_classes_into";
    case EvalMethod::kScanPrepareClasses: return "scan_prepare_classes";
    case EvalMethod::kScanCongestionOfClass: return "scan_congestion_of_class";
    case EvalMethod::kPartial: return "partial";
    case EvalMethod::kSecondPartial: return "second_partial";
  }
  return "?";
}

EvalCalls collect_eval_calls() {
  EvalCalls sum{};
  const std::lock_guard<std::mutex> lock(g_counts_mutex);
  for (const auto& counts : g_counts) {
    for (std::size_t m = 0; m < kEvalMethodCount; ++m) sum[m] += (*counts)[m];
  }
  return sum;
}

void reset_eval_calls() {
  const std::lock_guard<std::mutex> lock(g_counts_mutex);
  for (const auto& counts : g_counts) counts->fill(0);
}

TappedAllocation::TappedAllocation(
    std::shared_ptr<const gw::core::AllocationFunction> inner)
    : inner_(std::move(inner)) {}

std::string TappedAllocation::name() const { return inner_->name(); }

void TappedAllocation::congestion_into(std::span<const double> rates,
                                       std::span<double> out,
                                       gw::core::EvalWorkspace& ws) const {
  const EvalTap tap(EvalMethod::kCongestionInto);
  inner_->congestion_into(rates, out, ws);
}

double TappedAllocation::congestion_of_into(
    std::size_t i, std::span<const double> rates,
    gw::core::EvalWorkspace& ws) const {
  const EvalTap tap(EvalMethod::kCongestionOfInto);
  return inner_->congestion_of_into(i, rates, ws);
}

void TappedAllocation::jacobian_into(std::span<const double> rates,
                                     gw::numerics::Matrix& out,
                                     gw::core::EvalWorkspace& ws) const {
  const EvalTap tap(EvalMethod::kJacobianInto);
  inner_->jacobian_into(rates, out, ws);
}

void TappedAllocation::second_partials_into(
    std::span<const double> rates, gw::numerics::Matrix& out,
    gw::core::EvalWorkspace& ws) const {
  const EvalTap tap(EvalMethod::kSecondPartialsInto);
  inner_->second_partials_into(rates, out, ws);
}

bool TappedAllocation::scan_prepare(std::size_t i,
                                    std::span<const double> rates,
                                    gw::core::EvalWorkspace& ws) const {
  const EvalTap tap(EvalMethod::kScanPrepare);
  return inner_->scan_prepare(i, rates, ws);
}

double TappedAllocation::scan_congestion_of(
    std::size_t i, double x, std::span<const double> rates,
    gw::core::EvalWorkspace& ws) const {
  const EvalTap tap(EvalMethod::kScanCongestionOf);
  return inner_->scan_congestion_of(i, x, rates, ws);
}

bool TappedAllocation::congestion_classes_into(
    const gw::core::ClassedPopulation& pop, std::span<double> out,
    gw::core::EvalWorkspace& ws) const {
  const EvalTap tap(EvalMethod::kCongestionClassesInto);
  return inner_->congestion_classes_into(pop, out, ws);
}

bool TappedAllocation::jacobian_classes_into(
    const gw::core::ClassedPopulation& pop, gw::numerics::Matrix& cross,
    std::span<double> own, gw::core::EvalWorkspace& ws) const {
  const EvalTap tap(EvalMethod::kJacobianClassesInto);
  return inner_->jacobian_classes_into(pop, cross, own, ws);
}

bool TappedAllocation::scan_prepare_classes(
    std::size_t a, const gw::core::ClassedPopulation& pop,
    gw::core::EvalWorkspace& ws) const {
  const EvalTap tap(EvalMethod::kScanPrepareClasses);
  return inner_->scan_prepare_classes(a, pop, ws);
}

double TappedAllocation::scan_congestion_of_class(
    std::size_t a, double x, const gw::core::ClassedPopulation& pop,
    gw::core::EvalWorkspace& ws) const {
  const EvalTap tap(EvalMethod::kScanCongestionOfClass);
  return inner_->scan_congestion_of_class(a, x, pop, ws);
}

double TappedAllocation::partial(std::size_t i, std::size_t j,
                                 const std::vector<double>& rates) const {
  const EvalTap tap(EvalMethod::kPartial);
  return inner_->partial(i, j, rates);
}

double TappedAllocation::second_partial(
    std::size_t i, std::size_t j, const std::vector<double>& rates) const {
  const EvalTap tap(EvalMethod::kSecondPartial);
  return inner_->second_partial(i, j, rates);
}

}  // namespace perfbench
