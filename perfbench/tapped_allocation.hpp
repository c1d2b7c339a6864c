// A forwarding AllocationFunction that times and counts every virtual call.
//
// The library selects behaviour only through the virtuals (it never
// dynamic_casts an allocation or dispatches on name()), so wrapping a
// discipline in a TappedAllocation leaves every solver path unchanged:
// each override forwards to the wrapped discipline inside a core.eval span
// and bumps a per-thread call counter for its method. Counting and timing
// cost nothing measurable until tracing is switched on (trace.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "core/allocation.hpp"

namespace perfbench {

enum class EvalMethod : std::uint8_t {
  kCongestionInto,
  kCongestionOfInto,
  kJacobianInto,
  kSecondPartialsInto,
  kScanPrepare,
  kScanCongestionOf,
  kCongestionClassesInto,
  kJacobianClassesInto,
  kScanPrepareClasses,
  kScanCongestionOfClass,
  kPartial,
  kSecondPartial,
};
inline constexpr std::size_t kEvalMethodCount = 12;

[[nodiscard]] const char* eval_method_name(EvalMethod method) noexcept;

using EvalCalls = std::array<std::uint64_t, kEvalMethodCount>;

/// Call counts summed over every thread (quiescent).
[[nodiscard]] EvalCalls collect_eval_calls();
/// Zeroes every thread's call counts (quiescent).
void reset_eval_calls();

class TappedAllocation final : public gw::core::AllocationFunction {
 public:
  explicit TappedAllocation(
      std::shared_ptr<const gw::core::AllocationFunction> inner);

  [[nodiscard]] std::string name() const override;
  void congestion_into(std::span<const double> rates, std::span<double> out,
                       gw::core::EvalWorkspace& ws) const override;
  [[nodiscard]] double congestion_of_into(
      std::size_t i, std::span<const double> rates,
      gw::core::EvalWorkspace& ws) const override;
  void jacobian_into(std::span<const double> rates,
                     gw::numerics::Matrix& out,
                     gw::core::EvalWorkspace& ws) const override;
  void second_partials_into(std::span<const double> rates,
                            gw::numerics::Matrix& out,
                            gw::core::EvalWorkspace& ws) const override;
  [[nodiscard]] bool scan_prepare(std::size_t i,
                                  std::span<const double> rates,
                                  gw::core::EvalWorkspace& ws) const override;
  [[nodiscard]] double scan_congestion_of(
      std::size_t i, double x, std::span<const double> rates,
      gw::core::EvalWorkspace& ws) const override;
  [[nodiscard]] bool congestion_classes_into(
      const gw::core::ClassedPopulation& pop, std::span<double> out,
      gw::core::EvalWorkspace& ws) const override;
  [[nodiscard]] bool jacobian_classes_into(
      const gw::core::ClassedPopulation& pop, gw::numerics::Matrix& cross,
      std::span<double> own, gw::core::EvalWorkspace& ws) const override;
  [[nodiscard]] bool scan_prepare_classes(
      std::size_t a, const gw::core::ClassedPopulation& pop,
      gw::core::EvalWorkspace& ws) const override;
  [[nodiscard]] double scan_congestion_of_class(
      std::size_t a, double x, const gw::core::ClassedPopulation& pop,
      gw::core::EvalWorkspace& ws) const override;
  [[nodiscard]] double partial(std::size_t i, std::size_t j,
                               const std::vector<double>& rates) const override;
  [[nodiscard]] double second_partial(
      std::size_t i, std::size_t j,
      const std::vector<double>& rates) const override;

 private:
  std::shared_ptr<const gw::core::AllocationFunction> inner_;
};

}  // namespace perfbench
