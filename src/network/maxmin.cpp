#include "cm5/net/maxmin.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cm5/util/check.hpp"

namespace cm5::net {
namespace {

__extension__ using Uint128 = unsigned __int128;

}  // namespace

RateUnits capacity_units(double bytes_per_s, double scale) {
  CM5_CHECK_MSG(bytes_per_s >= 0.0 && scale >= 0.0,
                "capacity and scale must be non-negative");
  const double base = std::floor(bytes_per_s * kRateUnitsPerByte);
  const double q32 = std::round(scale * 4294967296.0);
  CM5_CHECK_MSG(base < 0x1p62 && q32 < 0x1p62,
                "capacity or scale out of fixed-point range");
  const Uint128 product = static_cast<Uint128>(static_cast<std::uint64_t>(base)) *
                          static_cast<Uint128>(static_cast<std::uint64_t>(q32));
  const Uint128 units = product >> 32;
  CM5_CHECK_MSG(units <= static_cast<Uint128>(
                             std::numeric_limits<RateUnits>::max()),
                "scaled capacity out of fixed-point range");
  return static_cast<RateUnits>(units);
}

std::vector<RateUnits> solve_max_min(std::span<const FlowRoute> flows,
                                     std::span<const RateUnits> link_capacity) {
  const std::size_t num_flows = flows.size();
  const std::size_t num_links = link_capacity.size();

  std::vector<RateUnits> rate(num_flows, kUnboundedRate);
  if (num_flows == 0) return rate;

  std::vector<RateUnits> residual(link_capacity.begin(), link_capacity.end());
  std::vector<std::int64_t> active_on_link(num_links, 0);
  std::vector<bool> frozen(num_flows, false);
  std::vector<bool> at_share(num_links, false);

  std::size_t unfrozen = 0;
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (flows[f].links.empty()) {
      frozen[f] = true;  // no constraining link: unbounded rate
      continue;
    }
    ++unfrozen;
    for (LinkId l : flows[f].links) {
      CM5_CHECK(l >= 0 && static_cast<std::size_t>(l) < num_links);
      CM5_CHECK_MSG(link_capacity[static_cast<std::size_t>(l)] >= 0,
                    "link capacity must be non-negative");
      ++active_on_link[static_cast<std::size_t>(l)];
    }
  }

  while (unfrozen > 0) {
    // Most constrained link: minimum fair share among links with traffic.
    RateUnits share = std::numeric_limits<RateUnits>::max();
    for (std::size_t l = 0; l < num_links; ++l) {
      if (active_on_link[l] == 0) continue;
      share = std::min(share, residual[l] / active_on_link[l]);
    }
    // The links at exactly that share, fixed before anything freezes.
    // Freezing a flow at `share` never drops another link's share to
    // `share` or below, so the round's outcome is order-independent.
    for (std::size_t l = 0; l < num_links; ++l) {
      at_share[l] = active_on_link[l] > 0 &&
                    residual[l] / active_on_link[l] == share;
    }

    // Freeze every flow whose path touches a link at this share.
    bool froze_any = false;
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (frozen[f]) continue;
      bool bottlenecked = false;
      for (LinkId l : flows[f].links) {
        if (at_share[static_cast<std::size_t>(l)]) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      rate[f] = share;
      frozen[f] = true;
      froze_any = true;
      --unfrozen;
      for (LinkId l : flows[f].links) {
        const auto li = static_cast<std::size_t>(l);
        residual[li] -= share;
        --active_on_link[li];
      }
    }
    CM5_CHECK_MSG(froze_any, "progressive filling failed to make progress");
  }
  return rate;
}

std::vector<double> solve_max_min(std::span<const FlowRoute> flows,
                                  std::span<const double> link_capacity) {
  std::vector<RateUnits> caps(link_capacity.size());
  for (std::size_t l = 0; l < caps.size(); ++l) {
    caps[l] = capacity_units(link_capacity[l]);
  }
  const std::vector<RateUnits> units = solve_max_min(flows, caps);
  std::vector<double> rate(units.size());
  for (std::size_t f = 0; f < units.size(); ++f) {
    rate[f] = units[f] == kUnboundedRate
                  ? std::numeric_limits<double>::infinity()
                  : rate_from_units(units[f]);
  }
  return rate;
}

}  // namespace cm5::net
