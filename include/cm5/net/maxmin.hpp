#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cm5/net/topology.hpp"

/// \file maxmin.hpp
/// Max-min fair bandwidth allocation (progressive filling).
///
/// Given a set of flows, each traversing a set of capacitated links,
/// max-min fairness gives every flow the largest rate such that no flow
/// can be increased without decreasing a flow of equal or smaller rate.
/// This is the standard fluid abstraction of a network whose switches
/// serve competing traffic fairly — a good match for the CM-5 data
/// network, whose random packet routing equalizes progress between
/// competing messages.
///
/// Rates and capacities are integers in units of 2^-24 bytes/second
/// (RateUnits), so every share, tie and residual is exact (see MODEL.md,
/// "Rate arithmetic"). FluidNetwork uses the same arithmetic, which makes
/// solve_max_min its bit-exact reference.

namespace cm5::net {

/// A rate or capacity in units of 2^-24 bytes/second.
using RateUnits = std::int64_t;

/// Rate units per byte/second.
inline constexpr double kRateUnitsPerByte = 16777216.0;  // 2^24

/// The rate of a flow that crosses no link.
inline constexpr RateUnits kUnboundedRate = INT64_MAX;

/// `bytes_per_s` x `scale` in rate units. The capacity is floored to
/// whole units; the scale becomes a Q32 multiplier (rounded to nearest)
/// applied through a 128-bit product and floored. A scale of exactly 1
/// leaves the floored capacity unchanged.
RateUnits capacity_units(double bytes_per_s, double scale = 1.0);

/// A rate in rate units as bytes/second (exact below 2^53 units).
inline double rate_from_units(RateUnits units) noexcept {
  return static_cast<double>(units) / kRateUnitsPerByte;
}

/// One flow's routing: the directed links it occupies.
struct FlowRoute {
  std::span<const LinkId> links;
};

/// Computes max-min fair rates for `flows` over links with the given
/// capacities, all in rate units.
///
/// Algorithm: progressive filling. Each round takes the minimum over
/// links with unfrozen flows of floor(residual / unfrozen flows), freezes
/// every unfrozen flow on a link whose share equals that minimum exactly,
/// subtracts, and continues. Floor division leaves less than one unit per
/// flow unallocated. Integer updates commute, so the result depends
/// neither on flow order nor, for a flow, on any link-disjoint flows.
/// Complexity O(L * F) in the worst case.
///
/// Flows that traverse no links (empty route) get kUnboundedRate.
std::vector<RateUnits> solve_max_min(std::span<const FlowRoute> flows,
                                     std::span<const RateUnits> link_capacity);

/// The same solve in bytes/second: capacities are converted with
/// capacity_units, rates back with rate_from_units, and an empty route
/// gets std::numeric_limits<double>::infinity().
std::vector<double> solve_max_min(std::span<const FlowRoute> flows,
                                  std::span<const double> link_capacity);

}  // namespace cm5::net
