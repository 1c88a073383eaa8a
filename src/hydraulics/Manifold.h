//===- hydraulics/Manifold.h - Rack manifold topologies ---------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builders for the rack-level primary (water) circulation network of
/// paper Fig. 5: a pump and chiller feed a supply manifold, N circulation
/// loops (one per computational module's heat exchanger) tap off to a
/// return manifold.
///
/// Two layouts are modeled:
///  - DirectReturn: supply and return connect at the same end. Loops near
///    the pump see a shorter path and steal flow - the imbalance that
///    normally forces per-loop balancing valves.
///  - ReverseReturn: the paper's engineering solution. The return manifold
///    outlet is at the far end, so every loop's closed path has the same
///    pipe length, self-balancing the flows with no extra hardware.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_HYDRAULICS_MANIFOLD_H
#define RCS_HYDRAULICS_MANIFOLD_H

#include "hydraulics/FlowNetwork.h"

#include <vector>

namespace rcs {
namespace hydraulics {

/// Manifold return-path topology.
enum class ManifoldLayout { DirectReturn, ReverseReturn };

/// Parameters of the rack primary loop.
struct RackHydraulicsConfig {
  ManifoldLayout Layout = ManifoldLayout::ReverseReturn;
  int NumLoops = 6; ///< Circulation loops (Fig. 5 shows six).

  /// Manifold pipe between consecutive loop taps.
  double ManifoldSegmentLengthM = 0.40;
  double ManifoldDiameterM = 0.050;

  /// Per-loop branch piping (to/from a CM heat exchanger).
  double LoopPipeLengthM = 1.2;
  double LoopPipeDiameterM = 0.025;

  /// Rated pressure drop of a CM heat exchanger's primary side.
  double HxRatedFlowM3PerS = 8.0e-4; ///< ~48 l/min of water.
  double HxRatedDropPa = 2.5e4;

  /// Balancing valve on each loop (fully open by default).
  double ValveOpenLossCoefficient = 2.0;

  /// Rack circulation pump rating.
  double PumpRatedFlowM3PerS = 5.0e-3; ///< ~300 l/min.
  double PumpRatedHeadPa = 1.2e5;

  /// Chiller water-side rated pressure drop at pump rated flow.
  double ChillerRatedDropPa = 3.0e4;

  /// Return pipe from the return-manifold outlet back to the chiller.
  double ReturnPipeLengthM = 3.0;
};

/// A built rack primary network with handles to the interesting edges.
struct RackHydraulics {
  FlowNetwork Network;
  EdgeId PumpEdge = 0;
  std::vector<EdgeId> LoopEdges;
  /// Index of the BalancingValve element within each loop edge, usable
  /// with FlowNetwork::elementAt to adjust openings / isolate a loop.
  size_t LoopValveElementIndex = 0;
  /// Index of the Pump element within the pump edge.
  size_t PumpElementIndex = 0;
};

/// Builds the Fig. 5 rack primary loop with the requested layout.
RackHydraulics buildRackPrimaryLoop(const RackHydraulicsConfig &Config);

/// Summary statistics of a per-loop flow distribution.
struct FlowBalanceStats {
  double MinFlowM3PerS = 0.0;
  double MaxFlowM3PerS = 0.0;
  double MeanFlowM3PerS = 0.0;
  /// (max-min)/mean; the paper's layout drives this toward zero.
  double ImbalanceFraction = 0.0;
};

/// Computes balance statistics over \p LoopFlows, ignoring loops whose
/// flow is below 1% of the mean (isolated for maintenance).
FlowBalanceStats computeFlowBalance(const std::vector<double> &LoopFlows);

} // namespace hydraulics
} // namespace rcs

#endif // RCS_HYDRAULICS_MANIFOLD_H
