//===- hydraulics/InternalLoop.h - CM internal oil network ------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An explicit hydraulic model of the oil circulation *inside* one
/// computational module: pump(s) -> supply plenum -> N parallel board
/// channels -> return plenum -> heat exchanger -> pump. The module solver
/// lumps this into a single bath loss coefficient; this model resolves
/// per-board flows and shows how plenum design controls board-to-board
/// flow uniformity - the intra-module analog of the Fig. 5 rack problem,
/// and the mechanism behind the "considerable thermal gradients" of
/// first-generation immersion designs (Section 2).
///
//===----------------------------------------------------------------------===//

#ifndef RCS_HYDRAULICS_INTERNALLOOP_H
#define RCS_HYDRAULICS_INTERNALLOOP_H

#include "hydraulics/FlowNetwork.h"
#include "hydraulics/Manifold.h"

#include <vector>

namespace rcs {
namespace hydraulics {

/// Plenum design alternatives for the CM computational section.
enum class PlenumDesign {
  /// Narrow constant-section plena: boards near the pump feed take more
  /// flow (the adapted single-chip designs of Section 2).
  UniformNarrow,
  /// Generously-sized plena with the return collected at the far end -
  /// the reverse-return idea applied inside the module (SKAT).
  TaperedReverse
};

/// Parameters of the internal loop model.
struct InternalLoopConfig {
  int NumBoards = 12;
  PlenumDesign Design = PlenumDesign::TaperedReverse;

  /// Plenum segment between consecutive board taps, as an equivalent
  /// pipe. The narrow design uses SmallDiameterM, the tapered design
  /// LargeDiameterM.
  double SegmentLengthM = 0.035;
  double SmallPlenumDiameterM = 0.025;
  double LargePlenumDiameterM = 0.045;

  /// One board channel: the gap between adjacent boards packed with the
  /// sink banks, modeled as loss coefficient + narrow rectangular duct.
  double BoardChannelLossK = 30.0;
  double BoardChannelDiameterM = 0.016; ///< Hydraulic-equivalent bore.

  /// Oil pump of the heat-exchange section.
  double PumpRatedFlowM3PerS = 2.2e-3;
  double PumpRatedHeadPa = 6.0e4;
  int NumPumps = 1;

  /// Oil side of the plate heat exchanger.
  double HxRatedFlowM3PerS = 2.2e-3;
  double HxRatedDropPa = 3.0e4;
};

/// The built internal network with handles.
struct InternalLoop {
  FlowNetwork Network;
  EdgeId PumpEdge = 0;
  std::vector<EdgeId> BoardEdges;
  /// Junction pressures of the most recent successful solve; used to
  /// warm-start the next one (callers re-solve the same loop as the oil
  /// temperature drifts). Empty until solveInternalLoop succeeds once.
  std::vector<double> LastJunctionPressuresPa;
};

/// Builds the internal circulation network.
InternalLoop buildInternalLoop(const InternalLoopConfig &Config);

/// Per-board flow summary for a solved internal loop.
struct InternalFlowReport {
  std::vector<double> BoardFlowsM3PerS;
  double TotalFlowM3PerS = 0.0;
  FlowBalanceStats Balance;
};

/// Solves the internal loop with the given oil at \p TempC.
Expected<InternalFlowReport> solveInternalLoop(InternalLoop &Loop,
                                               const fluids::Fluid &Oil,
                                               double TempC);

} // namespace hydraulics
} // namespace rcs

#endif // RCS_HYDRAULICS_INTERNALLOOP_H
