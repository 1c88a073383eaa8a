//===- hydraulics/Balancing.h - Valve trim balancing ------------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative balancing-valve trimming: the manual commissioning procedure
/// a direct-return manifold needs to equalize loop flows. Each iteration
/// solves the network, then throttles every loop that draws more than the
/// minimum toward it (proportional balancing). The paper's reverse-return
/// layout makes this whole procedure unnecessary ("No additional hydraulic
/// balancing system is needed here"); this module quantifies what is being
/// saved: trim iterations, the extra pump head burned across half-closed
/// valves, and the re-trim needed after any maintenance change.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_HYDRAULICS_BALANCING_H
#define RCS_HYDRAULICS_BALANCING_H

#include "hydraulics/Manifold.h"

namespace rcs {
namespace hydraulics {

/// Options of the trim procedure.
struct TrimOptions {
  /// Stop when (max-min)/mean falls below this.
  double TargetImbalanceFraction = 0.02;
  int MaxIterations = 30;
  /// Fraction of the computed correction applied per iteration
  /// (under-relaxation keeps the procedure stable).
  double Relaxation = 0.7;
  /// Valves may not close beyond this opening (authority limit).
  double MinOpeningFraction = 0.15;
};

/// Outcome of a trim run.
struct TrimResult {
  bool Converged = false;
  int Iterations = 0;
  double FinalImbalanceFraction = 0.0;
  /// Final opening of each loop's balancing valve.
  std::vector<double> ValveOpenings;
  /// Mean loop flow before and after (throttling costs total flow).
  double MeanFlowBeforeM3PerS = 0.0;
  double MeanFlowAfterM3PerS = 0.0;
};

/// Trims the balancing valves of \p Rack until loop flows equalize.
///
/// Proportional method: after each solve, loop i's valve opening is scaled
/// by (Q_min / Q_i)^Relaxation, clamped at the authority limit. Returns an
/// error when the hydraulic solve itself fails.
Expected<TrimResult> trimBalancingValves(RackHydraulics &Rack,
                                         const fluids::Fluid &F,
                                         double TempC,
                                         TrimOptions Options = TrimOptions());

} // namespace hydraulics
} // namespace rcs

#endif // RCS_HYDRAULICS_BALANCING_H
