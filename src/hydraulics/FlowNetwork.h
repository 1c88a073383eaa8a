//===- hydraulics/FlowNetwork.h - Nonlinear flow-network solver -*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A nonlinear hydraulic network: junctions connected by edges, each edge a
/// series chain of FlowElements (pipes, valves, heat exchangers, pumps).
///
/// Solution method: nodal pressures are the unknowns. For a trial pressure
/// field, each edge's flow is found by inverting its strictly monotonic
/// dP(Q) relation with a bracketed scalar root search; junction continuity
/// residuals then drive a damped Newton iteration (finite-difference
/// Jacobian). This is the textbook "nodal method" for pipe networks and is
/// robust for the closed pumped loops the paper's racks are built from.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_HYDRAULICS_FLOWNETWORK_H
#define RCS_HYDRAULICS_FLOWNETWORK_H

#include "hydraulics/Components.h"
#include "support/Status.h"

#include <memory>
#include <string>
#include <vector>

namespace rcs {
namespace hydraulics {

/// Index of a junction in a FlowNetwork.
using JunctionId = size_t;

/// Index of an edge in a FlowNetwork.
using EdgeId = size_t;

/// Result of a network solve.
struct FlowSolution {
  /// Signed edge flows, m^3/s, positive from->to.
  std::vector<double> EdgeFlowsM3PerS;
  /// Junction gauge pressures, Pa, relative to the reference junction.
  std::vector<double> JunctionPressuresPa;
  /// Worst junction continuity violation, m^3/s.
  double MaxContinuityErrorM3PerS = 0.0;
  int NewtonIterations = 0;
  /// Worst junction continuity error (m^3/s) at each accepted Newton
  /// iterate of the attempt that converged; entry 0 is the initial guess.
  /// The damped line search only accepts residual-descending steps, so
  /// the history is monotonically non-increasing — a stalled solve is
  /// diagnosable here without any trace sink attached.
  std::vector<double> ResidualHistory;
};

/// Options controlling the hot path of FlowNetwork::solve.
struct FlowSolveOptions {
  /// How the Newton Jacobian is built. Analytic assembles the exact
  /// sparse continuity Jacobian from per-edge pressure-drop slopes
  /// (FlowElement::pressureDropSlopePaPerM3S) — one cheap assembly per
  /// iteration instead of one edge-inversion sweep per unknown.
  /// FiniteDifference is the seed probing path, kept for ablation
  /// benchmarks; the analytic path automatically falls back to it when
  /// the iteration stalls, so robustness is unchanged.
  enum class JacobianKind { Analytic, FiniteDifference };
  JacobianKind Jacobian = JacobianKind::Analytic;

  /// Junction pressures used to warm-start Newton (one entry per
  /// junction, Pa, typically FlowSolution::JunctionPressuresPa from a
  /// previous nearby solve; the reference junction's entry re-zeroes the
  /// gauge). Empty = cold start from zeros. A warm start from the wrong
  /// basin only costs iterations, never correctness: the converged
  /// solution of this network is unique by monotonicity.
  std::vector<double> WarmStartPressuresPa;
};

/// A hydraulic network of junctions and element-chain edges.
///
/// The network does not own fluid state: solve() takes the working fluid
/// and its bulk temperature, so one network can be re-solved as the coolant
/// heats up.
class FlowNetwork {
public:
  FlowNetwork();
  ~FlowNetwork();
  FlowNetwork(FlowNetwork &&);
  FlowNetwork &operator=(FlowNetwork &&);
  FlowNetwork(const FlowNetwork &) = delete;
  FlowNetwork &operator=(const FlowNetwork &) = delete;

  /// Adds a junction; the first junction added becomes the pressure
  /// reference (gauge zero) unless setReferenceJunction overrides it.
  JunctionId addJunction(std::string Name);

  /// Pins gauge pressure zero at \p Junction.
  void setReferenceJunction(JunctionId Junction);

  /// Adds an edge between two junctions carrying a series chain of
  /// elements. The network takes ownership of the elements.
  EdgeId addEdge(std::string Name, JunctionId From, JunctionId To,
                 std::vector<std::unique_ptr<FlowElement>> Elements);

  /// Returns a mutable element pointer for runtime adjustments (valve
  /// openings, pump speeds). The network retains ownership.
  FlowElement *elementAt(EdgeId Edge, size_t Index);

  size_t numJunctions() const;
  size_t numEdges() const;
  const std::string &junctionName(JunctionId J) const;
  const std::string &edgeName(EdgeId E) const;
  JunctionId edgeFrom(EdgeId E) const;
  JunctionId edgeTo(EdgeId E) const;

  /// Total signed pressure drop across edge \p E at \p FlowM3PerS.
  double edgePressureDropPa(EdgeId E, double FlowM3PerS,
                            const fluids::Fluid &F, double TempC) const;

  /// Solves for steady flows with \p F at bulk temperature \p TempC.
  ///
  /// \p FlowScaleM3PerS sets the expected magnitude of edge flows and is
  /// used to bracket the per-edge inversions; it only affects convergence
  /// speed, not the solution.
  Expected<FlowSolution> solve(const fluids::Fluid &F, double TempC,
                               double FlowScaleM3PerS = 1e-2) const;

  /// Overload taking explicit hot-path options (Jacobian construction,
  /// warm-start pressures). The default-options form above uses the
  /// analytic Jacobian with a cold start.
  Expected<FlowSolution> solve(const fluids::Fluid &F, double TempC,
                               double FlowScaleM3PerS,
                               const FlowSolveOptions &SolveOptions) const;

private:
  struct Impl;
  std::unique_ptr<Impl> PImpl;
};

} // namespace hydraulics
} // namespace rcs

#endif // RCS_HYDRAULICS_FLOWNETWORK_H
