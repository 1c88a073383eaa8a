//===- thermal/Network.h - Thermal RC network solver ------------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lumped thermal resistance/capacitance network.
///
/// Nodes carry temperatures (Celsius); edges carry conductances (W/K);
/// nodes can have heat sources (W) and capacitances (J/K). Boundary nodes
/// hold fixed temperatures (ambient air, chilled water). The network itself
/// is linear: temperature-dependent conductances (convection films) are
/// re-evaluated by the caller between solves, which is how the coupled
/// engine in src/sim handles the nonlinearity.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_THERMAL_NETWORK_H
#define RCS_THERMAL_NETWORK_H

#include "support/Numerics.h"
#include "support/SparseMatrix.h"
#include "support/Status.h"

#include <string>
#include <vector>

namespace rcs {
namespace telemetry {
class Span;
} // namespace telemetry

namespace thermal {

/// Index of a node inside a ThermalNetwork.
using NodeId = size_t;

/// A lumped-parameter thermal network with steady-state and transient
/// solvers.
class ThermalNetwork {
public:
  /// Adds an internal (unknown-temperature) node.
  ///
  /// \p CapacitanceJPerK may be zero for massless junction nodes in
  /// steady-state-only networks; transient stepping requires a positive
  /// capacitance on every internal node.
  NodeId addNode(std::string Name, double CapacitanceJPerK = 0.0);

  /// Adds a fixed-temperature boundary node (ambient, chilled water, ...).
  NodeId addBoundaryNode(std::string Name, double TempC);

  /// Adds a thermal conductance of \p GWPerK between two nodes.
  /// Parallel conductances accumulate.
  void addConductance(NodeId A, NodeId B, double GWPerK);

  /// Adds a thermal resistance of \p RKPerW between two nodes.
  void addResistance(NodeId A, NodeId B, double RKPerW);

  /// Adds \p PowerW of heat injection at \p Node (accumulates).
  void addHeatSource(NodeId Node, double PowerW);

  /// Replaces the heat source at \p Node with \p PowerW.
  void setHeatSource(NodeId Node, double PowerW);

  /// Updates the fixed temperature of boundary node \p Node.
  void setBoundaryTemp(NodeId Node, double TempC);

  /// Replaces the accumulated conductance between \p A and \p B.
  ///
  /// Requires that a conductance between the two nodes already exists.
  void setConductance(NodeId A, NodeId B, double GWPerK);

  /// Replaces the thermal capacitance of internal node \p Node.
  ///
  /// Lets transient simulators model inventory changes (coolant loss,
  /// drained loops) without rebuilding the network each step.
  void setCapacitance(NodeId Node, double CapacitanceJPerK);

  /// Unknown count at which solves switch to the sparse path.
  ///
  /// Networks with at least \p MinUnknowns unknowns assemble directly into
  /// CSR and solve through a split-phase LDL^T (support/SparseMatrix.h);
  /// smaller ones stay on the bit-exact dense `LuFactorization` path. The
  /// two paths agree to linear-solver round-off, not bitwise
  /// (tests/solver_equivalence_test.cpp pins the tolerance). Below the
  /// default (128) the dense factor wins on constant factors
  /// (docs/PERFORMANCE.md); SIZE_MAX keeps every size dense and 1 forces
  /// every size sparse.
  void setSparseThreshold(size_t MinUnknowns);

  /// True when solves of the network as it stands take the sparse path:
  /// the unknown count reaches the threshold.
  bool solvesSparse() const {
    ensureSymbolic();
    return Cache.NumUnknowns >= SparseThresholdUnknowns;
  }

  /// The sparse-path switch-over threshold in unknowns.
  size_t sparseThresholdUnknowns() const { return SparseThresholdUnknowns; }

  /// Default sparse switch-over threshold in unknowns.
  static constexpr size_t DefaultSparseThresholdUnknowns = 128;

  /// Approximate heap bytes held by the cached solver factors: a dense LU
  /// holds N*N coefficients; the sparse factors report their index and
  /// value arrays. Feeds the peak-matrix-bytes metric in bench_p1_solvers.
  size_t solverMemoryBytes() const;

  size_t numNodes() const { return Nodes.size(); }
  const std::string &nodeName(NodeId Node) const;
  bool isBoundary(NodeId Node) const;
  double heatSourceW(NodeId Node) const;
  double capacitanceJPerK(NodeId Node) const;

  /// Total heat injected by sources, W.
  double totalSourcePowerW() const;

  /// Solves for steady-state temperatures of every node.
  ///
  /// \returns one temperature per node (boundary nodes return their fixed
  /// temperature), or an error when internal nodes are thermally
  /// disconnected from every boundary.
  Expected<std::vector<double>> solveSteadyState() const;

  /// Advances a transient state one implicit-Euler step of \p DtS seconds.
  ///
  /// \p Temps must hold one temperature per node and is updated in place;
  /// boundary entries are reset to the boundary temperature. All internal
  /// nodes need positive capacitance.
  Status stepTransient(std::vector<double> &Temps, double DtS) const;

  /// Net heat flow in W from the network into boundary node \p Node under
  /// the temperatures \p Temps (positive = heat absorbed by the boundary).
  double boundaryHeatFlowW(NodeId Node,
                           const std::vector<double> &Temps) const;

  /// Sum of residuals |sum_j G_ij (T_j - T_i) + Q_i| over internal nodes;
  /// near zero for a converged steady state (energy conservation check).
  double steadyStateResidualW(const std::vector<double> &Temps) const;

  /// Per-node implicit-Euler energy-balance residuals of the step that
  /// advanced \p Before to \p After over \p DtS seconds:
  ///   R_i = C_i (After_i - Before_i) / DtS - Q_i - sum_j G_ij (After_j -
  ///   After_i)
  /// for internal nodes; boundary entries are zero. A converged implicit
  /// step closes each control volume to linear-solver round-off, so the
  /// audit layer (src/audit) can budget the drift at machine-epsilon
  /// scale. Both states must hold one temperature per node.
  std::vector<double> transientResidualsW(const std::vector<double> &Before,
                                          const std::vector<double> &After,
                                          double DtS) const;

private:
  struct Node {
    std::string Name;
    bool Boundary = false;
    double TempC = 0.0;          // Fixed temperature for boundary nodes.
    double CapacitanceJPerK = 0; // Internal nodes only.
    double SourceW = 0.0;
  };
  struct Edge {
    NodeId A;
    NodeId B;
    double GWPerK;
  };

  std::vector<Node> Nodes;
  std::vector<Edge> Edges;

  /// The cached factor of one system: the steady L, or C/dt + L for the
  /// exact DtS it holds (< 0 for steady). Dense LU below the sparse
  /// threshold, sparse LDL^T at or above it, whose symbolic analysis only
  /// a topology change drops.
  struct Factor {
    bool Valid = false;
    double DtS = -1.0;
    LuFactorization Dense;
    SparseLdlt Sparse;
  };

  /// Split-phase solver cache (docs/PERFORMANCE.md). The symbolic phase
  /// (unknown indexing) is invalidated by node insertion; the numeric
  /// phase (the factors) by conductance mutation, plus capacitance
  /// mutation and time-step changes for the transient factor. Heat-source
  /// and boundary-temperature updates only touch the right-hand side and
  /// keep both factors valid. Mutable because solves are logically const
  /// but warm the cache: a network must not be solved from multiple
  /// threads concurrently (sweeps already hold one network per
  /// replicate).
  struct SolverCache {
    std::vector<size_t> UnknownIndex;
    size_t NumUnknowns = 0;
    Factor Steady;
    Factor Transient;
  };
  mutable SolverCache Cache;
  size_t SparseThresholdUnknowns = DefaultSparseThresholdUnknowns;

  void invalidateNumeric() {
    Cache.Steady.Valid = false;
    Cache.Transient.Valid = false;
  }
  /// A new node or edge: both systems share one sparsity pattern, so both
  /// symbolic analyses go with the factors.
  void invalidateSparsePattern() {
    invalidateNumeric();
    for (Factor *F : {&Cache.Steady, &Cache.Transient})
      if (F->Sparse.analyzed()) // Cheap per node and edge of a build.
        F->Sparse.reset();
  }
  /// Rebuilds the unknown indexing when stale.
  void ensureSymbolic() const;
  /// Visits the entries of the steady (DtS < 0) or implicit-Euler system
  /// matrix: the structural diagonal (C/dt, or zero for steady) first,
  /// then each edge's stencil in edge order.
  template <typename AddFn> void forEachEntry(double DtS, AddFn &&Add) const;
  /// Assembles the right-hand side of the steady (DtS < 0) or
  /// implicit-Euler system advancing \p Temps.
  std::vector<double> assembleRhs(const std::vector<double> &Temps,
                                  double DtS) const;
  /// Solves the steady (DtS < 0) or implicit-Euler system into \p Temps,
  /// which holds the state to advance: refactors that system's cached
  /// factor when a mutator or a new DtS dirtied it, reuses it otherwise.
  Status solveSystem(std::vector<double> &Temps, double DtS,
                     telemetry::Span &Span) const;
};

} // namespace thermal
} // namespace rcs

#endif // RCS_THERMAL_NETWORK_H
