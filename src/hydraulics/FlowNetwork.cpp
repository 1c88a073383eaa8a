//===- hydraulics/FlowNetwork.cpp - Nonlinear flow-network solver -----------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hydraulics/FlowNetwork.h"

#include "support/Numerics.h"
#include "telemetry/Span.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace rcs;
using namespace rcs::hydraulics;

namespace rcs {
namespace hydraulics {

struct FlowNetwork::Impl {
  struct EdgeRecord {
    std::string Name;
    JunctionId From;
    JunctionId To;
    std::vector<std::unique_ptr<FlowElement>> Elements;
  };

  std::vector<std::string> Junctions;
  std::vector<EdgeRecord> Edges;
  JunctionId Reference = 0;

  double edgeDrop(EdgeId E, double Flow, const fluids::Fluid &F,
                  double TempC) const {
    double Total = 0.0;
    for (const auto &Element : Edges[E].Elements)
      Total += Element->pressureDropPa(Flow, F, TempC);
    return Total;
  }

  /// Inverts the edge's monotone dP(Q) relation: finds Q with dP(Q) ==
  /// TargetDrop, adding its edge-drop evaluations to \p Evaluations.
  double invertEdge(EdgeId E, double TargetDrop, const fluids::Fluid &F,
                    double TempC, double FlowScale,
                    uint64_t &Evaluations) const {
    auto Fn = [&](double Q) {
      ++Evaluations;
      return edgeDrop(E, Q, F, TempC) - TargetDrop;
    };
    // Expand the bracket until the root is enclosed (dP is strictly
    // increasing); Brent starts from the enclosing bracket's end values.
    double Bracket = FlowScale;
    double LowValue = 0.0, HighValue = 0.0;
    bool Enclosed = false;
    for (int Attempt = 0; Attempt != 60 && !Enclosed; ++Attempt) {
      LowValue = Fn(-Bracket);
      if (LowValue <= 0.0) {
        HighValue = Fn(Bracket);
        Enclosed = HighValue >= 0.0;
      }
      if (!Enclosed)
        Bracket *= 4.0;
    }
    RootFindOptions Options;
    Options.AbsTolerance = 1e-14 * std::max(1.0, Bracket / FlowScale);
    Expected<double> Root =
        Enclosed ? findRootBrent(Fn, -Bracket, Bracket, LowValue, HighValue,
                                 Options)
                 : findRootBrent(Fn, -Bracket, Bracket, Options);
    // A monotone function bracketed above always yields a root; fall back
    // to zero flow only on pathological element behavior.
    return Root ? *Root : 0.0;
  }
};

} // namespace hydraulics
} // namespace rcs

FlowNetwork::FlowNetwork() : PImpl(std::make_unique<Impl>()) {}
FlowNetwork::~FlowNetwork() = default;
FlowNetwork::FlowNetwork(FlowNetwork &&) = default;
FlowNetwork &FlowNetwork::operator=(FlowNetwork &&) = default;

JunctionId FlowNetwork::addJunction(std::string Name) {
  PImpl->Junctions.push_back(std::move(Name));
  return PImpl->Junctions.size() - 1;
}

void FlowNetwork::setReferenceJunction(JunctionId Junction) {
  assert(Junction < PImpl->Junctions.size() && "junction out of range");
  PImpl->Reference = Junction;
}

EdgeId FlowNetwork::addEdge(std::string Name, JunctionId From, JunctionId To,
                            std::vector<std::unique_ptr<FlowElement>>
                                Elements) {
  assert(From < PImpl->Junctions.size() && To < PImpl->Junctions.size() &&
         "junction out of range");
  assert(From != To && "self-loop edges are not allowed");
  assert(!Elements.empty() && "an edge needs at least one element");
  Impl::EdgeRecord Record;
  Record.Name = std::move(Name);
  Record.From = From;
  Record.To = To;
  Record.Elements = std::move(Elements);
  PImpl->Edges.push_back(std::move(Record));
  return PImpl->Edges.size() - 1;
}

FlowElement *FlowNetwork::elementAt(EdgeId Edge, size_t Index) {
  assert(Edge < PImpl->Edges.size() && "edge out of range");
  assert(Index < PImpl->Edges[Edge].Elements.size() &&
         "element index out of range");
  return PImpl->Edges[Edge].Elements[Index].get();
}

size_t FlowNetwork::numJunctions() const { return PImpl->Junctions.size(); }
size_t FlowNetwork::numEdges() const { return PImpl->Edges.size(); }

const std::string &FlowNetwork::junctionName(JunctionId J) const {
  assert(J < PImpl->Junctions.size() && "junction out of range");
  return PImpl->Junctions[J];
}

const std::string &FlowNetwork::edgeName(EdgeId E) const {
  assert(E < PImpl->Edges.size() && "edge out of range");
  return PImpl->Edges[E].Name;
}

JunctionId FlowNetwork::edgeFrom(EdgeId E) const {
  assert(E < PImpl->Edges.size() && "edge out of range");
  return PImpl->Edges[E].From;
}

JunctionId FlowNetwork::edgeTo(EdgeId E) const {
  assert(E < PImpl->Edges.size() && "edge out of range");
  return PImpl->Edges[E].To;
}

double FlowNetwork::edgePressureDropPa(EdgeId E, double FlowM3PerS,
                                       const fluids::Fluid &F,
                                       double TempC) const {
  assert(E < PImpl->Edges.size() && "edge out of range");
  return PImpl->edgeDrop(E, FlowM3PerS, F, TempC);
}

Expected<FlowSolution> FlowNetwork::solve(const fluids::Fluid &F,
                                          double TempC,
                                          double FlowScaleM3PerS) const {
  return solve(F, TempC, FlowScaleM3PerS, FlowSolveOptions());
}

Expected<FlowSolution>
FlowNetwork::solve(const fluids::Fluid &F, double TempC,
                   double FlowScaleM3PerS,
                   const FlowSolveOptions &SolveOptions) const {
  assert(FlowScaleM3PerS > 0 && "flow scale must be positive");
  telemetry::Registry &Telemetry = telemetry::Registry::global();
  static telemetry::Counter &SolveCount =
      Telemetry.counter("hydraulics.flow.solves");
  static telemetry::Counter &FailureCount =
      Telemetry.counter("hydraulics.flow.failures");
  static telemetry::Counter &IterationCount =
      Telemetry.counter("hydraulics.newton.iterations");
  static telemetry::Counter &InversionCount =
      Telemetry.counter("hydraulics.edge_inversion.searches");
  static telemetry::Counter &EvaluationCount =
      Telemetry.counter("hydraulics.edge_inversion.evaluations");
  static telemetry::Counter &RetryCount =
      Telemetry.counter("hydraulics.newton.jacobian_retries");
  static telemetry::Counter &WarmStartCount =
      Telemetry.counter("hydraulics.newton.warm_starts");
  static telemetry::Counter &AnalyticCount =
      Telemetry.counter("hydraulics.newton.analytic_solves");
  static telemetry::Counter &AnalyticFallbackCount =
      Telemetry.counter("hydraulics.newton.analytic_fallbacks");
  static telemetry::Histogram &IterationHistogram =
      Telemetry.histogram("hydraulics.newton.iterations_per_solve");
  static telemetry::Timer &SolveTimer =
      Telemetry.timer("hydraulics.flow.solve");
  telemetry::Span SolveSpan(SolveTimer);
  SolveCount.add();

  const size_t NumJ = PImpl->Junctions.size();
  const size_t NumE = PImpl->Edges.size();
  if (NumJ == 0 || NumE == 0) {
    FailureCount.add();
    return Expected<FlowSolution>::error("empty hydraulic network");
  }
  SolveSpan.attr("unknowns", static_cast<long long>(NumJ - 1));

  // Unknowns: pressures at all junctions except the reference.
  std::vector<size_t> UnknownIndex(NumJ, SIZE_MAX);
  size_t NumUnknowns = 0;
  for (size_t J = 0; J != NumJ; ++J)
    if (J != PImpl->Reference)
      UnknownIndex[J] = NumUnknowns++;

  auto pressuresFrom = [&](const std::vector<double> &X) {
    std::vector<double> P(NumJ, 0.0);
    for (size_t J = 0; J != NumJ; ++J)
      if (J != PImpl->Reference)
        P[J] = X[UnknownIndex[J]];
    return P;
  };

  // Bracketing root searches and their edge-drop evaluations, accumulated
  // locally and folded into the counters once — per-search cost untouched.
  uint64_t InversionSearches = 0;
  uint64_t InversionEvaluations = 0;
  auto edgeFlows = [&](const std::vector<double> &P) {
    std::vector<double> Q(NumE, 0.0);
    for (size_t E = 0; E != NumE; ++E) {
      double Drop = P[PImpl->Edges[E].From] - P[PImpl->Edges[E].To];
      Q[E] = PImpl->invertEdge(E, Drop, F, TempC, FlowScaleM3PerS,
                               InversionEvaluations);
    }
    InversionSearches += NumE;
    return Q;
  };

  // Edge flows of the most recent residual evaluation; solveNewtonSystem
  // guarantees it invokes the Jacobian callback at that same iterate, so
  // the analytic assembly below can linearize around these flows without
  // re-running the edge inversions.
  std::vector<double> LastFlows(NumE, 0.0);

  auto residual = [&](const std::vector<double> &X) {
    static telemetry::Timer &ResidualTimer =
        Telemetry.timer("hydraulics.newton.residual");
    telemetry::Span ResidualSpan(ResidualTimer);
    std::vector<double> P = pressuresFrom(X);
    std::vector<double> Q = edgeFlows(P);
    std::vector<double> NetIn(NumJ, 0.0);
    for (size_t E = 0; E != NumE; ++E) {
      NetIn[PImpl->Edges[E].From] -= Q[E];
      NetIn[PImpl->Edges[E].To] += Q[E];
    }
    LastFlows = std::move(Q);
    std::vector<double> R(NumUnknowns, 0.0);
    for (size_t J = 0; J != NumJ; ++J)
      if (J != PImpl->Reference)
        R[UnknownIndex[J]] = NetIn[J];
    return R;
  };

  // Analytic continuity Jacobian. Each edge contributes the weighted
  // Laplacian stencil of dQ/d(dP) = 1 / (sum of element slopes at the
  // current flow): flow leaves From and enters To, and the drop is
  // P_From - P_To.
  auto analyticJacobian = [&](const std::vector<double> &X,
                              const std::vector<double> &Fx) {
    (void)X;
    (void)Fx;
    static telemetry::Timer &JacobianTimer =
        Telemetry.timer("hydraulics.jacobian.assembly");
    telemetry::Span JacobianSpan(JacobianTimer);
    Matrix J(NumUnknowns, NumUnknowns);
    for (size_t E = 0; E != NumE; ++E) {
      const auto &Edge = PImpl->Edges[E];
      double Slope = 0.0;
      for (const auto &Element : Edge.Elements)
        Slope += Element->pressureDropSlopePaPerM3S(LastFlows[E], F, TempC);
      // Positive by the monotonicity contract; floored so a flat spot
      // (all-quadratic edge at exactly zero flow) cannot divide by zero.
      double W = 1.0 / std::max(Slope, 1e-30);
      size_t IFrom = UnknownIndex[Edge.From];
      size_t ITo = UnknownIndex[Edge.To];
      if (IFrom != SIZE_MAX) {
        J.at(IFrom, IFrom) -= W;
        if (ITo != SIZE_MAX)
          J.at(IFrom, ITo) += W;
      }
      if (ITo != SIZE_MAX) {
        J.at(ITo, ITo) -= W;
        if (IFrom != SIZE_MAX)
          J.at(ITo, IFrom) += W;
      }
    }
    return J;
  };

  NewtonOptions Options;
  Options.ResidualTolerance = std::max(1e-10, 1e-6 * FlowScaleM3PerS);
  Options.MaxIterations = 200;
  // Per-iterate diagnostics: the residual history rides on the solution
  // for offline convergence analysis, and each iterate becomes a trace
  // event when a sink is attached.
  std::vector<double> History;
  Options.Observer = [&](const NewtonIterate &It) {
    History.push_back(It.MaxAbsResidual);
    if (Telemetry.tracingEnabled())
      Telemetry.emitEvent(
          "hydraulics.newton.iteration",
          {{"iteration", It.Iteration},
           {"max_continuity_m3s", It.MaxAbsResidual},
           {"residual_norm_m3s", It.ResidualNorm},
           {"damping", It.Damping}});
  };
  // Initial iterate: caller-provided junction pressures when present
  // (re-zeroed to the reference gauge), zeros otherwise.
  std::vector<double> Initial(NumUnknowns, 0.0);
  if (SolveOptions.WarmStartPressuresPa.size() == NumJ) {
    double Gauge = SolveOptions.WarmStartPressuresPa[PImpl->Reference];
    for (size_t J = 0; J != NumJ; ++J)
      if (J != PImpl->Reference)
        Initial[UnknownIndex[J]] =
            SolveOptions.WarmStartPressuresPa[J] - Gauge;
    WarmStartCount.add();
  }
  SolveSpan.attr("warm_start",
                 SolveOptions.WarmStartPressuresPa.size() == NumJ);
  SolveSpan.attr("analytic", SolveOptions.Jacobian ==
                                 FlowSolveOptions::JacobianKind::Analytic);

  NewtonResult Newton;
  Newton.Converged = false;
  // Best iterate seen across attempts: Newton's line search only accepts
  // residual-descending steps, so a failed attempt's final point is still
  // its best one and seeds the next attempt instead of restarting cold.
  std::vector<double> BestIterate = Initial;
  double BestNorm = std::numeric_limits<double>::infinity();

  if (SolveOptions.Jacobian == FlowSolveOptions::JacobianKind::Analytic) {
    AnalyticCount.add();
    History.clear();
    Options.Jacobian = analyticJacobian;
    Newton = solveNewtonSystem(residual, Initial, Options);
    IterationCount.add(static_cast<uint64_t>(Newton.Iterations));
    if (!Newton.Converged && Newton.ResidualNorm < BestNorm) {
      BestNorm = Newton.ResidualNorm;
      BestIterate = Newton.Solution;
    }
  }

  SolveSpan.attr("fallback_fd", !Newton.Converged);
  if (!Newton.Converged) {
    if (SolveOptions.Jacobian == FlowSolveOptions::JacobianKind::Analytic)
      AnalyticFallbackCount.add();
    // Fixed absolute pressure perturbations: large enough to clear the
    // edge-inversion noise floor, small enough that the secant matches
    // the local derivative even at high junction pressures. The right
    // scale depends on the stiffness of the network (viscous oil vs
    // water), so a failed solve retries across a perturbation ladder.
    Options.Jacobian = nullptr;
    Options.JacobianRelative = false;
    bool FirstAttempt = true;
    for (double Epsilon : {0.5, 5.0, 0.05, 50.0, 500.0}) {
      if (!FirstAttempt)
        RetryCount.add();
      FirstAttempt = false;
      History.clear();
      Options.JacobianEpsilon = Epsilon;
      Newton = solveNewtonSystem(residual, BestIterate, Options);
      IterationCount.add(static_cast<uint64_t>(Newton.Iterations));
      if (Newton.Converged)
        break;
      if (Newton.ResidualNorm < BestNorm) {
        BestNorm = Newton.ResidualNorm;
        BestIterate = Newton.Solution;
      }
    }
  }
  IterationHistogram.record(Newton.Iterations);
  SolveSpan.attr("iterations", Newton.Iterations);
  SolveSpan.attr("converged", Newton.Converged);
  if (!Newton.Converged) {
    InversionCount.add(InversionSearches);
    EvaluationCount.add(InversionEvaluations);
    FailureCount.add();
    return Expected<FlowSolution>::error(
        "hydraulic solve did not converge (residual " +
        std::to_string(Newton.ResidualNorm) + " m^3/s)");
  }

  FlowSolution Solution;
  Solution.JunctionPressuresPa = pressuresFrom(Newton.Solution);
  Solution.EdgeFlowsM3PerS = edgeFlows(Solution.JunctionPressuresPa);
  Solution.NewtonIterations = Newton.Iterations;
  Solution.ResidualHistory = std::move(History);
  InversionCount.add(InversionSearches);
  EvaluationCount.add(InversionEvaluations);

  std::vector<double> NetIn(NumJ, 0.0);
  for (size_t E = 0; E != NumE; ++E) {
    NetIn[PImpl->Edges[E].From] -= Solution.EdgeFlowsM3PerS[E];
    NetIn[PImpl->Edges[E].To] += Solution.EdgeFlowsM3PerS[E];
  }
  for (size_t J = 0; J != NumJ; ++J)
    if (J != PImpl->Reference)
      Solution.MaxContinuityErrorM3PerS = std::max(
          Solution.MaxContinuityErrorM3PerS, std::fabs(NetIn[J]));
  return Solution;
}
