//===- thermal/Network.cpp - Thermal RC network solver ---------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "thermal/Network.h"

#include "support/Numerics.h"
#include "telemetry/Span.h"
#include "telemetry/Telemetry.h"

#include <cassert>
#include <cmath>

using namespace rcs;
using namespace rcs::thermal;

NodeId ThermalNetwork::addNode(std::string Name, double CapacitanceJPerK) {
  assert(CapacitanceJPerK >= 0 && "negative thermal capacitance");
  Node N;
  N.Name = std::move(Name);
  N.CapacitanceJPerK = CapacitanceJPerK;
  Nodes.push_back(std::move(N));
  invalidateSymbolic();
  return Nodes.size() - 1;
}

NodeId ThermalNetwork::addBoundaryNode(std::string Name, double TempC) {
  Node N;
  N.Name = std::move(Name);
  N.Boundary = true;
  N.TempC = TempC;
  Nodes.push_back(std::move(N));
  invalidateSymbolic();
  return Nodes.size() - 1;
}

void ThermalNetwork::addConductance(NodeId A, NodeId B, double GWPerK) {
  assert(A < Nodes.size() && B < Nodes.size() && "node id out of range");
  assert(A != B && "self-conductance is meaningless");
  assert(GWPerK > 0 && "conductance must be positive");
  invalidateNumeric();
  // Accumulate into an existing edge when present to keep the edge list
  // compact for repeatedly-built film coefficients. Accumulation keeps
  // the sparsity pattern; only a genuinely new edge dirties the sparse
  // symbolic analysis.
  for (Edge &E : Edges) {
    if ((E.A == A && E.B == B) || (E.A == B && E.B == A)) {
      E.GWPerK += GWPerK;
      return;
    }
  }
  invalidateSparsePattern();
  Edges.push_back({A, B, GWPerK});
}

void ThermalNetwork::addResistance(NodeId A, NodeId B, double RKPerW) {
  assert(RKPerW > 0 && "resistance must be positive");
  addConductance(A, B, 1.0 / RKPerW);
}

void ThermalNetwork::addHeatSource(NodeId Node, double PowerW) {
  assert(Node < Nodes.size() && "node id out of range");
  Nodes[Node].SourceW += PowerW;
}

void ThermalNetwork::setHeatSource(NodeId Node, double PowerW) {
  assert(Node < Nodes.size() && "node id out of range");
  Nodes[Node].SourceW = PowerW;
}

void ThermalNetwork::setBoundaryTemp(NodeId Node, double TempC) {
  assert(Node < Nodes.size() && Nodes[Node].Boundary &&
         "setBoundaryTemp on a non-boundary node");
  Nodes[Node].TempC = TempC;
}

void ThermalNetwork::setConductance(NodeId A, NodeId B, double GWPerK) {
  assert(GWPerK > 0 && "conductance must be positive");
  invalidateNumeric();
  for (Edge &E : Edges) {
    if ((E.A == A && E.B == B) || (E.A == B && E.B == A)) {
      E.GWPerK = GWPerK;
      return;
    }
  }
  assert(false && "setConductance on a missing edge");
}

void ThermalNetwork::setCapacitance(NodeId Node, double CapacitanceJPerK) {
  assert(Node < Nodes.size() && "node id out of range");
  assert(!Nodes[Node].Boundary && "setCapacitance on a boundary node");
  assert(CapacitanceJPerK >= 0 && "negative thermal capacitance");
  Nodes[Node].CapacitanceJPerK = CapacitanceJPerK;
  // Capacitance enters only the implicit-Euler matrix; the steady-state
  // factors (dense and sparse) stay valid.
  Cache.TransientValid = false;
  Cache.SparseTransientValid = false;
}

void ThermalNetwork::setFactorCaching(bool Enabled) {
  CachingEnabled = Enabled;
  if (!Enabled) {
    Cache.SteadyFactor.reset();
    Cache.TransientFactor.reset();
    Cache.SparseSteady.reset();
    Cache.SparseTransient.reset();
    invalidateSparsePattern();
    invalidateNumeric();
  }
}

void ThermalNetwork::setSparseThreshold(size_t MinUnknowns) {
  SparseThresholdUnknowns = MinUnknowns;
}

size_t ThermalNetwork::solverMemoryBytes() const {
  size_t Bytes = 0;
  if (Cache.SteadyFactor.valid())
    Bytes +=
        Cache.SteadyFactor.size() * Cache.SteadyFactor.size() * sizeof(double);
  if (Cache.TransientFactor.valid())
    Bytes += Cache.TransientFactor.size() * Cache.TransientFactor.size() *
             sizeof(double);
  Bytes += Cache.SparseSteady.memoryBytes();
  Bytes += Cache.SparseTransient.memoryBytes();
  return Bytes;
}

const std::string &ThermalNetwork::nodeName(NodeId Node) const {
  assert(Node < Nodes.size() && "node id out of range");
  return Nodes[Node].Name;
}

bool ThermalNetwork::isBoundary(NodeId Node) const {
  assert(Node < Nodes.size() && "node id out of range");
  return Nodes[Node].Boundary;
}

double ThermalNetwork::heatSourceW(NodeId Node) const {
  assert(Node < Nodes.size() && "node id out of range");
  return Nodes[Node].SourceW;
}

double ThermalNetwork::capacitanceJPerK(NodeId Node) const {
  assert(Node < Nodes.size() && "node id out of range");
  return Nodes[Node].CapacitanceJPerK;
}

double ThermalNetwork::totalSourcePowerW() const {
  double Sum = 0.0;
  for (const Node &N : Nodes)
    Sum += N.SourceW;
  return Sum;
}

void ThermalNetwork::ensureSymbolic() const {
  if (Cache.SymbolicValid)
    return;
  // Symbolic phase: index internal nodes into the reduced unknown vector.
  // Recomputed only when nodes are inserted; both numeric factors are
  // stale once the indexing changes.
  Cache.UnknownIndex.assign(Nodes.size(), SIZE_MAX);
  Cache.NumUnknowns = 0;
  for (size_t I = 0, E = Nodes.size(); I != E; ++I)
    if (!Nodes[I].Boundary)
      Cache.UnknownIndex[I] = Cache.NumUnknowns++;
  Cache.SymbolicValid = true;
  Cache.SteadyValid = false;
  Cache.TransientValid = false;
  Cache.SparsePatternValid = false;
  Cache.SparseSteadyValid = false;
  Cache.SparseTransientValid = false;
}

void ThermalNetwork::ensureSparsePattern() const {
  if (Cache.SparsePatternValid)
    return;
  // Topology changed since the last sparse solve: drop both symbolic
  // analyses so the next factorize re-runs ordering + elimination tree
  // over the current pattern.
  Cache.SparseSteady.reset();
  Cache.SparseTransient.reset();
  Cache.SparseSteadyValid = false;
  Cache.SparseTransientValid = false;
  Cache.SparsePatternValid = true;
}

Matrix ThermalNetwork::assembleSteadyMatrix() const {
  Matrix A(Cache.NumUnknowns, Cache.NumUnknowns);
  for (const Edge &Ed : Edges) {
    bool ABound = Nodes[Ed.A].Boundary;
    bool BBound = Nodes[Ed.B].Boundary;
    if (ABound && BBound)
      continue;
    if (!ABound) {
      size_t IA = Cache.UnknownIndex[Ed.A];
      A.at(IA, IA) += Ed.GWPerK;
      if (!BBound)
        A.at(IA, Cache.UnknownIndex[Ed.B]) -= Ed.GWPerK;
    }
    if (!BBound) {
      size_t IB = Cache.UnknownIndex[Ed.B];
      A.at(IB, IB) += Ed.GWPerK;
      if (!ABound)
        A.at(IB, Cache.UnknownIndex[Ed.A]) -= Ed.GWPerK;
    }
  }
  return A;
}

Matrix ThermalNetwork::assembleTransientMatrix(double DtS) const {
  Matrix A(Cache.NumUnknowns, Cache.NumUnknowns);
  for (size_t I = 0, E = Nodes.size(); I != E; ++I) {
    if (Nodes[I].Boundary)
      continue;
    size_t U = Cache.UnknownIndex[I];
    A.at(U, U) += Nodes[I].CapacitanceJPerK / DtS;
  }
  for (const Edge &Ed : Edges) {
    bool ABound = Nodes[Ed.A].Boundary;
    bool BBound = Nodes[Ed.B].Boundary;
    if (ABound && BBound)
      continue;
    if (!ABound) {
      size_t IA = Cache.UnknownIndex[Ed.A];
      A.at(IA, IA) += Ed.GWPerK;
      if (!BBound)
        A.at(IA, Cache.UnknownIndex[Ed.B]) -= Ed.GWPerK;
    }
    if (!BBound) {
      size_t IB = Cache.UnknownIndex[Ed.B];
      A.at(IB, IB) += Ed.GWPerK;
      if (!ABound)
        A.at(IB, Cache.UnknownIndex[Ed.A]) -= Ed.GWPerK;
    }
  }
  return A;
}

SparseCsr ThermalNetwork::assembleSparse(double DtS) const {
  // Emit the structural diagonal first — value C/dt for the transient
  // system, zero for steady — then the edge contributions in edge order.
  // fromTriplets sums duplicates in input order, so repeated assembly is
  // bit-reproducible, and because the coordinate list is identical for
  // every DtS (including the steady DtS < 0 case) the steady and
  // transient factors share one symbolic analysis.
  std::vector<Triplet> Entries;
  Entries.reserve(Cache.NumUnknowns + 4 * Edges.size());
  for (size_t I = 0, E = Nodes.size(); I != E; ++I) {
    if (Nodes[I].Boundary)
      continue;
    double DiagValue = DtS > 0.0 ? Nodes[I].CapacitanceJPerK / DtS : 0.0;
    Entries.push_back({Cache.UnknownIndex[I], Cache.UnknownIndex[I], DiagValue});
  }
  for (const Edge &Ed : Edges) {
    bool ABound = Nodes[Ed.A].Boundary;
    bool BBound = Nodes[Ed.B].Boundary;
    if (ABound && BBound)
      continue;
    if (!ABound) {
      size_t IA = Cache.UnknownIndex[Ed.A];
      Entries.push_back({IA, IA, Ed.GWPerK});
      if (!BBound)
        Entries.push_back({IA, Cache.UnknownIndex[Ed.B], -Ed.GWPerK});
    }
    if (!BBound) {
      size_t IB = Cache.UnknownIndex[Ed.B];
      Entries.push_back({IB, IB, Ed.GWPerK});
      if (!ABound)
        Entries.push_back({IB, Cache.UnknownIndex[Ed.A], -Ed.GWPerK});
    }
  }
  return SparseCsr::fromTriplets(Cache.NumUnknowns, Entries);
}

Expected<std::vector<double>> ThermalNetwork::solveSteadyState() const {
  static telemetry::Counter &SolveCount =
      telemetry::Registry::global().counter("thermal.network.steady_solves");
  static telemetry::Counter &FactorCount =
      telemetry::Registry::global().counter("thermal.network.factorizations");
  static telemetry::Counter &ReuseCount =
      telemetry::Registry::global().counter("thermal.network.factor_reuses");
  telemetry::Span SolveSpan("thermal.network.steady_solve");
  SolveCount.add();
  ensureSymbolic();
  SolveSpan.attr("unknowns", static_cast<long long>(Cache.NumUnknowns));

  std::vector<double> Temps(Nodes.size(), 0.0);
  for (size_t I = 0, E = Nodes.size(); I != E; ++I)
    if (Nodes[I].Boundary)
      Temps[I] = Nodes[I].TempC;
  if (Cache.NumUnknowns == 0)
    return Temps;

  // Numeric phase, right-hand side: sources and boundary couplings change
  // between solves without invalidating the factorization, so B is
  // assembled fresh every call (same accumulation order as the seed
  // single-pass assembly, which keeps results bit-identical).
  std::vector<double> B(Cache.NumUnknowns, 0.0);
  for (size_t I = 0, E = Nodes.size(); I != E; ++I)
    if (!Nodes[I].Boundary)
      B[Cache.UnknownIndex[I]] = Nodes[I].SourceW;
  for (const Edge &Ed : Edges) {
    bool ABound = Nodes[Ed.A].Boundary;
    bool BBound = Nodes[Ed.B].Boundary;
    if (ABound && BBound)
      continue;
    if (!ABound && BBound)
      B[Cache.UnknownIndex[Ed.A]] += Ed.GWPerK * Nodes[Ed.B].TempC;
    if (!BBound && ABound)
      B[Cache.UnknownIndex[Ed.B]] += Ed.GWPerK * Nodes[Ed.A].TempC;
  }

  std::vector<double> Reduced;
  if (useSparsePath()) {
    static telemetry::Counter &SparseCount =
        telemetry::Registry::global().counter("thermal.network.sparse_solves");
    static telemetry::Counter &SymbolicCount =
        telemetry::Registry::global().counter(
            "thermal.network.sparse_symbolic");
    SparseCount.add();
    SolveSpan.attr("sparse", true);
    ensureSparsePattern();
    if (!Cache.SparseSteadyValid) {
      SparseCsr A = assembleSparse(-1.0);
      if (!Cache.SparseSteady.analyzed()) {
        // Symbolic phase: ordering + elimination tree, pattern-only work
        // reused across every numeric refactorization below.
        (void)Cache.SparseSteady.analyze(A);
        SymbolicCount.add();
      }
      Status Factored = Cache.SparseSteady.factorize(A);
      if (!Factored) {
        telemetry::Registry::global()
            .counter("thermal.network.solve_failures")
            .add();
        return Expected<std::vector<double>>::error(
            "thermal network is singular: an internal node has no path to "
            "any boundary (" + Factored.message() + ")");
      }
      Cache.SparseSteadyValid = true;
      FactorCount.add();
      SolveSpan.attr("factor_hit", false);
    } else {
      ReuseCount.add();
      SolveSpan.attr("factor_hit", true);
    }
    Reduced = Cache.SparseSteady.solve(std::move(B));
  } else if (CachingEnabled) {
    // Numeric phase, matrix: refactor only when a mutator dirtied the
    // conductances since the factorization was built.
    if (!Cache.SteadyValid) {
      Status Factored = Cache.SteadyFactor.factor(assembleSteadyMatrix());
      if (!Factored) {
        telemetry::Registry::global()
            .counter("thermal.network.solve_failures")
            .add();
        return Expected<std::vector<double>>::error(
            "thermal network is singular: an internal node has no path to "
            "any boundary (" + Factored.message() + ")");
      }
      Cache.SteadyValid = true;
      FactorCount.add();
      SolveSpan.attr("factor_hit", false);
    } else {
      ReuseCount.add();
      SolveSpan.attr("factor_hit", true);
    }
    Reduced = Cache.SteadyFactor.solve(std::move(B));
  } else {
    SolveSpan.attr("factor_hit", false);
    // Ablation path: rebuild and refactor every call (seed behavior).
    Expected<std::vector<double>> Solved =
        solveDense(assembleSteadyMatrix(), std::move(B));
    if (!Solved) {
      telemetry::Registry::global()
          .counter("thermal.network.solve_failures")
          .add();
      return Expected<std::vector<double>>::error(
          "thermal network is singular: an internal node has no path to any "
          "boundary (" + Solved.message() + ")");
    }
    Reduced = std::move(*Solved);
  }

  for (size_t I = 0, E = Nodes.size(); I != E; ++I)
    if (!Nodes[I].Boundary)
      Temps[I] = Reduced[Cache.UnknownIndex[I]];
  return Temps;
}

Status ThermalNetwork::stepTransient(std::vector<double> &Temps,
                                     double DtS) const {
  assert(Temps.size() == Nodes.size() && "state size mismatch");
  assert(DtS > 0 && "time step must be positive");
  // stepTransient sits in every simulator's inner loop: one relaxed
  // atomic add plus one causal span (two mutex-guarded aggregate updates
  // when no sink is attached; the bench_p1_solvers
  // overhead_span_tracing leg gates this cost).
  static telemetry::Counter &StepCount =
      telemetry::Registry::global().counter("thermal.network.transient_steps");
  static telemetry::Counter &FactorCount =
      telemetry::Registry::global().counter("thermal.network.factorizations");
  static telemetry::Counter &ReuseCount =
      telemetry::Registry::global().counter("thermal.network.factor_reuses");
  telemetry::Span StepSpan("thermal.network.step_transient");
  StepCount.add();

  ensureSymbolic();
  StepSpan.attr("unknowns", static_cast<long long>(Cache.NumUnknowns));
  StepSpan.attr("dt_s", DtS);
  for (size_t I = 0, E = Nodes.size(); I != E; ++I) {
    if (Nodes[I].Boundary)
      continue;
    if (Nodes[I].CapacitanceJPerK <= 0.0)
      return Status::error("transient step requires positive capacitance on "
                           "internal node '" + Nodes[I].Name + "'");
  }
  if (Cache.NumUnknowns == 0) {
    for (size_t I = 0, E = Nodes.size(); I != E; ++I)
      if (Nodes[I].Boundary)
        Temps[I] = Nodes[I].TempC;
    return Status::ok();
  }

  // Implicit Euler: (C/dt + L) T^{n+1} = (C/dt) T^n + Q + G*T_boundary.
  // The matrix depends only on capacitances, conductances, and dt; the
  // right-hand side carries the state and is assembled fresh each step in
  // the seed accumulation order (bit-identical results).
  std::vector<double> B(Cache.NumUnknowns, 0.0);
  for (size_t I = 0, E = Nodes.size(); I != E; ++I) {
    if (Nodes[I].Boundary)
      continue;
    double CoverDt = Nodes[I].CapacitanceJPerK / DtS;
    B[Cache.UnknownIndex[I]] += CoverDt * Temps[I] + Nodes[I].SourceW;
  }
  for (const Edge &Ed : Edges) {
    bool ABound = Nodes[Ed.A].Boundary;
    bool BBound = Nodes[Ed.B].Boundary;
    if (ABound && BBound)
      continue;
    if (!ABound && BBound)
      B[Cache.UnknownIndex[Ed.A]] += Ed.GWPerK * Nodes[Ed.B].TempC;
    if (!BBound && ABound)
      B[Cache.UnknownIndex[Ed.B]] += Ed.GWPerK * Nodes[Ed.A].TempC;
  }

  std::vector<double> Next;
  if (useSparsePath()) {
    static telemetry::Counter &SparseCount =
        telemetry::Registry::global().counter("thermal.network.sparse_solves");
    static telemetry::Counter &SymbolicCount =
        telemetry::Registry::global().counter(
            "thermal.network.sparse_symbolic");
    SparseCount.add();
    StepSpan.attr("sparse", true);
    ensureSparsePattern();
    // skatlint:ignore(float-equality) -- dt is a cache key here, not a
    // physics comparison: any bitwise change must trigger a refactor.
    bool SameDt = DtS == Cache.SparseTransientDtS;
    if (!Cache.SparseTransientValid || !SameDt) {
      SparseCsr A = assembleSparse(DtS);
      if (!Cache.SparseTransient.analyzed()) {
        // Symbolic phase, shared pattern with the steady system: survives
        // conductance/capacitance/dt edits, redone only on topology
        // changes.
        (void)Cache.SparseTransient.analyze(A);
        SymbolicCount.add();
      }
      Status Factored = Cache.SparseTransient.factorize(A);
      if (!Factored)
        return Status::error("transient thermal step failed: " +
                             Factored.message());
      Cache.SparseTransientValid = true;
      Cache.SparseTransientDtS = DtS;
      FactorCount.add();
      StepSpan.attr("factor_hit", false);
    } else {
      ReuseCount.add();
      StepSpan.attr("factor_hit", true);
    }
    Next = Cache.SparseTransient.solve(std::move(B));
  } else if (CachingEnabled) {
    // skatlint:ignore(float-equality) -- dt is a cache key here, not a
    // physics comparison: any bitwise change must trigger a refactor.
    bool SameDt = DtS == Cache.TransientDtS;
    if (!Cache.TransientValid || !SameDt) {
      Status Factored =
          Cache.TransientFactor.factor(assembleTransientMatrix(DtS));
      if (!Factored)
        return Status::error("transient thermal step failed: " +
                             Factored.message());
      Cache.TransientValid = true;
      Cache.TransientDtS = DtS;
      FactorCount.add();
      StepSpan.attr("factor_hit", false);
    } else {
      ReuseCount.add();
      StepSpan.attr("factor_hit", true);
    }
    Next = Cache.TransientFactor.solve(std::move(B));
  } else {
    StepSpan.attr("factor_hit", false);
    // Ablation path: rebuild and refactor every step (seed behavior).
    Expected<std::vector<double>> Solved =
        solveDense(assembleTransientMatrix(DtS), std::move(B));
    if (!Solved)
      return Status::error("transient thermal step failed: " +
                           Solved.message());
    Next = std::move(*Solved);
  }

  for (size_t I = 0, E = Nodes.size(); I != E; ++I) {
    if (Nodes[I].Boundary)
      Temps[I] = Nodes[I].TempC;
    else
      Temps[I] = Next[Cache.UnknownIndex[I]];
  }
  return Status::ok();
}

double
ThermalNetwork::boundaryHeatFlowW(NodeId Node,
                                  const std::vector<double> &Temps) const {
  assert(Node < Nodes.size() && Nodes[Node].Boundary &&
         "boundaryHeatFlowW on a non-boundary node");
  assert(Temps.size() == Nodes.size() && "state size mismatch");
  double Flow = 0.0;
  for (const Edge &Ed : Edges) {
    if (Ed.A == Node)
      Flow += Ed.GWPerK * (Temps[Ed.B] - Temps[Node]);
    else if (Ed.B == Node)
      Flow += Ed.GWPerK * (Temps[Ed.A] - Temps[Node]);
  }
  return Flow;
}

std::vector<double>
ThermalNetwork::transientResidualsW(const std::vector<double> &Before,
                                    const std::vector<double> &After,
                                    double DtS) const {
  assert(Before.size() == Nodes.size() && After.size() == Nodes.size() &&
         "state size mismatch");
  assert(DtS > 0.0 && "nonpositive time step");
  std::vector<double> Residual(Nodes.size(), 0.0);
  for (size_t I = 0, E = Nodes.size(); I != E; ++I) {
    if (Nodes[I].Boundary)
      continue;
    Residual[I] =
        Nodes[I].CapacitanceJPerK * (After[I] - Before[I]) / DtS -
        Nodes[I].SourceW;
  }
  for (const Edge &Ed : Edges) {
    double Flow = Ed.GWPerK * (After[Ed.B] - After[Ed.A]);
    if (!Nodes[Ed.A].Boundary)
      Residual[Ed.A] -= Flow;
    if (!Nodes[Ed.B].Boundary)
      Residual[Ed.B] += Flow;
  }
  return Residual;
}

double ThermalNetwork::steadyStateResidualW(
    const std::vector<double> &Temps) const {
  assert(Temps.size() == Nodes.size() && "state size mismatch");
  std::vector<double> Residual(Nodes.size(), 0.0);
  for (size_t I = 0, E = Nodes.size(); I != E; ++I)
    Residual[I] = Nodes[I].SourceW;
  for (const Edge &Ed : Edges) {
    double Flow = Ed.GWPerK * (Temps[Ed.B] - Temps[Ed.A]);
    Residual[Ed.A] += Flow;
    Residual[Ed.B] -= Flow;
  }
  double Sum = 0.0;
  for (size_t I = 0, E = Nodes.size(); I != E; ++I)
    if (!Nodes[I].Boundary)
      Sum += std::fabs(Residual[I]);
  return Sum;
}
