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
  invalidateSparsePattern();
  return Nodes.size() - 1;
}

NodeId ThermalNetwork::addBoundaryNode(std::string Name, double TempC) {
  Node N;
  N.Name = std::move(Name);
  N.Boundary = true;
  N.TempC = TempC;
  Nodes.push_back(std::move(N));
  invalidateSparsePattern();
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
  // factor stays valid.
  Cache.Transient.Valid = false;
}

void ThermalNetwork::setSparseThreshold(size_t MinUnknowns) {
  SparseThresholdUnknowns = MinUnknowns;
  // A valid factor may belong to the path the new threshold leaves.
  invalidateNumeric();
}

size_t ThermalNetwork::solverMemoryBytes() const {
  size_t Bytes = 0;
  for (const Factor *F : {&Cache.Steady, &Cache.Transient})
    Bytes += F->Dense.size() * F->Dense.size() * sizeof(double) +
             F->Sparse.memoryBytes();
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
  // Symbolic phase: index internal nodes into the reduced unknown vector.
  // Nodes are only ever appended, so the indexing is current exactly when
  // it covers every node; an insertion also dropped both factors.
  if (Cache.UnknownIndex.size() == Nodes.size())
    return;
  Cache.UnknownIndex.assign(Nodes.size(), SIZE_MAX);
  Cache.NumUnknowns = 0;
  for (size_t I = 0, E = Nodes.size(); I != E; ++I)
    if (!Nodes[I].Boundary)
      Cache.UnknownIndex[I] = Cache.NumUnknowns++;
}

template <typename AddFn>
void ThermalNetwork::forEachEntry(double DtS, AddFn &&Add) const {
  // The diagonal is emitted for every unknown, zero for the steady system,
  // so both systems share one sparsity pattern. Adding -G is bitwise the
  // same as subtracting G: a dense sum of these entries is the seed's.
  for (size_t I = 0, E = Nodes.size(); I != E; ++I)
    if (!Nodes[I].Boundary)
      Add(Cache.UnknownIndex[I], Cache.UnknownIndex[I],
          DtS > 0.0 ? Nodes[I].CapacitanceJPerK / DtS : 0.0);
  for (const Edge &Ed : Edges) {
    bool ABound = Nodes[Ed.A].Boundary;
    bool BBound = Nodes[Ed.B].Boundary;
    if (!ABound) {
      size_t IA = Cache.UnknownIndex[Ed.A];
      Add(IA, IA, Ed.GWPerK);
      if (!BBound)
        Add(IA, Cache.UnknownIndex[Ed.B], -Ed.GWPerK);
    }
    if (!BBound) {
      size_t IB = Cache.UnknownIndex[Ed.B];
      Add(IB, IB, Ed.GWPerK);
      if (!ABound)
        Add(IB, Cache.UnknownIndex[Ed.A], -Ed.GWPerK);
    }
  }
}

std::vector<double>
ThermalNetwork::assembleRhs(const std::vector<double> &Temps,
                            double DtS) const {
  // Sources (plus C/dt T^n for a step), then boundary couplings in edge
  // order: the seed accumulation order, which keeps results bit-identical.
  // Nothing here enters the matrix, so RHS-only mutators keep the factor.
  std::vector<double> B(Cache.NumUnknowns, 0.0);
  for (size_t I = 0, E = Nodes.size(); I != E; ++I) {
    if (Nodes[I].Boundary)
      continue;
    size_t U = Cache.UnknownIndex[I];
    if (DtS > 0.0)
      B[U] += Nodes[I].CapacitanceJPerK / DtS * Temps[I] + Nodes[I].SourceW;
    else
      B[U] = Nodes[I].SourceW;
  }
  for (const Edge &Ed : Edges) {
    bool ABound = Nodes[Ed.A].Boundary;
    bool BBound = Nodes[Ed.B].Boundary;
    if (!ABound && BBound)
      B[Cache.UnknownIndex[Ed.A]] += Ed.GWPerK * Nodes[Ed.B].TempC;
    if (!BBound && ABound)
      B[Cache.UnknownIndex[Ed.B]] += Ed.GWPerK * Nodes[Ed.A].TempC;
  }
  return B;
}

Status ThermalNetwork::solveSystem(std::vector<double> &Temps, double DtS,
                                   telemetry::Span &Span) const {
  static telemetry::Counter &FactorCount =
      telemetry::Registry::global().counter("thermal.network.factorizations");
  static telemetry::Counter &ReuseCount =
      telemetry::Registry::global().counter("thermal.network.factor_reuses");
  static telemetry::Counter &SparseCount =
      telemetry::Registry::global().counter("thermal.network.sparse_solves");
  static telemetry::Counter &SymbolicCount =
      telemetry::Registry::global().counter("thermal.network.sparse_symbolic");
  if (Cache.NumUnknowns == 0) {
    for (size_t I = 0, E = Nodes.size(); I != E; ++I)
      if (Nodes[I].Boundary)
        Temps[I] = Nodes[I].TempC;
    return Status::ok();
  }
  bool Steady = DtS < 0.0;
  Factor &F = Steady ? Cache.Steady : Cache.Transient;
  bool Sparse = solvesSparse();
  std::vector<double> B = assembleRhs(Temps, DtS);
  if (Sparse) {
    SparseCount.add();
    Span.attr("sparse", true);
  }

  // skatlint:ignore(float-equality) -- dt is a cache key here, not a
  // physics comparison: any bitwise change must trigger a refactor.
  if (F.Valid && DtS == F.DtS) {
    ReuseCount.add();
    Span.attr("factor_hit", true);
  } else {
    // Numeric phase: a mutator dirtied the matrix, or dt changed. A failed
    // refactor leaves no valid factor behind.
    F.Valid = false;
    Status Factored = Status::ok();
    if (Sparse) {
      std::vector<Triplet> Entries;
      Entries.reserve(Cache.NumUnknowns + 4 * Edges.size());
      forEachEntry(DtS, [&](size_t Row, size_t Col, double Value) {
        Entries.push_back({Row, Col, Value});
      });
      // fromTriplets sums duplicates in input order: bit-reproducible.
      SparseCsr A = SparseCsr::fromTriplets(Cache.NumUnknowns, Entries);
      if (!F.Sparse.analyzed()) {
        // Symbolic phase: ordering + elimination tree, pattern-only work
        // reused by every refactorization until the topology changes.
        (void)F.Sparse.analyze(A);
        SymbolicCount.add();
      }
      Factored = F.Sparse.factorize(A);
    } else {
      Matrix A(Cache.NumUnknowns, Cache.NumUnknowns);
      forEachEntry(DtS, [&](size_t Row, size_t Col, double Value) {
        A.at(Row, Col) += Value;
      });
      Factored = F.Dense.factor(std::move(A));
    }
    if (!Factored) {
      if (!Steady)
        return Status::error("transient thermal step failed: " +
                             Factored.message());
      telemetry::Registry::global()
          .counter("thermal.network.solve_failures")
          .add();
      return Status::error("thermal network is singular: an internal node "
                           "has no path to any boundary (" +
                           Factored.message() + ")");
    }
    F.Valid = true;
    F.DtS = DtS;
    FactorCount.add();
    Span.attr("factor_hit", false);
  }
  std::vector<double> Reduced =
      Sparse ? F.Sparse.solve(std::move(B)) : F.Dense.solve(std::move(B));
  for (size_t I = 0, E = Nodes.size(); I != E; ++I)
    Temps[I] = Nodes[I].Boundary ? Nodes[I].TempC
                                 : Reduced[Cache.UnknownIndex[I]];
  return Status::ok();
}

Expected<std::vector<double>> ThermalNetwork::solveSteadyState() const {
  static telemetry::Counter &SolveCount =
      telemetry::Registry::global().counter("thermal.network.steady_solves");
  static telemetry::Timer &SolveTimer =
      telemetry::Registry::global().timer("thermal.network.steady_solve");
  telemetry::Span SolveSpan(SolveTimer);
  SolveCount.add();
  ensureSymbolic();
  SolveSpan.attr("unknowns", static_cast<long long>(Cache.NumUnknowns));
  std::vector<double> Temps(Nodes.size(), 0.0);
  Status Solved = solveSystem(Temps, -1.0, SolveSpan);
  if (!Solved)
    return Solved;
  return Temps;
}

Status ThermalNetwork::stepTransient(std::vector<double> &Temps,
                                     double DtS) const {
  assert(Temps.size() == Nodes.size() && "state size mismatch");
  assert(DtS > 0 && "time step must be positive");
  // stepTransient sits in every simulator's inner loop: one relaxed
  // atomic add on this thread's counter stripe plus one causal span on a
  // resolved Timer (with no sink attached, one uncontended stripe lock on
  // close and no registry lock; the bench_p1_solvers
  // overhead_span_tracing leg gates this cost).
  static telemetry::Counter &StepCount =
      telemetry::Registry::global().counter("thermal.network.transient_steps");
  static telemetry::Timer &StepTimer =
      telemetry::Registry::global().timer("thermal.network.step_transient");
  telemetry::Span StepSpan(StepTimer);
  StepCount.add();

  ensureSymbolic();
  StepSpan.attr("unknowns", static_cast<long long>(Cache.NumUnknowns));
  StepSpan.attr("dt_s", DtS);
  for (const Node &N : Nodes)
    if (!N.Boundary && N.CapacitanceJPerK <= 0.0)
      return Status::error("transient step requires positive capacitance on "
                           "internal node '" + N.Name + "'");
  // Implicit Euler: (C/dt + L) T^{n+1} = (C/dt) T^n + Q + G*T_boundary.
  return solveSystem(Temps, DtS, StepSpan);
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
