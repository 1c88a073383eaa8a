//===- sim/SolverAssets.h - Reusable warmed solver state --------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Warmed solver state a TransientSimulator run needs and that is worth
/// keeping alive between runs sharing one plant configuration: the bath
/// and facility-water fluid objects (with their uniform-grid property
/// caches already resampled) and the built two-node thermal network with
/// its unknown indexing. No LU factor survives a step: the step loop
/// re-sets both conductances every step, so every step refactors.
///
/// A run that borrows assets produces bit-identical results to one that
/// builds them fresh: every network quantity the step loop touches
/// (conductances, bath capacitance, heat sources, boundary temperature)
/// is rewritten each step before the solve, and the capacitance anchors
/// are computed from the exact property tables here, before the property
/// cache is enabled — the same order TransientSimulator::run used when it
/// owned this construction.
///
/// Assets are NOT thread-safe: the thermal network must not be solved
/// from two threads at once. The service layer's SolverCacheRegistry
/// hands them out under exclusive leases; single-threaded callers just
/// construct one per simulator (or let run() build its own).
///
//===----------------------------------------------------------------------===//

#ifndef RCS_SIM_SOLVERASSETS_H
#define RCS_SIM_SOLVERASSETS_H

#include "fluids/Fluid.h"
#include "sim/Transient.h"
#include "thermal/Network.h"

#include <memory>

namespace rcs {
namespace sim {

/// The per-plant warm state shared across transient runs: fluids with
/// resampled property caches plus the chips/bath/water network.
class TransientSolverAssets {
public:
  /// Builds the assets for \p Module under the engine tunables in
  /// \p Config (the capacitance anchors).
  /// \p Module must use immersion cooling.
  TransientSolverAssets(const rcsystem::ModuleConfig &Module,
                        const TransientConfig &Config);

  fluids::Fluid &oil() { return *Oil; }
  fluids::Fluid &water() { return *Water; }
  thermal::ThermalNetwork &network() { return Net; }

  thermal::NodeId chipsNode() const { return Chips; }
  thermal::NodeId bathNode() const { return Bath; }
  thermal::NodeId waterBoundaryNode() const { return WaterBoundary; }

  /// Aggregate chip-mass capacitance (all FPGAs), J/K.
  double chipCapacitanceJPerK() const { return ChipCapacitanceJPerK; }

  /// Full-inventory bath capacitance from the exact (uncached) oil
  /// tables, J/K; coolant-loss effects scale it per step.
  double fullOilCapacitanceJPerK() const { return FullOilCapacitanceJPerK; }

private:
  std::unique_ptr<fluids::Fluid> Oil;
  std::unique_ptr<fluids::Fluid> Water;
  thermal::ThermalNetwork Net;
  thermal::NodeId Chips = 0;
  thermal::NodeId Bath = 0;
  thermal::NodeId WaterBoundary = 0;
  double ChipCapacitanceJPerK = 0.0;
  double FullOilCapacitanceJPerK = 0.0;
};

} // namespace sim
} // namespace rcs

#endif // RCS_SIM_SOLVERASSETS_H
