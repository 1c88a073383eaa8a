//===- thermal/Fleet.cpp - Datacenter-scale fleet thermal networks ---------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "thermal/Fleet.h"

#include <string>

using namespace rcs;
using namespace rcs::thermal;

size_t rcs::thermal::fleetUnknowns(const FleetConfig &Config) {
  return Config.NumRacks * (1 + 2 * Config.ModulesPerRack);
}

FleetNetwork rcs::thermal::buildFleetNetwork(const FleetConfig &Config) {
  FleetNetwork Fleet;
  Fleet.RackLoops.reserve(Config.NumRacks);
  Fleet.Chips.reserve(Config.NumRacks * Config.ModulesPerRack);
  Fleet.Plates.reserve(Config.NumRacks * Config.ModulesPerRack);

  Fleet.Facility = Fleet.Net.addBoundaryNode(
      "facility", Config.FacilityWaterTemp.value());
  for (size_t R = 0; R != Config.NumRacks; ++R) {
    std::string RackName = "rack" + std::to_string(R);
    NodeId Loop =
        Fleet.Net.addNode(RackName + ".loop", Config.LoopCapacitance.value());
    Fleet.Net.addConductance(Loop, Fleet.Facility,
                             Config.LoopToFacility.value());
    if (R != 0)
      Fleet.Net.addConductance(Fleet.RackLoops[R - 1], Loop,
                               Config.RackCoupling.value());
    Fleet.RackLoops.push_back(Loop);

    for (size_t M = 0; M != Config.ModulesPerRack; ++M) {
      std::string ModuleName = RackName + ".cm" + std::to_string(M);
      NodeId Plate = Fleet.Net.addNode(ModuleName + ".plate",
                                       Config.PlateCapacitance.value());
      NodeId Chip = Fleet.Net.addNode(ModuleName + ".chip",
                                      Config.ChipCapacitance.value());
      Fleet.Net.addConductance(Chip, Plate, Config.ChipToPlate.value());
      Fleet.Net.addConductance(Plate, Loop, Config.PlateToLoop.value());
      Fleet.Net.addHeatSource(Chip, Config.ModulePower.value());
      Fleet.Plates.push_back(Plate);
      Fleet.Chips.push_back(Chip);
    }
  }
  return Fleet;
}
