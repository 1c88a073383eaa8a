//===- system/Cooling.cpp - CM cooling solvers --------------------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "system/Cooling.h"

#include "fluids/Fluid.h"
#include "hydraulics/Components.h"
#include "hydraulics/HeatExchanger.h"
#include "support/Numerics.h"
#include "support/StringUtils.h"
#include "system/Module.h"
#include "telemetry/Telemetry.h"
#include "thermal/Interface.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace rcs;
using namespace rcs::rcsystem;

const char *rcs::rcsystem::coolingKindName(CoolingKind Kind) {
  switch (Kind) {
  case CoolingKind::ForcedAir:
    return "forced air";
  case CoolingKind::ColdPlate:
    return "cold plate (closed loop)";
  case CoolingKind::Immersion:
    return "immersion (open loop)";
  }
  assert(false && "unknown cooling kind");
  return "?";
}

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

std::unique_ptr<fluids::Fluid>
rcs::rcsystem::makeCoolant(ImmersionCoolingConfig::Coolant Kind) {
  switch (Kind) {
  case ImmersionCoolingConfig::Coolant::WhiteMineralOil:
    return fluids::makeWhiteMineralOil();
  case ImmersionCoolingConfig::Coolant::MineralOilMd45:
    return fluids::makeMineralOilMd45();
  case ImmersionCoolingConfig::Coolant::EngineeredDielectric:
    return fluids::makeEngineeredDielectric();
  }
  assert(false && "unknown coolant kind");
  return nullptr;
}

thermal::ThermalInterface
rcs::rcsystem::makeTim(ImmersionCoolingConfig::TimKind Kind, double AreaM2) {
  switch (Kind) {
  case ImmersionCoolingConfig::TimKind::SiliconeGrease:
    return thermal::ThermalInterface::makeSiliconeGrease(AreaM2);
  case ImmersionCoolingConfig::TimKind::SkatInterface:
    return thermal::ThermalInterface::makeSkatInterface(AreaM2);
  case ImmersionCoolingConfig::TimKind::GraphitePad:
    return thermal::ThermalInterface::makeGraphitePad(AreaM2);
  }
  assert(false && "unknown TIM kind");
  return thermal::ThermalInterface::makeSkatInterface(AreaM2);
}

/// Aggregates the losses of the module's PSUs, each of them \p Psu, for
/// the IT load split across them.
static double psuLossW(const ModuleConfig &Module, const PowerSupplyUnit &Psu,
                       double ItPowerW) {
  int Count = std::max(Module.NumPsus, 1);
  return Count * Psu.lossW(ItPowerW / Count);
}

/// Folds one module solve's junction-temperature solves into the ledger.
static void countJunctionSolves(uint64_t Solves) {
  static telemetry::Counter &Count =
      telemetry::Registry::global().counter("system.module.junction_solves");
  Count.add(Solves);
}

/// Fills per-report temperature limit flags and warnings.
static void finalizeLimits(const fpga::FpgaSpec &Spec,
                           ModuleThermalReport &Report) {
  Report.WithinReliableLimit =
      Report.MaxJunctionTempC <= Spec.ReliableJunctionTempC;
  Report.WithinAbsoluteLimit =
      Report.MaxJunctionTempC <= Spec.MaxJunctionTempC;
  if (!Report.WithinAbsoluteLimit)
    Report.Warnings.push_back(formatString(
        "junction %.1f C exceeds the absolute limit %.1f C",
        Report.MaxJunctionTempC, Spec.MaxJunctionTempC));
  else if (!Report.WithinReliableLimit)
    Report.Warnings.push_back(formatString(
        "junction %.1f C exceeds the long-life limit %.1f C",
        Report.MaxJunctionTempC, Spec.ReliableJunctionTempC));
}

//===----------------------------------------------------------------------===//
// Forced air
//===----------------------------------------------------------------------===//

Expected<ModuleThermalReport>
rcs::rcsystem::solveAirCooledModule(const ModuleConfig &Module,
                                    const ExternalConditions &Conditions,
                                    const fpga::WorkloadPoint &Load) {
  const AirCoolingConfig &Cfg = Module.Air;
  if (Cfg.AirflowM3PerS <= 0.0 || Cfg.FlowAreaM2 <= 0.0)
    return Expected<ModuleThermalReport>::error(
        "air cooling requires positive airflow and flow area");

  Ccb Board(Module.Board);
  const fpga::FpgaSpec &Spec = Board.fpgaSpec();
  fpga::FpgaPowerModel PowerModel(Spec);
  auto Air = fluids::makeAir();
  thermal::PlateFinHeatSink Sink("air sink", Cfg.SinkGeometry);

  double PackageArea = Spec.PackageSizeM * Spec.PackageSizeM;
  double TimR =
      thermal::ThermalInterface::makeSiliconeGrease(PackageArea)
          .freshResistanceKPerW() *
      Cfg.TimResistanceScale;

  double DuctVelocity = Cfg.AirflowM3PerS / Cfg.FlowAreaM2;
  double LaneFlow = Cfg.AirflowM3PerS / Module.NumCcbs;
  double Inlet = Conditions.AmbientAirTempC;

  // Each board's air lane preheats along the chip rows: the front row sees
  // a quarter of the lane rise, the back row three quarters.
  int FrontRow = (Board.computeFpgaCount() + 1) / 2;
  int BackRow = Board.computeFpgaCount() - FrontRow;

  double BoardHeat =
      Board.computeFpgaCount() * Spec.DynamicPowerMaxW; // Initial guess.
  double TjFront = 0.0, TjBack = 0.0, PFront = 0.0, PBack = 0.0;
  double RFront = 0.0, RBack = 0.0;
  double FrontRef = Inlet, BackRef = Inlet;
  uint64_t JunctionSolves = 0;
  for (int Iter = 0; Iter != 100; ++Iter) {
    double MeanAir = Inlet + 0.5 * BoardHeat / 500.0; // Mild estimate.
    double RhoCp = Air->volumetricHeatCapacityJPerM3K(MeanAir);
    double LaneRise = BoardHeat / (RhoCp * LaneFlow);
    FrontRef = Inlet + 0.25 * LaneRise;
    BackRef = Inlet + 0.75 * LaneRise;

    RFront = Spec.ThetaJcKPerW + TimR +
             Sink.thermalResistanceKPerW(*Air, FrontRef, DuctVelocity,
                                         FrontRef + 25.0);
    RBack = Spec.ThetaJcKPerW + TimR +
            Sink.thermalResistanceKPerW(*Air, BackRef, DuctVelocity,
                                        BackRef + 25.0);
    TjFront = PowerModel.solveJunctionTempC(Load, RFront, FrontRef);
    TjBack = PowerModel.solveJunctionTempC(Load, RBack, BackRef);
    JunctionSolves += 2;
    PFront = PowerModel.totalPowerW(Load, TjFront);
    PBack = PowerModel.totalPowerW(Load, TjBack);

    double NewBoardHeat = FrontRow * PFront + BackRow * PBack +
                          Board.nonFpgaPowerW(Load, TjBack);
    if (std::fabs(NewBoardHeat - BoardHeat) < 1e-7)
      break;
    BoardHeat = 0.5 * BoardHeat + 0.5 * NewBoardHeat;
  }
  countJunctionSolves(JunctionSolves);

  ModuleThermalReport Report;
  Report.FpgaHeatW =
      Module.NumCcbs * (FrontRow * PFront + BackRow * PBack);
  Report.MiscHeatW = Module.NumCcbs * Board.nonFpgaPowerW(Load, TjBack);
  Report.ItPowerW = Report.FpgaHeatW + Report.MiscHeatW;
  Report.PsuLossW =
      psuLossW(Module, PowerSupplyUnit::makeAirCooledPsu(Module.PsuRatedPowerW),
               Report.ItPowerW);
  Report.FanPowerW = Cfg.FanSpecificPowerWPerM3PerS * Cfg.AirflowM3PerS;
  Report.TotalHeatW = Report.ItPowerW + Report.PsuLossW + Report.FanPowerW;

  double RhoCp = Air->volumetricHeatCapacityJPerM3K(Inlet + 5.0);
  Report.CoolantColdTempC = Inlet;
  Report.CoolantHotTempC =
      Inlet + Report.TotalHeatW / (RhoCp * Cfg.AirflowM3PerS);
  Report.CoolantFlowM3PerS = Cfg.AirflowM3PerS;
  Report.ApproachVelocityMPerS = DuctVelocity;
  Report.MaxJunctionTempC = std::max(TjFront, TjBack);
  Report.MeanJunctionTempC =
      (FrontRow * TjFront + BackRow * TjBack) / Board.computeFpgaCount();

  for (int B = 0; B != Module.NumCcbs; ++B) {
    Report.PerBoardCoolantTempC.push_back(BackRef);
    for (int I = 0; I != Board.computeFpgaCount(); ++I) {
      FpgaThermalState State;
      bool IsFront = I < FrontRow;
      State.JunctionTempC = IsFront ? TjFront : TjBack;
      State.PowerW = IsFront ? PFront : PBack;
      State.LocalCoolantTempC = IsFront ? FrontRef : BackRef;
      State.TotalResistanceKPerW = IsFront ? RFront : RBack;
      State.BoardIndex = B;
      Report.Fpgas.push_back(State);
    }
  }
  finalizeLimits(Spec, Report);
  return Report;
}

//===----------------------------------------------------------------------===//
// Cold plate (closed loop)
//===----------------------------------------------------------------------===//

Expected<ModuleThermalReport>
rcs::rcsystem::solveColdPlateModule(const ModuleConfig &Module,
                                    const ExternalConditions &Conditions,
                                    const fpga::WorkloadPoint &Load) {
  const ColdPlateCoolingConfig &Cfg = Module.ColdPlate;
  if (Cfg.WaterFlowM3PerS <= 0.0)
    return Expected<ModuleThermalReport>::error(
        "cold plate cooling requires positive water flow");

  Ccb Board(Module.Board);
  const fpga::FpgaSpec &Spec = Board.fpgaSpec();
  fpga::FpgaPowerModel PowerModel(Spec);
  auto Water = fluids::makeWater();

  double PackageArea = Spec.PackageSizeM * Spec.PackageSizeM;
  double TimR = thermal::ThermalInterface::makeSiliconeGrease(PackageArea)
                    .freshResistanceKPerW();
  double RTotal = Spec.ThetaJcKPerW + TimR + Cfg.PlateResistanceKPerW;

  // Boards receive water in parallel; a board's plates run in series, so
  // chip i sees water preheated by chips 0..i-1.
  double BoardFlow = Cfg.WaterFlowM3PerS / Module.NumCcbs;
  double Inlet = Conditions.WaterInletTempC;
  double BoardCapacity = hydraulics::PlateHeatExchanger::capacityRateWPerK(
      *Water, BoardFlow, Inlet + 5.0);

  const int N = Board.computeFpgaCount();
  std::vector<double> ChipPower(N, Spec.DynamicPowerMaxW);
  std::vector<double> ChipTj(N, Inlet + 20.0);
  std::vector<double> LocalWater(N, Inlet);
  uint64_t JunctionSolves = 0;
  for (int Iter = 0; Iter != 100; ++Iter) {
    double Cumulative = 0.0;
    double MaxChange = 0.0;
    for (int I = 0; I != N; ++I) {
      LocalWater[I] = Inlet + (Cumulative + 0.5 * ChipPower[I]) /
                                  BoardCapacity;
      double Tj = PowerModel.solveJunctionTempC(Load, RTotal, LocalWater[I]);
      ++JunctionSolves;
      double P = PowerModel.totalPowerW(Load, Tj);
      MaxChange = std::max(MaxChange, std::fabs(P - ChipPower[I]));
      ChipTj[I] = Tj;
      ChipPower[I] = P;
      Cumulative += P;
    }
    if (MaxChange < 1e-7)
      break;
  }
  countJunctionSolves(JunctionSolves);

  ModuleThermalReport Report;
  double BoardFpgaHeat = 0.0;
  for (double P : ChipPower)
    BoardFpgaHeat += P;
  Report.FpgaHeatW = Module.NumCcbs * BoardFpgaHeat;
  Report.MiscHeatW =
      Module.NumCcbs * Board.nonFpgaPowerW(Load, ChipTj.back());
  Report.ItPowerW = Report.FpgaHeatW + Report.MiscHeatW;
  Report.PsuLossW =
      psuLossW(Module, PowerSupplyUnit::makeAirCooledPsu(Module.PsuRatedPowerW),
               Report.ItPowerW);
  Report.PumpPowerW = Cfg.PumpPowerW;
  Report.TotalHeatW = Report.ItPowerW + Report.PsuLossW + Report.PumpPowerW;

  // Only the plate-captured heat leaves by water; misc and PSU heat go to
  // the room air (a known weakness of per-chip plates).
  double PlateHeat = Report.FpgaHeatW;
  double TotalCapacity = hydraulics::PlateHeatExchanger::capacityRateWPerK(
      *Water, Cfg.WaterFlowM3PerS, Inlet + 5.0);
  Report.CoolantColdTempC = Inlet;
  Report.CoolantHotTempC = Inlet + PlateHeat / TotalCapacity;
  Report.WaterOutletTempC = Report.CoolantHotTempC;
  Report.CoolantFlowM3PerS = Cfg.WaterFlowM3PerS;
  Report.HxDutyW = PlateHeat;

  double SumTj = 0.0;
  for (int B = 0; B != Module.NumCcbs; ++B) {
    Report.PerBoardCoolantTempC.push_back(LocalWater.back());
    for (int I = 0; I != N; ++I) {
      FpgaThermalState State;
      State.JunctionTempC = ChipTj[I];
      State.PowerW = ChipPower[I];
      State.LocalCoolantTempC = LocalWater[I];
      State.TotalResistanceKPerW = RTotal;
      State.BoardIndex = B;
      Report.Fpgas.push_back(State);
      if (B == 0)
        SumTj += ChipTj[I];
    }
  }
  Report.MaxJunctionTempC =
      *std::max_element(ChipTj.begin(), ChipTj.end());
  Report.MeanJunctionTempC = SumTj / N;
  finalizeLimits(Spec, Report);
  return Report;
}

//===----------------------------------------------------------------------===//
// Immersion (open loop)
//===----------------------------------------------------------------------===//

Expected<ModuleThermalReport>
rcs::rcsystem::solveImmersionModule(const ModuleConfig &Module,
                                    const ExternalConditions &Conditions,
                                    const fpga::WorkloadPoint &Load) {
  const ImmersionCoolingConfig &Cfg = Module.Immersion;
  if (Cfg.BathFlowAreaM2 <= 0.0)
    return Expected<ModuleThermalReport>::error(
        "immersion cooling requires a positive bath flow area");

  Ccb Board(Module.Board);
  const fpga::FpgaSpec &Spec = Board.fpgaSpec();
  fpga::FpgaPowerModel PowerModel(Spec);
  auto Oil = makeCoolant(Cfg.CoolantKind);
  auto Water = fluids::makeWater();
  thermal::PinFinHeatSink Sink("immersion sink", Cfg.SinkGeometry);

  double PackageArea = Spec.PackageSizeM * Spec.PackageSizeM;
  thermal::ThermalInterface Tim = makeTim(Cfg.Tim, PackageArea);
  double TimR = Tim.resistanceKPerW(Cfg.TimExposureHours);

  // --- Oil loop hydraulic operating point -------------------------------
  // N identical pumps in parallel push the loop flow through the HX oil
  // side and the bath; solve head(Q/N) == loss(Q).
  hydraulics::Pump OilPump = hydraulics::Pump::makeOilCirculationPump(
      "CM oil pump", Cfg.PumpRatedFlowM3PerS, Cfg.PumpRatedHeadPa);
  hydraulics::HeatExchangerPressureSide HxSide(Cfg.HxOilRatedFlowM3PerS,
                                               Cfg.HxOilRatedDropPa);
  const int Pumps = std::max(Cfg.NumPumps, 1);
  double OilTempGuess = 30.0;
  auto LoopImbalance = [&](double Q) {
    double Velocity = Q / Cfg.BathFlowAreaM2;
    double BathDrop = Cfg.BathLossCoefficient * 0.5 *
                      Oil->densityKgPerM3(OilTempGuess) * Velocity *
                      Velocity;
    return OilPump.headPa(Q / Pumps) -
           HxSide.pressureDropPa(Q, *Oil, OilTempGuess) - BathDrop;
  };
  // Expand the bracket until the loop resistance overcomes the
  // (extrapolated) pump head; undersized pumps run beyond their rated
  // point.
  double QMax = Pumps * 1.6 * Cfg.PumpRatedFlowM3PerS;
  for (int Attempt = 0; Attempt != 40 && LoopImbalance(QMax) > 0.0;
       ++Attempt)
    QMax *= 1.5;
  Expected<double> OilFlow = findRootBrent(LoopImbalance, 1e-8, QMax);
  if (!OilFlow)
    return Expected<ModuleThermalReport>::error(
        "oil loop has no operating point: " + OilFlow.message());
  double Q = *OilFlow;
  double ApproachVelocity = Q / Cfg.BathFlowAreaM2;
  double PumpHydraulicW = Q * std::max(OilPump.headPa(Q / Pumps), 0.0);
  double PumpElectricalW = Pumps * OilPump.electricalPowerW(Q / Pumps);

  // --- Coupled heat / temperature fixed point ---------------------------
  // Boards fed in parallel share oil, flow, sink, TIM, load and seed, so one
  // state stands for all of them; in series each board is its own class.
  // Sums still add one term per board, in board order, to keep the bits.
  const int N = Board.computeFpgaCount();
  const int Boards = Module.NumCcbs;
  const bool Parallel =
      Cfg.Distribution ==
      ImmersionCoolingConfig::OilDistribution::ParallelAcrossBoards;
  const int Classes = Parallel ? 1 : Boards;
  auto classOf = [&](int B) { return Parallel ? 0 : B; };
  double CWater = hydraulics::PlateHeatExchanger::capacityRateWPerK(
      *Water, Conditions.WaterFlowM3PerS, Conditions.WaterInletTempC + 4.0);
  if (CWater <= 0.0)
    return Expected<ModuleThermalReport>::error(
        "immersion module needs primary water flow at its heat exchanger");
  hydraulics::PlateHeatExchanger Hx("CM oil/water HX", Cfg.HxUaWPerK);

  double TotalHeat =
      Boards * (N * Spec.DynamicPowerMaxW + Module.Board.MiscPowerW);
  double OilCold = Conditions.WaterInletTempC + 5.0;
  std::vector<double> BoardChipPower(Classes, Spec.DynamicPowerMaxW);
  std::vector<double> BoardLocal(Classes), BoardTj(Classes), BoardR(Classes);

  const PowerSupplyUnit Psu("immersion DC/DC 380/12", Module.PsuRatedPowerW,
                            /*Immersible=*/true);
  double PsuLoss = 0.0;
  uint64_t JunctionSolves = 0;
  for (int Iter = 0; Iter != 120; ++Iter) {
    double MeanOil = OilCold + 2.0;
    double COil = Q * Oil->densityKgPerM3(MeanOil) *
                  Oil->specificHeatJPerKgK(MeanOil);
    double CMin = std::min(COil, CWater);
    double CMax = std::max(COil, CWater);
    double Cr = CMin / CMax;
    double Ntu = Cfg.HxUaWPerK / CMin;
    double Eps = 0.0;
    if (std::fabs(1.0 - Cr) < 1e-9) {
      Eps = Ntu / (1.0 + Ntu);
    } else {
      double E = std::exp(-Ntu * (1.0 - Cr));
      Eps = (1.0 - E) / (1.0 - Cr * E);
    }
    // Steady state: all oil-side heat crosses the HX.
    OilCold = Conditions.WaterInletTempC +
              TotalHeat * (1.0 / (Eps * CMin) - 1.0 / COil);
    OilTempGuess = OilCold + TotalHeat / COil;

    // Oil distribution: a class's inlet carries the rise of those upstream.
    double MaxChange = 0.0;
    double Cumulative = 0.0;
    double CBoard = (Parallel ? Q / Boards : Q) *
                    Oil->densityKgPerM3(OilCold + 2.0) *
                    Oil->specificHeatJPerKgK(OilCold + 2.0);
    for (int K = 0; K != Classes; ++K) {
      double Rise =
          (N * BoardChipPower[K] + Module.Board.MiscPowerW) / CBoard;
      BoardLocal[K] = OilCold + Cumulative + 0.5 * Rise;
      Cumulative += Rise;
      double SinkR = Sink.thermalResistanceKPerW(
          *Oil, BoardLocal[K], ApproachVelocity, BoardLocal[K] + 20.0);
      BoardR[K] = Spec.ThetaJcKPerW + TimR + SinkR;
      double Tj =
          PowerModel.solveJunctionTempC(Load, BoardR[K], BoardLocal[K]);
      ++JunctionSolves;
      double P = PowerModel.totalPowerW(Load, Tj);
      MaxChange = std::max(MaxChange, std::fabs(P - BoardChipPower[K]));
      BoardTj[K] = Tj;
      BoardChipPower[K] = P;
    }

    double ItPower = 0.0;
    for (int B = 0; B != Boards; ++B)
      ItPower += N * BoardChipPower[classOf(B)] + Module.Board.MiscPowerW;
    PsuLoss = psuLossW(Module, Psu, ItPower);
    // Pump heat: hydraulic work always dissipates in the oil; motor
    // losses join it only for the immersed-pump (SKAT+) design.
    double PumpHeat =
        Cfg.ImmersedPumps ? PumpElectricalW : PumpHydraulicW;
    double NewTotal = ItPower + PsuLoss + PumpHeat;
    bool HeatConverged = std::fabs(NewTotal - TotalHeat) < 1e-6;
    TotalHeat = 0.5 * TotalHeat + 0.5 * NewTotal;
    if (HeatConverged && MaxChange < 1e-7)
      break;
  }
  countJunctionSolves(JunctionSolves);

  ModuleThermalReport Report;
  double FpgaHeat = 0.0, SumTj = 0.0, MaxTj = -1e9;
  for (int B = 0; B != Boards; ++B) {
    const int K = classOf(B);
    FpgaHeat += N * BoardChipPower[K];
    Report.PerBoardCoolantTempC.push_back(BoardLocal[K]);
    SumTj += BoardTj[K];
    MaxTj = std::max(MaxTj, BoardTj[K]);
    for (int I = 0; I != N; ++I) {
      FpgaThermalState State;
      State.JunctionTempC = BoardTj[K];
      State.PowerW = BoardChipPower[K];
      State.LocalCoolantTempC = BoardLocal[K];
      State.TotalResistanceKPerW = BoardR[K];
      State.BoardIndex = B;
      Report.Fpgas.push_back(State);
    }
  }
  Report.FpgaHeatW = FpgaHeat;
  Report.MiscHeatW = Boards * Module.Board.MiscPowerW;
  Report.ItPowerW = Report.FpgaHeatW + Report.MiscHeatW;
  Report.PsuLossW = PsuLoss;
  Report.PumpPowerW = PumpElectricalW;
  Report.TotalHeatW = TotalHeat;
  Report.CoolantFlowM3PerS = Q;
  Report.ApproachVelocityMPerS = ApproachVelocity;
  Report.CoolantColdTempC = OilCold;

  double MeanOil = OilCold + 2.0;
  double COil =
      Q * Oil->densityKgPerM3(MeanOil) * Oil->specificHeatJPerKgK(MeanOil);
  Report.CoolantHotTempC = OilCold + TotalHeat / COil;
  auto Exchange = Hx.transfer(Report.CoolantHotTempC, COil,
                              Conditions.WaterInletTempC, CWater);
  Report.HxDutyW = Exchange.DutyW;
  Report.HxEffectiveness = Exchange.Effectiveness;
  Report.WaterOutletTempC = Exchange.ColdOutletTempC;
  Report.MaxJunctionTempC = MaxTj;
  Report.MeanJunctionTempC = SumTj / Boards;
  if (Report.CoolantHotTempC > Oil->maxOperatingTempC())
    Report.Warnings.push_back(
        formatString("coolant %.1f C exceeds its operating limit %.1f C",
                     Report.CoolantHotTempC, Oil->maxOperatingTempC()));
  finalizeLimits(Spec, Report);
  return Report;
}
