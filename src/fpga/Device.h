//===- fpga/Device.h - FPGA device database ---------------------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Device models for the FPGA generations the paper tracks: the Virtex-6
/// parts of the Rigel-2 module, the Virtex-7 parts of Taygeta, the Kintex
/// UltraScale XCKU095 of the SKAT module, the UltraScale+ parts planned for
/// SKAT+, and a projected "UltraScale 2" future family the conclusions
/// mention.
///
/// Electrical and thermal parameters are calibrated against the paper's
/// reported operating points (see DESIGN.md): ~33 W per Virtex-6 and ~45 W
/// per Virtex-7 in operating mode, 91 W measured per XCKU095, "up to
/// 100 W" for Virtex UltraScale class parts.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_FPGA_DEVICE_H
#define RCS_FPGA_DEVICE_H

#include <string>

namespace rcs {
namespace fpga {

/// FPGA family generations discussed in the paper.
enum class FpgaFamily {
  Virtex6,        ///< 40 nm (Rigel-2).
  Virtex7,        ///< 28 nm (Taygeta).
  KintexUltraScale, ///< 20 nm (SKAT).
  UltraScalePlus, ///< 16 nm FinFET+ (SKAT+).
  UltraScale2     ///< Projected next generation.
};

/// Concrete device models used across the paper's systems.
enum class FpgaModel {
  XC6VLX240T, ///< Rigel-2 computational FPGA.
  XC7VX485T,  ///< Taygeta computational FPGA.
  XCKU095,    ///< SKAT computational FPGA.
  XCVU9P,     ///< SKAT+ class UltraScale+ FPGA.
  UltraScale2 ///< Projected future part (paper Section 5).
};

/// Static description of one FPGA device.
struct FpgaSpec {
  std::string Name;
  FpgaFamily Family = FpgaFamily::Virtex6;
  int ProcessNm = 40;
  int LogicKCells = 0;
  int DspSlices = 0;
  /// Flip-chip package edge length (the paper: 42.5 mm for UltraScale,
  /// 45 mm for UltraScale+, which forces the CCB redesign).
  double PackageSizeM = 0.0425;
  /// Junction-to-case resistance of the lidded flip-chip package.
  double ThetaJcKPerW = 0.10;
  /// Leakage power at 25 C junction temperature, W.
  double StaticPower25W = 4.0;
  /// Dynamic power at 100% utilization and nominal clock, W.
  double DynamicPowerMaxW = 30.0;
  /// Absolute maximum junction temperature (commercial grade).
  double MaxJunctionTempC = 85.0;
  /// The paper's "permissible temperature of FPGA functioning providing
  /// high reliability during a long operation period".
  double ReliableJunctionTempC = 70.0;
  /// Peak single-precision-equivalent throughput at nominal clock.
  double PeakGflops = 0.0;
  /// Nominal fabric clock in MHz.
  double NominalClockMHz = 200.0;
};

/// Returns the spec for \p Model (database lookup, always succeeds).
const FpgaSpec &getFpgaSpec(FpgaModel Model);

/// Human-readable family name.
const char *familyName(FpgaFamily Family);

/// Returns the model one generation after \p Model (saturates at the
/// newest projected family); used by the family-scaling experiment E3.
FpgaModel nextGeneration(FpgaModel Model);

} // namespace fpga
} // namespace rcs

#endif // RCS_FPGA_DEVICE_H
