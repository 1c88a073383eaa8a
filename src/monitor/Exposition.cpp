//===- monitor/Exposition.cpp - Prometheus and JSONL metric export ------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "monitor/Exposition.h"

#include "telemetry/Json.h"

#include <cctype>

using namespace rcs;
using namespace rcs::monitor;
using telemetry::HistogramSnapshot;
using telemetry::MetricsSnapshot;
using telemetry::SpanStats;

std::string rcs::monitor::prometheusName(std::string_view Name) {
  std::string Out;
  Out.reserve(Name.size() + 1);
  for (char C : Name) {
    unsigned char U = static_cast<unsigned char>(C);
    Out += std::isalnum(U) || C == '_' || C == ':'
               ? C
               : '_';
  }
  if (Out.empty() || std::isdigit(static_cast<unsigned char>(Out[0])))
    Out.insert(Out.begin(), '_');
  return Out;
}

namespace {

/// Prometheus sample values: plain decimal, `NaN`/`+Inf`/`-Inf` spelled
/// out (unlike JSON, the text format can represent them).
std::string promNumber(double Value) {
  if (Value != Value)
    return "NaN";
  if (Value > 1.7976931348623157e308)
    return "+Inf";
  if (Value < -1.7976931348623157e308)
    return "-Inf";
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
  return Buffer;
}

void renderSummary(std::string &Out, const std::string &Base,
                   double P50, double P95, double P99, double Sum,
                   uint64_t Count) {
  Out += "# TYPE " + Base + " summary\n";
  Out += Base + "{quantile=\"0.5\"} " + promNumber(P50) + "\n";
  Out += Base + "{quantile=\"0.95\"} " + promNumber(P95) + "\n";
  Out += Base + "{quantile=\"0.99\"} " + promNumber(P99) + "\n";
  Out += Base + "_sum " + promNumber(Sum) + "\n";
  Out += Base + "_count " + std::to_string(Count) + "\n";
}

} // namespace

void rcs::monitor::updateSolverGauges(telemetry::Registry &Reg) {
  auto Ratio = [](uint64_t Num, uint64_t Den) {
    return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
  };
  uint64_t Reuses = Reg.counter("thermal.network.factor_reuses").value();
  uint64_t Factorizations =
      Reg.counter("thermal.network.factorizations").value();
  Reg.gauge("thermal.factor_cache.hit_rate")
      .set(Ratio(Reuses, Reuses + Factorizations));

  uint64_t Solves = Reg.counter("hydraulics.flow.solves").value();
  Reg.gauge("hydraulics.newton.mean_iterations")
      .set(Ratio(Reg.counter("hydraulics.newton.iterations").value(), Solves));
  Reg.gauge("hydraulics.newton.fallback_rate")
      .set(Ratio(Reg.counter("hydraulics.newton.analytic_fallbacks").value(),
                 Solves));
  Reg.gauge("hydraulics.newton.warm_start_rate")
      .set(Ratio(Reg.counter("hydraulics.newton.warm_starts").value(),
                 Solves));
}

std::string
rcs::monitor::renderPrometheus(const MetricsSnapshot &Snapshot,
                               std::string_view Prefix) {
  std::string P = prometheusName(Prefix);
  std::string Out;

  for (const auto &[Name, Value] : Snapshot.Counters) {
    std::string Base = P + "_" + prometheusName(Name) + "_total";
    Out += "# TYPE " + Base + " counter\n";
    Out += Base + " " + std::to_string(Value) + "\n";
  }

  for (const auto &[Name, Value] : Snapshot.Gauges) {
    std::string Base = P + "_" + prometheusName(Name);
    Out += "# TYPE " + Base + " gauge\n";
    Out += Base + " " + promNumber(Value) + "\n";
  }

  for (const auto &[Name, H] : Snapshot.Histograms)
    renderSummary(Out, P + "_" + prometheusName(Name), H.P50, H.P95,
                  H.P99, H.Sum, H.Count);

  // Timers store no distribution, only their extremes: expose min and max
  // as the 0 and 1 quantiles of a summary. The mean is _sum / _count; it
  // is not a median, so no 0.5 sample is claimed.
  for (const auto &[Label, S] : Snapshot.Timers) {
    std::string Base = P + "_" + prometheusName(Label) + "_seconds";
    Out += "# TYPE " + Base + " summary\n";
    Out += Base + "{quantile=\"0\"} " + promNumber(S.MinS) + "\n";
    Out += Base + "{quantile=\"1\"} " + promNumber(S.MaxS) + "\n";
    Out += Base + "_sum " + promNumber(S.TotalS) + "\n";
    Out += Base + "_count " + std::to_string(S.Count) + "\n";
  }
  return Out;
}

Status rcs::monitor::writePrometheusFile(const telemetry::Registry &Reg,
                                         const std::string &Path,
                                         std::string_view Prefix) {
  std::string Body = renderPrometheus(Reg.snapshotMetrics(), Prefix);
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return Status::error("cannot open prometheus file '" + Path + "'");
  size_t Written = std::fwrite(Body.data(), 1, Body.size(), Out);
  bool Ok = Written == Body.size() && std::fclose(Out) == 0;
  if (!Ok)
    return Status::error("short write to prometheus file '" + Path + "'");
  return Status::ok();
}

std::string
rcs::monitor::renderSnapshotLine(const MetricsSnapshot &Snapshot,
                                 double TimeS) {
  using telemetry::jsonNumber;
  using telemetry::jsonQuote;
  std::string Out = "{\"t_s\": " + jsonNumber(TimeS) + ", \"counters\": {";
  bool First = true;
  for (const auto &[Name, Value] : Snapshot.Counters) {
    Out += First ? "" : ", ";
    First = false;
    Out += jsonQuote(Name) + ": " + std::to_string(Value);
  }
  Out += "}, \"gauges\": {";
  First = true;
  for (const auto &[Name, Value] : Snapshot.Gauges) {
    Out += First ? "" : ", ";
    First = false;
    Out += jsonQuote(Name) + ": " + jsonNumber(Value);
  }
  Out += "}, \"histograms\": {";
  First = true;
  for (const auto &[Name, H] : Snapshot.Histograms) {
    Out += First ? "" : ", ";
    First = false;
    Out += jsonQuote(Name) + ": {\"count\": " + std::to_string(H.Count) +
           ", \"mean\": " + jsonNumber(H.Mean) +
           ", \"p50\": " + jsonNumber(H.P50) +
           ", \"p95\": " + jsonNumber(H.P95) +
           ", \"p99\": " + jsonNumber(H.P99) + "}";
  }
  Out += "}, \"timers\": {";
  First = true;
  for (const auto &[Label, S] : Snapshot.Timers) {
    Out += First ? "" : ", ";
    First = false;
    Out += jsonQuote(Label) + ": {\"count\": " + std::to_string(S.Count) +
           ", \"total_s\": " + jsonNumber(S.TotalS) + "}";
  }
  Out += "}}";
  return Out;
}

SnapshotWriter::SnapshotWriter(std::string PathIn, double PeriodSIn,
                               telemetry::Registry *RegIn)
    : Path(std::move(PathIn)), PeriodS(PeriodSIn),
      Reg(RegIn ? RegIn : &telemetry::Registry::global()) {
  Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    OpenStatus =
        Status::error("cannot open snapshot file '" + Path + "'");
}

SnapshotWriter::~SnapshotWriter() { (void)close(); }

Status SnapshotWriter::maybeSample(double SimTimeS) {
  if (Started && SimTimeS < NextSampleTimeS)
    return Status::ok();
  Started = true;
  NextSampleTimeS = SimTimeS + PeriodS;
  return sample(SimTimeS);
}

Status SnapshotWriter::sample(double SimTimeS) {
  if (!Out)
    return OpenStatus.isOk()
               ? Status::error("snapshot file already closed")
               : OpenStatus;
  updateSolverGauges(*Reg);
  std::string Line =
      renderSnapshotLine(Reg->snapshotMetrics(), SimTimeS) + "\n";
  if (std::fwrite(Line.data(), 1, Line.size(), Out) != Line.size())
    return Status::error("short write to snapshot file '" + Path + "'");
  ++NumSnapshots;
  Reg->counter("monitor.exposition.snapshots").add();
  return Status::ok();
}

Status SnapshotWriter::close() {
  if (!Out)
    return Status::ok();
  bool Ok = std::fflush(Out) == 0 && !std::ferror(Out);
  Ok = std::fclose(Out) == 0 && Ok;
  Out = nullptr;
  return Ok ? Status::ok()
            : Status::error("error writing snapshot file '" + Path + "'");
}
