//===- tools/check_trace.cpp - Trace/metrics JSON validator -------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates observability artifacts the simulator emits:
///
///   check_trace <file>...
///
/// The file kind is auto-detected:
///
///  - flight-recorder dumps (JSONL with a `flight_recorder_header` first
///    line): header schema, one frame per remaining line, per-frame value
///    counts matching the channel list, strictly monotonic frame times,
///    and a trigger time bracketed by the dumped window;
///  - fault-event traces (JSONL with a `fault_trace_header` first line,
///    see faults/Trace.h): header identity/count checks, chronological
///    event lines with known verbs, and model names on inject/clear;
///  - OTLP-style span traces (JSONL with a `span_trace_header` first
///    line, see telemetry/Span.h): hex trace/span ids of the right
///    width, end >= start on every span, parent ids that resolve to a
///    span in the same file, and at least one span;
///  - profiler reports (a JSON document with the `skatsim-profile-v1`
///    schema marker, written by `skatsim profile`): call-tree
///    invariants — self <= total, children's total bounded by the
///    parent's, min <= max — checked on every node;
///  - physics-audit streams (JSONL with an `audit_trace_header` first
///    line, see audit/Audit.h): header schema and invariant list,
///    chronological `audit_sample` lines with non-negative fractions,
///    well-formed `audit_alarm` transitions, and a closing
///    `audit_summary` line;
///  - physics-audit reports (a JSON document with the `skatsim-audit-v1`
///    schema marker, written by `skatsim audit`): five invariant
///    entries with mean <= max drift, budget-consistent verdicts, and a
///    convergence block;
///  - service request streams (JSONL whose first line is a
///    `service_request` object, see service/Protocol.h): known scenario
///    types with the design/scenario fields each type requires;
///  - service response streams (JSONL with a `service_header` first line
///    carrying the `skatsim-service-v1` schema): per-line success/error
///    shape checks and a closing `service_summary` whose counts
///    reconcile with the counted response lines;
///  - bench reports (a JSON document with a `bench` name and
///    `wall_time_s`, written through telemetry::BenchReport): verdict,
///    wall time and a non-empty metrics object; the service-throughput
///    report additionally needs its throughput/ablation/latency keys;
///  - metrics snapshot streams (JSONL lines with `t_s` and `counters`):
///    valid lines with strictly increasing timestamps;
///  - Prometheus text exposition (leading `# TYPE` comment): every line a
///    well-formed comment or `name[{labels}] value` sample with names in
///    the Prometheus grammar;
///  - everything else: one JSON document (Chrome traces, metrics
///    snapshots) or JSON Lines (the JSONL sink).
///
/// Empty files and empty traces fail: an artifact that was requested but
/// captured nothing is a wiring bug, not a pass.
///
//===----------------------------------------------------------------------===//

#include "support/Numerics.h"
#include "telemetry/Json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace rcs;

namespace {

Expected<std::string> readFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return Expected<std::string>::error("cannot open '" + Path + "'");
  std::string Text;
  char Buffer[4096];
  size_t Got;
  while ((Got = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Text.append(Buffer, Got);
  bool Failed = std::ferror(File) != 0;
  std::fclose(File);
  if (Failed)
    return Expected<std::string>::error("read error on '" + Path + "'");
  return Text;
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  size_t Start = 0;
  while (Start < Text.size()) {
    size_t End = Text.find('\n', Start);
    if (End == std::string::npos)
      End = Text.size();
    if (End > Start)
      Lines.push_back(Text.substr(Start, End - Start));
    Start = End + 1;
  }
  return Lines;
}

/// Extracts the number following `"Key": ` in \p Object. The emitters
/// under test write exactly this spacing, so plain search suffices.
bool findNumber(const std::string &Object, const std::string &Key,
                double &Out) {
  std::string Needle = "\"" + Key + "\": ";
  size_t Pos = Object.find(Needle);
  if (Pos == std::string::npos)
    return false;
  const char *Start = Object.c_str() + Pos + Needle.size();
  char *End = nullptr;
  Out = std::strtod(Start, &End);
  return End != Start;
}

/// Counts the elements of the flat array following `"Key": [`.
bool countArrayItems(const std::string &Object, const std::string &Key,
                     size_t &Out) {
  std::string Needle = "\"" + Key + "\": [";
  size_t Open = Object.find(Needle);
  if (Open == std::string::npos)
    return false;
  size_t Close = Object.find(']', Open);
  if (Close == std::string::npos)
    return false;
  std::string Body =
      Object.substr(Open + Needle.size(), Close - Open - Needle.size());
  if (Body.find_first_not_of(" \t") == std::string::npos) {
    Out = 0;
    return true;
  }
  Out = 1;
  for (char C : Body)
    Out += C == ',';
  return true;
}

/// Flight-recorder dump: header line, then `frames` frame lines with
/// monotonic times and channel-count values; the trigger time must lie
/// inside the dumped window.
Status validateFlightDump(const std::vector<std::string> &Lines) {
  const std::string &Header = Lines[0];
  Status HeaderJson = telemetry::validateJson(Header);
  if (!HeaderJson.isOk())
    return Status::error("header is not valid JSON: " +
                         HeaderJson.message());
  double TriggerTime = 0.0, DeclaredFrames = 0.0;
  size_t NumChannels = 0;
  if (!findNumber(Header, "trigger_t_s", TriggerTime))
    return Status::error("header lacks trigger_t_s");
  if (!findNumber(Header, "frames", DeclaredFrames))
    return Status::error("header lacks frames");
  if (Header.find("\"reason\": ") == std::string::npos)
    return Status::error("header lacks reason");
  if (!countArrayItems(Header, "channels", NumChannels) ||
      NumChannels == 0)
    return Status::error("header lacks a channel list");

  if (Lines.size() - 1 != static_cast<size_t>(DeclaredFrames))
    return Status::error(
        "header declares " +
        std::to_string(static_cast<size_t>(DeclaredFrames)) +
        " frames but the dump holds " + std::to_string(Lines.size() - 1));

  double PrevTime = 0.0;
  for (size_t I = 1; I != Lines.size(); ++I) {
    const std::string &Line = Lines[I];
    std::string Where = "frame line " + std::to_string(I + 1);
    Status LineJson = telemetry::validateJson(Line);
    if (!LineJson.isOk())
      return Status::error(Where + " is not valid JSON: " +
                           LineJson.message());
    if (Line.find("\"kind\": \"frame\"") == std::string::npos)
      return Status::error(Where + " is not a frame object");
    double Time = 0.0;
    size_t NumValues = 0;
    if (!findNumber(Line, "t_s", Time))
      return Status::error(Where + " lacks t_s");
    if (!countArrayItems(Line, "values", NumValues))
      return Status::error(Where + " lacks values");
    if (NumValues != NumChannels)
      return Status::error(Where + " holds " + std::to_string(NumValues) +
                           " values for " + std::to_string(NumChannels) +
                           " channels");
    if (I > 1 && Time <= PrevTime)
      return Status::error(Where + " time " + std::to_string(Time) +
                           " does not advance past " +
                           std::to_string(PrevTime));
    PrevTime = Time;
  }

  double FirstTime = 0.0;
  (void)findNumber(Lines[1], "t_s", FirstTime);
  if (TriggerTime < FirstTime || TriggerTime > PrevTime)
    return Status::error("trigger time " + std::to_string(TriggerTime) +
                         " lies outside the dumped window [" +
                         std::to_string(FirstTime) + ", " +
                         std::to_string(PrevTime) + "]");
  return Status::ok();
}

/// Extracts the string following `"Key": "` in \p Object (up to the next
/// unescaped quote).
bool findString(const std::string &Object, const std::string &Key,
                std::string &Out) {
  std::string Needle = "\"" + Key + "\": \"";
  size_t Pos = Object.find(Needle);
  if (Pos == std::string::npos)
    return false;
  size_t Start = Pos + Needle.size();
  size_t End = Start;
  while (End < Object.size() &&
         (Object[End] != '"' || Object[End - 1] == '\\'))
    ++End;
  if (End >= Object.size())
    return false;
  Out = Object.substr(Start, End - Start);
  return true;
}

/// Fault-event trace (faults/Trace.h): a `fault_trace_header` line whose
/// event count matches, then chronologically non-decreasing `fault_event`
/// lines with a known event verb inside the declared duration;
/// inject/clear lines must name their fault model.
Status validateFaultTrace(const std::vector<std::string> &Lines) {
  const std::string &Header = Lines[0];
  Status HeaderJson = telemetry::validateJson(Header);
  if (!HeaderJson.isOk())
    return Status::error("header is not valid JSON: " +
                         HeaderJson.message());
  double Version = 0.0, DurationS = 0.0, DeclaredEvents = 0.0,
         Seed = 0.0;
  std::string ScenarioName;
  if (!findNumber(Header, "version", Version) || !approxEqual(Version, 1.0))
    return Status::error("header lacks version 1");
  if (!findString(Header, "scenario", ScenarioName))
    return Status::error("header lacks scenario");
  if (!findNumber(Header, "seed", Seed))
    return Status::error("header lacks seed");
  if (!findNumber(Header, "duration_s", DurationS) || DurationS <= 0.0)
    return Status::error("header lacks a positive duration_s");
  if (!findNumber(Header, "events", DeclaredEvents))
    return Status::error("header lacks events");
  if (Lines.size() - 1 != static_cast<size_t>(DeclaredEvents))
    return Status::error(
        "header declares " +
        std::to_string(static_cast<size_t>(DeclaredEvents)) +
        " events but the trace holds " + std::to_string(Lines.size() - 1));

  double PrevTime = 0.0;
  for (size_t I = 1; I != Lines.size(); ++I) {
    const std::string &Line = Lines[I];
    std::string Where = "event line " + std::to_string(I + 1);
    Status LineJson = telemetry::validateJson(Line);
    if (!LineJson.isOk())
      return Status::error(Where + " is not valid JSON: " +
                           LineJson.message());
    if (Line.find("\"kind\": \"fault_event\"") == std::string::npos)
      return Status::error(Where + " is not a fault_event object");
    double Time = 0.0;
    if (!findNumber(Line, "t_s", Time))
      return Status::error(Where + " lacks t_s");
    if (Time < 0.0 || Time > DurationS)
      return Status::error(Where + " time " + std::to_string(Time) +
                           " lies outside [0, " +
                           std::to_string(DurationS) + "]");
    if (I > 1 && Time < PrevTime)
      return Status::error(Where + " time " + std::to_string(Time) +
                           " runs backwards past " +
                           std::to_string(PrevTime));
    PrevTime = Time;
    std::string Verb, Fault;
    if (!findString(Line, "event", Verb))
      return Status::error(Where + " lacks event");
    if (Verb != "inject" && Verb != "clear" && Verb != "alarm" &&
        Verb != "action" && Verb != "trip" && Verb != "migrate")
      return Status::error(Where + " has unknown event verb '" + Verb +
                           "'");
    if (!findString(Line, "fault", Fault) || Fault.empty())
      return Status::error(Where + " lacks a fault/subject name");
    if (Verb == "inject" || Verb == "clear") {
      std::string Model;
      if (!findString(Line, "fault_kind", Model) || Model.empty())
        return Status::error(Where + " (" + Verb +
                             ") lacks fault_kind");
    }
  }
  return Status::ok();
}

/// True when \p Id is exactly \p Digits lowercase-hex characters.
bool validHexId(const std::string &Id, size_t Digits) {
  if (Id.size() != Digits)
    return false;
  for (char C : Id)
    if (!std::isxdigit(static_cast<unsigned char>(C)) ||
        std::isupper(static_cast<unsigned char>(C)))
      return false;
  return true;
}

/// OTLP-style span trace (telemetry/Span.h): a `span_trace_header` line
/// with the `skatsim-otlp-spans-v1` schema, then `span` / `span_event`
/// lines. Spans carry 32-hex trace ids and 16-hex span ids, end >= start,
/// and parent ids that resolve within the file (spans are written in
/// completion order, so resolution runs as a second pass). \p NumSpans
/// counts span lines.
Status validateSpanTrace(const std::vector<std::string> &Lines,
                         size_t &NumSpans) {
  NumSpans = 0;
  const std::string &Header = Lines[0];
  Status HeaderJson = telemetry::validateJson(Header);
  if (!HeaderJson.isOk())
    return Status::error("header is not valid JSON: " +
                         HeaderJson.message());
  std::string Schema;
  double Version = 0.0;
  if (!findString(Header, "schema", Schema) ||
      Schema != "skatsim-otlp-spans-v1")
    return Status::error("header lacks the skatsim-otlp-spans-v1 schema");
  if (!findNumber(Header, "version", Version) || !approxEqual(Version, 1.0))
    return Status::error("header lacks version 1");

  std::vector<std::string> SpanIds;
  std::vector<std::pair<size_t, std::string>> ParentRefs;
  for (size_t I = 1; I != Lines.size(); ++I) {
    const std::string &Line = Lines[I];
    std::string Where = "span line " + std::to_string(I + 1);
    Status LineJson = telemetry::validateJson(Line);
    if (!LineJson.isOk())
      return Status::error(Where + " is not valid JSON: " +
                           LineJson.message());
    if (Line.find("\"kind\": \"span_event\"") != std::string::npos)
      continue; // Instants interleave freely; only their JSON matters.
    if (Line.find("\"kind\": \"span\"") == std::string::npos)
      return Status::error(Where + " is neither a span nor a span_event");
    std::string Name, TraceId, SpanId, ParentId;
    if (!findString(Line, "name", Name) || Name.empty())
      return Status::error(Where + " lacks a name");
    if (!findString(Line, "trace_id", TraceId) || !validHexId(TraceId, 32))
      return Status::error(Where + " lacks a 32-hex trace_id");
    if (!findString(Line, "span_id", SpanId) || !validHexId(SpanId, 16))
      return Status::error(Where + " lacks a 16-hex span_id");
    if (!findString(Line, "parent_span_id", ParentId))
      return Status::error(Where + " lacks parent_span_id");
    if (!ParentId.empty() && !validHexId(ParentId, 16))
      return Status::error(Where + " has a malformed parent_span_id");
    double StartS = 0.0, EndS = 0.0, DurationS = 0.0, Depth = 0.0;
    if (!findNumber(Line, "start_s", StartS) ||
        !findNumber(Line, "end_s", EndS) ||
        !findNumber(Line, "duration_s", DurationS))
      return Status::error(Where + " lacks start_s/end_s/duration_s");
    if (EndS < StartS || DurationS < 0.0)
      return Status::error(Where + " ends before it starts");
    if (!findNumber(Line, "depth", Depth) || Depth < 0.0)
      return Status::error(Where + " lacks a non-negative depth");
    if (ParentId.empty() != (Depth < 0.5)) // depth is integral; 0 = root
      return Status::error(Where + " depth disagrees with parent_span_id");
    SpanIds.push_back(SpanId);
    if (!ParentId.empty())
      ParentRefs.emplace_back(I + 1, ParentId);
    ++NumSpans;
  }
  if (NumSpans == 0)
    return Status::error("no spans");
  for (const auto &[LineNo, ParentId] : ParentRefs) {
    bool Found = false;
    for (const std::string &Id : SpanIds)
      if (Id == ParentId) {
        Found = true;
        break;
      }
    if (!Found)
      return Status::error("span line " + std::to_string(LineNo) +
                           " references parent " + ParentId +
                           " which never completed in this trace");
  }
  return Status::ok();
}

/// Physics-audit stream (audit/Audit.h): an `audit_trace_header` line
/// with the `skatsim-audit-v1` schema and a non-empty invariant list,
/// then chronologically non-decreasing `audit_sample` lines (free to
/// interleave with `audit_alarm` transition lines), closed by exactly one
/// `audit_summary` line as the stream's last record. \p NumSamples
/// counts audit_sample lines.
Status validateAuditStream(const std::vector<std::string> &Lines,
                           size_t &NumSamples) {
  NumSamples = 0;
  const std::string &Header = Lines[0];
  Status HeaderJson = telemetry::validateJson(Header);
  if (!HeaderJson.isOk())
    return Status::error("header is not valid JSON: " +
                         HeaderJson.message());
  std::string Schema;
  size_t NumInvariants = 0;
  if (!findString(Header, "schema", Schema) || Schema != "skatsim-audit-v1")
    return Status::error("header lacks the skatsim-audit-v1 schema");
  if (!countArrayItems(Header, "invariants", NumInvariants) ||
      NumInvariants == 0)
    return Status::error("header lacks an invariant list");

  bool SawSummary = false;
  double PrevTime = 0.0;
  for (size_t I = 1; I != Lines.size(); ++I) {
    const std::string &Line = Lines[I];
    std::string Where = "audit line " + std::to_string(I + 1);
    Status LineJson = telemetry::validateJson(Line);
    if (!LineJson.isOk())
      return Status::error(Where + " is not valid JSON: " +
                           LineJson.message());
    if (SawSummary)
      return Status::error(Where + " follows the audit_summary line");
    if (Line.find("\"kind\": \"audit_summary\"") != std::string::npos) {
      double ThermalSteps = 0.0;
      if (!findNumber(Line, "thermal_steps", ThermalSteps) ||
          ThermalSteps < 0.0)
        return Status::error(Where + " lacks thermal_steps");
      if (Line.find("\"within_budget\": ") == std::string::npos)
        return Status::error(Where + " lacks within_budget");
      SawSummary = true;
      continue;
    }
    if (Line.find("\"kind\": \"audit_alarm\"") != std::string::npos) {
      std::string Sensor, From, To;
      if (!findString(Line, "sensor", Sensor) || Sensor.empty())
        return Status::error(Where + " (alarm) lacks a sensor name");
      if (!findString(Line, "from", From) || !findString(Line, "to", To) ||
          From == To)
        return Status::error(Where + " (alarm) lacks a state transition");
      continue;
    }
    if (Line.find("\"kind\": \"audit_sample\"") == std::string::npos)
      return Status::error(Where + " has an unknown record kind");
    double Time = 0.0, EnergyFraction = 0.0;
    if (!findNumber(Line, "t_s", Time))
      return Status::error(Where + " lacks t_s");
    if (NumSamples > 0 && Time < PrevTime)
      return Status::error(Where + " time " + std::to_string(Time) +
                           " runs backwards past " +
                           std::to_string(PrevTime));
    PrevTime = Time;
    if (!findNumber(Line, "energy_fraction", EnergyFraction) ||
        EnergyFraction < 0.0)
      return Status::error(Where +
                           " lacks a non-negative energy_fraction");
    if (Line.find("\"worst_level\": \"") == std::string::npos)
      return Status::error(Where + " lacks worst_level");
    ++NumSamples;
  }
  if (NumSamples == 0)
    return Status::error("no audit samples");
  if (!SawSummary)
    return Status::error("stream lacks a closing audit_summary line");
  return Status::ok();
}

/// skatsim-audit-v1 report document (`skatsim audit`): five invariant
/// entries whose statistics are internally consistent (mean <= max,
/// verdict matching the budgets) plus a convergence block. \p
/// NumInvariants counts the invariant entries.
Status validateAuditReport(const std::string &Text, size_t &NumInvariants) {
  NumInvariants = 0;
  Expected<telemetry::JsonValue> Doc = telemetry::parseJson(Text);
  if (!Doc)
    return Status::error("not valid JSON: " + Doc.message());
  const telemetry::JsonValue *Schema = Doc->find("schema");
  if (!Schema || !Schema->isString() ||
      Schema->StringValue != "skatsim-audit-v1")
    return Status::error("lacks the skatsim-audit-v1 schema");
  const telemetry::JsonValue *Command = Doc->find("command");
  if (!Command || !Command->isString() || Command->StringValue.empty())
    return Status::error("lacks the audited command name");
  const telemetry::JsonValue *WithinBudget = Doc->find("within_budget");
  if (!WithinBudget || !WithinBudget->isBool())
    return Status::error("lacks a boolean within_budget verdict");
  const telemetry::JsonValue *Invariants = Doc->find("invariants");
  if (!Invariants || !Invariants->isArray() || Invariants->Items.empty())
    return Status::error("holds no invariant entries");
  bool AnyInvariantFailed = false;
  for (const telemetry::JsonValue &Inv : Invariants->Items) {
    const telemetry::JsonValue *Name = Inv.find("name");
    if (!Name || !Name->isString() || Name->StringValue.empty())
      return Status::error("invariant entry lacks a name");
    std::string Where = "invariant '" + Name->StringValue + "'";
    const telemetry::JsonValue *Samples = Inv.find("samples");
    const telemetry::JsonValue *MaxAbs = Inv.find("max_abs");
    const telemetry::JsonValue *MeanAbs = Inv.find("mean_abs");
    const telemetry::JsonValue *MaxFraction = Inv.find("max_fraction");
    const telemetry::JsonValue *Critical = Inv.find("critical_fraction");
    const telemetry::JsonValue *EntryOk = Inv.find("within_budget");
    if (!Samples || !Samples->isNumber() || Samples->NumberValue < 0.0)
      return Status::error(Where + " lacks a sample count");
    if (!MaxAbs || !MaxAbs->isNumber() || !MeanAbs || !MeanAbs->isNumber())
      return Status::error(Where + " lacks max_abs/mean_abs");
    if (!MaxFraction || !MaxFraction->isNumber() ||
        MaxFraction->NumberValue < 0.0)
      return Status::error(Where + " lacks a non-negative max_fraction");
    if (!Critical || !Critical->isNumber() || Critical->NumberValue <= 0.0)
      return Status::error(Where + " lacks a positive critical_fraction");
    if (!EntryOk || !EntryOk->isBool())
      return Status::error(Where + " lacks a within_budget verdict");
    const double TolAbs = 1e-9 * (1.0 + std::fabs(MaxAbs->NumberValue));
    if (MeanAbs->NumberValue > MaxAbs->NumberValue + TolAbs)
      return Status::error(Where + " mean_abs exceeds max_abs");
    bool Expected = MaxFraction->NumberValue <= Critical->NumberValue;
    if (EntryOk->BoolValue != Expected)
      return Status::error(Where +
                           " verdict disagrees with its budgets");
    if (!EntryOk->BoolValue)
      AnyInvariantFailed = true;
    ++NumInvariants;
  }
  if (AnyInvariantFailed && WithinBudget->BoolValue)
    return Status::error("within_budget is true despite a failed "
                         "invariant");
  const telemetry::JsonValue *Convergence = Doc->find("convergence");
  if (!Convergence || !Convergence->isObject())
    return Status::error("lacks a convergence block");
  for (const char *Key : {"thermal_steps", "flow_solves",
                          "max_newton_iterations",
                          "non_monotone_residuals", "unconverged_solves"}) {
    const telemetry::JsonValue *Value = Convergence->find(Key);
    if (!Value || !Value->isNumber() || Value->NumberValue < 0.0)
      return Status::error(std::string("convergence block lacks ") + Key);
  }
  return Status::ok();
}

/// One call-tree node of a skatsim-profile-v1 document: checks the
/// aggregation invariants recursively and counts nodes into \p NumNodes.
Status validateProfileNode(const telemetry::JsonValue &Node,
                           size_t &NumNodes) {
  ++NumNodes;
  const telemetry::JsonValue *Name = Node.find("name");
  if (!Name || !Name->isString() || Name->StringValue.empty())
    return Status::error("node lacks a name");
  std::string Where = "node '" + Name->StringValue + "'";
  const telemetry::JsonValue *Count = Node.find("count");
  if (!Count || !Count->isNumber() || Count->NumberValue < 1.0)
    return Status::error(Where + " lacks a positive count");
  const telemetry::JsonValue *TotalS = Node.find("total_s");
  const telemetry::JsonValue *SelfS = Node.find("self_s");
  const telemetry::JsonValue *MinS = Node.find("min_s");
  const telemetry::JsonValue *MaxS = Node.find("max_s");
  if (!TotalS || !TotalS->isNumber() || !SelfS || !SelfS->isNumber() ||
      !MinS || !MinS->isNumber() || !MaxS || !MaxS->isNumber())
    return Status::error(Where + " lacks total_s/self_s/min_s/max_s");
  // All timing invariants get a small absolute slack: the emitter rounds
  // through %.9g, so exact arithmetic does not survive the round trip.
  const double TolS = 1e-9 * (1.0 + std::fabs(TotalS->NumberValue));
  if (SelfS->NumberValue < -TolS ||
      SelfS->NumberValue > TotalS->NumberValue + TolS)
    return Status::error(Where + " self_s outside [0, total_s]");
  if (MinS->NumberValue > MaxS->NumberValue + TolS)
    return Status::error(Where + " min_s exceeds max_s");
  if (MaxS->NumberValue > TotalS->NumberValue + TolS)
    return Status::error(Where + " max_s exceeds total_s");
  const telemetry::JsonValue *Children = Node.find("children");
  if (!Children || !Children->isArray())
    return Status::error(Where + " lacks a children array");
  double ChildrenTotalS = 0.0;
  for (const telemetry::JsonValue &Child : Children->Items) {
    Status Valid = validateProfileNode(Child, NumNodes);
    if (!Valid.isOk())
      return Valid;
    const telemetry::JsonValue *ChildTotal = Child.find("total_s");
    ChildrenTotalS += ChildTotal ? ChildTotal->NumberValue : 0.0;
  }
  if (ChildrenTotalS > TotalS->NumberValue + TolS)
    return Status::error(Where + " children total " +
                         std::to_string(ChildrenTotalS) +
                         " exceeds the node total " +
                         std::to_string(TotalS->NumberValue));
  return Status::ok();
}

/// skatsim-profile-v1 document (`skatsim profile`): schema marker, a
/// non-empty call tree, and the per-node invariants above.
Status validateProfile(const std::string &Text, size_t &NumNodes) {
  NumNodes = 0;
  Expected<telemetry::JsonValue> Doc = telemetry::parseJson(Text);
  if (!Doc)
    return Status::error("not valid JSON: " + Doc.message());
  const telemetry::JsonValue *Schema = Doc->find("schema");
  if (!Schema || !Schema->isString() ||
      Schema->StringValue != "skatsim-profile-v1")
    return Status::error("lacks the skatsim-profile-v1 schema");
  const telemetry::JsonValue *Name = Doc->find("name");
  if (!Name || !Name->isString() || Name->StringValue.empty())
    return Status::error("lacks a workload name");
  const telemetry::JsonValue *WallTimeS = Doc->find("wall_time_s");
  if (!WallTimeS || !WallTimeS->isNumber() || WallTimeS->NumberValue < 0.0)
    return Status::error("lacks a non-negative wall_time_s");
  const telemetry::JsonValue *Roots = Doc->find("roots");
  if (!Roots || !Roots->isArray() || Roots->Items.empty())
    return Status::error("holds no call-tree roots");
  for (const telemetry::JsonValue &Root : Roots->Items) {
    Status Valid = validateProfileNode(Root, NumNodes);
    if (!Valid.isOk())
      return Valid;
  }
  return Status::ok();
}

/// Service request stream (service/Protocol.h): JSONL of
/// `service_request` lines as fed to `skatsim serve`. Every line needs a
/// non-empty id and a known scenario type; steady/transient requests
/// name a design, faults requests name a scenario file. \p NumRequests
/// counts request lines.
Status validateServiceRequests(const std::vector<std::string> &Lines,
                               size_t &NumRequests) {
  NumRequests = 0;
  for (size_t I = 0; I != Lines.size(); ++I) {
    const std::string &Line = Lines[I];
    std::string Where = "request line " + std::to_string(I + 1);
    Status LineJson = telemetry::validateJson(Line);
    if (!LineJson.isOk())
      return Status::error(Where + " is not valid JSON: " +
                           LineJson.message());
    if (Line.find("\"kind\": \"service_request\"") == std::string::npos)
      return Status::error(Where + " is not a service_request object");
    std::string Id, Type;
    if (!findString(Line, "id", Id) || Id.empty())
      return Status::error(Where + " lacks a request id");
    if (!findString(Line, "type", Type))
      return Status::error(Where + " lacks a scenario type");
    if (Type != "steady" && Type != "transient" && Type != "faults")
      return Status::error(Where + " has unknown scenario type '" + Type +
                           "'");
    std::string Subject;
    if (Type == "faults") {
      if (!findString(Line, "scenario", Subject) || Subject.empty())
        return Status::error(Where + " (faults) lacks a scenario path");
    } else if (!findString(Line, "design", Subject) || Subject.empty()) {
      return Status::error(Where + " (" + Type + ") lacks a design name");
    }
    ++NumRequests;
  }
  if (NumRequests == 0)
    return Status::error("no requests");
  return Status::ok();
}

/// Service response stream (service/Protocol.h): a `service_header` line
/// with the `skatsim-service-v1` schema, then `service_response` lines —
/// successes carry a latency and result object; failures a
/// known error kind and message — closed by a `service_summary` line
/// whose counts reconcile with the counted responses. \p NumResponses
/// counts response lines.
Status validateServiceResponses(const std::vector<std::string> &Lines,
                                size_t &NumResponses) {
  NumResponses = 0;
  const std::string &Header = Lines[0];
  Status HeaderJson = telemetry::validateJson(Header);
  if (!HeaderJson.isOk())
    return Status::error("header is not valid JSON: " +
                         HeaderJson.message());
  std::string Schema;
  double Version = 0.0;
  if (!findString(Header, "schema", Schema) ||
      Schema != "skatsim-service-v1")
    return Status::error("header lacks the skatsim-service-v1 schema");
  if (!findNumber(Header, "version", Version) || !approxEqual(Version, 1.0))
    return Status::error("header lacks version 1");

  size_t OkLines = 0, ErrorLines = 0, QueueFullLines = 0,
         TimeoutLines = 0;
  bool SawSummary = false;
  std::string SummaryLine;
  for (size_t I = 1; I != Lines.size(); ++I) {
    const std::string &Line = Lines[I];
    std::string Where = "response line " + std::to_string(I + 1);
    Status LineJson = telemetry::validateJson(Line);
    if (!LineJson.isOk())
      return Status::error(Where + " is not valid JSON: " +
                           LineJson.message());
    if (SawSummary)
      return Status::error(Where + " follows the service_summary line");
    if (Line.find("\"kind\": \"service_summary\"") != std::string::npos) {
      SawSummary = true;
      SummaryLine = Line;
      continue;
    }
    if (Line.find("\"kind\": \"service_response\"") == std::string::npos)
      return Status::error(Where + " has an unknown record kind");
    if (Line.find("\"id\": \"") == std::string::npos)
      return Status::error(Where + " lacks an id");
    bool Ok = Line.find("\"ok\": true") != std::string::npos;
    if (!Ok && Line.find("\"ok\": false") == std::string::npos)
      return Status::error(Where + " lacks a boolean ok verdict");
    if (Ok) {
      double LatencyS = 0.0;
      if (!findNumber(Line, "latency_s", LatencyS) || LatencyS < 0.0)
        return Status::error(Where + " lacks a non-negative latency_s");
      if (Line.find("\"result\": {") == std::string::npos)
        return Status::error(Where + " lacks a result object");
      ++OkLines;
    } else {
      std::string Kind, Message;
      if (!findString(Line, "error_kind", Kind))
        return Status::error(Where + " lacks error_kind");
      if (Kind != "parse" && Kind != "queue_full" && Kind != "timeout" &&
          Kind != "evaluation")
        return Status::error(Where + " has unknown error kind '" + Kind +
                             "'");
      if (!findString(Line, "error", Message) || Message.empty())
        return Status::error(Where + " lacks an error message");
      QueueFullLines += Kind == "queue_full";
      TimeoutLines += Kind == "timeout";
      ++ErrorLines;
    }
    ++NumResponses;
  }
  if (NumResponses == 0)
    return Status::error("no responses");
  if (!SawSummary)
    return Status::error("stream lacks a closing service_summary line");

  // Reconcile the summary against the counted lines. The summary holds
  // daemon-lifetime totals, and a stdin/file session is the daemon's
  // whole life, so strict equality is the contract here.
  double Requests = 0.0, OkCount = 0.0, ErrorCount = 0.0, Rejected = 0.0,
         TimedOut = 0.0;
  if (!findNumber(SummaryLine, "requests", Requests) ||
      !findNumber(SummaryLine, "ok", OkCount) ||
      !findNumber(SummaryLine, "errors", ErrorCount) ||
      !findNumber(SummaryLine, "rejected", Rejected) ||
      !findNumber(SummaryLine, "timed_out", TimedOut))
    return Status::error("summary lacks requests/ok/errors/rejected/"
                         "timed_out counts");
  if (static_cast<size_t>(OkCount) != OkLines)
    return Status::error("summary declares " +
                         std::to_string(static_cast<size_t>(OkCount)) +
                         " ok but the stream holds " +
                         std::to_string(OkLines));
  if (static_cast<size_t>(ErrorCount) != ErrorLines)
    return Status::error("summary declares " +
                         std::to_string(static_cast<size_t>(ErrorCount)) +
                         " errors but the stream holds " +
                         std::to_string(ErrorLines));
  if (!approxEqual(Requests, OkCount + ErrorCount))
    return Status::error("summary requests do not equal ok + errors");
  if (static_cast<size_t>(Rejected) != QueueFullLines)
    return Status::error("summary rejected count disagrees with the "
                         "queue_full responses");
  if (static_cast<size_t>(TimedOut) != TimeoutLines)
    return Status::error("summary timed_out count disagrees with the "
                         "timeout responses");
  return Status::ok();
}

/// Bench report document (telemetry/Bench.h, written by the bench
/// binaries): bench name, boolean verdict, non-negative wall time and a
/// non-empty metrics object. \p NumMetrics counts metric entries.
Status validateBenchReport(const std::string &Text, size_t &NumMetrics) {
  NumMetrics = 0;
  Expected<telemetry::JsonValue> Doc = telemetry::parseJson(Text);
  if (!Doc)
    return Status::error("not valid JSON: " + Doc.message());
  const telemetry::JsonValue *Name = Doc->find("bench");
  if (!Name || !Name->isString() || Name->StringValue.empty())
    return Status::error("lacks a bench name");
  const telemetry::JsonValue *Passed = Doc->find("passed");
  if (!Passed || !Passed->isBool())
    return Status::error("lacks a boolean passed verdict");
  const telemetry::JsonValue *WallTimeS = Doc->find("wall_time_s");
  if (!WallTimeS || !WallTimeS->isNumber() || WallTimeS->NumberValue < 0.0)
    return Status::error("lacks a non-negative wall_time_s");
  const telemetry::JsonValue *Metrics = Doc->find("metrics");
  if (!Metrics || !Metrics->isObject() || Metrics->Members.empty())
    return Status::error("holds no metrics");
  NumMetrics = Metrics->Members.size();
  for (const auto &[Key, Value] : Metrics->Members)
    if (Key.empty())
      return Status::error("holds a metric with an empty key");
  return Status::ok();
}

/// Periodic metrics snapshots: JSONL with strictly increasing `t_s`.
Status validateSnapshots(const std::vector<std::string> &Lines) {
  double PrevTime = 0.0;
  for (size_t I = 0; I != Lines.size(); ++I) {
    const std::string &Line = Lines[I];
    std::string Where = "snapshot line " + std::to_string(I + 1);
    Status LineJson = telemetry::validateJson(Line);
    if (!LineJson.isOk())
      return Status::error(Where + " is not valid JSON: " +
                           LineJson.message());
    double Time = 0.0;
    if (!findNumber(Line, "t_s", Time))
      return Status::error(Where + " lacks t_s");
    if (Line.find("\"counters\": {") == std::string::npos ||
        Line.find("\"histograms\": {") == std::string::npos)
      return Status::error(Where + " lacks counters/histograms");
    if (I > 0 && Time <= PrevTime)
      return Status::error(Where + " time " + std::to_string(Time) +
                           " does not advance past " +
                           std::to_string(PrevTime));
    PrevTime = Time;
  }
  return Status::ok();
}

bool validPrometheusName(const std::string &Name) {
  if (Name.empty())
    return false;
  for (size_t I = 0; I != Name.size(); ++I) {
    char C = Name[I];
    bool Ok = std::isalpha(static_cast<unsigned char>(C)) || C == '_' ||
              C == ':' ||
              (I > 0 && std::isdigit(static_cast<unsigned char>(C)));
    if (!Ok)
      return false;
  }
  return true;
}

bool validPrometheusValue(const std::string &Token) {
  if (Token == "NaN" || Token == "+Inf" || Token == "-Inf")
    return true;
  if (Token.empty())
    return false;
  char *End = nullptr;
  (void)std::strtod(Token.c_str(), &End);
  return End == Token.c_str() + Token.size();
}

/// Prometheus text exposition: `# TYPE`/`# HELP` comments and
/// `name[{labels}] value` samples. \p NumSamples counts sample lines.
Status validatePrometheus(const std::vector<std::string> &Lines,
                          size_t &NumSamples) {
  NumSamples = 0;
  for (size_t I = 0; I != Lines.size(); ++I) {
    const std::string &Line = Lines[I];
    std::string Where = "line " + std::to_string(I + 1);
    if (Line[0] == '#') {
      // "# TYPE <name> <kind>" or "# HELP <name> <text>".
      if (Line.rfind("# TYPE ", 0) == 0) {
        std::string Rest = Line.substr(7);
        size_t Space = Rest.find(' ');
        if (Space == std::string::npos ||
            !validPrometheusName(Rest.substr(0, Space)))
          return Status::error(Where + ": malformed TYPE comment");
        std::string Kind = Rest.substr(Space + 1);
        if (Kind != "counter" && Kind != "gauge" && Kind != "summary" &&
            Kind != "histogram" && Kind != "untyped")
          return Status::error(Where + ": unknown metric type '" + Kind +
                               "'");
      } else if (Line.rfind("# HELP ", 0) != 0) {
        return Status::error(Where + ": unrecognised comment");
      }
      continue;
    }
    size_t NameEnd = Line.find_first_of("{ ");
    if (NameEnd == std::string::npos)
      return Status::error(Where + ": sample without a value");
    if (!validPrometheusName(Line.substr(0, NameEnd)))
      return Status::error(Where + ": invalid metric name '" +
                           Line.substr(0, NameEnd) + "'");
    size_t ValueStart = NameEnd;
    if (Line[NameEnd] == '{') {
      size_t Close = Line.find('}', NameEnd);
      if (Close == std::string::npos)
        return Status::error(Where + ": unterminated label set");
      ValueStart = Close + 1;
    }
    if (ValueStart >= Line.size() || Line[ValueStart] != ' ')
      return Status::error(Where + ": no space before the value");
    if (!validPrometheusValue(Line.substr(ValueStart + 1)))
      return Status::error(Where + ": invalid sample value");
    ++NumSamples;
  }
  if (NumSamples == 0)
    return Status::error("no samples");
  return Status::ok();
}

/// Validates one file; prints a per-file verdict line.
bool checkFile(const std::string &Path) {
  Expected<std::string> Text = readFile(Path);
  if (!Text) {
    std::fprintf(stderr, "check_trace: %s\n", Text.message().c_str());
    return false;
  }

  size_t First = Text->find_first_not_of(" \t\r\n");
  if (First == std::string::npos) {
    std::fprintf(stderr, "check_trace: '%s' is empty\n", Path.c_str());
    return false;
  }

  std::vector<std::string> Lines = splitLines(*Text);

  // Flight-recorder dump: self-identifying header line.
  if (!Lines.empty() &&
      Lines[0].find("\"kind\": \"flight_recorder_header\"") !=
          std::string::npos) {
    Status Valid = validateFlightDump(Lines);
    if (!Valid.isOk()) {
      std::fprintf(stderr, "check_trace: '%s' invalid flight dump: %s\n",
                   Path.c_str(), Valid.message().c_str());
      return false;
    }
    std::printf("check_trace: %s ok (flight dump, %zu frames)\n",
                Path.c_str(), Lines.size() - 1);
    return true;
  }

  // Fault-event trace: self-identifying header line.
  if (!Lines.empty() &&
      Lines[0].find("\"kind\": \"fault_trace_header\"") !=
          std::string::npos) {
    Status Valid = validateFaultTrace(Lines);
    if (!Valid.isOk()) {
      std::fprintf(stderr, "check_trace: '%s' invalid fault trace: %s\n",
                   Path.c_str(), Valid.message().c_str());
      return false;
    }
    std::printf("check_trace: %s ok (fault trace, %zu events)\n",
                Path.c_str(), Lines.size() - 1);
    return true;
  }

  // OTLP-style span trace: self-identifying header line.
  if (!Lines.empty() &&
      Lines[0].find("\"kind\": \"span_trace_header\"") !=
          std::string::npos) {
    size_t NumSpans = 0;
    Status Valid = validateSpanTrace(Lines, NumSpans);
    if (!Valid.isOk()) {
      std::fprintf(stderr, "check_trace: '%s' invalid span trace: %s\n",
                   Path.c_str(), Valid.message().c_str());
      return false;
    }
    std::printf("check_trace: %s ok (span trace, %zu spans)\n",
                Path.c_str(), NumSpans);
    return true;
  }

  // Physics-audit stream: self-identifying header line.
  if (!Lines.empty() &&
      Lines[0].find("\"kind\": \"audit_trace_header\"") !=
          std::string::npos) {
    size_t NumSamples = 0;
    Status Valid = validateAuditStream(Lines, NumSamples);
    if (!Valid.isOk()) {
      std::fprintf(stderr, "check_trace: '%s' invalid audit stream: %s\n",
                   Path.c_str(), Valid.message().c_str());
      return false;
    }
    std::printf("check_trace: %s ok (audit stream, %zu samples)\n",
                Path.c_str(), NumSamples);
    return true;
  }

  // Service response stream: self-identifying header line.
  if (!Lines.empty() &&
      Lines[0].find("\"kind\": \"service_header\"") != std::string::npos) {
    size_t NumResponses = 0;
    Status Valid = validateServiceResponses(Lines, NumResponses);
    if (!Valid.isOk()) {
      std::fprintf(stderr,
                   "check_trace: '%s' invalid service responses: %s\n",
                   Path.c_str(), Valid.message().c_str());
      return false;
    }
    std::printf("check_trace: %s ok (service responses, %zu lines)\n",
                Path.c_str(), NumResponses);
    return true;
  }

  // Service request stream: every line is a service_request object.
  if (!Lines.empty() &&
      Lines[0].find("\"kind\": \"service_request\"") != std::string::npos) {
    size_t NumRequests = 0;
    Status Valid = validateServiceRequests(Lines, NumRequests);
    if (!Valid.isOk()) {
      std::fprintf(stderr,
                   "check_trace: '%s' invalid service requests: %s\n",
                   Path.c_str(), Valid.message().c_str());
      return false;
    }
    std::printf("check_trace: %s ok (service requests, %zu lines)\n",
                Path.c_str(), NumRequests);
    return true;
  }

  // Physics-audit report: schema marker inside a whole-file JSON document
  // (the JSONL audit stream shares the schema string but is caught by its
  // header line above).
  if (Text->find("\"schema\": \"skatsim-audit-v1\"") != std::string::npos) {
    size_t NumInvariants = 0;
    Status Valid = validateAuditReport(*Text, NumInvariants);
    if (!Valid.isOk()) {
      std::fprintf(stderr, "check_trace: '%s' invalid audit report: %s\n",
                   Path.c_str(), Valid.message().c_str());
      return false;
    }
    std::printf("check_trace: %s ok (audit report, %zu invariants)\n",
                Path.c_str(), NumInvariants);
    return true;
  }

  // Profiler report: schema marker inside a whole-file JSON document.
  if (Text->find("\"schema\": \"skatsim-profile-v1\"") !=
      std::string::npos) {
    size_t NumNodes = 0;
    Status Valid = validateProfile(*Text, NumNodes);
    if (!Valid.isOk()) {
      std::fprintf(stderr, "check_trace: '%s' invalid profile: %s\n",
                   Path.c_str(), Valid.message().c_str());
      return false;
    }
    std::printf("check_trace: %s ok (profile, %zu nodes)\n", Path.c_str(),
                NumNodes);
    return true;
  }

  // Bench report: whole-file JSON document led by the bench name.
  if (Text->find("\"bench\": \"") != std::string::npos &&
      Text->find("\"wall_time_s\": ") != std::string::npos) {
    size_t NumMetrics = 0;
    Status Valid = validateBenchReport(*Text, NumMetrics);
    if (!Valid.isOk()) {
      std::fprintf(stderr, "check_trace: '%s' invalid bench report: %s\n",
                   Path.c_str(), Valid.message().c_str());
      return false;
    }
    std::printf("check_trace: %s ok (bench report, %zu metrics)\n",
                Path.c_str(), NumMetrics);
    return true;
  }

  // Prometheus text exposition: leads with a TYPE comment.
  if ((*Text)[First] == '#') {
    size_t NumSamples = 0;
    Status Valid = validatePrometheus(Lines, NumSamples);
    if (!Valid.isOk()) {
      std::fprintf(stderr,
                   "check_trace: '%s' invalid prometheus text: %s\n",
                   Path.c_str(), Valid.message().c_str());
      return false;
    }
    std::printf("check_trace: %s ok (prometheus, %zu samples)\n",
                Path.c_str(), NumSamples);
    return true;
  }

  // Periodic metrics snapshots: every line opens with a timestamp.
  if (!Lines.empty() && Lines[0].rfind("{\"t_s\": ", 0) == 0 &&
      Lines[0].find("\"counters\": {") != std::string::npos) {
    Status Valid = validateSnapshots(Lines);
    if (!Valid.isOk()) {
      std::fprintf(stderr,
                   "check_trace: '%s' invalid snapshot stream: %s\n",
                   Path.c_str(), Valid.message().c_str());
      return false;
    }
    std::printf("check_trace: %s ok (snapshots, %zu lines)\n",
                Path.c_str(), Lines.size());
    return true;
  }

  size_t NumRecords = 0;
  bool WholeDocument = true;
  Status Valid = telemetry::validateJson(*Text);
  if (Valid.isOk()) {
    NumRecords = 1;
  } else {
    Status LinesValid = telemetry::validateJsonLines(*Text, &NumRecords);
    if (LinesValid.isOk()) {
      Valid = Status::ok();
      WholeDocument = false;
    }
  }
  if (!Valid.isOk()) {
    std::fprintf(stderr, "check_trace: '%s' invalid: %s\n", Path.c_str(),
                 Valid.message().c_str());
    return false;
  }
  if (NumRecords == 0) {
    std::fprintf(stderr, "check_trace: '%s' holds no records\n",
                 Path.c_str());
    return false;
  }
  std::printf("check_trace: %s ok (%zu %s)\n", Path.c_str(), NumRecords,
              WholeDocument ? "document" : "lines");
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: check_trace <file>...\n");
    return 2;
  }
  bool AllOk = true;
  for (int I = 1; I < Argc; ++I)
    AllOk = checkFile(Argv[I]) && AllOk;
  return AllOk ? 0 : 1;
}
