//===- telemetry/Profile.cpp - Span-aggregating profiler ----------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Profile.h"

#include "telemetry/Json.h"

#include <algorithm>
#include <cstdio>

using namespace rcs;
using namespace rcs::telemetry;

/// Aggregation node: one (parent path, name) position in the call tree,
/// merged across invocations.
struct Profiler::AggNode {
  uint64_t Count = 0;
  double TotalS = 0.0;
  double ChildrenS = 0.0;
  double MinS = 0.0;
  double MaxS = 0.0;
  std::map<std::string, AggNode, std::less<>> Children;
  std::map<std::string, ProfileAttr, std::less<>> Attrs;
};

struct Profiler::Impl {
  mutable rcs::Mutex Mutex;
  /// Completed root spans (ParentId 0), merged by name.
  std::map<std::string, AggNode, std::less<>> Roots RCS_GUARDED_BY(Mutex);
  /// Completed subtrees waiting for their parent span to finish, keyed
  /// by that parent's span id.
  std::map<uint64_t, std::map<std::string, AggNode, std::less<>>> Pending
      RCS_GUARDED_BY(Mutex);
  /// Duration distribution per span name, for p50/p95/p99.
  std::map<std::string, Distribution, std::less<>> ByName
      RCS_GUARDED_BY(Mutex);
  bool SeenSpan RCS_GUARDED_BY(Mutex) = false;
  double FirstStartS RCS_GUARDED_BY(Mutex) = 0.0;
  double LastEndS RCS_GUARDED_BY(Mutex) = 0.0;
};

namespace {

using AggNode = Profiler::AggNode;

void mergeInto(AggNode &Dst, AggNode &&Src) {
  if (Dst.Count == 0) {
    Dst.MinS = Src.MinS;
    Dst.MaxS = Src.MaxS;
  } else if (Src.Count != 0) {
    Dst.MinS = std::min(Dst.MinS, Src.MinS);
    Dst.MaxS = std::max(Dst.MaxS, Src.MaxS);
  }
  Dst.Count += Src.Count;
  Dst.TotalS += Src.TotalS;
  Dst.ChildrenS += Src.ChildrenS;
  for (auto &[Key, A] : Src.Attrs) {
    ProfileAttr &DstAttr = Dst.Attrs[Key];
    DstAttr.Sum += A.Sum;
    DstAttr.Count += A.Count;
  }
  for (auto &[Name, Child] : Src.Children) {
    auto It = Dst.Children.find(Name);
    if (It == Dst.Children.end())
      Dst.Children.emplace(Name, std::move(Child));
    else
      mergeInto(It->second, std::move(Child));
  }
}

} // namespace

Profiler::Profiler() : State(std::make_unique<Impl>()) {}
Profiler::~Profiler() = default;

void Profiler::instant(double, std::string_view, const EventField *,
                       size_t) {
  // The profiler aggregates spans only; instants pass through untouched.
}

Status Profiler::close() { return Status::ok(); }

void Profiler::span(const SpanRecord &Rec) {
  LockGuard Lock(State->Mutex);

  double EndS = Rec.StartS + Rec.DurationS;
  if (!State->SeenSpan) {
    State->SeenSpan = true;
    State->FirstStartS = Rec.StartS;
    State->LastEndS = EndS;
  } else {
    State->FirstStartS = std::min(State->FirstStartS, Rec.StartS);
    State->LastEndS = std::max(State->LastEndS, EndS);
  }

  auto HistIt = State->ByName.find(Rec.Name);
  if (HistIt == State->ByName.end())
    HistIt = State->ByName
                 .emplace(std::piecewise_construct,
                          std::forward_as_tuple(std::string(Rec.Name)),
                          std::forward_as_tuple())
                 .first;
  HistIt->second.record(Rec.DurationS);

  AggNode Mine;
  Mine.Count = 1;
  Mine.TotalS = Rec.DurationS;
  Mine.MinS = Rec.DurationS;
  Mine.MaxS = Rec.DurationS;
  auto PendingIt = State->Pending.find(Rec.Context.SpanId);
  if (PendingIt != State->Pending.end()) {
    Mine.Children = std::move(PendingIt->second);
    State->Pending.erase(PendingIt);
    for (const auto &[Name, Child] : Mine.Children)
      Mine.ChildrenS += Child.TotalS;
  }
  for (size_t I = 0; I != Rec.NumAttrs; ++I) {
    const EventField &F = Rec.Attrs[I];
    double Value = 0.0;
    switch (F.FieldKind) {
    case EventField::Kind::Double:
      Value = F.DoubleValue;
      break;
    case EventField::Kind::Int:
      Value = static_cast<double>(F.IntValue);
      break;
    case EventField::Kind::Bool:
      // Booleans sum as 0/1, so "spans that warm-started" is a count.
      Value = F.BoolValue ? 1.0 : 0.0;
      break;
    case EventField::Kind::String:
      continue;
    }
    ProfileAttr &A = Mine.Attrs[std::string(F.Key)];
    A.Sum += Value;
    A.Count += 1;
  }

  auto &Dest = Rec.Context.ParentId == 0
                   ? State->Roots
                   : State->Pending[Rec.Context.ParentId];
  auto It = Dest.find(Rec.Name);
  if (It == Dest.end())
    Dest.emplace(std::string(Rec.Name), std::move(Mine));
  else
    mergeInto(It->second, std::move(Mine));
}

namespace {

ProfileNode toProfileNode(const std::string &Name, const AggNode &Node,
                          const std::map<std::string, Distribution,
                                         std::less<>> &ByName) {
  ProfileNode Out;
  Out.Name = Name;
  Out.Count = Node.Count;
  Out.TotalS = Node.TotalS;
  Out.SelfS = std::max(Node.TotalS - Node.ChildrenS, 0.0);
  Out.MinS = Node.MinS;
  Out.MaxS = Node.MaxS;
  auto HistIt = ByName.find(Name);
  if (HistIt != ByName.end()) {
    Out.P50S = HistIt->second.p50();
    Out.P95S = HistIt->second.p95();
    Out.P99S = HistIt->second.p99();
  }
  Out.Attrs.assign(Node.Attrs.begin(), Node.Attrs.end());
  Out.Children.reserve(Node.Children.size());
  for (const auto &[ChildName, Child] : Node.Children)
    Out.Children.push_back(toProfileNode(ChildName, Child, ByName));
  std::stable_sort(Out.Children.begin(), Out.Children.end(),
                   [](const ProfileNode &A, const ProfileNode &B) {
                     return A.TotalS > B.TotalS;
                   });
  return Out;
}

} // namespace

ProfileReport Profiler::report() const {
  LockGuard Lock(State->Mutex);

  // Orphans — spans whose parent never closed (still open at snapshot
  // time, or mis-nested) — surface at root level instead of vanishing.
  std::map<std::string, AggNode, std::less<>> Roots = State->Roots;
  for (const auto &[ParentId, Children] : State->Pending)
    for (const auto &[Name, Child] : Children) {
      AggNode Copy = Child;
      auto It = Roots.find(Name);
      if (It == Roots.end())
        Roots.emplace(Name, std::move(Copy));
      else
        mergeInto(It->second, std::move(Copy));
    }

  ProfileReport Report;
  Report.WallTimeS =
      State->SeenSpan ? State->LastEndS - State->FirstStartS : 0.0;
  Report.Roots.reserve(Roots.size());
  for (const auto &[Name, Node] : Roots) {
    Report.Roots.push_back(toProfileNode(Name, Node, State->ByName));
    Report.RootTotalS += Node.TotalS;
  }
  std::stable_sort(Report.Roots.begin(), Report.Roots.end(),
                   [](const ProfileNode &A, const ProfileNode &B) {
                     return A.TotalS > B.TotalS;
                   });
  return Report;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

void renderTextNode(std::string &Out, const ProfileNode &Node, int Depth,
                    double RootTotalS) {
  char Row[256];
  double Share =
      RootTotalS > 0.0 ? 100.0 * Node.TotalS / RootTotalS : 0.0;
  std::snprintf(Row, sizeof(Row), "%11.6f %11.6f %9llu %5.1f%%  ",
                Node.TotalS, Node.SelfS,
                static_cast<unsigned long long>(Node.Count), Share);
  Out += Row;
  Out.append(static_cast<size_t>(2 * Depth), ' ');
  Out += Node.Name;
  Out += '\n';
  for (const ProfileNode &Child : Node.Children)
    renderTextNode(Out, Child, Depth + 1, RootTotalS);
}

void renderJsonNode(std::string &Out, const ProfileNode &Node,
                    const std::string &Indent) {
  Out += "{\"name\": " + jsonQuote(Node.Name) +
         ", \"count\": " + std::to_string(Node.Count) +
         ", \"total_s\": " + jsonNumber(Node.TotalS) +
         ", \"self_s\": " + jsonNumber(Node.SelfS) +
         ", \"min_s\": " + jsonNumber(Node.MinS) +
         ", \"max_s\": " + jsonNumber(Node.MaxS) +
         ", \"p50_s\": " + jsonNumber(Node.P50S) +
         ", \"p95_s\": " + jsonNumber(Node.P95S) +
         ", \"p99_s\": " + jsonNumber(Node.P99S);
  if (!Node.Attrs.empty()) {
    Out += ", \"attrs\": {";
    bool First = true;
    for (const auto &[Key, A] : Node.Attrs) {
      Out += First ? "" : ", ";
      First = false;
      Out += jsonQuote(Key) + ": {\"sum\": " + jsonNumber(A.Sum) +
             ", \"count\": " + std::to_string(A.Count) + "}";
    }
    Out += "}";
  }
  Out += ", \"children\": [";
  std::string ChildIndent = Indent + "  ";
  bool First = true;
  for (const ProfileNode &Child : Node.Children) {
    Out += First ? "\n" + ChildIndent : ",\n" + ChildIndent;
    First = false;
    renderJsonNode(Out, Child, ChildIndent);
  }
  Out += First ? "]}" : "\n" + Indent + "]}";
}

} // namespace

std::string rcs::telemetry::renderProfileText(const ProfileReport &Report,
                                              std::string_view Name) {
  char Header[256];
  double Coverage = Report.WallTimeS > 0.0
                        ? 100.0 * Report.RootTotalS / Report.WallTimeS
                        : 0.0;
  std::snprintf(Header, sizeof(Header),
                "profile %.*s: wall %.6f s, root spans %.6f s (%.1f%% of "
                "wall)\n%11s %11s %9s %6s  span\n",
                static_cast<int>(Name.size()), Name.data(),
                Report.WallTimeS, Report.RootTotalS, Coverage, "total_s",
                "self_s", "count", "total");
  std::string Out = Header;
  for (const ProfileNode &Root : Report.Roots)
    renderTextNode(Out, Root, 0, Report.RootTotalS);
  return Out;
}

std::string rcs::telemetry::renderProfileJson(const ProfileReport &Report,
                                              std::string_view Name) {
  std::string Out = "{\n  \"schema\": \"skatsim-profile-v1\",\n";
  Out += "  \"name\": " + jsonQuote(Name) + ",\n";
  Out += "  \"wall_time_s\": " + jsonNumber(Report.WallTimeS) + ",\n";
  Out += "  \"root_total_s\": " + jsonNumber(Report.RootTotalS) + ",\n";
  Out += "  \"roots\": [";
  bool First = true;
  for (const ProfileNode &Root : Report.Roots) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    renderJsonNode(Out, Root, "    ");
  }
  Out += First ? "]\n}\n" : "\n  ]\n}\n";
  return Out;
}

Status rcs::telemetry::writeProfileFile(const ProfileReport &Report,
                                        std::string_view Name,
                                        const std::string &Path) {
  std::string Body = renderProfileJson(Report, Name);
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return Status::error("cannot open profile file '" + Path + "'");
  size_t Written = std::fwrite(Body.data(), 1, Body.size(), Out);
  bool Ok = Written == Body.size() && std::fclose(Out) == 0;
  if (!Ok)
    return Status::error("short write to profile file '" + Path + "'");
  return Status::ok();
}
