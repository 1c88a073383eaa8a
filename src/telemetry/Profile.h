//===- telemetry/Profile.h - Span-aggregating profiler ---------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A profiler that consumes SpanRecords (as an EventSink, so it attaches
/// to a Registry like any trace sink, alone or behind makeTeeSink) and
/// collapses them into a call tree: nodes merge by span name per parent
/// path, accumulating invocation counts, total and self wall time, and
/// per-name p50/p95/p99 via Distribution::quantile. Numeric span attributes
/// accumulate per node (sum + count), so "how many Newton iterations did
/// this subtree burn" falls out of the same report.
///
/// Children complete before their parents (RAII), so the tree is built
/// bottom-up: a finished span claims the aggregated subtrees of its
/// already-finished children (keyed by its span id) and files itself
/// under its parent's id. report() lifts whatever is still unclaimed —
/// spans whose parent never closed — to the root level rather than
/// dropping it.
///
/// `skatsim profile <command>` drives this end to end: run any workload,
/// print renderProfileText(), write PROFILE_<name>.json
/// (renderProfileJson(), validated by tools/check_trace).
///
//===----------------------------------------------------------------------===//

#ifndef RCS_TELEMETRY_PROFILE_H
#define RCS_TELEMETRY_PROFILE_H

#include "telemetry/Telemetry.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rcs {
namespace telemetry {

/// Accumulated numeric attribute across a node's invocations.
struct ProfileAttr {
  double Sum = 0.0;
  uint64_t Count = 0;
};

/// One call-tree node of a finished profile, merged by name under its
/// parent. Quantiles are per span *name* (shared by every node with that
/// name), matching how the histogram is recorded.
struct ProfileNode {
  std::string Name;
  uint64_t Count = 0;
  double TotalS = 0.0;
  double SelfS = 0.0; ///< TotalS minus the children's TotalS, floored at 0.
  double MinS = 0.0;
  double MaxS = 0.0;
  double P50S = 0.0;
  double P95S = 0.0;
  double P99S = 0.0;
  std::vector<std::pair<std::string, ProfileAttr>> Attrs;
  std::vector<ProfileNode> Children; ///< Sorted by TotalS, descending.
};

/// A snapshot of the profiler's aggregation.
struct ProfileReport {
  /// Wall-clock extent of the observed spans: latest end minus earliest
  /// start on the registry clock. Zero when no span was seen.
  double WallTimeS = 0.0;
  /// Sum of the root spans' total time.
  double RootTotalS = 0.0;
  std::vector<ProfileNode> Roots; ///< Sorted by TotalS, descending.
};

/// Span-consuming profiler. Thread safety follows the sink contract: the
/// registry serializes span()/instant() under its lock; report() may be
/// called concurrently from other threads.
class Profiler final : public EventSink {
public:
  Profiler();
  ~Profiler() override;

  void instant(double TimeS, std::string_view Name,
               const EventField *Fields, size_t NumFields) override;
  void span(const SpanRecord &Rec) override;
  Status close() override;

  /// Collapses the aggregation so far into a report.
  ProfileReport report() const;

  struct AggNode; ///< Implementation detail, defined in Profile.cpp.

private:
  struct Impl;
  std::unique_ptr<Impl> State;
};

/// Renders an aligned, indented call-tree table for terminals.
std::string renderProfileText(const ProfileReport &Report,
                              std::string_view Name);

/// Renders the PROFILE_<name>.json document ("skatsim-profile-v1";
/// docs/OBSERVABILITY.md, "Profiler report format").
std::string renderProfileJson(const ProfileReport &Report,
                              std::string_view Name);

/// Writes renderProfileJson() to \p Path.
Status writeProfileFile(const ProfileReport &Report, std::string_view Name,
                        const std::string &Path);

} // namespace telemetry
} // namespace rcs

#endif // RCS_TELEMETRY_PROFILE_H
