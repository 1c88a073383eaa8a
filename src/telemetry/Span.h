//===- telemetry/Span.h - Causal RAII spans with attributes ----*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hierarchical span tracing on top of the Telemetry.h registry. A Span is
/// a ScopedTimer that additionally carries a propagated SpanContext (trace
/// id, span id, parent id, depth, thread) and a small fixed set of
/// structured attributes (Newton iterations, factor-cache hit, dt, ...)
/// handed to the event sink as one SpanRecord on destruction.
///
/// Context propagation rules (docs/OBSERVABILITY.md):
///  - the thread's innermost open Span or ScopedTimer is the implicit
///    parent of the next one opened on that thread;
///  - a root span (no open parent) starts a new trace whose TraceId is its
///    own SpanId;
///  - to parent work running on another thread (a worker-pool item under a
///    sweep root), capture currentSpanContext() on the submitting thread
///    and install it on the worker with ScopedSpanParent.
///
/// Cost model matches the rest of the telemetry layer: with no sink
/// attached, a Span opened on a resolved Timer handle takes no registry
/// lock and writes no state other threads share. Closing it folds the
/// duration into the closing thread's stripe of that Timer under the
/// stripe's lock, and it never allocates. The string-name constructors
/// add one registry lookup under the registry mutex, so hot call sites
/// resolve their Timer once (a static local). With a sink attached, the
/// sink call runs under the registry mutex, so traced runs serialize
/// there. Attribute setters write into inline storage. Keys and string
/// values are not copied and must outlive the span (string literals in
/// practice).
///
//===----------------------------------------------------------------------===//

#ifndef RCS_TELEMETRY_SPAN_H
#define RCS_TELEMETRY_SPAN_H

#include "telemetry/Telemetry.h"

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rcs {
namespace telemetry {

/// RAII causal span. Construction opens a context nested under the
/// thread's current span; destruction restores the parent context and
/// records one SpanRecord (aggregate fold always, sink emission when
/// tracing).
class Span {
public:
  /// Inline attribute capacity; setters beyond this are dropped (the
  /// hot paths attach a handful of scalars, not payloads).
  static constexpr size_t MaxAttrs = 8;

  explicit Span(Timer &T);
  explicit Span(std::string_view Name)
      : Span(Registry::global().timer(Name)) {}
  Span(Registry &Reg, std::string_view Name) : Span(Reg.timer(Name)) {}
  ~Span() { T.closeSpan(StartS, Context, Parent, Attrs, NumAttrs); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// This span's causal identity, capturable for cross-thread parenting.
  const SpanContext &context() const { return Context; }

  /// Attaches one structured attribute. Last writer wins for a repeated
  /// key only in the sense that both are emitted; call once per key.
  void attr(std::string_view Key, double Value) {
    push(EventField(Key, Value));
  }
  void attr(std::string_view Key, int Value) {
    push(EventField(Key, Value));
  }
  void attr(std::string_view Key, long long Value) {
    push(EventField(Key, Value));
  }
  void attr(std::string_view Key, unsigned long long Value) {
    push(EventField(Key, Value));
  }
  void attr(std::string_view Key, bool Value) {
    push(EventField(Key, Value));
  }
  void attr(std::string_view Key, std::string_view Value) {
    push(EventField(Key, Value));
  }
  void attr(std::string_view Key, const char *Value) {
    push(EventField(Key, Value));
  }

private:
  void push(const EventField &F) {
    if (NumAttrs < MaxAttrs)
      Attrs[NumAttrs++] = F;
  }

  Timer &T;
  double StartS;
  SpanContext Parent;
  SpanContext Context;
  EventField Attrs[MaxAttrs];
  size_t NumAttrs = 0;
};

/// Installs \p Parent as the calling thread's current span context for
/// the scope's duration, so spans opened here nest under a span that is
/// open on another thread. Restores the previous context on destruction.
class ScopedSpanParent {
public:
  explicit ScopedSpanParent(const SpanContext &Parent)
      : Saved(detail::threadSpanContext()) {
    detail::threadSpanContext() = Parent;
  }
  ~ScopedSpanParent() { detail::threadSpanContext() = Saved; }
  ScopedSpanParent(const ScopedSpanParent &) = delete;
  ScopedSpanParent &operator=(const ScopedSpanParent &) = delete;

private:
  SpanContext Saved;
};

} // namespace telemetry
} // namespace rcs

#endif // RCS_TELEMETRY_SPAN_H
