//===- telemetry/Span.cpp - Causal RAII spans with attributes -----------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Span.h"

using namespace rcs;
using namespace rcs::telemetry;

Span::Span(Timer &T)
    : T(T), StartS(T.Owner.nowSeconds()),
      Context(detail::openSpanContext(Parent)) {}
