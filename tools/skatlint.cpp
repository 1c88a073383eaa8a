//===- tools/skatlint.cpp - skatsim convention linter -------------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A token-level linter for the unit and numerics conventions the type
/// system cannot reach (support/Quantity.h is the compile-time end of the
/// same policy; see docs/STATIC_ANALYSIS.md for the full contract):
///
///   skatlint [--jsonl <file>] [--list-rules] <path>...
///
/// Rules:
///
///  - unit-suffix: in headers, every `double` parameter, field, constant
///    and double-returning function must end in a whitelisted unit suffix
///    (TempC, FlowM3PerS, ...) or a sanctioned dimensionless word
///    (Fraction, Ratio, ...); bare names hide the unit from the caller.
///  - conversion-roundtrip: composing a unit conversion with its inverse
///    (`celsiusToKelvin(kelvinToCelsius(x))`) is always a bug: either a
///    no-op or, more often, evidence the author lost track of the scale.
///  - range-guard: Nusselt/Rayleigh correlation definitions must contain
///    at least one validity-range check (branch, clamp or assert);
///    correlations extrapolate silently otherwise.
///  - banned-idiom: `rand`/`srand` (use rcs::Rng), `atof` (no error
///    reporting; use std::strtod with end-pointer checks) and `gets`.
///  - float-equality: `==`/`!=` against a floating-point literal; use
///    rcs::approxEqual / rcs::nearZero (support/Numerics.h) instead.
///  - expected-discard: a bare statement calling a function this file
///    declares to return `Status` or `Expected<T>` throws the error away;
///    check the result or cast to `(void)` to mark it deliberate.
///  - magic-number-table: a non-trivial floating literal repeated three or
///    more times inside one braced table initializer is a copy-pasted
///    magic number; hoist it into a named constant (or justify the
///    repetition with a suppression) so the table has one source of truth.
///  - raw-mutex: direct use of std::mutex/std::lock_guard (and friends)
///    bypasses the Clang thread-safety analysis; lock through rcs::Mutex /
///    rcs::LockGuard (support/ThreadSafety.h) or justify a suppression.
///  - unguarded-shared-static: a mutable static at namespace or class
///    scope is reachable from every thread; it must be RCS_GUARDED_BY a
///    mutex, atomic, const/constexpr, or carry a justified suppression.
///
/// Suppression: a comment containing `skatlint:ignore(<rule>)` (or a
/// comma-separated rule list) suppresses matching findings on its own line
/// and the next line. Suppressions are counted and reported.
///
/// Output is human-readable `file:line: [rule] message` lines plus a
/// summary; `--jsonl` additionally writes one JSON object per finding and
/// a trailing summary record, in the house JSONL style shared with the
/// telemetry sinks. Exit code: 0 clean, 1 findings, 2 usage/IO error.
///
//===----------------------------------------------------------------------===//

#include "telemetry/Json.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace rcs;

namespace {

//===----------------------------------------------------------------------===//
// Tokenizer
//===----------------------------------------------------------------------===//

enum class TokenKind { Identifier, Number, Punct, StringLit, CharLit };

struct Token {
  TokenKind Kind;
  std::string Text;
  int Line;
};

/// Per-line suppression sets harvested from skatlint:ignore comments.
using SuppressionMap = std::map<int, std::set<std::string>>;

/// True for floating-point literals (contain '.' or a decimal exponent).
bool isFloatLiteral(const Token &T) {
  if (T.Kind != TokenKind::Number)
    return false;
  if (T.Text.size() > 1 && (T.Text[1] == 'x' || T.Text[1] == 'X'))
    return false; // hex
  return T.Text.find('.') != std::string::npos ||
         T.Text.find('e') != std::string::npos ||
         T.Text.find('E') != std::string::npos;
}

/// Records `skatlint:ignore(a,b)` rule lists found inside \p Comment.
void harvestSuppressions(const std::string &Comment, int Line,
                         SuppressionMap &Suppressions) {
  const std::string Tag = "skatlint:ignore(";
  size_t Pos = Comment.find(Tag);
  if (Pos == std::string::npos)
    return;
  size_t End = Comment.find(')', Pos);
  if (End == std::string::npos)
    return;
  std::string Rules = Comment.substr(Pos + Tag.size(), End - Pos - Tag.size());
  size_t Start = 0;
  while (Start <= Rules.size()) {
    size_t Comma = Rules.find(',', Start);
    if (Comma == std::string::npos)
      Comma = Rules.size();
    std::string Rule = Rules.substr(Start, Comma - Start);
    Rule.erase(std::remove_if(Rule.begin(), Rule.end(), ::isspace),
               Rule.end());
    if (!Rule.empty())
      Suppressions[Line].insert(Rule);
    Start = Comma + 1;
  }
}

/// Splits \p Text into tokens, dropping comments (after mining them for
/// suppressions), string/char literal contents, and preprocessor lines.
std::vector<Token> tokenize(const std::string &Text,
                            SuppressionMap &Suppressions) {
  std::vector<Token> Tokens;
  size_t I = 0;
  int Line = 1;
  bool AtLineStart = true;
  auto Peek = [&](size_t Off) -> char {
    return I + Off < Text.size() ? Text[I + Off] : '\0';
  };
  while (I < Text.size()) {
    char C = Text[I];
    if (C == '\n') {
      ++Line;
      ++I;
      AtLineStart = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
      continue;
    }
    // Preprocessor directive: skip the logical line (with continuations).
    if (C == '#' && AtLineStart) {
      while (I < Text.size() && Text[I] != '\n') {
        if (Text[I] == '\\' && Peek(1) == '\n') {
          ++Line;
          I += 2;
          continue;
        }
        ++I;
      }
      continue;
    }
    AtLineStart = false;
    // Line comment. A suppression tag rides through an immediately
    // following run of //-comment lines (multi-line justifications) and
    // lands on the first code line after the run.
    if (C == '/' && Peek(1) == '/') {
      size_t End = Text.find('\n', I);
      if (End == std::string::npos)
        End = Text.size();
      harvestSuppressions(Text.substr(I, End - I), Line, Suppressions);
      auto TagIt = Suppressions.find(Line);
      if (TagIt != Suppressions.end()) {
        int Covered = Line;
        size_t Pos = End;
        while (Pos < Text.size()) {
          size_t Q = Pos + 1; // first char of the next line
          while (Q < Text.size() && (Text[Q] == ' ' || Text[Q] == '\t'))
            ++Q;
          if (Q + 1 >= Text.size() || Text[Q] != '/' || Text[Q + 1] != '/')
            break;
          ++Covered;
          Pos = Text.find('\n', Q);
          if (Pos == std::string::npos)
            break;
        }
        std::set<std::string> Rules = TagIt->second;
        for (int L2 = Line + 1; L2 <= Covered + 1; ++L2)
          Suppressions[L2].insert(Rules.begin(), Rules.end());
      }
      I = End;
      continue;
    }
    // Block comment; suppressions anchor at its closing line.
    if (C == '/' && Peek(1) == '*') {
      size_t End = Text.find("*/", I + 2);
      if (End == std::string::npos)
        End = Text.size();
      std::string Comment = Text.substr(I, End - I);
      Line += static_cast<int>(std::count(Comment.begin(), Comment.end(),
                                          '\n'));
      harvestSuppressions(Comment, Line, Suppressions);
      I = End == Text.size() ? End : End + 2;
      continue;
    }
    // String / char literals (handles escapes; raw strings delimiter-free
    // form R"( ... )" only, which is the only form the repo uses).
    if (C == '"' || C == '\'') {
      bool Raw = C == '"' && I > 0 && Text[I - 1] == 'R';
      Tokens.push_back({C == '"' ? TokenKind::StringLit : TokenKind::CharLit,
                        std::string(1, C), Line});
      if (Raw) {
        size_t End = Text.find(")\"", I + 2);
        if (End == std::string::npos)
          End = Text.size();
        std::string Body = Text.substr(I, End - I);
        Line += static_cast<int>(std::count(Body.begin(), Body.end(), '\n'));
        I = End == Text.size() ? End : End + 2;
        continue;
      }
      ++I;
      while (I < Text.size() && Text[I] != C) {
        if (Text[I] == '\\')
          ++I;
        if (I < Text.size() && Text[I] == '\n')
          ++Line;
        ++I;
      }
      ++I;
      continue;
    }
    // Number.
    if (std::isdigit(static_cast<unsigned char>(C)) ||
        (C == '.' && std::isdigit(static_cast<unsigned char>(Peek(1))))) {
      size_t Start = I;
      while (I < Text.size()) {
        char N = Text[I];
        if (std::isalnum(static_cast<unsigned char>(N)) || N == '.' ||
            N == '\'' ||
            ((N == '+' || N == '-') &&
             (Text[I - 1] == 'e' || Text[I - 1] == 'E'))) {
          ++I;
          continue;
        }
        break;
      }
      Tokens.push_back({TokenKind::Number, Text.substr(Start, I - Start),
                        Line});
      continue;
    }
    // Identifier / keyword.
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = I;
      while (I < Text.size() &&
             (std::isalnum(static_cast<unsigned char>(Text[I])) ||
              Text[I] == '_'))
        ++I;
      Tokens.push_back({TokenKind::Identifier, Text.substr(Start, I - Start),
                        Line});
      continue;
    }
    // Punctuation; keep the multi-char operators the rules care about.
    static const char *MultiOps[] = {"==", "!=", "<=", ">=", "::", "->",
                                     "&&", "||", "<<", ">>", "+=", "-=",
                                     "*=", "/="};
    std::string Op(1, C);
    for (const char *M : MultiOps) {
      if (Text.compare(I, std::strlen(M), M) == 0) {
        Op = M;
        break;
      }
    }
    Tokens.push_back({TokenKind::Punct, Op, Line});
    I += Op.size();
  }
  return Tokens;
}

//===----------------------------------------------------------------------===//
// Naming whitelists (documented in docs/STATIC_ANALYSIS.md)
//===----------------------------------------------------------------------===//

/// Unit suffixes a dimensional double must end with. A suffix matches only
/// at a camelCase boundary: the preceding character must be lowercase or a
/// digit (or the name is the suffix itself).
const char *const UnitSuffixes[] = {
    // Single-unit tails. Most composite suffixes (M3PerS, JPerKgK,
    // KPerW, ...) reduce to one of these at the end of the name.
    "C", "K", "W", "J", "S", "M", "M2", "M3", "Pa", "Bar", "Mm", "Kw",
    "Kwh", "MHz", "Hz", "Usd", "Ev", "Lpm", "Liters", "Gflops", "Pflops",
    "Fit", // failures per 1e9 device-hours (JEDEC FIT)
    // Composites whose char before the final unit token is uppercase, so
    // the boundary rule needs them spelled out.
    "WPerMK", "MPerS2",
    // Spelled-out unit words (conversion helpers name their target unit).
    "Kelvin", "Celsius", "Seconds",
    // Time words.
    "Hour", "Hours", "Years", "Samples",
    // Per-something tails whose final word is not itself a unit token.
    "PerU", "PerWatt", "PerLiter", "PerYear", "PerKh", "PerMinute",
    "PerChip", "PerSpin", "KvPerMm",
};

/// Dimensionless words that end a name and sanction a bare double.
const char *const DimensionlessSuffixes[] = {
    "Fraction", "Ratio",        "Factor",     "Coefficient", "Efficiency",
    "Effectiveness", "Count",   "Score",      "Scale",       "Rel",
    "Abs",       "Utilization", "Probability", "Availability", "Jitter",
    "Norm",      "Residual",    "Tolerance",  "Tol",         "Epsilon",
    "Weight",    "Threshold",   "Hysteresis", "Imbalance",   "Number",
    "Exponent",  "Pue",         "Cop",        "Share",       "Index",
    "Percent",   "Nusselt",     "Rayleigh",   "Reynolds",
    // Value-domain words: the quantity is in whatever unit the caller
    // recorded (generic stats, sensors, interpolation tables).
    "Value", "Sample", "Bound",
    // Accessor tail for element-at-index style lookups.
    "At",
};

/// Exact names allowed without a suffix: generic math/statistics helpers
/// and named dimensionless groups.
const char *const ExactAllowedNames[] = {
    "Value",   "LastValue", "DoubleValue", "X",        "Y",      "V",
    "P",       "Q",         "A",           "B",        "Val",    "Low",
    "High",    "Min",       "Max",         "Sum",      "Mean",   "StdDev",
    "Initial", "Total",     "Re",          "Pr",       "PrSurface",
    "Nusselt", "Rayleigh",  "Ntu",         "Lambda",   "Checksum",
    "Damping", "Relaxation", "P50",        "P95",      "P99",    "Giga",
    "Tera",    "Peta",      "BetaJ",       "Scale",
    // Member/parameter spellings of the interpolation-table range
    // accessors sanctioned below (tables are value-domain generic).
    "MinX",    "MaxX",
    // double-returning accessor/function names (camelBack): generic math
    // helpers and named dimensionless groups.
    "value",   "prandtl",   "opening",     "quantile", "mean",   "total",
    "sum",     "at",        "evaluate",    "derivative", "inverse",
    "minX",    "maxX",      "uniform",     "normal",   "exponential",
    "cop",     "reynolds",  "p50",       "p95",      "p99",
};

bool endsWithAtBoundary(const std::string &Name, const std::string &Suffix) {
  if (Name.size() < Suffix.size())
    return false;
  if (Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) != 0)
    return false;
  if (Name.size() == Suffix.size())
    return true;
  char Before = Name[Name.size() - Suffix.size() - 1];
  return std::islower(static_cast<unsigned char>(Before)) ||
         std::isdigit(static_cast<unsigned char>(Before));
}

/// True when \p Name carries a unit suffix or is sanctioned dimensionless.
bool isAllowedDoubleName(const std::string &Name) {
  for (const char *Exact : ExactAllowedNames)
    if (Name == Exact)
      return true;
  for (const char *Suffix : UnitSuffixes)
    if (endsWithAtBoundary(Name, Suffix))
      return true;
  for (const char *Suffix : DimensionlessSuffixes)
    if (endsWithAtBoundary(Name, Suffix))
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Findings
//===----------------------------------------------------------------------===//

struct Finding {
  std::string File;
  int Line;
  std::string Rule;
  std::string Message;
};

struct LintStats {
  std::vector<Finding> Findings;
  std::map<std::string, int> RuleCounts;
  std::map<std::string, int> SuppressedCounts;
  int FilesScanned = 0;
};

/// Emits \p F unless a suppression for its rule covers the line (the
/// comment's own line or the line before the finding).
void report(LintStats &Stats, const SuppressionMap &Suppressions,
            Finding F) {
  for (int Line : {F.Line, F.Line - 1}) {
    auto It = Suppressions.find(Line);
    if (It != Suppressions.end() && It->second.count(F.Rule)) {
      ++Stats.SuppressedCounts[F.Rule];
      return;
    }
  }
  ++Stats.RuleCounts[F.Rule];
  Stats.Findings.push_back(std::move(F));
}

//===----------------------------------------------------------------------===//
// Rules
//===----------------------------------------------------------------------===//

bool isHeaderPath(const std::string &Path) {
  return Path.size() > 2 && (Path.rfind(".h") == Path.size() - 2 ||
                             Path.rfind(".hpp") == Path.size() - 4);
}

/// unit-suffix: `double Name` followed by `, ) ; =` (parameter, field,
/// constant) or `(` (double-returning function) in a header must carry a
/// whitelisted suffix.
void checkUnitSuffix(const std::string &Path, const std::vector<Token> &Toks,
                     const SuppressionMap &Sup, LintStats &Stats) {
  if (!isHeaderPath(Path))
    return;
  for (size_t I = 0; I + 2 < Toks.size(); ++I) {
    if (Toks[I].Kind != TokenKind::Identifier || Toks[I].Text != "double")
      continue;
    const Token &Name = Toks[I + 1];
    if (Name.Kind != TokenKind::Identifier)
      continue;
    const std::string &Next = Toks[I + 2].Text;
    bool IsDecl = Next == "," || Next == ")" || Next == ";" || Next == "=";
    bool IsFunc = Next == "(";
    if (!IsDecl && !IsFunc)
      continue;
    if (Name.Text == "operator")
      continue;
    if (isAllowedDoubleName(Name.Text))
      continue;
    const char *What = IsFunc ? "double-returning function"
                              : "double declaration";
    report(Stats, Sup,
           {Path, Name.Line, "unit-suffix",
            std::string(What) + " '" + Name.Text +
                "' lacks a unit suffix (TempC, FlowM3PerS, ...) or a "
                "sanctioned dimensionless word; see "
                "docs/STATIC_ANALYSIS.md"});
  }
}

/// conversion-roundtrip: outer(inner(...)) where inner is outer's inverse.
void checkConversionRoundtrip(const std::string &Path,
                              const std::vector<Token> &Toks,
                              const SuppressionMap &Sup, LintStats &Stats) {
  static const std::pair<const char *, const char *> InversePairs[] = {
      {"celsiusToKelvin", "kelvinToCelsius"},
      {"kelvinToCelsius", "celsiusToKelvin"},
      {"barToPa", "paToBar"},
      {"paToBar", "barToPa"},
      {"litersPerMinuteToM3PerS", "m3PerSToLitersPerMinute"},
      {"m3PerSToLitersPerMinute", "litersPerMinuteToM3PerS"},
      {"toKelvin", "toCelsius"},
      {"toCelsius", "toKelvin"},
  };
  for (size_t I = 0; I + 3 < Toks.size(); ++I) {
    if (Toks[I].Kind != TokenKind::Identifier || Toks[I + 1].Text != "(")
      continue;
    // Skip namespace qualifiers on the inner call: `units::foo(`.
    size_t J = I + 2;
    while (J + 1 < Toks.size() && Toks[J].Kind == TokenKind::Identifier &&
           Toks[J + 1].Text == "::")
      J += 2;
    if (J + 1 >= Toks.size() || Toks[J].Kind != TokenKind::Identifier ||
        Toks[J + 1].Text != "(")
      continue;
    for (auto [Outer, Inner] : InversePairs) {
      if (Toks[I].Text == Outer && Toks[J].Text == Inner) {
        report(Stats, Sup,
               {Path, Toks[I].Line, "conversion-roundtrip",
                "'" + Toks[I].Text + "(" + Toks[J].Text +
                    "(...))' composes a conversion with its inverse"});
      }
    }
  }
}

/// range-guard: Nusselt/Rayleigh correlation definitions must branch,
/// clamp or assert somewhere in their body.
void checkRangeGuard(const std::string &Path, const std::vector<Token> &Toks,
                     const SuppressionMap &Sup, LintStats &Stats) {
  auto IsCorrelationName = [](const std::string &Name) {
    return Name.find("Nusselt") != std::string::npos ||
           Name.find("nusselt") != std::string::npos ||
           Name.find("Rayleigh") != std::string::npos ||
           Name.find("rayleigh") != std::string::npos;
  };
  for (size_t I = 0; I + 1 < Toks.size(); ++I) {
    if (Toks[I].Kind != TokenKind::Identifier ||
        !IsCorrelationName(Toks[I].Text) || Toks[I + 1].Text != "(")
      continue;
    // Find the closing paren of the parameter list.
    size_t J = I + 1;
    int Depth = 0;
    for (; J < Toks.size(); ++J) {
      if (Toks[J].Text == "(")
        ++Depth;
      else if (Toks[J].Text == ")" && --Depth == 0)
        break;
    }
    if (J >= Toks.size())
      continue;
    // A definition has `{` next (possibly after const/noexcept); a call or
    // declaration does not.
    size_t K = J + 1;
    while (K < Toks.size() && Toks[K].Kind == TokenKind::Identifier &&
           (Toks[K].Text == "const" || Toks[K].Text == "noexcept"))
      ++K;
    if (K >= Toks.size() || Toks[K].Text != "{")
      continue;
    // Scan the brace-matched body for a guard.
    bool Guarded = false;
    int Braces = 0;
    size_t Body = K;
    for (; Body < Toks.size(); ++Body) {
      const std::string &T = Toks[Body].Text;
      if (T == "{")
        ++Braces;
      else if (T == "}" && --Braces == 0)
        break;
      if (T == "if" || T == "clamp" || T == "min" || T == "max" ||
          T == "assert" || T == "<" || T == ">" || T == "<=" || T == ">=")
        Guarded = true;
    }
    if (!Guarded)
      report(Stats, Sup,
             {Path, Toks[I].Line, "range-guard",
              "correlation '" + Toks[I].Text +
                  "' has no validity-range guard (branch, clamp or "
                  "assert) in its body"});
    I = Body;
  }
}

/// banned-idiom: library calls the repo forbids.
void checkBannedIdiom(const std::string &Path, const std::vector<Token> &Toks,
                      const SuppressionMap &Sup, LintStats &Stats) {
  static const std::pair<const char *, const char *> Banned[] = {
      {"rand", "use rcs::Rng (support/Random.h) for reproducible streams"},
      {"srand", "use rcs::Rng (support/Random.h) for reproducible streams"},
      {"atof", "no error reporting; use std::strtod with an end pointer"},
      {"gets", "unbounded read"},
  };
  for (size_t I = 0; I + 1 < Toks.size(); ++I) {
    if (Toks[I].Kind != TokenKind::Identifier || Toks[I + 1].Text != "(")
      continue;
    // Skip member accesses (obj.rand(), obj->rand()) — different function.
    if (I > 0 && (Toks[I - 1].Text == "." || Toks[I - 1].Text == "->"))
      continue;
    for (auto [Fn, Why] : Banned) {
      if (Toks[I].Text == Fn)
        report(Stats, Sup,
               {Path, Toks[I].Line, "banned-idiom",
                "call to '" + Toks[I].Text + "': " + Why});
    }
  }
}

/// float-equality: `==`/`!=` with a floating literal on either side.
void checkFloatEquality(const std::string &Path,
                        const std::vector<Token> &Toks,
                        const SuppressionMap &Sup, LintStats &Stats) {
  for (size_t I = 1; I + 1 < Toks.size(); ++I) {
    if (Toks[I].Text != "==" && Toks[I].Text != "!=")
      continue;
    if (!isFloatLiteral(Toks[I - 1]) && !isFloatLiteral(Toks[I + 1]))
      continue;
    report(Stats, Sup,
           {Path, Toks[I].Line, "float-equality",
            "'" + Toks[I].Text +
                "' against a floating-point literal; use rcs::approxEqual "
                "or rcs::nearZero (support/Numerics.h)"});
  }
}

/// expected-discard: a whole statement that calls a function declared in
/// this file to return Status or Expected<T> and drops the result. The
/// file-local declaration set keeps the token-level check honest: names
/// from other headers never trigger. `(void)f();` passes (the walk-back
/// below lands on `)` rather than a statement boundary), `f();` does not.
void checkExpectedDiscard(const std::string &Path,
                          const std::vector<Token> &Toks,
                          const SuppressionMap &Sup, LintStats &Stats) {
  // The first identifier of a possibly-qualified function name whose
  // parameter list opens right after `A::B::name(`; 0 when \p TypeEnd is
  // not followed by one.
  auto FunctionNameAfter = [&](size_t TypeEnd) -> size_t {
    size_t J = TypeEnd;
    while (J + 1 < Toks.size() && Toks[J].Kind == TokenKind::Identifier &&
           Toks[J + 1].Text == "::")
      J += 2;
    if (J + 1 < Toks.size() && Toks[J].Kind == TokenKind::Identifier &&
        Toks[J + 1].Text == "(")
      return J;
    return 0;
  };

  // Pass 1: names this file declares (or defines) with a must-check
  // return type.
  std::set<std::string> MustUse;
  for (size_t I = 0; I + 1 < Toks.size(); ++I) {
    if (Toks[I].Kind != TokenKind::Identifier)
      continue;
    size_t NameAt = 0;
    if (Toks[I].Text == "Status") {
      NameAt = FunctionNameAfter(I + 1);
    } else if (Toks[I].Text == "Expected" && Toks[I + 1].Text == "<") {
      int Depth = 0;
      size_t J = I + 1;
      for (; J < Toks.size(); ++J) {
        if (Toks[J].Text == "<")
          ++Depth;
        else if (Toks[J].Text == ">" && --Depth == 0)
          break;
      }
      if (J < Toks.size())
        NameAt = FunctionNameAfter(J + 1);
    }
    if (NameAt != 0)
      MustUse.insert(Toks[NameAt].Text);
  }
  if (MustUse.empty())
    return;

  // Pass 2: statement-position calls of those names whose value nothing
  // consumes.
  for (size_t I = 1; I + 1 < Toks.size(); ++I) {
    if (Toks[I].Kind != TokenKind::Identifier ||
        MustUse.count(Toks[I].Text) == 0 || Toks[I + 1].Text != "(")
      continue;
    // Walk back over the receiver/namespace chain (`obj.`, `p->`, `ns::`)
    // to where the statement would begin.
    size_t S = I;
    while (S >= 2 &&
           (Toks[S - 1].Text == "." || Toks[S - 1].Text == "->" ||
            Toks[S - 1].Text == "::") &&
           Toks[S - 2].Kind == TokenKind::Identifier)
      S -= 2;
    const std::string &Prev = Toks[S - 1].Text;
    if (Prev != ";" && Prev != "{" && Prev != "}")
      continue; // Assigned, returned, cast, declared — someone looks at it.
    // The call must be the entire statement: matching ')' then ';'.
    int Depth = 0;
    size_t J = I + 1;
    for (; J < Toks.size(); ++J) {
      if (Toks[J].Text == "(")
        ++Depth;
      else if (Toks[J].Text == ")" && --Depth == 0)
        break;
    }
    if (J + 1 >= Toks.size() || Toks[J + 1].Text != ";")
      continue;
    report(Stats, Sup,
           {Path, Toks[I].Line, "expected-discard",
            "result of '" + Toks[I].Text +
                "' (Status/Expected) is discarded; check it or cast to "
                "(void)"});
  }
}

/// magic-number-table: a floating literal repeated inside one braced
/// initializer. Findings anchor at the initializer's opening brace, so a
/// single `skatlint:ignore(magic-number-table)` comment above the table
/// justifies every repeat it contains.
void checkMagicNumberTable(const std::string &Path,
                           const std::vector<Token> &Toks,
                           const SuppressionMap &Sup, LintStats &Stats) {
  // Fewer literals than this is a small aggregate initializer, not a
  // data table; repetition there is usually structural.
  constexpr int MinTableLiterals = 6;
  constexpr int MinRepeats = 3;
  // Structural values that legitimately pad tables.
  auto IsTrivial = [](const std::string &Text) {
    return Text == "0.0" || Text == "1.0" || Text == "0.5" || Text == "2.0" ||
           Text == "10.0" || Text == "100.0" || Text == "1e-3" ||
           Text == "1e-6" || Text == "1e-9" || Text == "1e3" ||
           Text == "1e6" || Text == "1e9";
  };
  for (size_t I = 0; I + 1 < Toks.size(); ++I) {
    if (Toks[I].Text != "=" || Toks[I + 1].Text != "{")
      continue;
    size_t Open = I + 1;
    // First-seen order, so reports are deterministic by table position.
    std::vector<std::pair<std::string, int>> Counts;
    int NumLiterals = 0;
    int Depth = 0;
    size_t J = Open;
    for (; J < Toks.size(); ++J) {
      if (Toks[J].Text == "{") {
        ++Depth;
        continue;
      }
      if (Toks[J].Text == "}" && --Depth == 0)
        break;
      if (!isFloatLiteral(Toks[J]))
        continue;
      ++NumLiterals;
      auto It = std::find_if(Counts.begin(), Counts.end(),
                             [&](const auto &E) {
                               return E.first == Toks[J].Text;
                             });
      if (It == Counts.end())
        Counts.push_back({Toks[J].Text, 1});
      else
        ++It->second;
    }
    if (J >= Toks.size())
      break;
    if (NumLiterals >= MinTableLiterals) {
      for (const auto &[Text, N] : Counts) {
        if (N < MinRepeats || IsTrivial(Text))
          continue;
        report(Stats, Sup,
               {Path, Toks[Open].Line, "magic-number-table",
                "literal '" + Text + "' repeats " + std::to_string(N) +
                    " times in this initializer; hoist it into a named "
                    "constant or justify with "
                    "skatlint:ignore(magic-number-table)"});
      }
    }
    I = J;
  }
}

/// raw-mutex: `std::mutex` and the rest of the raw locking vocabulary are
/// invisible to Clang's thread-safety analysis; all of src/ locks through
/// the annotated rcs::Mutex / rcs::LockGuard wrappers instead
/// (support/ThreadSafety.h), so `RCS_GUARDED_BY` members are actually
/// checked. `#include <mutex>` lines do not trigger (the tokenizer drops
/// preprocessor lines); only spelled-out std:: lock types do.
void checkRawMutex(const std::string &Path, const std::vector<Token> &Toks,
                   const SuppressionMap &Sup, LintStats &Stats) {
  static const char *const RawLockTypes[] = {
      "mutex",          "timed_mutex",
      "recursive_mutex", "recursive_timed_mutex",
      "shared_mutex",   "shared_timed_mutex",
      "lock_guard",     "unique_lock",
      "scoped_lock",    "shared_lock",
      "condition_variable", "condition_variable_any",
  };
  for (size_t I = 0; I + 2 < Toks.size(); ++I) {
    if (Toks[I].Kind != TokenKind::Identifier || Toks[I].Text != "std" ||
        Toks[I + 1].Text != "::" ||
        Toks[I + 2].Kind != TokenKind::Identifier)
      continue;
    for (const char *Type : RawLockTypes) {
      if (Toks[I + 2].Text == Type) {
        report(Stats, Sup,
               {Path, Toks[I].Line, "raw-mutex",
                "'std::" + Toks[I + 2].Text +
                    "' bypasses the thread-safety annotations; use "
                    "rcs::Mutex / rcs::LockGuard (support/ThreadSafety.h) "
                    "or justify a suppression"});
        break;
      }
    }
  }
}

/// unguarded-shared-static: mutable `static` state at file, namespace or
/// class scope is shared by every thread that touches the library. The
/// declaration must make its synchronization visible: RCS_GUARDED_BY /
/// RCS_PT_GUARDED_BY, std::atomic / std::once_flag, an rcs::Mutex itself,
/// const/constexpr/constinit immutability, or thread_local confinement.
/// Function-local statics are not flagged (magic statics are
/// init-thread-safe, and the repo's are all immutable-after-init or
/// atomic — the raw-mutex and guarded-by layers cover their contents).
void checkUnguardedSharedStatic(const std::string &Path,
                                const std::vector<Token> &Toks,
                                const SuppressionMap &Sup,
                                LintStats &Stats) {
  enum class Scope { Namespace, Class, Other };
  // Classifies the region that opens with the `{` at \p Open by scanning
  // back to the previous statement/brace boundary: `namespace ... {`,
  // `class/struct/union/enum ... {`, anything else (function bodies,
  // control flow, lambdas, braced initializers).
  auto ClassifyBrace = [&](size_t Open) {
    for (size_t K = Open; K-- > 0;) {
      const Token &T = Toks[K];
      if (T.Text == ";" || T.Text == "{" || T.Text == "}" || T.Text == ")")
        break;
      if (T.Kind != TokenKind::Identifier)
        continue;
      if (T.Text == "namespace")
        return Scope::Namespace;
      if (T.Text == "class" || T.Text == "struct" || T.Text == "union" ||
          T.Text == "enum")
        return Scope::Class;
    }
    return Scope::Other;
  };

  std::vector<Scope> Stack;
  for (size_t I = 0; I < Toks.size(); ++I) {
    if (Toks[I].Text == "{") {
      Stack.push_back(ClassifyBrace(I));
      continue;
    }
    if (Toks[I].Text == "}") {
      if (!Stack.empty())
        Stack.pop_back();
      continue;
    }
    if (Toks[I].Kind != TokenKind::Identifier || Toks[I].Text != "static")
      continue;
    bool SharedScope =
        Stack.empty() || Stack.back() == Scope::Namespace ||
        Stack.back() == Scope::Class;
    if (!SharedScope)
      continue;

    // Walk the declaration. A declarator followed by `(` before any `=`
    // is a function (fine); immunity words make the sharing safe.
    bool Safe = false;
    std::string Name = "declaration";
    size_t J = I + 1;
    for (; J < Toks.size(); ++J) {
      const std::string &T = Toks[J].Text;
      if (T == ";" || T == "=" || T == "{")
        break;
      if (Toks[J].Kind == TokenKind::Identifier) {
        if (T == "const" || T == "constexpr" || T == "constinit" ||
            T == "thread_local" || T == "atomic" || T == "once_flag" ||
            T == "Mutex" || T == "RCS_GUARDED_BY" ||
            T == "RCS_PT_GUARDED_BY") {
          Safe = true;
          break;
        }
        Name = T;
        if (J + 1 < Toks.size() && Toks[J + 1].Text == "(") {
          Safe = true; // function declaration/definition
          break;
        }
      }
    }
    if (Safe)
      continue;
    report(Stats, Sup,
           {Path, Toks[I].Line, "unguarded-shared-static",
            "mutable shared static '" + Name +
                "' has no visible synchronization; mark it "
                "RCS_GUARDED_BY(<mutex>), make it atomic/const, or "
                "justify with skatlint:ignore(unguarded-shared-static)"});
    I = J;
  }
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

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

bool isSourcePath(const std::filesystem::path &P) {
  std::string Ext = P.extension().string();
  return Ext == ".h" || Ext == ".hpp" || Ext == ".cpp" || Ext == ".cc" ||
         Ext == ".cxx";
}

Status lintFile(const std::string &Path, LintStats &Stats) {
  Expected<std::string> Text = readFile(Path);
  if (!Text)
    return Status::error(Text.message());
  SuppressionMap Suppressions;
  std::vector<Token> Toks = tokenize(*Text, Suppressions);
  checkUnitSuffix(Path, Toks, Suppressions, Stats);
  checkConversionRoundtrip(Path, Toks, Suppressions, Stats);
  checkRangeGuard(Path, Toks, Suppressions, Stats);
  checkBannedIdiom(Path, Toks, Suppressions, Stats);
  checkFloatEquality(Path, Toks, Suppressions, Stats);
  checkExpectedDiscard(Path, Toks, Suppressions, Stats);
  checkMagicNumberTable(Path, Toks, Suppressions, Stats);
  checkRawMutex(Path, Toks, Suppressions, Stats);
  checkUnguardedSharedStatic(Path, Toks, Suppressions, Stats);
  ++Stats.FilesScanned;
  return Status::ok();
}

void printRules() {
  std::printf(
      "unit-suffix           header doubles must carry a unit suffix or a\n"
      "                      sanctioned dimensionless word\n"
      "conversion-roundtrip  a unit conversion composed with its inverse\n"
      "range-guard           correlations must guard their validity range\n"
      "banned-idiom          rand/srand/atof/gets are forbidden\n"
      "float-equality        ==/!= against a floating literal\n"
      "expected-discard      a Status/Expected return dropped on the floor\n"
      "magic-number-table    a floating literal repeated >= 3 times in one\n"
      "                      table initializer; name it or justify it\n"
      "raw-mutex             std::mutex/std::lock_guard bypass the\n"
      "                      annotations; use rcs::Mutex / rcs::LockGuard\n"
      "unguarded-shared-static  a mutable namespace/class-scope static\n"
      "                      needs RCS_GUARDED_BY, atomic, or const\n"
      "\nSuppress with: // skatlint:ignore(<rule>[,<rule>...])\n");
}

std::string summaryCounts(const std::map<std::string, int> &Counts) {
  std::string Out;
  for (const auto &[Rule, N] : Counts)
    Out += " " + Rule + "=" + std::to_string(N);
  return Out.empty() ? " none" : Out;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Paths;
  std::string JsonlPath;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--list-rules") {
      printRules();
      return 0;
    }
    if (Arg == "--jsonl") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "skatlint: --jsonl needs a file argument\n");
        return 2;
      }
      JsonlPath = Argv[++I];
      continue;
    }
    if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "skatlint: unknown option '%s'\n", Arg.c_str());
      return 2;
    }
    Paths.push_back(Arg);
  }
  if (Paths.empty()) {
    std::fprintf(stderr,
                 "usage: skatlint [--jsonl <file>] [--list-rules] "
                 "<file-or-dir>...\n");
    return 2;
  }

  // Expand directories into source files, deterministically ordered.
  std::vector<std::string> Files;
  for (const std::string &P : Paths) {
    std::error_code Ec;
    if (std::filesystem::is_directory(P, Ec)) {
      for (auto It = std::filesystem::recursive_directory_iterator(P, Ec);
           !Ec && It != std::filesystem::recursive_directory_iterator();
           ++It) {
        if (It->is_directory() &&
            (It->path().filename() == ".git" ||
             It->path().filename().string().rfind("build", 0) == 0)) {
          It.disable_recursion_pending();
          continue;
        }
        if (It->is_regular_file() && isSourcePath(It->path()))
          Files.push_back(It->path().string());
      }
    } else {
      Files.push_back(P);
    }
  }
  std::sort(Files.begin(), Files.end());

  LintStats Stats;
  for (const std::string &File : Files) {
    Status S = lintFile(File, Stats);
    if (!S.ok()) {
      std::fprintf(stderr, "skatlint: %s\n", S.message().c_str());
      return 2;
    }
  }

  std::sort(Stats.Findings.begin(), Stats.Findings.end(),
            [](const Finding &A, const Finding &B) {
              if (A.File != B.File)
                return A.File < B.File;
              if (A.Line != B.Line)
                return A.Line < B.Line;
              return A.Rule < B.Rule;
            });
  for (const Finding &F : Stats.Findings)
    std::printf("%s:%d: [%s] %s\n", F.File.c_str(), F.Line, F.Rule.c_str(),
                F.Message.c_str());

  int Suppressed = 0;
  for (const auto &[Rule, N] : Stats.SuppressedCounts)
    Suppressed += N;
  std::printf("skatlint: %zu finding(s) in %d file(s):%s (suppressed: %d)\n",
              Stats.Findings.size(), Stats.FilesScanned,
              summaryCounts(Stats.RuleCounts).c_str(), Suppressed);

  if (!JsonlPath.empty()) {
    std::FILE *Out = std::fopen(JsonlPath.c_str(), "wb");
    if (!Out) {
      std::fprintf(stderr, "skatlint: cannot write '%s'\n",
                   JsonlPath.c_str());
      return 2;
    }
    for (const Finding &F : Stats.Findings)
      std::fprintf(Out, "{\"file\": %s, \"line\": %d, \"rule\": %s, "
                        "\"message\": %s}\n",
                   telemetry::jsonQuote(F.File).c_str(), F.Line,
                   telemetry::jsonQuote(F.Rule).c_str(),
                   telemetry::jsonQuote(F.Message).c_str());
    std::string Rules;
    for (const auto &[Rule, N] : Stats.RuleCounts) {
      if (!Rules.empty())
        Rules += ", ";
      Rules += telemetry::jsonQuote(Rule) + ": " + std::to_string(N);
    }
    std::fprintf(Out,
                 "{\"summary\": true, \"files\": %d, \"findings\": %zu, "
                 "\"suppressed\": %d, \"rules\": {%s}}\n",
                 Stats.FilesScanned, Stats.Findings.size(), Suppressed,
                 Rules.c_str());
    std::fclose(Out);
  }

  return Stats.Findings.empty() ? 0 : 1;
}
