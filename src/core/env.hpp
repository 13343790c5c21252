#pragma once
// Strict environment-knob parsing, shared by every SYMBAD_* integer knob.
//
// The repo's determinism contract requires misconfigured knobs to fail
// loudly instead of silently falling back (ARCHITECTURE.md): `atoi`-style
// parsing used to map garbage ("abc") and nonsense ("-3") to whatever the
// caller's default was. Every subsystem that reads a knob (exec's worker
// count, the obs level, gen's sweep sizes) calls this one strict `strtol`
// loop.

#include <optional>

namespace symbad::core {

/// Parses an already-fetched knob value strictly: the full string must be
/// a base-10 integer in [lo, hi], otherwise throws std::invalid_argument
/// naming the knob, the accepted range and the offending value. Exposed
/// separately from `parse_env_int` so tests can exercise the parser
/// without mutating the process environment.
long parse_env_value(const char* name, const char* value, long lo, long hi);

/// Reads environment variable `name`. Unset -> std::nullopt; set -> the
/// strictly parsed value (see parse_env_value; garbage throws, it never
/// falls back).
std::optional<long> parse_env_int(const char* name, long lo, long hi);

}  // namespace symbad::core
