// Leveled structured logger for the sweep/serving engine.
//
// Knob: VLACNN_LOG=off|info|debug (default off; an unrecognized value throws,
// like every knob — grammar in common/env.h). Lines go to
// stderr as `[vlacnn:<level>] <component>: <message> key=value ...` — one
// write per line, so concurrent sweep workers never interleave mid-line.
//
// log_enabled() is the hot-path gate: a relaxed load of the cached level.
#pragma once

#include <initializer_list>
#include <string>
#include <utility>

namespace vlacnn::obs {

enum class LogLevel { kOff = 0, kInfo = 1, kDebug = 2 };

/// Current level; first call parses VLACNN_LOG, later calls are one load.
LogLevel log_level();

/// Programmatic override of the env knob (tests).
void set_log_level(LogLevel level);

inline bool log_enabled(LogLevel at) {
  return static_cast<int>(log_level()) >= static_cast<int>(at);
}

/// Emit one structured line when `at` is enabled. Values containing spaces
/// are quoted so the line stays machine-splittable.
void log(LogLevel at, const char* component, const std::string& message,
         std::initializer_list<std::pair<const char*, std::string>> fields = {});

}  // namespace vlacnn::obs
