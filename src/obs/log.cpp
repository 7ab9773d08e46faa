#include "obs/log.h"

#include <atomic>
#include <cstdio>

#include "common/env.h"

namespace vlacnn::obs {

namespace {

LogLevel parse_log_env() {
  constexpr int off = static_cast<int>(LogLevel::kOff);
  constexpr int info = static_cast<int>(LogLevel::kInfo);
  constexpr int debug = static_cast<int>(LogLevel::kDebug);
  return static_cast<LogLevel>(
      env_word("VLACNN_LOG", {{"off", off}, {"0", off}, {"false", off},
                              {"no", off}, {"info", info}, {"1", info},
                              {"debug", debug}, {"2", debug}})
          .value_or(off));
}

// -1 = not yet parsed from the environment.
std::atomic<int> g_level{-1};

const char* level_name(LogLevel l) {
  switch (l) {
    case LogLevel::kInfo: return "info";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kOff: break;
  }
  return "off";
}

}  // namespace

LogLevel log_level() {
  int l = g_level.load(std::memory_order_relaxed);
  if (l < 0) {
    l = static_cast<int>(parse_log_env());
    int expected = -1;
    g_level.compare_exchange_strong(expected, l, std::memory_order_relaxed);
    l = g_level.load(std::memory_order_relaxed);
  }
  return static_cast<LogLevel>(l);
}

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void log(LogLevel at, const char* component, const std::string& message,
         std::initializer_list<std::pair<const char*, std::string>> fields) {
  if (at == LogLevel::kOff || !log_enabled(at)) return;
  std::string line = "[vlacnn:";
  line += level_name(at);
  line += "] ";
  line += component;
  line += ": ";
  line += message;
  for (const auto& [key, value] : fields) {
    line += ' ';
    line += key;
    line += '=';
    const bool quote = value.find(' ') != std::string::npos || value.empty();
    if (quote) line += '"';
    line += value;
    if (quote) line += '"';
  }
  line += '\n';
  // One fputs per line: stderr is unbuffered but fputs of a whole string is
  // atomic enough that concurrent workers do not interleave mid-line.
  std::fputs(line.c_str(), stderr);
}

}  // namespace vlacnn::obs
