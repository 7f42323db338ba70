// Minimal leveled logging.
//
// Experiments run millions of simulated packets; logging defaults to WARN so
// the hot path stays quiet. Components log through BARB_LOG(level, ...) with
// printf-style formatting; a line reads "[LEVEL] <message>", and the message
// names its component. Lines carry no source path or line number, so a
// run's output does not depend on where the tree was checked out or on
// edits elsewhere in the file. The sink is a global because log output is
// process-wide diagnostics, not simulation state.
#pragma once

#include <atomic>
#include <cstdarg>
#include <cstdio>

namespace barb {

enum class LogLevel : int { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4 };

class Logger {
 public:
  static Logger& instance() {
    static Logger logger;
    return logger;
  }

  void set_level(LogLevel level) { level_.store(level, std::memory_order_relaxed); }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }
  bool enabled(LogLevel level) const { return level >= this->level(); }

  void logf(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 3, 4))) {
    if (!enabled(level)) return;
    std::fprintf(stderr, "[%s] ", level_name(level));
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
  }

 private:
  Logger() = default;
  static const char* level_name(LogLevel level) {
    switch (level) {
      case LogLevel::kTrace: return "TRACE";
      case LogLevel::kDebug: return "DEBUG";
      case LogLevel::kInfo: return "INFO";
      case LogLevel::kWarn: return "WARN";
      case LogLevel::kError: return "ERROR";
    }
    return "?";
  }

  // Atomic so sweep-runner worker threads can consult (or a test can set)
  // the level while others log; the sink itself relies on stderr's own
  // per-call locking.
  std::atomic<LogLevel> level_{LogLevel::kWarn};
};

}  // namespace barb

#define BARB_LOG(level, ...)                                 \
  do {                                                       \
    if (::barb::Logger::instance().enabled(level))           \
      ::barb::Logger::instance().logf(level, __VA_ARGS__);   \
  } while (0)

#define BARB_TRACE(...) BARB_LOG(::barb::LogLevel::kTrace, __VA_ARGS__)
#define BARB_DEBUG(...) BARB_LOG(::barb::LogLevel::kDebug, __VA_ARGS__)
#define BARB_INFO(...) BARB_LOG(::barb::LogLevel::kInfo, __VA_ARGS__)
#define BARB_WARN(...) BARB_LOG(::barb::LogLevel::kWarn, __VA_ARGS__)
#define BARB_ERROR(...) BARB_LOG(::barb::LogLevel::kError, __VA_ARGS__)
