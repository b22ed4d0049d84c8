// Tiny leveled logger. Single global sink; not on any hot path (workers log
// nothing per query). Thread-safe via a mutex on emission.
#pragma once

#include <sstream>
#include <string>

namespace loki {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Minimum level that is emitted.
inline constexpr LogLevel kLogLevel = LogLevel::kInfo;

namespace detail {
void log_emit(LogLevel level, const std::string& msg);
}

}  // namespace loki

#define LOKI_LOG(level, expr)                                        \
  do {                                                               \
    if (static_cast<int>(level) >=                                   \
        static_cast<int>(::loki::kLogLevel)) {                       \
      std::ostringstream loki_log_os_;                               \
      loki_log_os_ << expr;                                          \
      ::loki::detail::log_emit(level, loki_log_os_.str());           \
    }                                                                \
  } while (0)

#define LOG_DEBUG(expr) LOKI_LOG(::loki::LogLevel::kDebug, expr)
#define LOG_INFO(expr) LOKI_LOG(::loki::LogLevel::kInfo, expr)
#define LOG_WARN(expr) LOKI_LOG(::loki::LogLevel::kWarn, expr)
#define LOG_ERROR(expr) LOKI_LOG(::loki::LogLevel::kError, expr)
