#include "common/log.hpp"

#include <iostream>
#include <mutex>

namespace loki {

namespace {
std::mutex g_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}
}  // namespace

namespace detail {
void log_emit(LogLevel level, const std::string& msg) {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::cerr << "[" << level_name(level) << "] " << msg << "\n";
}
}  // namespace detail

}  // namespace loki
