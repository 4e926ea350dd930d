#include "common/logging.h"

#include <cstdio>

namespace lnic {

void log_line(LogLevel level, const std::string& message) {
  const char* name = level == LogLevel::kWarn ? "WARN" : "ERROR";
  std::fprintf(stderr, "[%s] %s\n", name, message.c_str());
}

}  // namespace lnic
