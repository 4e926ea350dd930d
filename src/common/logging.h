// Tiny logger for warnings and errors, written to stderr. There are no
// lower levels, so simulations stay quiet unless something went wrong.
#pragma once

#include <sstream>
#include <string>

namespace lnic {

enum class LogLevel { kWarn, kError };

/// Emits one line to stderr.
void log_line(LogLevel level, const std::string& message);

namespace detail {
class LogMessage {
 public:
  LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { log_line(level_, stream_.str()); }
  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace lnic

#define LNIC_LOG(level) ::lnic::detail::LogMessage(::lnic::LogLevel::level)
#define LNIC_WARN() LNIC_LOG(kWarn)
#define LNIC_ERROR() LNIC_LOG(kError)
