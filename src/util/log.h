// Minimal leveled logger. MCFS logs every executed operation with its
// parameters so discrepancies are replayable (paper §2: "Spin logs the
// precise sequence of operations, parameters, and starting and ending
// states"). Trace recording proper lives in mcfs/trace.h; this logger is
// for human-facing diagnostics.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace mcfs {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

// Minimum level; messages below it are discarded.
inline constexpr LogLevel kLogThreshold = LogLevel::kWarn;

// Emits a formatted line to stderr if `level` passes the threshold.
void LogMessage(LogLevel level, std::string_view msg);

namespace internal {

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { LogMessage(level_, stream_.str()); }

  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    if (level_ >= kLogThreshold) stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

}  // namespace mcfs

#define MCFS_LOG_DEBUG ::mcfs::internal::LogLine(::mcfs::LogLevel::kDebug)
#define MCFS_LOG_INFO ::mcfs::internal::LogLine(::mcfs::LogLevel::kInfo)
#define MCFS_LOG_WARN ::mcfs::internal::LogLine(::mcfs::LogLevel::kWarn)
#define MCFS_LOG_ERROR ::mcfs::internal::LogLine(::mcfs::LogLevel::kError)
