#include "util/log.h"

#include <cstdio>

namespace mcfs {
namespace {

constexpr const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "D";
    case LogLevel::kInfo: return "I";
    case LogLevel::kWarn: return "W";
    case LogLevel::kError: return "E";
  }
  return "?";
}

}  // namespace

void LogMessage(LogLevel level, std::string_view msg) {
  if (level < kLogThreshold || msg.empty()) return;
  std::fprintf(stderr, "[mcfs %s] %.*s\n", LevelTag(level),
               static_cast<int>(msg.size()), msg.data());
}

}  // namespace mcfs
