#include "fs/path.h"

namespace mcfs::fs {

Result<std::vector<std::string>> SplitPath(std::string_view path) {
  if (path.empty() || path.front() != '/') return Errno::kEINVAL;
  if (path.size() > kPathMax) return Errno::kENAMETOOLONG;

  std::vector<std::string> components;
  std::size_t pos = 1;
  while (pos <= path.size()) {
    std::size_t next = path.find('/', pos);
    if (next == std::string_view::npos) next = path.size();
    std::string_view comp = path.substr(pos, next - pos);
    if (!comp.empty()) {
      if (comp.size() > kNameMax) return Errno::kENAMETOOLONG;
      if (comp == "." || comp == "..") return Errno::kEINVAL;
      if (comp.find('\0') != std::string_view::npos) return Errno::kEINVAL;
      components.emplace_back(comp);
    }
    pos = next + 1;
  }
  return components;
}

std::string JoinPath(const std::vector<std::string>& components) {
  if (components.empty()) return "/";
  std::string out;
  for (const auto& c : components) {
    out.push_back('/');
    out.append(c);
  }
  return out;
}

std::string ParentPath(std::string_view path) {
  auto split = SplitPath(path);
  if (!split.ok() || split.value().empty()) return "/";
  auto components = std::move(split).value();
  components.pop_back();
  return JoinPath(components);
}

std::string Basename(std::string_view path) {
  auto split = SplitPath(path);
  if (!split.ok() || split.value().empty()) return "";
  return split.value().back();
}

bool IsPathPrefix(std::string_view prefix, std::string_view path) {
  auto pre = SplitPath(prefix);
  auto full = SplitPath(path);
  if (!pre.ok() || !full.ok()) return false;
  const auto& p = pre.value();
  const auto& f = full.value();
  if (p.size() > f.size()) return false;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] != f[i]) return false;
  }
  return true;
}

}  // namespace mcfs::fs
