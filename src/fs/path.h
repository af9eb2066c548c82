// Path parsing and normalization shared by all file systems.
//
// Paths in this library are absolute, '/'-separated, and rooted at the
// file system's own root ("/" is the mount point itself). Normalization is
// purely lexical; symlink resolution is each file system's job.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace mcfs::fs {

// Longest permitted single component, mirroring NAME_MAX.
constexpr std::size_t kNameMax = 255;
// Longest permitted full path, mirroring PATH_MAX (smaller: bounded pools).
constexpr std::size_t kPathMax = 4096;

// Splits an absolute path into components. Rejects empty paths, relative
// paths, components over kNameMax, "." / ".." components (the bounded
// parameter pools never generate them, and lexical ".." handling differs
// across real file systems in ways irrelevant to the paper), and embedded
// NUL. "/" yields an empty vector.
Result<std::vector<std::string>> SplitPath(std::string_view path);

// Joins components back into an absolute path ("/" for none).
std::string JoinPath(const std::vector<std::string>& components);

// Lexical parent ("/a/b" -> "/a", "/a" -> "/", "/" -> "/").
std::string ParentPath(std::string_view path);

// Final component ("/a/b" -> "b", "/" -> "").
std::string Basename(std::string_view path);

// True if `prefix` is `path` itself or an ancestor directory of it
// ("/a" is a path-prefix of "/a/b/c" but not of "/ab").
bool IsPathPrefix(std::string_view prefix, std::string_view path);

}  // namespace mcfs::fs
