// Where benches and examples drop their data artifacts (figure CSVs, EBF /
// GDS outputs). By default they land in the working directory; setting
// EBL_ARTIFACT_DIR routes them elsewhere (CI points it at build/ so repeated
// runs never litter the repo root). Benchmark trajectory files
// (BENCH_*.json) intentionally do NOT use this: they are tracked history and
// belong at the repo root.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace ebl {

/// @p name prefixed with $EBL_ARTIFACT_DIR when set (and non-empty), else
/// unchanged. A missing directory is created (with its parents); if that
/// fails, the writer that opens the path reports the error. No separators
/// are added beyond one '/'.
inline std::string artifact_path(const std::string& name) {
  const char* dir = std::getenv("EBL_ARTIFACT_DIR");
  if (dir == nullptr || dir[0] == '\0') return name;
  std::string path = dir;
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (path.back() != '/') path += '/';
  return path + name;
}

}  // namespace ebl
