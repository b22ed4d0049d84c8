// Shared scaffolding for the Loki test suites: scoped temporary directories,
// golden-CSV comparison with numeric tolerance, and deterministic-seed
// helpers so every suite is bit-reproducible across runs.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace loki::test {

/// Creates a unique directory under the system temp root on construction and
/// removes it (recursively) on destruction. Use one per test to keep file
/// I/O tests hermetic.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix = "loki_test");
  ~TempDir();

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  /// Absolute path for a file named `name` inside the temp dir.
  std::string file(const std::string& name) const;

 private:
  std::filesystem::path path_;
};

/// Result of comparing two CSV files cell by cell.
struct CsvDiff {
  bool equal = true;
  std::string message;  // human-readable description of the first mismatch
};

/// Compares two CSV files. Cells that parse as doubles on both sides are
/// compared with |a-b| <= abs_tol + rel_tol*max(|a|,|b|); all other cells
/// must match exactly. Row/column count mismatches are reported too.
CsvDiff compare_csv_files(const std::string& expected_path,
                          const std::string& actual_path,
                          double abs_tol = 1e-9, double rel_tol = 1e-9);

/// Writes `content` to `path`, creating parent directories as needed.
void write_file(const std::string& path, const std::string& content);

/// Reads the whole file at `path`; fails the calling test via ADD_FAILURE
/// and returns "" if it cannot be opened.
std::string read_file(const std::string& path);

/// The single seed every randomized test should derive its RNGs from.
/// Override with LOKI_TEST_SEED in the environment to shake out
/// seed-sensitivity locally; CI always runs the default.
std::uint64_t test_seed();

/// Stable per-case seed: mixes test_seed() with a label such as the test
/// name, so suites can use independent-but-reproducible streams.
std::uint64_t test_seed(const std::string& label);

/// True when built under Address/UB or thread sanitizers.
constexpr bool built_with_sanitizers() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// Multiplier for wall-clock budgets in timing assertions: sanitizer and
/// unoptimized debug builds run the solver an order of magnitude slower, so
/// perf tests scale their bounds by this instead of flaking.
constexpr double timing_budget_scale() {
#ifdef NDEBUG
  return built_with_sanitizers() ? 25.0 : 1.0;
#else
  return built_with_sanitizers() ? 25.0 : 10.0;
#endif
}

}  // namespace loki::test
