// Tests for the utility layer: RNG determinism, CSV escaping, tables,
// contracts, artifact paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include <unistd.h>

#include "util/artifacts.h"
#include "util/contracts.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/table.h"

namespace ebl {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 4);
}

TEST(Rng, KnownFirstValue) {
  // Pin the exact sequence so workloads stay byte-identical forever.
  Rng r(42);
  const std::uint64_t first = r.next();
  Rng r2(42);
  EXPECT_EQ(r2.next(), first);
  EXPECT_NE(first, 0u);
}

TEST(Rng, UniformBoundsRespected) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = r.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_EQ(r.uniform(3, 3), 3);
  EXPECT_THROW(r.uniform(5, 4), ContractViolation);
}

TEST(Rng, UniformCoversRange) {
  Rng r(9);
  bool seen[4] = {};
  for (int i = 0; i < 200; ++i) seen[r.uniform(0, 3)] = true;
  EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
}

TEST(Rng, Uniform01InRange) {
  Rng r(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng r(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Csv, WritesAndEscapes) {
  const std::string path = "util_test_tmp.csv";
  {
    CsvWriter w(path);
    w.header({"a", "b"});
    w.row(1, "plain");
    w.row(2.5, "with,comma");
    w.row(3, "with\"quote");
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,plain");
  std::getline(in, line);
  EXPECT_EQ(line, "2.5,\"with,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "3,\"with\"\"quote\"");
  in.close();
  std::remove(path.c_str());
}

TEST(Csv, HeaderTwiceThrows) {
  const std::string path = "util_test_tmp2.csv";
  CsvWriter w(path);
  w.header({"x"});
  EXPECT_THROW(w.header({"y"}), ContractViolation);
  std::remove(path.c_str());
}

TEST(Csv, BadPathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"), DataError);
}

// Sets EBL_ARTIFACT_DIR for one scope and restores the caller's value.
class ScopedArtifactDir {
 public:
  explicit ScopedArtifactDir(const char* value) {
    if (const char* old = std::getenv("EBL_ARTIFACT_DIR")) old_ = old;
    if (value != nullptr) ::setenv("EBL_ARTIFACT_DIR", value, 1);
    else ::unsetenv("EBL_ARTIFACT_DIR");
  }
  ~ScopedArtifactDir() {
    if (old_) ::setenv("EBL_ARTIFACT_DIR", old_->c_str(), 1);
    else ::unsetenv("EBL_ARTIFACT_DIR");
  }

 private:
  std::optional<std::string> old_;
};

TEST(Artifacts, MissingDirectoryIsCreated) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() / ("ebl_util_test_artifacts_" + std::to_string(::getpid()));
  fs::remove_all(root);
  const fs::path dir = root / "nested" / "out";
  std::string path;
  {
    const ScopedArtifactDir env(dir.c_str());
    path = artifact_path("figure.csv");
  }
  EXPECT_EQ(path, dir.string() + "/figure.csv");
  EXPECT_TRUE(fs::is_directory(dir));
  {
    CsvWriter w(path);
    w.header({"x"});
    w.row(1);
  }
  EXPECT_TRUE(fs::exists(path));
  fs::remove_all(root);
}

TEST(Artifacts, UnsetDirectoryLeavesNameAlone) {
  const ScopedArtifactDir env(nullptr);
  EXPECT_EQ(artifact_path("figure.csv"), "figure.csv");
}

TEST(Table, AlignsColumns) {
  Table t("demo");
  t.columns({"name", "value"});
  t.row("x", 1);
  t.row("longer", 22);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Fixed, FormatsPrecision) {
  EXPECT_EQ(fixed(1.23456, 2), "1.23");
  EXPECT_EQ(fixed(1.0, 3), "1.000");
  EXPECT_EQ(fixed(-0.5, 1), "-0.5");
}

TEST(Contracts, ThrowTypes) {
  EXPECT_THROW(expects(false, "x"), ContractViolation);
  EXPECT_THROW(ensures(false, "x"), ContractViolation);
  EXPECT_NO_THROW(expects(true, "x"));
  try {
    expects(false, "specific message");
    FAIL();
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("specific message"), std::string::npos);
  }
}

}  // namespace
}  // namespace ebl
