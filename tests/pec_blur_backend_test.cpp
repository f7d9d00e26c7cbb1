// Backend-agreement and edge-case tests for the long-range blur: the
// separable sliding-window path and the FFT spectral path compute the same
// truncated normalized kernel, so they must agree far below the 1e-6 the
// PEC accuracy budget asks for — on bare rasters, through the evaluator,
// through the simulator, and across backend switches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/patterns.h"
#include "fracture/fracture.h"
#include "pec/correction.h"
#include "pec/exposure.h"
#include "sim/exposure_sim.h"
#include "util/rng.h"

namespace ebl {
namespace {

ShotList pad_and_island() {
  PolygonSet s;
  s.insert(Box{0, 0, 20000, 20000});
  s.insert(Box{40000, 9500, 41000, 10500});
  return fracture(s, {.max_shot_size = 2000}).shots;
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

Raster random_raster(Box frame, Coord pixel, std::uint64_t seed) {
  Raster r(frame, pixel);
  Rng rng(seed);
  for (double& v : r.data()) v = rng.uniform_real(0.0, 2.0);
  return r;
}

TEST(FftGaussianBlur, MatchesDirectOnRandomRasters) {
  struct Case {
    Coord w, h, pixel;
    double sigma;
  };
  for (const Case c : {Case{20000, 12000, 100, 900.0},   // mid kernel
                       Case{30000, 30000, 150, 3000.0},  // wide kernel
                       Case{5000, 900, 50, 400.0},       // skinny raster
                       Case{7000, 7000, 100, 151.0}}) {  // non-integral sigma_px
    Raster direct = random_raster(Box{0, 0, c.w, c.h}, c.pixel, 99);
    Raster fft = direct;
    gaussian_blur(direct, c.sigma);
    fft_gaussian_blur(fft, c.sigma);
    EXPECT_LT(max_abs_diff(direct.data(), fft.data()), 1e-6)
        << c.w << "x" << c.h << " pixel " << c.pixel << " sigma " << c.sigma;
  }
}

TEST(FftGaussianBlur, OnePixelRaster) {
  // A 1x1 raster keeps only the kernel's center tap (all others fall off
  // the edge and are skipped, not renormalized) — on both backends.
  Raster direct(Box{0, 0, 50, 50}, 100);
  ASSERT_EQ(direct.width(), 1);
  ASSERT_EQ(direct.height(), 1);
  direct.at(0, 0) = 2.0;
  Raster fft = direct;
  const std::vector<double> taps = gaussian_kernel_taps(300.0 / 100.0);
  gaussian_blur(direct, 300.0);
  fft_gaussian_blur(fft, 300.0);
  EXPECT_NEAR(direct.at(0, 0), 2.0 * taps[0] * taps[0], 1e-12);
  EXPECT_NEAR(fft.at(0, 0), direct.at(0, 0), 1e-12);
}

TEST(FftGaussianBlur, SigmaSmallerThanOnePixel) {
  // sigma << pixel: the kernel collapses toward identity (radius clamps to
  // 1) and both backends must still agree exactly.
  Raster direct = random_raster(Box{0, 0, 3000, 3000}, 100, 7);
  Raster fft = direct;
  const Raster before = direct;
  gaussian_blur(direct, 20.0);  // sigma_px = 0.2
  fft_gaussian_blur(fft, 20.0);
  EXPECT_LT(max_abs_diff(direct.data(), fft.data()), 1e-9);
  // Nearly the identity: center weight dominates.
  const std::vector<double> taps = gaussian_kernel_taps(0.2);
  EXPECT_GT(taps[0], 0.99);
  EXPECT_NEAR(direct.at(15, 15), before.at(15, 15), 0.02);
}

TEST(FftGaussianBlur, SigmaLargerThanRaster) {
  // Kernel support far beyond the raster: the blur drains mass off the
  // edges identically on both backends (zero boundaries, no wraparound).
  Raster direct = random_raster(Box{0, 0, 1000, 800}, 100, 13);
  Raster fft = direct;
  gaussian_blur(direct, 5000.0);  // sigma_px = 50 >> 10 pixels
  fft_gaussian_blur(fft, 5000.0);
  EXPECT_LT(max_abs_diff(direct.data(), fft.data()), 1e-9);
  // Strong leakage: the surviving mass is well below the input mass but
  // still positive.
  EXPECT_GT(direct.sum(), 0.0);
  EXPECT_LT(direct.max_value(), 0.5);
}

TEST(FftGaussianBlur, UniformInteriorStaysOne) {
  Raster r(Box{0, 0, 10000, 10000}, 100);
  for (double& v : r.data()) v = 1.0;
  fft_gaussian_blur(r, 500.0);
  EXPECT_NEAR(r.at(50, 50), 1.0, 1e-9);
}

TEST(FftGaussianBlur, SpreadsPointSymmetrically) {
  Raster r(Box{0, 0, 20000, 20000}, 100);
  r.at(100, 100) = 1.0;
  fft_gaussian_blur(r, 800.0);
  EXPECT_NEAR(r.at(92, 100), r.at(108, 100), 1e-12);
  EXPECT_NEAR(r.at(100, 92), r.at(100, 108), 1e-12);
  EXPECT_GT(r.at(100, 100), r.at(104, 100));
  EXPECT_NEAR(r.sum(), 1.0, 1e-6);
}

TEST(BlurBackendDispatch, AutoPrefersDirectForNarrowAndFftForWide) {
  // The flop model must keep narrow kernels (the sigma/4-pixel default) on
  // the separable path and hand very wide kernels to the FFT.
  EXPECT_FALSE(fft_blur_wins(1000, 1000, {16}));
  EXPECT_TRUE(fft_blur_wins(1000, 1000, {480}));
  // Several wide kernels amortize the shared forward transform.
  EXPECT_TRUE(fft_blur_wins(1000, 1000, {200, 200, 200}));
}

TEST(ExposureEvaluator, FftBackendMatchesDirectDoubleGaussian) {
  const ShotList shots = pad_and_island();
  const Psf psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  ExposureOptions direct_opt;
  direct_opt.blur_backend = BlurBackend::kDirect;
  ExposureOptions fft_opt;
  fft_opt.blur_backend = BlurBackend::kFft;
  ExposureEvaluator direct(shots, psf, direct_opt);
  ExposureEvaluator fft(shots, psf, fft_opt);
  EXPECT_EQ(direct.blur_backend(), BlurBackend::kDirect);
  EXPECT_EQ(fft.blur_backend(), BlurBackend::kFft);
  EXPECT_LT(max_abs_diff(direct.exposures_at_centroids(),
                         fft.exposures_at_centroids()),
            1e-6);
}

TEST(ExposureEvaluator, FftBackendMatchesDirectTripleGaussian) {
  // Two long-range terms sharing one base map: the FFT path computes both
  // blurred maps from a single forward transform and must still match the
  // per-term separable blur to 1e-6.
  const ShotList shots = pad_and_island();
  const Psf psf = Psf::triple_gaussian(50.0, 3000.0, 600.0, 0.7, 0.3);
  ExposureOptions direct_opt;
  direct_opt.blur_backend = BlurBackend::kDirect;
  ExposureOptions fft_opt;
  fft_opt.blur_backend = BlurBackend::kFft;
  ExposureEvaluator direct(shots, psf, direct_opt);
  ExposureEvaluator fft(shots, psf, fft_opt);
  std::vector<double> doses(shots.size());
  for (std::size_t i = 0; i < doses.size(); ++i)
    doses[i] = 0.8 + 0.01 * static_cast<double>(i % 37);
  direct.set_doses(doses);
  fft.set_doses(doses);
  EXPECT_LT(max_abs_diff(direct.exposures_at_centroids(),
                         fft.exposures_at_centroids()),
            1e-6);
}

TEST(ExposureEvaluator, SwitchingBackendReproducesFreshEvaluator) {
  const ShotList shots = pad_and_island();
  const Psf psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  ExposureOptions direct_opt;
  direct_opt.blur_backend = BlurBackend::kDirect;
  ExposureEvaluator eval(shots, psf, direct_opt);
  std::vector<double> doses(shots.size(), 1.3);
  eval.set_doses(doses);

  eval.set_blur_backend(BlurBackend::kFft);
  EXPECT_EQ(eval.blur_backend(), BlurBackend::kFft);

  ExposureOptions fft_opt;
  fft_opt.blur_backend = BlurBackend::kFft;
  ExposureEvaluator fresh(shots, psf, fft_opt);
  fresh.set_doses(doses);
  const auto a = eval.exposures_at_centroids();
  const auto b = fresh.exposures_at_centroids();
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "shot " << i;
}

TEST(ExposureEvaluator, RepeatedBackendTogglesWithDoseChangesStayExact) {
  // The FFT plan caches every term's kernel spectrum for the evaluator's
  // lifetime; a stale or mis-invalidated spectrum would surface as drift
  // against a freshly built evaluator. Toggle backends repeatedly with dose
  // changes in between and demand bitwise agreement each round.
  const ShotList shots = pad_and_island();
  const Psf psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  ExposureOptions opt;
  opt.blur_backend = BlurBackend::kFft;
  opt.delta_threshold = 0.0;  // full refreshes: bitwise comparisons hold
  ExposureEvaluator eval(shots, psf, opt);

  std::vector<double> doses(shots.size(), 1.0);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < doses.size(); ++i)
      doses[i] = 1.0 + 0.002 * static_cast<double>((i + round) % 53);
    eval.set_doses(doses);
    eval.set_blur_backend(BlurBackend::kDirect);
    eval.set_blur_backend(BlurBackend::kFft);

    ShotList fresh_shots = shots;
    for (std::size_t i = 0; i < doses.size(); ++i) fresh_shots[i].dose = doses[i];
    ExposureEvaluator fresh(fresh_shots, psf, opt);
    const auto a = eval.exposures_at_centroids();
    const auto b = fresh.exposures_at_centroids();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_EQ(a[i], b[i]) << "round " << round << " shot " << i;
  }
}

TEST(ExposureEvaluator, FftBackendBitIdenticalAcrossThreadCounts) {
  const ShotList shots = pad_and_island();
  const Psf psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  std::vector<std::vector<double>> results;
  for (const int threads : {1, 5}) {
    ExposureOptions opt;
    opt.threads = threads;
    opt.blur_backend = BlurBackend::kFft;
    ExposureEvaluator eval(shots, psf, opt);
    std::vector<double> doses(shots.size());
    for (std::size_t i = 0; i < doses.size(); ++i)
      doses[i] = 1.0 + 0.001 * static_cast<double>(i % 89);
    eval.set_doses(doses);
    results.push_back(eval.exposures_at_centroids());
  }
  for (std::size_t i = 0; i < results[0].size(); ++i)
    EXPECT_EQ(results[0][i], results[1][i]) << "shot " << i;
}

TEST(ExposureEvaluator, BlurPerfCountsRefreshes) {
  const ShotList shots = pad_and_island();
  const Psf psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  ExposureEvaluator eval(shots, psf);
  const int before = eval.blur_perf().refreshes;
  EXPECT_GE(before, 1);  // construction accumulates once
  eval.set_doses(std::vector<double>(shots.size(), 1.1));
  EXPECT_EQ(eval.blur_perf().refreshes, before + 1);
  EXPECT_GE(eval.blur_perf().blur_ms, 0.0);
  EXPECT_GE(eval.blur_perf().accumulate_ms, 0.0);
}

TEST(Pec, IterativeCorrectionAgreesAcrossBackends) {
  const ShotList shots = pad_and_island();
  const Psf psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  PecOptions direct_opt;
  direct_opt.max_iterations = 4;
  direct_opt.exposure.blur_backend = BlurBackend::kDirect;
  PecOptions fft_opt = direct_opt;
  fft_opt.exposure.blur_backend = BlurBackend::kFft;
  const PecResult a = correct_proximity(shots, psf, direct_opt);
  const PecResult b = correct_proximity(shots, psf, fft_opt);
  ASSERT_EQ(a.shots.size(), b.shots.size());
  for (std::size_t i = 0; i < a.shots.size(); ++i)
    EXPECT_NEAR(a.shots[i].dose, b.shots[i].dose, 1e-6) << "shot " << i;
  EXPECT_NEAR(a.final_max_error, b.final_max_error, 1e-6);
}

TEST(Pec, DensityPecAgreesAcrossBackends) {
  const ShotList shots = pad_and_island();
  const Psf psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  PecOptions direct_opt;
  direct_opt.exposure.blur_backend = BlurBackend::kDirect;
  PecOptions fft_opt;
  fft_opt.exposure.blur_backend = BlurBackend::kFft;
  const PecResult a = density_pec(shots, psf, direct_opt);
  const PecResult b = density_pec(shots, psf, fft_opt);
  for (std::size_t i = 0; i < a.shots.size(); ++i)
    EXPECT_NEAR(a.shots[i].dose, b.shots[i].dose, 1e-6) << "shot " << i;
}

TEST(Sim, SimulateExposureAgreesAcrossBackends) {
  // The backend selects both the short terms' window blur and the long
  // terms' coarse-map blur — every choice must stay within rounding of the
  // all-direct map.
  PolygonSet pattern;
  pattern.insert(Box{0, 0, 8000, 6000});
  pattern.insert(Box{12000, 0, 13000, 6000});
  const ShotList shots = fracture(pattern, {.max_shot_size = 2000}).shots;
  const Psf psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  SimOptions direct_opt;
  direct_opt.pixel = 50;
  direct_opt.blur_backend = BlurBackend::kDirect;
  SimOptions auto_opt = direct_opt;
  auto_opt.blur_backend = BlurBackend::kAuto;
  SimOptions fft_opt = direct_opt;
  fft_opt.blur_backend = BlurBackend::kFft;
  const Raster d = simulate_exposure(shots, psf, direct_opt);
  const Raster a = simulate_exposure(shots, psf, auto_opt);
  const Raster f = simulate_exposure(shots, psf, fft_opt);
  EXPECT_LT(max_abs_diff(d.data(), a.data()), 1e-6);
  EXPECT_LT(max_abs_diff(d.data(), f.data()), 1e-6);
}

}  // namespace
}  // namespace ebl
