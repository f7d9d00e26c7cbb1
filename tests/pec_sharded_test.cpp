// Tests for the sharded PEC pipeline and the evaluator's active/background
// shot split it is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/patterns.h"
#include "fracture/fracture.h"
#include "pec/correction.h"
#include "pec/exposure.h"
#include "pec/sharded.h"
#include "pec_reference.h"

namespace ebl {
namespace {

Psf test_psf() { return Psf::double_gaussian(50.0, 3000.0, 0.7); }

// Dense 50%-coverage checkerboard: every shot sees heavy backscatter, so
// cross-shard coupling is as strong as it gets for this PSF.
ShotList dense_grid_shots(Coord side) {
  PolygonSet s = checkerboard(Box{0, 0, side, side}, 2000);
  return fracture(s, {.max_shot_size = 2000}).shots;
}

TEST(ActiveSplit, MatchesFullEvaluatorOnActivePrefix) {
  const ShotList shots = dense_grid_shots(20000);
  const Psf psf = test_psf();
  const std::size_t na = shots.size() / 2;
  ASSERT_GT(na, 0u);
  const ExposureEvaluator full(shots, psf);
  const ExposureEvaluator split(shots, na, psf);
  EXPECT_EQ(full.active_count(), shots.size());
  EXPECT_EQ(split.active_count(), na);

  // Background shots are accumulated through the frozen double-precision
  // coverage map while cached active splats store float fractions, so the
  // two evaluators agree to float precision of the long-range contribution
  // (same bound as the splat-cache-equivalence test).
  const std::vector<double> ef = full.exposures_at_centroids();
  const std::vector<double> es = split.exposures_at_centroids();
  ASSERT_EQ(ef.size(), shots.size());
  ASSERT_EQ(es.size(), na);
  for (std::size_t i = 0; i < na; ++i) EXPECT_NEAR(es[i], ef[i], 1e-5) << "shot " << i;
}

TEST(ActiveSplit, SetActiveDosesFreezesBackground) {
  const ShotList shots = dense_grid_shots(20000);
  const Psf psf = test_psf();
  const std::size_t na = shots.size() / 2;
  ExposureEvaluator split(shots, na, psf);
  ExposureEvaluator full(shots, psf);

  std::vector<double> active(na);
  for (std::size_t k = 0; k < na; ++k)
    active[k] = 1.0 + 0.01 * static_cast<double>(k % 7);
  split.set_active_doses(active);

  // Background doses stayed frozen.
  for (std::size_t i = na; i < shots.size(); ++i)
    EXPECT_EQ(split.shots()[i].dose, shots[i].dose) << "ghost " << i;

  // Equivalent full update on the plain evaluator gives the same exposures
  // (float-cache vs double-map precision, see above).
  std::vector<double> all(shots.size());
  for (std::size_t i = 0; i < shots.size(); ++i)
    all[i] = i < na ? active[i] : shots[i].dose;
  full.set_doses(all);
  const std::vector<double> ef = full.exposures_at_centroids();
  const std::vector<double> es = split.exposures_at_centroids();
  for (std::size_t i = 0; i < na; ++i) EXPECT_NEAR(es[i], ef[i], 1e-5) << "shot " << i;
}

TEST(ShardedPec, DefaultShardSizeScalesWithWidestSigma) {
  EXPECT_EQ(default_shard_size(test_psf()), 64 * 3000);
  EXPECT_EQ(default_shard_size(Psf::single_gaussian(100.0)), 6400);
}

TEST(ShardedPec, MatchesGlobalOnShardSpanningPattern) {
  // 60 µm board over a 2x2 shard grid (shard 30 µm, halo 4 beta = 12 µm):
  // every shard boundary cuts through dense geometry.
  const ShotList shots = dense_grid_shots(60000);
  const Psf psf = test_psf();
  PecOptions opt;
  opt.max_iterations = 30;
  opt.tolerance = 1e-4;  // drive both solvers to the shared fixed point

  const PecResult global = reference::correct_proximity(shots, psf, opt);

  PecOptions sopt = opt;
  sopt.shard_size = 30000;
  sopt.exchange_rounds = 3;
  const PecResult sharded = correct_proximity(shots, psf, sopt);
  EXPECT_GE(sharded.shards, 4);
  EXPECT_GE(sharded.rounds, 1);

  // Satellite acceptance: max relative dose delta below the (default)
  // tolerance after the exchange rounds.
  ASSERT_EQ(sharded.shots.size(), global.shots.size());
  double max_rel = 0.0;
  for (std::size_t i = 0; i < global.shots.size(); ++i) {
    EXPECT_EQ(sharded.shots[i].shape, global.shots[i].shape);
    max_rel = std::max(max_rel, std::abs(sharded.shots[i].dose - global.shots[i].dose) /
                                    global.shots[i].dose);
  }
  EXPECT_LT(max_rel, PecOptions{}.tolerance);
  EXPECT_LT(sharded.final_max_error, 10.0 * opt.tolerance);
}

TEST(ShardedPec, MeetsToleranceAtEveryRepresentativePoint) {
  const ShotList shots = dense_grid_shots(60000);
  const Psf psf = test_psf();
  PecOptions sopt;
  sopt.shard_size = 30000;
  const PecResult sharded = correct_proximity(shots, psf, sopt);

  // Authoritative check on a *global* evaluator: the sharded doses must meet
  // the same per-point error bound the global corrector guarantees (small
  // slack for the halo truncation, < 1e-6 of a term weight).
  const ExposureEvaluator eval(sharded.shots, psf);
  double max_err = 0.0;
  for (double e : eval.exposures_at_centroids())
    max_err = std::max(max_err, std::abs(e / sopt.target - 1.0));
  EXPECT_LT(max_err, sopt.tolerance + 1e-4);
  // The per-shard estimate agrees with the global measurement to raster
  // accuracy: the shard maps are anchored at shard corners, the global map
  // at the pattern corner, so the two evaluators quantize the long-range
  // field on differently-aligned grids (~pixel/sigma error, well below the
  // correction tolerance but far above the 1e-6 halo truncation).
  EXPECT_NEAR(sharded.final_max_error, max_err, 1e-3);
}

TEST(ShardedPec, SingleShardMatchesGlobalBitwise) {
  // The global solve is the engine's one-shard layout with no ghosts and no
  // warm start; it must reproduce the whole-pattern oracle exactly, at any
  // thread count and through quantization.
  const ShotList shots = dense_grid_shots(60000);
  const Psf psf = test_psf();
  PecOptions opt;
  opt.max_iterations = 6;
  opt.tolerance = 0.005;
  const PecResult oracle = reference::correct_proximity(shots, psf, opt);
  for (const int threads : {1, 4}) {
    PecOptions topt = opt;
    topt.exposure.threads = threads;
    const PecResult global = correct_proximity(shots, psf, topt);
    EXPECT_EQ(global.shards, 1);
    ASSERT_EQ(global.shots.size(), oracle.shots.size());
    for (std::size_t i = 0; i < oracle.shots.size(); ++i)
      EXPECT_EQ(global.shots[i].dose, oracle.shots[i].dose)
          << "threads " << threads << " shot " << i;
    EXPECT_EQ(global.final_max_error, oracle.final_max_error) << "threads " << threads;
  }

  PecOptions qopt = opt;
  qopt.dose_classes = 16;
  const PecResult qoracle = reference::correct_proximity(shots, psf, qopt);
  const PecResult quantized = correct_proximity(shots, psf, qopt);
  ASSERT_EQ(quantized.shots.size(), qoracle.shots.size());
  for (std::size_t i = 0; i < qoracle.shots.size(); ++i)
    EXPECT_EQ(quantized.shots[i].dose, qoracle.shots[i].dose) << "shot " << i;
  EXPECT_EQ(quantized.final_max_error, qoracle.final_max_error);
}

TEST(ShardedPec, BitIdenticalAcrossThreadCounts) {
  const ShotList shots = dense_grid_shots(40000);
  std::vector<ShotList> corrected;
  for (const int threads : {1, 4}) {
    PecOptions opt;
    opt.max_iterations = 5;
    opt.shard_size = 20000;
    opt.exposure.threads = threads;
    corrected.push_back(correct_proximity(shots, test_psf(), opt).shots);
  }
  ASSERT_EQ(corrected[0].size(), corrected[1].size());
  for (std::size_t i = 0; i < corrected[0].size(); ++i)
    EXPECT_EQ(corrected[0][i].dose, corrected[1][i].dose) << "shot " << i;
}

TEST(ShardedPec, FftSnugShardSizeNeverShrinksTheDefault) {
  const Psf psf = test_psf();
  PecOptions opt;
  const Coord snug = default_shard_size(psf, opt);
  EXPECT_GE(snug, default_shard_size(psf));
  // All-short PSF: no long-range map to pad, the plain default applies.
  const Psf short_psf = Psf::double_gaussian(40.0, 150.0, 0.5);
  EXPECT_EQ(default_shard_size(short_psf, opt), default_shard_size(short_psf));
}

TEST(ShardedPec, ResidentPoolBudgetNeverChangesTheResult) {
  // Resident re-entry is an exact dose reset, so every budget — including
  // one small enough to force evictions and transient re-runs — must produce
  // bit-identical doses. (Budget 0, the fully transient pre-pool mode, is
  // also bitwise for the solve; its final error may differ at float-cache
  // precision because the measurement pass skips the splat cache there.)
  const ShotList shots = dense_grid_shots(60000);
  const Psf psf = test_psf();
  std::vector<PecResult> results;
  std::vector<int> budgets = {1, 2, 1000};
  for (const int budget : budgets) {
    PecOptions opt;
    opt.shard_size = 30000;
    opt.resident_shard_budget = budget;
    results.push_back(correct_proximity(shots, psf, opt));
  }
  EXPECT_GE(results[0].shards, 4);
  // The tiny budget had to run most shards transient.
  EXPECT_LE(results[0].resident_shards, 1);
  EXPECT_GE(results[2].resident_shards, results[0].resident_shards);
  for (std::size_t v = 1; v < results.size(); ++v) {
    ASSERT_EQ(results[v].shots.size(), results[0].shots.size());
    for (std::size_t i = 0; i < results[0].shots.size(); ++i) {
      EXPECT_EQ(results[v].shots[i].dose, results[0].shots[i].dose)
          << "budget " << budgets[v] << " shot " << i;
    }
    EXPECT_EQ(results[v].final_max_error, results[0].final_max_error)
        << "budget " << budgets[v];
  }
  // The fully transient mode agrees bitwise in dose space too.
  PecOptions transient;
  transient.shard_size = 30000;
  transient.resident_shard_budget = 0;
  const PecResult t = correct_proximity(shots, psf, transient);
  EXPECT_EQ(t.resident_shards, 0);
  for (std::size_t i = 0; i < t.shots.size(); ++i) {
    EXPECT_EQ(t.shots[i].dose, results[0].shots[i].dose) << "shot " << i;
  }
}

TEST(ShardedPec, WarmStartOffStillMeetsTheToleranceContract) {
  const ShotList shots = dense_grid_shots(60000);
  const Psf psf = test_psf();
  PecOptions opt;
  opt.shard_size = 30000;
  opt.density_warm_start = false;
  const PecResult cold = correct_proximity(shots, psf, opt);
  const ExposureEvaluator eval(cold.shots, psf);
  double max_err = 0.0;
  for (double e : eval.exposures_at_centroids())
    max_err = std::max(max_err, std::abs(e / opt.target - 1.0));
  EXPECT_LT(max_err, opt.tolerance + 1e-4);
}

TEST(ShardedPec, ReportsPerRoundTimings) {
  const ShotList shots = dense_grid_shots(40000);
  PecOptions opt;
  opt.shard_size = 20000;
  const PecResult r = correct_proximity(shots, test_psf(), opt);
  ASSERT_EQ(static_cast<int>(r.round_ms.size()), r.rounds);
  for (double ms : r.round_ms) EXPECT_GE(ms, 0.0);
}

TEST(ShardedPec, RespectsDoseClampAndQuantization) {
  const ShotList shots = dense_grid_shots(40000);
  PecOptions opt;
  opt.shard_size = 20000;
  opt.min_dose = 0.8;
  opt.max_dose = 1.5;
  opt.dose_classes = 8;
  const PecResult r = correct_proximity(shots, test_psf(), opt);
  std::vector<double> distinct;
  for (const Shot& s : r.shots) {
    EXPECT_GE(s.dose, 0.8);
    EXPECT_LE(s.dose, 1.5);
    if (std::find(distinct.begin(), distinct.end(), s.dose) == distinct.end())
      distinct.push_back(s.dose);
  }
  EXPECT_LE(distinct.size(), 8u);
  // Quantization moved doses after the last correction round, so the final
  // error must have been re-measured (history ends with the measured value).
  EXPECT_DOUBLE_EQ(r.max_error_history.back(), r.final_max_error);
}

// The shared LRU pool of the in-process sweep and pec_worker, driven with
// hand-placed evaluators: what plan() keeps, what it evicts, and in which
// order.
TEST(EvaluatorPool, EvictsLeastRecentlyPlannedOutsideTheBatch) {
  const ShotList one = {Shot{{0, 1000, 0, 1000, 0, 1000}, 1.0}};
  const Psf psf = test_psf();
  auto fill = [&](EvaluatorPool& pool, std::uint64_t key) {
    std::unique_ptr<ExposureEvaluator>* slot = pool.slot(key);
    ASSERT_NE(slot, nullptr) << "key " << key;
    if (!*slot) *slot = std::make_unique<ExposureEvaluator>(one, psf);
  };
  auto resident = [](EvaluatorPool& pool, std::uint64_t key) {
    std::unique_ptr<ExposureEvaluator>* slot = pool.slot(key);
    return slot != nullptr && *slot != nullptr;
  };

  // Least recently used goes first.
  EvaluatorPool lru(2);
  for (const std::uint64_t key : {1, 2}) {
    lru.plan({key});
    fill(lru, key);
  }
  lru.plan({1});  // 1 is now more recent than 2
  lru.plan({3});
  fill(lru, 3);
  EXPECT_TRUE(resident(lru, 1));
  EXPECT_FALSE(resident(lru, 2));
  EXPECT_TRUE(resident(lru, 3));
  EXPECT_EQ(lru.resident(), 2u);
  EXPECT_EQ(lru.evictions(), 1u);

  // Ties (planned in the same batch) go to the highest key.
  EvaluatorPool ties(2);
  ties.plan({4, 5});
  fill(ties, 4);
  fill(ties, 5);
  ties.plan({6});
  fill(ties, 6);
  EXPECT_TRUE(resident(ties, 4));
  EXPECT_FALSE(resident(ties, 5));
  EXPECT_EQ(ties.evictions(), 1u);

  // A shard in the current batch is never the victim: over budget, the
  // newcomer runs transient instead.
  EvaluatorPool busy(1);
  busy.plan({7});
  fill(busy, 7);
  busy.plan({7, 8});
  EXPECT_TRUE(resident(busy, 7));
  EXPECT_EQ(busy.slot(8), nullptr);
  EXPECT_EQ(busy.evictions(), 0u);

  // Budget 0 keeps nothing.
  EvaluatorPool none(0);
  none.plan({9});
  EXPECT_EQ(none.slot(9), nullptr);
  EXPECT_EQ(none.resident(), 0u);
}

}  // namespace
}  // namespace ebl
