// Whole-pattern correctors: the oracles that correct_proximity and
// density_pec, both run by the shard engine of src/pec/sharded.cpp, are
// checked against. They share the evaluator, the raster, backscatter_eta
// and quantize_doses with the engine, and nothing of its shard driver.
//  - correct_proximity: one evaluator over every shot, undamped Jacobi
//    updates with the delta-mode freeze schedule, quantization, then the
//    final error re-measured on the same evaluator.
//  - density_doses: density_pec's dose formula on one raster over the whole
//    pattern, before quantization.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "fracture/shot.h"
#include "geom/raster.h"
#include "pec/correction.h"
#include "pec/exposure.h"
#include "pec/psf.h"

namespace ebl::reference {

inline PecResult correct_proximity(const ShotList& shots, const Psf& psf,
                                   const PecOptions& options = {}) {
  // The corrector only ever samples shot centroids, so the long-range maps
  // drop their off-pattern sampling margin.
  ExposureOptions eopt = options.exposure;
  eopt.map_margin_sigmas = 0.0;
  ExposureEvaluator eval(shots, psf, eopt);
  std::vector<double> doses(shots.size());
  for (std::size_t i = 0; i < shots.size(); ++i) doses[i] = shots[i].dose;

  const bool delta_mode = eopt.delta_threshold > 0;
  PecResult result;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    const std::vector<double> e = eval.exposures_at_centroids();
    double max_err = 0.0;
    for (double ei : e) max_err = std::max(max_err, std::abs(ei / options.target - 1.0));
    result.max_error_history.push_back(max_err);
    result.iterations = iter;
    if (max_err < options.tolerance) break;

    // Shots already within the freeze bar of target skip this iteration.
    const double update_tol =
        delta_mode ? std::max(0.25 * options.tolerance, 0.1 * max_err) : 0.0;
    for (std::size_t i = 0; i < doses.size(); ++i) {
      if (update_tol > 0 && std::abs(e[i] / options.target - 1.0) < update_tol) continue;
      const double ratio = options.target / std::max(e[i], 1e-9);
      doses[i] = std::clamp(doses[i] * ratio, options.min_dose, options.max_dose);
    }
    eval.set_doses(doses);
  }

  result.shots = eval.shots();
  if (options.dose_classes > 0) quantize_doses(result.shots, options.dose_classes);

  std::vector<double> final_doses(result.shots.size());
  bool doses_changed = false;
  for (std::size_t i = 0; i < result.shots.size(); ++i) {
    final_doses[i] = result.shots[i].dose;
    doses_changed |= final_doses[i] != eval.shots()[i].dose;
  }
  if (doses_changed) eval.set_doses(final_doses);
  double max_err = 0.0;
  for (double ei : eval.exposures_at_centroids())
    max_err = std::max(max_err, std::abs(ei / options.target - 1.0));
  result.final_max_error = max_err;
  result.blur = eval.blur_perf();
  return result;
}

inline std::vector<double> density_doses(const ShotList& shots, const Psf& psf,
                                         const PecOptions& options = {}) {
  double max_sigma = 0.0;
  for (const PsfTerm& t : psf.terms()) max_sigma = std::max(max_sigma, t.sigma);
  const double eta = backscatter_eta(psf);

  Box frame;
  for (const Shot& s : shots) frame += s.shape.bbox();
  const Coord margin = static_cast<Coord>(std::ceil(4.0 * max_sigma));
  const Coord pixel = std::max<Coord>(1, static_cast<Coord>(max_sigma / 4.0));
  Raster density(frame.bloated(margin), pixel);
  for (const Shot& s : shots) density.add_coverage(s.shape, 1.0);
  gaussian_blur(density, max_sigma, options.exposure.blur_backend,
                options.exposure.threads);

  std::vector<double> doses;
  doses.reserve(shots.size());
  for (const Shot& s : shots) {
    const Trapezoid& t = s.shape;
    const double cx = 0.25 * (double(t.xl0) + t.xr0 + t.xl1 + t.xr1);
    const double cy = 0.5 * (double(t.y0) + t.y1);
    const double u = std::clamp(density.sample(cx, cy), 0.0, 1.0);
    const double dose = (1.0 + 2.0 * eta) / (1.0 + 2.0 * eta * u);
    doses.push_back(
        std::clamp(dose * options.target, options.min_dose, options.max_dose));
  }
  return doses;
}

}  // namespace ebl::reference
