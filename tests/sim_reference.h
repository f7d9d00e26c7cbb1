// Single-scale exposure simulator: the oracle the two-scale simulate_exposure
// is checked against. Every PSF term — backscatter included — is blurred on
// the fine output grid over the whole frame, so the only approximations are
// the coverage rasterization and the kernel truncation at 4 sigma. It is the
// simulator as it stood before the scales were split, minus its FFT batching
// (each term runs through gaussian_blur with the requested backend, which
// agrees with the batched path to rounding). Slow: a 3 um backscatter kernel
// at a 25 nm pixel spans 480 pixels.
#pragma once

#include <algorithm>
#include <cmath>

#include "fracture/shot.h"
#include "geom/raster.h"
#include "pec/exposure.h"
#include "pec/psf.h"
#include "sim/exposure_sim.h"

namespace ebl::reference {

/// Same frame, pixel and normalization as simulate_exposure.
inline Raster simulate_exposure(const ShotList& shots, const Psf& psf,
                                const SimOptions& options = {}) {
  Box frame;
  for (const Shot& s : shots) frame += s.shape.bbox();
  const Coord margin = options.margin > 0
                           ? options.margin
                           : static_cast<Coord>(std::ceil(4.0 * psf.max_sigma()));
  const Coord pixel =
      options.pixel > 0
          ? options.pixel
          : std::max<Coord>(1, static_cast<Coord>(psf.min_sigma() / 2.0));

  Raster base(frame.bloated(margin), pixel);
  for (const Shot& s : shots) base.add_coverage(s.shape, s.dose);

  Raster result(frame.bloated(margin), pixel);
  for (const PsfTerm& term : psf.terms()) {
    Raster blurred = base;
    gaussian_blur(blurred, term.sigma, options.blur_backend, options.threads);
    std::vector<double>& out = result.data();
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] += term.weight * blurred.data()[i];
  }
  return result;
}

}  // namespace ebl::reference
