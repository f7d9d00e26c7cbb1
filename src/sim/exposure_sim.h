// Full-field exposure simulation: shots -> energy map -> resist profile.
//
// simulate_exposure splits the PSF at ExposureOptions{}.long_range_threshold
// into the two scales the PEC evaluator uses (src/pec/exposure.h):
//   - short-range terms (forward scattering) are rasterized and blurred on
//     the fine output grid, but only over the pattern bbox dilated by the
//     widest short kernel's radius; every pixel outside that window gets
//     exactly zero from them;
//   - long-range terms (backscattering) are blurred on an ExposureEvaluator's
//     coarse map (pixel = finest long sigma / pixels_per_sigma) and added to
//     every output pixel by bilinear upsampling.
// Against a single-scale oracle that blurs every term on the fine grid
// (tests/sim_reference.h), the long-range upsampling moves the map by a few
// 1e-3 of unit exposure (docs/architecture.md §5 gives the EPE shifts).
#pragma once

#include <optional>
#include <vector>

#include "fracture/shot.h"
#include "geom/raster.h"
#include "pec/exposure.h"  // BlurBackend
#include "pec/psf.h"
#include "sim/resist.h"

namespace ebl {

struct SimOptions {
  /// Simulation pixel in dbu; must resolve the forward range (<= alpha/2
  /// recommended). 0 = auto (psf.min_sigma() / 2, at least 1).
  Coord pixel = 0;

  /// Extra frame margin in dbu beyond the pattern bbox; 0 = auto
  /// (4 * max sigma).
  Coord margin = 0;

  /// Worker threads for the per-term Gaussian blurs (0 = auto: EBL_THREADS
  /// env var, else hardware concurrency). Output is identical for any value.
  int threads = 0;

  /// Convolution backend for both blurs: the short terms' window blur on the
  /// fine grid and the long terms' blur on the coarse map. kAuto picks per
  /// blur by the flop model (see fft_blur_wins); no wide kernel reaches the
  /// fine grid, so it mostly picks the separable passes. Backend choice
  /// moves results by no more than floating-point rounding.
  BlurBackend blur_backend = BlurBackend::kAuto;
};

/// Energy deposition map of a dosed shot list over the shot bbox plus the
/// margin, at the simulation pixel: short terms by coverage rasterization
/// and a separable blur near the pattern, long terms from a coarse map (see
/// the header comment). Normalization: infinite unit-dose pattern ->
/// exposure 1.0. Output is identical for any thread count. Throws DataError
/// when the frame exceeds a fixed budget of 2^27 pixels.
Raster simulate_exposure(const ShotList& shots, const Psf& psf,
                         const SimOptions& options = {});

/// Applies a resist curve pixel-wise: exposure map -> thickness map [0,1].
Raster develop(const Raster& exposure, const ResistModel& resist);

/// Samples the raster along segment a->b (bilinear), returning n values.
std::vector<double> profile_along(const Raster& raster, Point a, Point b, int n);

/// All level-crossing positions (in dbu from a) of the bilinear profile
/// along a->b.
std::vector<double> crossings_along(const Raster& raster, double level, Point a,
                                    Point b, int samples = 512);

/// Critical dimension: distance between the first rising and last falling
/// crossing of @p level along a->b; nullopt when the feature does not print
/// or does not clear.
std::optional<double> measure_cd(const Raster& exposure, double level, Point a,
                                 Point b, int samples = 512);

/// One closed or open develop-contour polyline in dbu coordinates.
using ContourLine = std::vector<std::pair<double, double>>;

/// Marching-squares iso-contours of the raster at @p level, with linear
/// interpolation along cell edges and segment stitching into polylines.
std::vector<ContourLine> extract_contours(const Raster& raster, double level);

}  // namespace ebl
