#include "sim/exposure_sim.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "pec/exposure.h"  // ExposureEvaluator, blur kernels
#include "util/contracts.h"

namespace ebl {

namespace {

// Largest output raster the simulator allocates: 2^27 pixels (1 GiB of
// doubles), 32x the 4.1 M pixels of the 27 um gate device at 25 nm.
constexpr double kMaxSimPixels = 134217728.0;

// Short-range terms on the fine grid, over the window they reach: the
// pattern's pixels dilated by the widest short kernel's radius. Every pixel
// outside it gets exactly zero from these terms, and inside it the blur with
// zero boundaries sums the same taps in the same order as a full-frame blur.
void add_short_range(Raster& out, const ShotList& shots, const Box& bbox,
                     const std::vector<PsfTerm>& terms, const SimOptions& options) {
  const Coord pixel = out.pixel_size();
  int radius = 0;
  for (const PsfTerm& t : terms) {
    const std::vector<double> taps =
        gaussian_kernel_taps(t.sigma / static_cast<double>(pixel));
    radius = std::max(radius, static_cast<int>(taps.size()) - 1);
  }
  const auto [bx0, by0] = out.index_of(bbox.lo);
  const auto [bx1, by1] = out.index_of(bbox.hi);
  const int x0 = std::max(0, bx0 - radius);
  const int y0 = std::max(0, by0 - radius);
  const int x1 = std::min(out.width() - 1, bx1 + radius);
  const int y1 = std::min(out.height() - 1, by1 + radius);
  const Point o = out.origin();
  Raster cover(Box{o.x + x0 * pixel, o.y + y0 * pixel, o.x + (x1 + 1) * pixel,
                   o.y + (y1 + 1) * pixel},
               pixel);
  for (const Shot& s : shots) cover.add_coverage(s.shape, s.dose);

  Raster blurred = cover;  // reused scratch, same geometry for every term
  for (std::size_t t = 0; t < terms.size(); ++t) {
    if (t > 0) blurred.data() = cover.data();
    gaussian_blur(blurred, terms[t].sigma, options.blur_backend, options.threads);
    const double w = terms[t].weight;
    for (int y = 0; y < cover.height(); ++y) {
      const double* in = &blurred.data()[static_cast<std::size_t>(y) * cover.width()];
      double* dst = &out.at(x0, y0 + y);
      for (int x = 0; x < cover.width(); ++x) dst[x] += w * in[x];
    }
  }
}

}  // namespace

Raster simulate_exposure(const ShotList& shots, const Psf& psf,
                         const SimOptions& options) {
  expects(!shots.empty(), "simulate_exposure: empty shot list");
  Box bbox;
  for (const Shot& s : shots) bbox += s.shape.bbox();

  const Coord margin = options.margin > 0
                           ? options.margin
                           : static_cast<Coord>(std::ceil(4.0 * psf.max_sigma()));
  const Coord pixel =
      options.pixel > 0
          ? options.pixel
          : std::max<Coord>(1, static_cast<Coord>(psf.min_sigma() / 2.0));

  const Box frame = bbox.bloated(margin);
  const double nx = std::ceil(static_cast<double>(frame.width()) / pixel);
  const double ny = std::ceil(static_cast<double>(frame.height()) / pixel);
  if (nx * ny > kMaxSimPixels) {
    throw DataError("simulate_exposure: the " + std::to_string(frame.width()) +
                    " x " + std::to_string(frame.height()) + " dbu frame at a " +
                    std::to_string(pixel) + " dbu pixel needs " +
                    std::to_string(static_cast<long long>(nx)) + " x " +
                    std::to_string(static_cast<long long>(ny)) +
                    " pixels, over the budget of " +
                    std::to_string(static_cast<long long>(kMaxSimPixels)) +
                    "; raise SimOptions::pixel, lower SimOptions::margin, or "
                    "simulate the pattern in pieces");
  }
  Raster result(frame, pixel);

  // Two scales, as in ExposureEvaluator: short terms on this fine grid,
  // long terms on the evaluator's coarse map, upsampled onto every pixel.
  std::vector<PsfTerm> short_terms;
  std::vector<PsfTerm> long_terms;
  const double threshold = ExposureOptions{}.long_range_threshold;
  for (const PsfTerm& t : psf.terms())
    (t.sigma >= threshold ? long_terms : short_terms).push_back(t);

  if (!short_terms.empty()) add_short_range(result, shots, bbox, short_terms, options);
  if (!long_terms.empty()) {
    const Psf long_psf = Psf::from_terms(std::move(long_terms));
    ExposureOptions eo;
    eo.threads = options.threads;
    eo.blur_backend = options.blur_backend;
    eo.splat_cache = false;  // one evaluation: rasterize, no cached splats
    // The map reaches a pixel plus one finest long sigma (>= 4 map pixels)
    // past the frame, so no pixel centre interpolates against the map edge.
    eo.map_margin_sigmas = (static_cast<double>(margin) + pixel + long_psf.min_sigma()) /
                           long_psf.max_sigma();
    ExposureEvaluator(shots, long_psf, eo).add_long_range(result);
  }
  return result;
}

Raster develop(const Raster& exposure, const ResistModel& resist) {
  Raster thickness = exposure;
  for (double& v : thickness.data()) v = resist.thickness(v);
  return thickness;
}

namespace {

double bilinear(const Raster& r, double px, double py) {
  const double fx = (px - r.origin().x) / r.pixel_size() - 0.5;
  const double fy = (py - r.origin().y) / r.pixel_size() - 0.5;
  const int ix = static_cast<int>(std::floor(fx));
  const int iy = static_cast<int>(std::floor(fy));
  const double tx = fx - ix;
  const double ty = fy - iy;
  auto sample = [&](int x, int y) -> double {
    x = std::clamp(x, 0, r.width() - 1);
    y = std::clamp(y, 0, r.height() - 1);
    return r.at(x, y);
  };
  return (1 - tx) * (1 - ty) * sample(ix, iy) + tx * (1 - ty) * sample(ix + 1, iy) +
         (1 - tx) * ty * sample(ix, iy + 1) + tx * ty * sample(ix + 1, iy + 1);
}

}  // namespace

std::vector<double> profile_along(const Raster& raster, Point a, Point b, int n) {
  expects(n >= 2, "profile_along: need >= 2 samples");
  std::vector<double> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / (n - 1);
    const double px = a.x + (static_cast<double>(b.x) - a.x) * t;
    const double py = a.y + (static_cast<double>(b.y) - a.y) * t;
    out[static_cast<std::size_t>(i)] = bilinear(raster, px, py);
  }
  return out;
}

std::vector<double> crossings_along(const Raster& raster, double level, Point a,
                                    Point b, int samples) {
  const std::vector<double> prof = profile_along(raster, a, b, samples);
  const double len = std::sqrt(static_cast<double>(distance2(a, b)));
  std::vector<double> xs;
  for (std::size_t i = 0; i + 1 < prof.size(); ++i) {
    const double v0 = prof[i] - level;
    const double v1 = prof[i + 1] - level;
    if (v0 == 0.0) xs.push_back(len * static_cast<double>(i) / (samples - 1));
    if ((v0 < 0 && v1 > 0) || (v0 > 0 && v1 < 0)) {
      const double f = v0 / (v0 - v1);
      xs.push_back(len * (static_cast<double>(i) + f) / (samples - 1));
    }
  }
  return xs;
}

std::optional<double> measure_cd(const Raster& exposure, double level, Point a,
                                 Point b, int samples) {
  const auto xs = crossings_along(exposure, level, a, b, samples);
  if (xs.size() < 2) return std::nullopt;
  return xs.back() - xs.front();
}

std::vector<ContourLine> extract_contours(const Raster& raster, double level) {
  // Marching squares on cell corners = pixel centers. Each cell contributes
  // 0..2 segments with endpoints interpolated on cell edges; segments are
  // stitched into polylines by matching quantized endpoints.
  const int nx = raster.width();
  const int ny = raster.height();
  if (nx < 2 || ny < 2) return {};

  using Key = std::pair<long long, long long>;
  const auto key_of = [](double x, double y) -> Key {
    return {static_cast<long long>(std::llround(x * 16.0)),
            static_cast<long long>(std::llround(y * 16.0))};
  };

  struct Seg {
    double x0, y0, x1, y1;
    bool used = false;
  };
  std::vector<Seg> segs;
  std::multimap<Key, std::size_t> by_start;

  const double pix = raster.pixel_size();
  const double ox = raster.origin().x + 0.5 * pix;
  const double oy = raster.origin().y + 0.5 * pix;

  const auto interp = [&](double va, double vb) {
    // Position of the crossing between two corner values, in [0,1].
    const double d = vb - va;
    if (d == 0.0) return 0.5;
    return std::clamp((level - va) / d, 0.0, 1.0);
  };

  for (int cy = 0; cy + 1 < ny; ++cy) {
    for (int cx = 0; cx + 1 < nx; ++cx) {
      const double v00 = raster.at(cx, cy);
      const double v10 = raster.at(cx + 1, cy);
      const double v01 = raster.at(cx, cy + 1);
      const double v11 = raster.at(cx + 1, cy + 1);
      int code = 0;
      if (v00 >= level) code |= 1;
      if (v10 >= level) code |= 2;
      if (v11 >= level) code |= 4;
      if (v01 >= level) code |= 8;
      if (code == 0 || code == 15) continue;

      // Edge midpoints with interpolation: bottom, right, top, left.
      const double bx = ox + (cx + interp(v00, v10)) * pix;
      const double by = oy + cy * pix;
      const double rx = ox + (cx + 1) * pix;
      const double ry = oy + (cy + interp(v10, v11)) * pix;
      const double tx = ox + (cx + interp(v01, v11)) * pix;
      const double ty = oy + (cy + 1) * pix;
      const double lx = ox + cx * pix;
      const double ly = oy + (cy + interp(v00, v01)) * pix;

      const auto add = [&](double x0, double y0, double x1, double y1) {
        segs.push_back({x0, y0, x1, y1, false});
      };
      switch (code) {
        case 1: add(lx, ly, bx, by); break;
        case 2: add(bx, by, rx, ry); break;
        case 3: add(lx, ly, rx, ry); break;
        case 4: add(rx, ry, tx, ty); break;
        case 5:  // saddle: resolve by center average
          if (0.25 * (v00 + v10 + v01 + v11) >= level) {
            add(lx, ly, tx, ty);
            add(rx, ry, bx, by);
          } else {
            add(lx, ly, bx, by);
            add(rx, ry, tx, ty);
          }
          break;
        case 6: add(bx, by, tx, ty); break;
        case 7: add(lx, ly, tx, ty); break;
        case 8: add(tx, ty, lx, ly); break;
        case 9: add(tx, ty, bx, by); break;
        case 10:
          if (0.25 * (v00 + v10 + v01 + v11) >= level) {
            add(bx, by, lx, ly);
            add(tx, ty, rx, ry);
          } else {
            add(bx, by, rx, ry);
            add(tx, ty, lx, ly);
          }
          break;
        case 11: add(tx, ty, rx, ry); break;
        case 12: add(rx, ry, lx, ly); break;
        case 13: add(rx, ry, bx, by); break;
        case 14: add(bx, by, lx, ly); break;
        default: break;
      }
    }
  }

  for (std::size_t i = 0; i < segs.size(); ++i) {
    by_start.emplace(key_of(segs[i].x0, segs[i].y0), i);
  }

  std::vector<ContourLine> lines;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (segs[i].used) continue;
    ContourLine line;
    segs[i].used = true;
    line.push_back({segs[i].x0, segs[i].y0});
    line.push_back({segs[i].x1, segs[i].y1});
    // Extend forward.
    bool extended = true;
    while (extended) {
      extended = false;
      const Key k = key_of(line.back().first, line.back().second);
      auto [lo, hi] = by_start.equal_range(k);
      for (auto it = lo; it != hi; ++it) {
        Seg& s = segs[it->second];
        if (s.used) continue;
        s.used = true;
        line.push_back({s.x1, s.y1});
        extended = true;
        break;
      }
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

}  // namespace ebl
