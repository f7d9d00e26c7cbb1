#include "geom/boolean.h"

#include <algorithm>
#include <limits>

#include "geom/edge.h"
#include "util/contracts.h"

namespace ebl {
namespace {

// Rounds num/den to the nearest integer (ties away from zero); den > 0.
Coord64 round_div(Wide num, Wide den) {
  const Wide half = den / 2;
  if (num >= 0) return static_cast<Coord64>((num + half) / den);
  return static_cast<Coord64>(-(((-num) + half) / den));
}

// Exact x of the segment's supporting line at height y, as num/den with
// den = hi.y - lo.y > 0. Requires lo.y <= y <= hi.y.
struct RatX {
  Wide num;
  Coord64 den;
};

}  // namespace

void BooleanEngine::add_contour(const SimplePolygon& poly, int group, bool as_given) {
  if (poly.size() < 3) return;
  // Orientation: solid contours must be CCW so winding is +1 inside.
  const bool reverse = !as_given && !poly.is_ccw();
  const std::size_t n = poly.size();
  for (std::size_t i = 0; i < n; ++i) {
    Point a = poly[i];
    Point b = poly[(i + 1) % n];
    if (reverse) std::swap(a, b);
    if (a.y == b.y) continue;  // horizontal edges carry no winding
    Seg s;
    if (a.y < b.y) {
      s = {a, b, +1, static_cast<std::int8_t>(group)};
    } else {
      s = {b, a, -1, static_cast<std::int8_t>(group)};
    }
    segs_.push_back(s);
  }
}

void BooleanEngine::add(const SimplePolygon& poly, int group) {
  add_contour(poly, group, /*as_given=*/false);
}

void BooleanEngine::add(const Polygon& poly, int group) {
  // Polygon normalizes outer to CCW and holes to CW on construction.
  add_contour(poly.outer(), group, /*as_given=*/true);
  for (const auto& h : poly.holes()) add_contour(h, group, /*as_given=*/true);
}

void BooleanEngine::add_raw(const SimplePolygon& contour, int group) {
  add_contour(contour, group, /*as_given=*/true);
}

void BooleanEngine::add(const Box& box, int group) {
  if (box.empty()) return;
  add(SimplePolygon::rect(box), group);
}

void BooleanEngine::add(const Trapezoid& trap, int group) {
  if (!trap.valid()) return;
  add(trap.to_polygon(), group);
}

std::vector<BooleanEngine::Seg> BooleanEngine::split_segments() const {
  // A segment is fresh in the round that first sees it: every input segment
  // in round 0, afterwards only the pieces of segments cut in the round
  // before. Two segments that both went uncut were already tested against
  // each other without a cut and cannot give one now, so every round tests
  // only pairs with a fresh member.
  struct Piece {
    Seg seg;
    bool fresh;
  };
  std::vector<Piece> segs;
  segs.reserve(segs_.size());
  for (const Seg& s : segs_) segs.push_back({s, true});
  stats_ = BooleanStats{};
  stats_.input_edges = segs.size();
  if (segs.empty()) return {};

  std::vector<std::size_t> col_start, col_segs;  // x-column -> segments (CSR)

  constexpr int kMaxRounds = 32;
  for (int round = 0; round < kMaxRounds; ++round) {
    stats_.split_rounds = static_cast<std::size_t>(round);
    // Sweep & prune on y: sort by lo.y, pair up while y-ranges overlap.
    std::sort(segs.begin(), segs.end(), [](const Piece& a, const Piece& b) {
      if (a.seg.lo.y != b.seg.lo.y) return a.seg.lo.y < b.seg.lo.y;
      return a.seg.lo.x < b.seg.lo.x;
    });

    // Prune on x too: cut the x-range into columns and file every segment
    // under each column its x-range meets, in sorted order. A pair whose
    // boxes touch shares the column holding the left end of its x-overlap
    // and is tested there only. A column is at least as wide as the mean
    // segment, so a segment lands in about two columns on average, and there
    // are at most about as many columns as segments.
    const std::size_t n = segs.size();
    Coord64 x_min = std::numeric_limits<Coord64>::max();
    Coord64 x_max = std::numeric_limits<Coord64>::min();
    Coord64 width_sum = 0;
    for (const Piece& p : segs) {
      const Coord64 lo = std::min(p.seg.lo.x, p.seg.hi.x);
      const Coord64 hi = std::max(p.seg.lo.x, p.seg.hi.x);
      x_min = std::min(x_min, lo);
      x_max = std::max(x_max, hi);
      width_sum += hi - lo;
    }
    const Coord64 count = static_cast<Coord64>(n);
    const Coord64 span = x_max - x_min + 1;
    const Coord64 col_width = std::max<Coord64>({1, width_sum / count, span / count});
    const std::size_t n_cols = static_cast<std::size_t>((span - 1) / col_width + 1);
    const auto col_of = [&](Coord64 x) {
      return static_cast<std::size_t>((x - x_min) / col_width);
    };
    const auto x_lo = [&](std::size_t i) { return std::min(segs[i].seg.lo.x, segs[i].seg.hi.x); };
    const auto x_hi = [&](std::size_t i) { return std::max(segs[i].seg.lo.x, segs[i].seg.hi.x); };
    const auto for_each_col = [&](std::size_t i, auto&& f) {
      for (std::size_t c = col_of(x_lo(i)), e = col_of(x_hi(i)); c <= e; ++c) f(c);
    };

    col_start.assign(n_cols + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for_each_col(i, [&](std::size_t c) { ++col_start[c + 1]; });
    }
    for (std::size_t c = 0; c < n_cols; ++c) col_start[c + 1] += col_start[c];
    col_segs.resize(col_start[n_cols]);
    std::vector<std::size_t> fill(col_start.begin(), col_start.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      for_each_col(i, [&](std::size_t c) { col_segs[fill[c]++] = i; });
    }

    std::vector<std::vector<Point>> cuts(n);
    bool any_cut = false;

    auto note_cut = [&](std::size_t idx, Point p) {
      const Seg& s = segs[idx].seg;
      if (p.y <= s.lo.y || p.y >= s.hi.y) return;  // must split strictly inside in y
      cuts[idx].push_back(p);
      any_cut = true;
    };

    // Tests the pair (i, j), i < j in sorted order: intersection_point is
    // anchored at its first edge, so the orientation is part of the result.
    // Two uncut segments keep their relative order from round to round
    // unless they share their lower end, and then the test is symmetric.
    const auto test_pair = [&](std::size_t i, std::size_t j, std::size_t col) {
      const Edge ei{segs[i].seg.lo, segs[i].seg.hi};
      const Edge ej{segs[j].seg.lo, segs[j].seg.hi};
      const Coord left = std::max(x_lo(i), x_lo(j));
      if (left > std::min(x_hi(i), x_hi(j)) || col_of(left) != col) return;
      switch (classify_intersection(ei, ej)) {
        case SegCross::none:
          break;
        case SegCross::proper: {
          const Point p = intersection_point(ei, ej);
          note_cut(i, p);
          note_cut(j, p);
          break;
        }
        case SegCross::touch: {
          // T-junction: split the segment whose interior is touched.
          if (ei.contains(ej.a)) note_cut(i, ej.a);
          if (ei.contains(ej.b)) note_cut(i, ej.b);
          if (ej.contains(ei.a)) note_cut(j, ei.a);
          if (ej.contains(ei.b)) note_cut(j, ei.b);
          break;
        }
        case SegCross::overlap: {
          note_cut(i, ej.a);
          note_cut(i, ej.b);
          note_cut(j, ei.a);
          note_cut(j, ei.b);
          break;
        }
      }
    };

    for (std::size_t c = 0; c < n_cols; ++c) {
      const std::size_t* end = col_segs.data() + col_start[c + 1];
      for (const std::size_t* a = col_segs.data() + col_start[c]; a != end; ++a) {
        const std::size_t i = *a;
        for (const std::size_t* b = a + 1; b != end; ++b) {
          if (segs[*b].seg.lo.y > segs[i].seg.hi.y) break;  // sorted by lo.y
          if (segs[i].fresh || segs[*b].fresh) test_pair(i, *b, c);
        }
      }
    }

    if (!any_cut) {
      stats_.split_edges = n;
      std::vector<Seg> out;
      out.reserve(n);
      for (const Piece& p : segs) out.push_back(p.seg);
      return out;
    }

    std::vector<Piece> next;
    next.reserve(n + 16);
    for (std::size_t i = 0; i < n; ++i) {
      const Seg& s = segs[i].seg;
      if (cuts[i].empty()) {
        next.push_back({s, false});
        continue;
      }
      auto& cs = cuts[i];
      std::sort(cs.begin(), cs.end(),
                [](Point a, Point b) { return a.y != b.y ? a.y < b.y : a.x < b.x; });
      cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
      Point prev = s.lo;
      for (Point c : cs) {
        if (c.y > prev.y) next.push_back({{prev, c, s.weight, s.group}, true});
        if (c.y >= prev.y) prev = c;  // horizontal residue is dropped
      }
      if (s.hi.y > prev.y) next.push_back({{prev, s.hi, s.weight, s.group}, true});
    }
    segs = std::move(next);
  }
  throw DataError("BooleanEngine: edge splitting did not reach a fixpoint");
}

std::vector<Band> BooleanEngine::bands(BoolOp op) const {
  std::vector<Seg> segs = split_segments();
  if (segs.empty()) return {};

  // Collect event ys (every segment endpoint).
  std::vector<Coord> ys;
  ys.reserve(segs.size() * 2);
  for (const Seg& s : segs) {
    ys.push_back(s.lo.y);
    ys.push_back(s.hi.y);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

  // Segments sorted by lo.y for incremental activation.
  std::sort(segs.begin(), segs.end(), [](const Seg& a, const Seg& b) {
    return a.lo.y < b.lo.y;
  });

  const auto inside = [op](int wa, int wb) {
    const bool a = wa != 0;
    const bool b = wb != 0;
    switch (op) {
      case BoolOp::Or: return a || b;
      case BoolOp::And: return a && b;
      case BoolOp::Sub: return a && !b;
      case BoolOp::Xor: return a != b;
    }
    return false;
  };

  // Exact x at y as a rational with positive denominator.
  const auto rat_x = [](const Seg& s, Coord y) -> RatX {
    const Coord64 den = Coord64(s.hi.y) - s.lo.y;  // > 0
    const Wide num = Wide(Coord64(s.lo.x)) * den +
                     Wide(Coord64(s.hi.x) - s.lo.x) * (Coord64(y) - s.lo.y);
    return {num, den};
  };
  const auto rat_cmp = [](const RatX& a, const RatX& b) -> int {
    const Wide lhs = a.num * b.den;
    const Wide rhs = b.num * a.den;
    return lhs < rhs ? -1 : (lhs > rhs ? 1 : 0);
  };

  // Exact order by (x@y0, x@y1): crossings were removed, so this is a
  // consistent order within the band, and the segment index makes it a
  // strict total order (coincident segments: deterministic tie-break).
  struct Entry {
    std::size_t seg;
    RatX x0, x1;
  };
  const auto before = [&](const Entry& a, const Entry& b) {
    if (const int c = rat_cmp(a.x0, b.x0); c != 0) return c < 0;
    if (const int c = rat_cmp(a.x1, b.x1); c != 0) return c < 0;
    return a.seg < b.seg;
  };

  std::vector<Band> result;
  std::vector<Entry> order;  // active segments, carried from band to band
  std::vector<Entry> starting;
  std::size_t next_seg = 0;

  for (std::size_t bi = 0; bi + 1 < ys.size(); ++bi) {
    const Coord y0 = ys[bi];
    const Coord y1 = ys[bi + 1];

    // Retire segments ending at y0. The others were ordered for the band
    // below, whose top is y0: their x@y1 there is their x@y0 here. Segments
    // only cross at band edges (or below the grid), so the carried order is
    // nearly right and an insertion pass repairs it; the order is strict and
    // total, so this is exactly the order a full sort gives.
    std::erase_if(order, [&](const Entry& e) { return segs[e.seg].hi.y <= y0; });
    for (Entry& e : order) {
      e.x0 = e.x1;
      e.x1 = rat_x(segs[e.seg], y1);
    }
    for (std::size_t k = 1; k < order.size(); ++k) {
      if (!before(order[k], order[k - 1])) continue;
      const Entry e = order[k];
      std::size_t m = k;
      do {
        order[m] = order[m - 1];
        --m;
      } while (m > 0 && before(e, order[m - 1]));
      order[m] = e;
    }

    // Activate segments starting at y0 and merge them in.
    starting.clear();
    for (; next_seg < segs.size() && segs[next_seg].lo.y <= y0; ++next_seg)
      starting.push_back({next_seg, rat_x(segs[next_seg], y0), rat_x(segs[next_seg], y1)});
    if (!starting.empty()) {
      std::sort(starting.begin(), starting.end(), before);
      const std::size_t carried = order.size();
      order.insert(order.end(), starting.begin(), starting.end());
      std::inplace_merge(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(carried),
                         order.end(), before);
    }
    if (order.empty()) continue;

    Band band;
    band.y0 = y0;
    band.y1 = y1;

    int wa = 0;
    int wb = 0;
    BandInterval cur{};
    for (const Entry& e : order) {
      const Seg& s = segs[e.seg];
      const bool was_inside = inside(wa, wb);
      if (s.group == 0) wa += s.weight; else wb += s.weight;
      const bool now_inside = inside(wa, wb);
      if (!was_inside && now_inside) {
        cur.xl0 = static_cast<Coord>(round_div(e.x0.num, e.x0.den));
        cur.xl1 = static_cast<Coord>(round_div(e.x1.num, e.x1.den));
        cur.left_seg = static_cast<std::int32_t>(e.seg);
      } else if (was_inside && !now_inside) {
        cur.xr0 = static_cast<Coord>(round_div(e.x0.num, e.x0.den));
        cur.xr1 = static_cast<Coord>(round_div(e.x1.num, e.x1.den));
        cur.right_seg = static_cast<std::int32_t>(e.seg);
        band.intervals.push_back(cur);
      }
    }
    ensures(wa == 0 && wb == 0, "winding must return to zero at band end");

    // Coalesce intervals that the grid cannot keep apart:
    //  - zero-gap at both ends (they form one figure);
    //  - strict overlap at either end. Strict overlaps arise from residual
    //    sub-band crossings: when an intersection point rounds onto a
    //    segment endpoint's y, the crossing cannot be split on the grid and
    //    the two inside intervals interleave. The union of such intervals is
    //    connected almost everywhere in the band, so merging is the
    //    area-faithful repair (error is a sub-dbu-height sliver).
    std::vector<BandInterval> merged;
    for (const BandInterval& iv : band.intervals) {
      if (iv.xl0 == iv.xr0 && iv.xl1 == iv.xr1) continue;  // measure-zero sliver
      if (!merged.empty()) {
        BandInterval& prev = merged.back();
        const bool touch_both = prev.xr0 >= iv.xl0 && prev.xr1 >= iv.xl1;
        const bool overlap_any = prev.xr0 > iv.xl0 || prev.xr1 > iv.xl1;
        if (touch_both || overlap_any) {
          prev.xr0 = std::max(prev.xr0, iv.xr0);
          prev.xr1 = std::max(prev.xr1, iv.xr1);
          prev.right_seg = -1;  // repaired boundary: no single support segment
          continue;
        }
      }
      merged.push_back(iv);
    }
    band.intervals = std::move(merged);

    if (!band.intervals.empty()) {
      stats_.intervals += band.intervals.size();
      result.push_back(std::move(band));
    }
  }
  stats_.bands = result.size();
  return result;
}

std::vector<Trapezoid> band_trapezoids(const std::vector<Band>& bands) {
  std::vector<Trapezoid> traps;
  for (const Band& b : bands) {
    for (const BandInterval& iv : b.intervals) {
      const Trapezoid t{b.y0, b.y1, iv.xl0, iv.xr0, iv.xl1, iv.xr1};
      if (t.valid()) traps.push_back(t);
    }
  }
  return traps;
}

std::vector<Trapezoid> merge_trapezoids_vertically(const std::vector<Band>& bands) {
  // Growable trapezoids carry the supporting-segment ids of their sides so
  // a band split by a foreign event y can be reunited exactly: when the ids
  // match, the rounded intermediate boundary is dropped and the merged
  // trapezoid interpolates straight between its (exact) extreme sides.
  struct Growing {
    Trapezoid t;
    std::int32_t left_seg;
    std::int32_t right_seg;
  };
  std::vector<Trapezoid> done;
  std::vector<Growing> grow;

  const auto collinear_sides = [](const Trapezoid& a, const Trapezoid& b) {
    // a on bottom, b on top; shares a.y1 == b.y0, a.xl1 == b.xl0, a.xr1 == b.xr0.
    // Sides stay straight iff slopes match exactly in grid coordinates.
    const Coord64 ha = Coord64(a.y1) - a.y0;
    const Coord64 hb = Coord64(b.y1) - b.y0;
    const bool left = Wide(Coord64(a.xl1) - a.xl0) * hb == Wide(Coord64(b.xl1) - b.xl0) * ha;
    const bool right = Wide(Coord64(a.xr1) - a.xr0) * hb == Wide(Coord64(b.xr1) - b.xr0) * ha;
    return left && right;
  };

  // A growing trapezoid continues into an interval whose bottom edge
  // (xl0, xr0) is its top edge. The intervals of a band are sorted by that
  // key, so the candidates are one equal range, found by binary search.
  const auto bottom_less = [](const BandInterval& a, const BandInterval& b) {
    return a.xl0 != b.xl0 ? a.xl0 < b.xl0 : a.xr0 < b.xr0;
  };

  for (const Band& band : bands) {
    const std::vector<BandInterval>& ivs = band.intervals;
    expects(std::is_sorted(ivs.begin(), ivs.end(), bottom_less),
            "merge_trapezoids_vertically: band intervals must be sorted left to right");
    std::vector<Growing> next_grow;
    std::vector<bool> used(ivs.size(), false);
    for (const Growing& g : grow) {
      bool extended = false;
      if (g.t.y1 == band.y0) {
        BandInterval key{};
        key.xl0 = g.t.xl1;
        key.xr0 = g.t.xr1;
        const auto range = std::equal_range(ivs.begin(), ivs.end(), key, bottom_less);
        // First unused match in index order.
        for (auto it = range.first; it != range.second; ++it) {
          const std::size_t i = static_cast<std::size_t>(it - ivs.begin());
          if (used[i]) continue;
          const BandInterval& iv = *it;
          // Same supporting segments: both bands rounded the same rational,
          // so the sides are straight by construction. Otherwise the
          // rounded sides must be collinear.
          const bool same_segs = g.left_seg >= 0 && g.left_seg == iv.left_seg &&
                                 g.right_seg >= 0 && g.right_seg == iv.right_seg;
          if (!same_segs) {
            const Trapezoid cand{band.y0, band.y1, iv.xl0, iv.xr0, iv.xl1, iv.xr1};
            if (!collinear_sides(g.t, cand)) continue;
          }
          next_grow.push_back(
              Growing{Trapezoid{g.t.y0, band.y1, g.t.xl0, g.t.xr0, iv.xl1, iv.xr1},
                      same_segs ? g.left_seg : -1, same_segs ? g.right_seg : -1});
          used[i] = true;
          extended = true;
          break;
        }
      }
      if (!extended) done.push_back(g.t);
    }
    for (std::size_t i = 0; i < ivs.size(); ++i) {
      if (used[i]) continue;
      const BandInterval& iv = ivs[i];
      const Trapezoid t{band.y0, band.y1, iv.xl0, iv.xr0, iv.xl1, iv.xr1};
      if (t.valid()) next_grow.push_back(Growing{t, iv.left_seg, iv.right_seg});
    }
    grow = std::move(next_grow);
  }
  for (const Growing& g : grow) done.push_back(g.t);
  return done;
}

std::vector<Trapezoid> BooleanEngine::trapezoids(BoolOp op, bool merge_vertical) const {
  const std::vector<Band> bs = bands(op);
  return merge_vertical ? merge_trapezoids_vertically(bs) : band_trapezoids(bs);
}

std::vector<Polygon> BooleanEngine::polygons(BoolOp op) const {
  return stitch_bands(bands(op));
}

}  // namespace ebl
