// Reference scanline boolean engine: the straightforward quadratic loops
// that BooleanEngine replaced with near-linear ones, kept as a test oracle.
//
//   - split_segments tests every pair of segments whose y-ranges overlap,
//     across the whole layout width, in every fixpoint round;
//   - bands() rebuilds and fully sorts the active segments in every band;
//   - merge_trapezoids_vertically scans every interval of the next band for
//     each growing trapezoid.
//
// The production engine must reproduce this oracle bit for bit: the same
// bands, segment ids, trapezoids and BooleanStats.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geom/boolean.h"
#include "geom/edge.h"
#include "util/contracts.h"

namespace ebl::reference {

class BooleanEngine {
 public:
  void add(const SimplePolygon& poly, int group = 0) { add_contour(poly, group, false); }

  void add(const Polygon& poly, int group = 0) {
    add_contour(poly.outer(), group, true);
    for (const auto& h : poly.holes()) add_contour(h, group, true);
  }

  void add(const Box& box, int group = 0) {
    if (box.empty()) return;
    add(SimplePolygon::rect(box), group);
  }

  void add_raw(const SimplePolygon& contour, int group = 0) { add_contour(contour, group, true); }

  std::vector<Band> bands(BoolOp op) const;

  std::vector<Trapezoid> trapezoids(BoolOp op, bool merge_vertical = true) const;

  const BooleanStats& stats() const { return stats_; }

 private:
  struct Seg {
    Point lo, hi;
    std::int8_t weight;
    std::int8_t group;
  };

  struct RatX {
    Wide num;
    Coord64 den;
  };

  static Coord64 round_div(Wide num, Wide den) {
    const Wide half = den / 2;
    if (num >= 0) return static_cast<Coord64>((num + half) / den);
    return static_cast<Coord64>(-(((-num) + half) / den));
  }

  void add_contour(const SimplePolygon& poly, int group, bool as_given) {
    if (poly.size() < 3) return;
    const bool reverse = !as_given && !poly.is_ccw();
    const std::size_t n = poly.size();
    for (std::size_t i = 0; i < n; ++i) {
      Point a = poly[i];
      Point b = poly[(i + 1) % n];
      if (reverse) std::swap(a, b);
      if (a.y == b.y) continue;
      if (a.y < b.y) {
        segs_.push_back({a, b, +1, static_cast<std::int8_t>(group)});
      } else {
        segs_.push_back({b, a, -1, static_cast<std::int8_t>(group)});
      }
    }
  }

  std::vector<Seg> split_segments() const;

  std::vector<Seg> segs_;
  mutable BooleanStats stats_;
};

inline std::vector<BooleanEngine::Seg> BooleanEngine::split_segments() const {
  std::vector<Seg> segs = segs_;
  stats_ = BooleanStats{};
  stats_.input_edges = segs.size();

  constexpr int kMaxRounds = 32;
  for (int round = 0; round < kMaxRounds; ++round) {
    stats_.split_rounds = static_cast<std::size_t>(round);
    std::sort(segs.begin(), segs.end(), [](const Seg& a, const Seg& b) {
      if (a.lo.y != b.lo.y) return a.lo.y < b.lo.y;
      return a.lo.x < b.lo.x;
    });

    std::vector<std::vector<Point>> cuts(segs.size());
    bool any_cut = false;

    auto note_cut = [&](std::size_t idx, Point p) {
      const Seg& s = segs[idx];
      if (p.y <= s.lo.y || p.y >= s.hi.y) return;
      cuts[idx].push_back(p);
      any_cut = true;
    };

    for (std::size_t i = 0; i < segs.size(); ++i) {
      const Edge ei{segs[i].lo, segs[i].hi};
      const Box bi = ei.bbox();
      for (std::size_t j = i + 1; j < segs.size(); ++j) {
        if (segs[j].lo.y > segs[i].hi.y) break;
        const Edge ej{segs[j].lo, segs[j].hi};
        if (!bi.touches(ej.bbox())) continue;
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
      }
    }

    if (!any_cut) {
      stats_.split_edges = segs.size();
      return segs;
    }

    std::vector<Seg> next;
    next.reserve(segs.size() + 16);
    for (std::size_t i = 0; i < segs.size(); ++i) {
      if (cuts[i].empty()) {
        next.push_back(segs[i]);
        continue;
      }
      auto& cs = cuts[i];
      std::sort(cs.begin(), cs.end(),
                [](Point a, Point b) { return a.y != b.y ? a.y < b.y : a.x < b.x; });
      cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
      Point prev = segs[i].lo;
      for (Point c : cs) {
        if (c.y > prev.y) next.push_back({prev, c, segs[i].weight, segs[i].group});
        if (c.y >= prev.y) prev = c;
      }
      if (segs[i].hi.y > prev.y)
        next.push_back({prev, segs[i].hi, segs[i].weight, segs[i].group});
    }
    segs = std::move(next);
  }
  throw DataError("BooleanEngine: edge splitting did not reach a fixpoint");
}

inline std::vector<Band> BooleanEngine::bands(BoolOp op) const {
  std::vector<Seg> segs = split_segments();
  if (segs.empty()) return {};

  std::vector<Coord> ys;
  ys.reserve(segs.size() * 2);
  for (const Seg& s : segs) {
    ys.push_back(s.lo.y);
    ys.push_back(s.hi.y);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

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

  const auto rat_x = [](const Seg& s, Coord y) -> RatX {
    const Coord64 den = Coord64(s.hi.y) - s.lo.y;
    const Wide num = Wide(Coord64(s.lo.x)) * den +
                     Wide(Coord64(s.hi.x) - s.lo.x) * (Coord64(y) - s.lo.y);
    return {num, den};
  };
  const auto rat_cmp = [](const RatX& a, const RatX& b) -> int {
    const Wide lhs = a.num * b.den;
    const Wide rhs = b.num * a.den;
    return lhs < rhs ? -1 : (lhs > rhs ? 1 : 0);
  };

  std::vector<Band> result;
  std::vector<std::size_t> active;
  std::size_t next_seg = 0;

  for (std::size_t bi = 0; bi + 1 < ys.size(); ++bi) {
    const Coord y0 = ys[bi];
    const Coord y1 = ys[bi + 1];

    while (next_seg < segs.size() && segs[next_seg].lo.y <= y0) {
      active.push_back(next_seg);
      ++next_seg;
    }
    std::erase_if(active, [&](std::size_t i) { return segs[i].hi.y <= y0; });
    if (active.empty()) continue;

    struct Entry {
      std::size_t seg;
      RatX x0, x1;
    };
    std::vector<Entry> order;
    order.reserve(active.size());
    for (std::size_t i : active) order.push_back({i, rat_x(segs[i], y0), rat_x(segs[i], y1)});
    std::sort(order.begin(), order.end(), [&](const Entry& a, const Entry& b) {
      if (const int c = rat_cmp(a.x0, b.x0); c != 0) return c < 0;
      if (const int c = rat_cmp(a.x1, b.x1); c != 0) return c < 0;
      return a.seg < b.seg;
    });

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

    std::vector<BandInterval> merged;
    for (const BandInterval& iv : band.intervals) {
      if (iv.xl0 == iv.xr0 && iv.xl1 == iv.xr1) continue;
      if (!merged.empty()) {
        BandInterval& prev = merged.back();
        const bool touch_both = prev.xr0 >= iv.xl0 && prev.xr1 >= iv.xl1;
        const bool overlap_any = prev.xr0 > iv.xl0 || prev.xr1 > iv.xl1;
        if (touch_both || overlap_any) {
          prev.xr0 = std::max(prev.xr0, iv.xr0);
          prev.xr1 = std::max(prev.xr1, iv.xr1);
          prev.right_seg = -1;
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

inline std::vector<Trapezoid> merge_trapezoids_vertically(const std::vector<Band>& bands) {
  struct Growing {
    Trapezoid t;
    std::int32_t left_seg;
    std::int32_t right_seg;
  };
  std::vector<Trapezoid> done;
  std::vector<Growing> grow;

  const auto collinear_sides = [](const Trapezoid& a, const Trapezoid& b) {
    const Coord64 ha = Coord64(a.y1) - a.y0;
    const Coord64 hb = Coord64(b.y1) - b.y0;
    const bool left = Wide(Coord64(a.xl1) - a.xl0) * hb == Wide(Coord64(b.xl1) - b.xl0) * ha;
    const bool right = Wide(Coord64(a.xr1) - a.xr0) * hb == Wide(Coord64(b.xr1) - b.xr0) * ha;
    return left && right;
  };

  for (const Band& band : bands) {
    std::vector<Growing> next_grow;
    std::vector<bool> used(band.intervals.size(), false);
    for (const Growing& g : grow) {
      bool extended = false;
      if (g.t.y1 == band.y0) {
        for (std::size_t i = 0; i < band.intervals.size(); ++i) {
          if (used[i]) continue;
          const BandInterval& iv = band.intervals[i];
          const bool same_segs = g.left_seg >= 0 && g.left_seg == iv.left_seg &&
                                 g.right_seg >= 0 && g.right_seg == iv.right_seg;
          if (!same_segs) {
            if (iv.xl0 != g.t.xl1 || iv.xr0 != g.t.xr1) continue;
            const Trapezoid cand{band.y0, band.y1, iv.xl0, iv.xr0, iv.xl1, iv.xr1};
            if (!collinear_sides(g.t, cand)) continue;
          } else {
            if (iv.xl0 != g.t.xl1 || iv.xr0 != g.t.xr1) continue;
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
    for (std::size_t i = 0; i < band.intervals.size(); ++i) {
      if (used[i]) continue;
      const BandInterval& iv = band.intervals[i];
      const Trapezoid t{band.y0, band.y1, iv.xl0, iv.xr0, iv.xl1, iv.xr1};
      if (t.valid()) next_grow.push_back(Growing{t, iv.left_seg, iv.right_seg});
    }
    grow = std::move(next_grow);
  }
  for (const Growing& g : grow) done.push_back(g.t);
  return done;
}

inline std::vector<Trapezoid> BooleanEngine::trapezoids(BoolOp op, bool merge_vertical) const {
  const std::vector<Band> bs = bands(op);
  return merge_vertical ? reference::merge_trapezoids_vertically(bs) : band_trapezoids(bs);
}

}  // namespace ebl::reference
