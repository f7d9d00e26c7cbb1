// Tests for the scanline boolean engine, trapezoid decomposition and
// polygon stitching — the correctness core of the toolkit.
#include <gtest/gtest.h>

#include <algorithm>

#include "boolean_reference.h"
#include "geom/boolean.h"
#include "geom/polygon_set.h"
#include "util/rng.h"

namespace ebl {
namespace {

double traps_area(const std::vector<Trapezoid>& traps) {
  double a = 0.0;
  for (const auto& t : traps) a += t.area();
  return a;
}

double polys_area(const std::vector<Polygon>& polys) {
  double a = 0.0;
  for (const auto& p : polys) a += p.area();
  return a;
}

bool any_trap_contains(const std::vector<Trapezoid>& traps, Point p) {
  return std::any_of(traps.begin(), traps.end(),
                     [&](const Trapezoid& t) { return t.contains(p); });
}

TEST(Boolean, SingleRectangleIdentity) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 100, 50});
  const auto traps = eng.trapezoids(BoolOp::Or);
  ASSERT_EQ(traps.size(), 1u);
  EXPECT_EQ(traps[0], Trapezoid::rect(Box{0, 0, 100, 50}));
}

TEST(Boolean, DisjointRectanglesStayDisjoint) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 10, 10});
  eng.add(Box{20, 20, 30, 30});
  const auto traps = eng.trapezoids(BoolOp::Or);
  EXPECT_EQ(traps.size(), 2u);
  EXPECT_DOUBLE_EQ(traps_area(traps), 200.0);
}

TEST(Boolean, OverlappingUnionArea) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 10, 10});
  eng.add(Box{5, 5, 15, 15});
  EXPECT_DOUBLE_EQ(traps_area(eng.trapezoids(BoolOp::Or)), 175.0);
}

TEST(Boolean, IntersectionOfOverlap) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 10, 10}, 0);
  eng.add(Box{5, 5, 15, 15}, 1);
  const auto traps = eng.trapezoids(BoolOp::And);
  ASSERT_EQ(traps.size(), 1u);
  EXPECT_EQ(traps[0], Trapezoid::rect(Box{5, 5, 10, 10}));
}

TEST(Boolean, SubtractionPunchesHole) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 30, 30}, 0);
  eng.add(Box{10, 10, 20, 20}, 1);
  EXPECT_DOUBLE_EQ(traps_area(eng.trapezoids(BoolOp::Sub)), 800.0);
  const auto polys = eng.polygons(BoolOp::Sub);
  ASSERT_EQ(polys.size(), 1u);
  ASSERT_EQ(polys[0].holes().size(), 1u);
  EXPECT_DOUBLE_EQ(polys[0].area(), 800.0);
  EXPECT_FALSE(polys[0].contains({15, 15}));
  EXPECT_TRUE(polys[0].contains({5, 15}));
}

TEST(Boolean, XorIsSymmetricDifference) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 10, 10}, 0);
  eng.add(Box{5, 5, 15, 15}, 1);
  EXPECT_DOUBLE_EQ(traps_area(eng.trapezoids(BoolOp::Xor)), 150.0);
}

TEST(Boolean, TouchingRectanglesFuse) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 10, 10});
  eng.add(Box{10, 0, 20, 10});
  const auto traps = eng.trapezoids(BoolOp::Or);
  ASSERT_EQ(traps.size(), 1u);
  EXPECT_EQ(traps[0], Trapezoid::rect(Box{0, 0, 20, 10}));
}

TEST(Boolean, VerticallyStackedRectanglesMerge) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 10, 10});
  eng.add(Box{0, 10, 10, 20});
  const auto merged = eng.trapezoids(BoolOp::Or, /*merge_vertical=*/true);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], Trapezoid::rect(Box{0, 0, 10, 20}));
  const auto unmerged = eng.trapezoids(BoolOp::Or, /*merge_vertical=*/false);
  EXPECT_EQ(unmerged.size(), 2u);
}

TEST(Boolean, TriangleDecomposes) {
  BooleanEngine eng;
  eng.add(SimplePolygon{{{0, 0}, {100, 0}, {0, 100}}});
  const auto traps = eng.trapezoids(BoolOp::Or);
  ASSERT_EQ(traps.size(), 1u);  // single trapezoid band (degenerate top)
  EXPECT_DOUBLE_EQ(traps_area(traps), 5000.0);
}

TEST(Boolean, CrossingRectanglesUnion) {
  // A plus-sign from two crossing bars.
  BooleanEngine eng;
  eng.add(Box{-30, -10, 30, 10});
  eng.add(Box{-10, -30, 10, 30});
  const auto traps = eng.trapezoids(BoolOp::Or);
  EXPECT_DOUBLE_EQ(traps_area(traps), 60.0 * 20.0 + 2.0 * 20.0 * 20.0);
  const auto polys = eng.polygons(BoolOp::Or);
  ASSERT_EQ(polys.size(), 1u);
  EXPECT_EQ(polys[0].outer().size(), 12u);
  EXPECT_TRUE(polys[0].holes().empty());
}

TEST(Boolean, DiagonalSquaresCross) {
  // Two 45-degree rotated squares overlapping -> eight-pointed star union.
  const SimplePolygon d1{{{0, -20}, {20, 0}, {0, 20}, {-20, 0}}};
  const SimplePolygon d2{{{10, -20}, {30, 0}, {10, 20}, {-10, 0}}};
  BooleanEngine eng;
  eng.add(d1, 0);
  eng.add(d2, 1);
  const double a1 = 2.0 * 20.0 * 20.0;  // diamond area = d^2/2 with d=40
  const auto uni = eng.trapezoids(BoolOp::Or);
  const auto inter = eng.trapezoids(BoolOp::And);
  const auto x = eng.trapezoids(BoolOp::Xor);
  // Inclusion-exclusion: |A|+|B| = |A∪B| + |A∩B| ; |XOR| = |A∪B| - |A∩B|.
  EXPECT_NEAR(traps_area(uni) + traps_area(inter), 2 * a1, 3.0);
  EXPECT_NEAR(traps_area(x), traps_area(uni) - traps_area(inter), 3.0);
}

TEST(Boolean, SelfIntersectingContourUsesWinding) {
  // A bowtie: two triangles sharing only the crossing point.
  const SimplePolygon bowtie{{{0, 0}, {20, 20}, {20, 0}, {0, 20}}};
  BooleanEngine eng;
  eng.add(bowtie);
  const auto traps = eng.trapezoids(BoolOp::Or);
  // Nonzero winding fills both wings: total area = 2 * (1/4 of 20x20) = 200.
  EXPECT_NEAR(traps_area(traps), 200.0, 1.0);
}

TEST(Boolean, HoleViaPolygonInput) {
  BooleanEngine eng;
  eng.add(Polygon{SimplePolygon::rect(0, 0, 40, 40), {SimplePolygon::rect(10, 10, 30, 30)}});
  const auto traps = eng.trapezoids(BoolOp::Or);
  EXPECT_DOUBLE_EQ(traps_area(traps), 1600.0 - 400.0);
  EXPECT_FALSE(any_trap_contains(traps, {20, 20}));
  EXPECT_TRUE(any_trap_contains(traps, {5, 20}));
}

TEST(Boolean, NestedHoleIsland) {
  // Ring with an island inside the hole.
  BooleanEngine eng;
  eng.add(Polygon{SimplePolygon::rect(0, 0, 100, 100),
                  {SimplePolygon::rect(20, 20, 80, 80)}});
  eng.add(Box{40, 40, 60, 60});
  const auto polys = eng.polygons(BoolOp::Or);
  ASSERT_EQ(polys.size(), 2u);
  EXPECT_DOUBLE_EQ(polys_area(polys), 10000.0 - 3600.0 + 400.0);
}

TEST(Boolean, EmptyInputsAndEmptyResults) {
  BooleanEngine eng;
  EXPECT_TRUE(eng.trapezoids(BoolOp::Or).empty());
  eng.add(Box{0, 0, 10, 10}, 0);
  EXPECT_TRUE(eng.trapezoids(BoolOp::And).empty());  // nothing in group B
  EXPECT_TRUE(eng.polygons(BoolOp::And).empty());
  // A \ A = empty.
  BooleanEngine eng2;
  eng2.add(Box{0, 0, 10, 10}, 0);
  eng2.add(Box{0, 0, 10, 10}, 1);
  EXPECT_TRUE(eng2.trapezoids(BoolOp::Sub).empty());
}

TEST(Boolean, StitchRoundTripPreservesArea) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 50, 20});
  eng.add(SimplePolygon{{{10, 5}, {60, 5}, {60, 40}, {35, 60}}});
  eng.add(Box{-20, -20, 5, 5});
  const auto traps = eng.trapezoids(BoolOp::Or);
  const auto polys = eng.polygons(BoolOp::Or);
  EXPECT_NEAR(polys_area(polys), traps_area(traps), 1.0);

  // Re-run the reconstructed polygons through the engine: area must be stable.
  BooleanEngine eng2;
  for (const auto& p : polys) eng2.add(p);
  EXPECT_NEAR(traps_area(eng2.trapezoids(BoolOp::Or)), traps_area(traps), 1.0);
}

TEST(PolygonSet, OperatorsComposeAndAgreeWithContains) {
  PolygonSet a;
  a.insert(Box{0, 0, 100, 100});
  PolygonSet b;
  b.insert(Box{50, 50, 150, 150});

  EXPECT_DOUBLE_EQ(a.united(b).area(), 17500.0);
  EXPECT_DOUBLE_EQ(a.intersected(b).area(), 2500.0);
  EXPECT_DOUBLE_EQ(a.subtracted(b).area(), 7500.0);
  EXPECT_DOUBLE_EQ(a.xored(b).area(), 15000.0);

  const PolygonSet u = a.united(b);
  EXPECT_TRUE(u.contains({25, 25}));
  EXPECT_TRUE(u.contains({125, 125}));
  EXPECT_FALSE(u.contains({125, 25}));
}

TEST(PolygonSet, MergedDissolvesOverlap) {
  PolygonSet s;
  s.insert(Box{0, 0, 10, 10});
  s.insert(Box{0, 0, 10, 10});
  s.insert(Box{5, 0, 15, 10});
  EXPECT_DOUBLE_EQ(s.raw_area(), 300.0);
  EXPECT_DOUBLE_EQ(s.area(), 150.0);
  const PolygonSet m = s.merged();
  EXPECT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m.raw_area(), 150.0);
}

TEST(Sizing, GrowRectangle) {
  PolygonSet s;
  s.insert(Box{0, 0, 100, 100});
  const PolygonSet g = s.sized(10);
  EXPECT_DOUBLE_EQ(g.area(), 120.0 * 120.0);
  EXPECT_EQ(g.bbox(), Box(-10, -10, 110, 110));
}

TEST(Sizing, ShrinkRectangle) {
  PolygonSet s;
  s.insert(Box{0, 0, 100, 100});
  const PolygonSet g = s.sized(-10);
  EXPECT_DOUBLE_EQ(g.area(), 80.0 * 80.0);
  EXPECT_EQ(g.bbox(), Box(10, 10, 90, 90));
}

TEST(Sizing, ShrinkBelowWidthVanishes) {
  PolygonSet s;
  s.insert(Box{0, 0, 100, 15});
  EXPECT_DOUBLE_EQ(s.sized(-10).area(), 0.0);
}

TEST(Sizing, GrowMergesNeighbors) {
  PolygonSet s;
  s.insert(Box{0, 0, 10, 10});
  s.insert(Box{14, 0, 24, 10});   // 4 dbu gap, grow by 3 bridges it
  const PolygonSet g = s.sized(3);
  EXPECT_EQ(g.merged().size(), 1u);
}

TEST(Sizing, GrowFillsSmallHole) {
  PolygonSet s;
  s.insert(Polygon{SimplePolygon::rect(0, 0, 100, 100),
                   {SimplePolygon::rect(48, 48, 52, 52)}});
  const PolygonSet g = s.sized(5);
  // Hole half-width is 2 < 5: it must be swallowed, not resurrected (a
  // phantom 6x6 hole would lose 36 dbu²). Sub-dbu snapping slivers from the
  // cancelled inverted contour may cost a couple of dbu².
  EXPECT_NEAR(g.area(), 110.0 * 110.0, 8.0);
}

TEST(Sizing, GrowShrinkRoundTripOnFatShape) {
  PolygonSet s;
  s.insert(Box{0, 0, 200, 200});
  const PolygonSet rt = s.sized(17).sized(-17);
  EXPECT_NEAR(rt.area(), 200.0 * 200.0, 1.0);
}

// ---------------------------------------------------------------------------
// Property-style randomized sweeps.
// ---------------------------------------------------------------------------

class BooleanRandomRects : public ::testing::TestWithParam<int> {};

TEST_P(BooleanRandomRects, InclusionExclusionAndPointOracle) {
  Rng rng(1234 + GetParam());
  const int n = 12;
  std::vector<Box> group_a;
  std::vector<Box> group_b;
  BooleanEngine eng;
  for (int i = 0; i < n; ++i) {
    const Coord x = static_cast<Coord>(rng.uniform(-500, 500));
    const Coord y = static_cast<Coord>(rng.uniform(-500, 500));
    const Coord w = static_cast<Coord>(rng.uniform(1, 400));
    const Coord h = static_cast<Coord>(rng.uniform(1, 400));
    const Box box{x, y, static_cast<Coord>(x + w), static_cast<Coord>(y + h)};
    const int g = static_cast<int>(rng.uniform(0, 1));
    eng.add(box, g);
    (g == 0 ? group_a : group_b).push_back(box);
  }

  const auto uni = eng.trapezoids(BoolOp::Or);
  const auto inter = eng.trapezoids(BoolOp::And);
  const auto sub = eng.trapezoids(BoolOp::Sub);
  const auto x = eng.trapezoids(BoolOp::Xor);

  // Area identities (exact for integer rect inputs).
  EXPECT_DOUBLE_EQ(traps_area(x), traps_area(uni) - traps_area(inter));
  EXPECT_DOUBLE_EQ(traps_area(sub) + traps_area(inter),
                   traps_area(uni) - (traps_area(x) - traps_area(sub)));

  // Point-sampling oracle against brute-force box membership.
  for (int k = 0; k < 300; ++k) {
    const Point p{static_cast<Coord>(rng.uniform(-600, 1000)),
                  static_cast<Coord>(rng.uniform(-600, 1000))};
    const bool in_a = std::any_of(group_a.begin(), group_a.end(),
                                  [&](const Box& b) { return b.contains(p); });
    const bool in_b = std::any_of(group_b.begin(), group_b.end(),
                                  [&](const Box& b) { return b.contains(p); });
    // Skip points on any boundary: closed-set semantics differ there.
    bool boundary = false;
    for (const Box& b : group_a)
      if (b.contains(p) && (p.x == b.lo.x || p.x == b.hi.x || p.y == b.lo.y || p.y == b.hi.y))
        boundary = true;
    for (const Box& b : group_b)
      if (b.contains(p) && (p.x == b.lo.x || p.x == b.hi.x || p.y == b.lo.y || p.y == b.hi.y))
        boundary = true;
    if (boundary) continue;

    EXPECT_EQ(any_trap_contains(uni, p), in_a || in_b) << "union @" << p;
    EXPECT_EQ(any_trap_contains(inter, p), in_a && in_b) << "and @" << p;
    EXPECT_EQ(any_trap_contains(sub, p), in_a && !in_b) << "sub @" << p;
    EXPECT_EQ(any_trap_contains(x, p), in_a != in_b) << "xor @" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BooleanRandomRects, ::testing::Range(0, 8));

class BooleanRandomPolys : public ::testing::TestWithParam<int> {};

TEST_P(BooleanRandomPolys, StitchAgreesWithTrapezoidsOnRandomAllAngle) {
  Rng rng(777 + GetParam());
  BooleanEngine eng;
  for (int i = 0; i < 10; ++i) {
    // Random triangles (possibly degenerate-ish, all angles).
    const Point a{static_cast<Coord>(rng.uniform(-400, 400)),
                  static_cast<Coord>(rng.uniform(-400, 400))};
    const Point b = a + Point{static_cast<Coord>(rng.uniform(-200, 200)),
                              static_cast<Coord>(rng.uniform(-200, 200))};
    const Point c = a + Point{static_cast<Coord>(rng.uniform(-200, 200)),
                              static_cast<Coord>(rng.uniform(-200, 200))};
    if (cross(a, b, c) == 0) continue;
    eng.add(SimplePolygon{{a, b, c}});
  }
  // Compare against the UNMERGED bands: stitching reconstructs exactly the
  // rounded band geometry, while the merged trapezoids reunite bands split
  // by foreign events and are closer to the exact area (less rounding).
  const auto traps = eng.trapezoids(BoolOp::Or, /*merge_vertical=*/false);
  const auto polys = eng.polygons(BoolOp::Or);
  // Grid snapping may shift each boundary crossing by <= 0.5 dbu; allow a
  // tolerance proportional to total perimeter.
  double perim = 0.0;
  for (const auto& p : polys) perim += p.outer().perimeter();
  EXPECT_NEAR(polys_area(polys), traps_area(traps), 2.0 + perim * 0.01);
  // The merged decomposition conserves area at least as well (it can only
  // remove rounded interior boundaries, never add error).
  const auto merged = eng.trapezoids(BoolOp::Or, /*merge_vertical=*/true);
  EXPECT_NEAR(traps_area(merged), traps_area(traps), 4.0 + perim * 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BooleanRandomPolys, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Bitwise oracle: the engine's near-linear loops against the quadratic
// reference loops of boolean_reference.h.
// ---------------------------------------------------------------------------

// Feeds the same geometry to the engine and to the reference oracle.
struct EnginePair {
  BooleanEngine eng;
  reference::BooleanEngine ref;

  void add(const SimplePolygon& p, int group) {
    eng.add(p, group);
    ref.add(p, group);
  }
  void add(const Box& b, int group) {
    eng.add(b, group);
    ref.add(b, group);
  }
};

void expect_same_stats(const BooleanStats& got, const BooleanStats& want) {
  EXPECT_EQ(got.input_edges, want.input_edges);
  EXPECT_EQ(got.split_edges, want.split_edges);
  EXPECT_EQ(got.split_rounds, want.split_rounds);
  EXPECT_EQ(got.bands, want.bands);
  EXPECT_EQ(got.intervals, want.intervals);
}

// Compares bands(), trapezoids() with and without the vertical merge, and
// stats() after each, field by field, for every op. Returns the reference's
// split-round count.
std::size_t expect_matches_reference(const EnginePair& p) {
  for (const BoolOp op : {BoolOp::Or, BoolOp::And, BoolOp::Sub, BoolOp::Xor}) {
    SCOPED_TRACE(::testing::Message() << "op " << static_cast<int>(op));
    const std::vector<Band> got = p.eng.bands(op);
    const std::vector<Band> want = p.ref.bands(op);
    expect_same_stats(p.eng.stats(), p.ref.stats());
    EXPECT_EQ(got.size(), want.size());
    for (std::size_t b = 0; b < std::min(got.size(), want.size()); ++b) {
      SCOPED_TRACE(::testing::Message() << "band " << b);
      EXPECT_EQ(got[b].y0, want[b].y0);
      EXPECT_EQ(got[b].y1, want[b].y1);
      EXPECT_EQ(got[b].intervals.size(), want[b].intervals.size());
      for (std::size_t i = 0; i < std::min(got[b].intervals.size(), want[b].intervals.size());
           ++i) {
        const BandInterval& g = got[b].intervals[i];
        const BandInterval& w = want[b].intervals[i];
        EXPECT_EQ(g.xl0, w.xl0);
        EXPECT_EQ(g.xr0, w.xr0);
        EXPECT_EQ(g.xl1, w.xl1);
        EXPECT_EQ(g.xr1, w.xr1);
        EXPECT_EQ(g.left_seg, w.left_seg);
        EXPECT_EQ(g.right_seg, w.right_seg);
      }
    }
    for (const bool merge : {true, false}) {
      EXPECT_EQ(p.eng.trapezoids(op, merge), p.ref.trapezoids(op, merge)) << "merge " << merge;
      expect_same_stats(p.eng.stats(), p.ref.stats());
    }
  }
  return p.ref.stats().split_rounds;
}

Point random_point(Rng& rng, Coord lo, Coord hi) {
  return {static_cast<Coord>(rng.uniform(lo, hi)), static_cast<Coord>(rng.uniform(lo, hi))};
}

// Two groups of rectangles and triangles. Rectangles sit on a coarse grid,
// so collinear overlaps and T-junctions are common; triangles take any
// point of a square of side 2 * @p reach, so slanted edges cross. On a small
// square, crossings often fall half-way between grid points, where the
// rounding depends on which edge anchors it, and rounded crossing points
// make new crossings that take further split rounds.
EnginePair random_soup(std::uint64_t seed, Coord reach) {
  Rng rng(seed);
  EnginePair p;
  const int n = static_cast<int>(rng.uniform(4, 40));
  for (int k = 0; k < n; ++k) {
    const int group = static_cast<int>(rng.uniform(0, 1));
    if (rng.uniform(0, 2) != 0) {
      const Coord x = static_cast<Coord>(10 * rng.uniform(-20, 20));
      const Coord y = static_cast<Coord>(10 * rng.uniform(-20, 20));
      const Coord w = static_cast<Coord>(10 * rng.uniform(1, 12));
      const Coord h = static_cast<Coord>(10 * rng.uniform(1, 12));
      p.add(Box{x, y, static_cast<Coord>(x + w), static_cast<Coord>(y + h)}, group);
    } else {
      const Point a = random_point(rng, -reach, reach);
      const Point b = random_point(rng, -reach, reach);
      const Point c = random_point(rng, -reach, reach);
      if (cross(a, b, c) == 0) continue;
      p.add(SimplePolygon{{a, b, c}}, group);
    }
  }
  return p;
}

TEST(BooleanOracle, RandomSoupsMatchReferenceBitwise) {
  std::size_t max_rounds = 0;
  constexpr Coord kReach[] = {200, 20, 8, 40};
  for (std::uint64_t seed = 0; seed < 640; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const Coord reach = kReach[seed % 4];
    max_rounds = std::max(max_rounds, expect_matches_reference(random_soup(seed, reach)));
  }
  // Round 0 cuts, round 1 cuts again at rounded crossings, round 2 is clean.
  // (Seed 630 also has a later-round crossing whose rounding depends on the
  // pair's orientation.)
  EXPECT_GE(max_rounds, 2u) << "no soup needed a second split round";
}

TEST(BooleanOracle, HandBuiltJunctionsMatchReferenceBitwise) {
  EnginePair p;
  // Collinear overlap across groups: shared x = 100 over y 20..60.
  p.add(Box{0, 0, 100, 80}, 0);
  p.add(Box{100, 20, 180, 60}, 1);
  p.add(Box{60, 20, 100, 60}, 1);
  // T-junctions: a bar whose end lands inside another's side.
  p.add(Box{180, 30, 260, 40}, 0);
  p.add(Box{260, 0, 300, 90}, 1);
  // Crossing slanted edges and a bowtie apex shared by two triangles.
  p.add(SimplePolygon{{{0, 100}, {90, 190}, {0, 190}}}, 0);
  p.add(SimplePolygon{{{0, 180}, {90, 95}, {90, 180}}}, 1);
  p.add(SimplePolygon{{{150, 150}, {120, 200}, {110, 200}}}, 0);
  p.add(SimplePolygon{{{150, 150}, {190, 200}, {180, 200}}}, 0);
  // Edges (300,300)-(301,302) and (301,300)-(300,302) cross at (300.5, 301):
  // the rounded x is 301 anchored at the first edge and 300 at the second.
  p.add(SimplePolygon{{{300, 300}, {301, 302}, {290, 302}}}, 0);
  p.add(SimplePolygon{{{301, 300}, {311, 302}, {300, 302}}}, 1);
  expect_matches_reference(p);
}

// One leaf arrayed across many columns: every band holds many intervals at
// identical y, the shape of an arrayed hierarchical layout.
TEST(BooleanOracle, WideRowOfOneLeafMatchesReferenceBitwise) {
  Rng rng(99);
  std::vector<SimplePolygon> leaf;
  for (int k = 0; k < 6; ++k) {
    const Coord x = static_cast<Coord>(rng.uniform(0, 150));
    const Coord y = static_cast<Coord>(rng.uniform(0, 150));
    const Coord w = static_cast<Coord>(rng.uniform(5, 60));
    const Coord h = static_cast<Coord>(rng.uniform(5, 60));
    leaf.push_back(
        SimplePolygon::rect(Box{x, y, static_cast<Coord>(x + w), static_cast<Coord>(y + h)}));
  }
  leaf.push_back(SimplePolygon{{{10, 10}, {170, 40}, {60, 170}}});
  leaf.push_back(SimplePolygon{{{0, 120}, {190, 100}, {90, 20}}});
  EnginePair p;
  for (int row = 0; row < 2; ++row) {
    for (int col = 0; col < 60; ++col) {
      const Point shift{static_cast<Coord>(col * 200), static_cast<Coord>(row * 200)};
      for (std::size_t k = 0; k < leaf.size(); ++k) {
        std::vector<Point> pts;
        for (const Point& q : leaf[k].points()) pts.push_back(q + shift);
        p.add(SimplePolygon{pts}, static_cast<int>(k % 2));
      }
    }
  }
  expect_matches_reference(p);
}

}  // namespace
}  // namespace ebl
