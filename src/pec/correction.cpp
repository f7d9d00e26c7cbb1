#include "pec/correction.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"

namespace ebl {

int quantize_doses(ShotList& shots, int classes) {
  expects(classes >= 1, "quantize_doses: classes must be >= 1");
  if (shots.empty()) return 0;
  double lo = shots.front().dose;
  double hi = lo;
  for (const Shot& s : shots) {
    lo = std::min(lo, s.dose);
    hi = std::max(hi, s.dose);
  }
  if (hi <= lo) return 1;
  if (classes == 1) {
    // One machine class: the range midpoint minimizes the worst-case snap
    // error (collapsing to the minimum would halve every hot dose).
    const double mid = lo + 0.5 * (hi - lo);
    for (Shot& s : shots) s.dose = mid;
    return 1;
  }
  std::vector<bool> used(static_cast<std::size_t>(classes), false);
  for (Shot& s : shots) {
    const double f = (s.dose - lo) / (hi - lo);
    // Class edges sit halfway between levels; a dose exactly on an edge
    // ties to the HIGHER class (lround rounds half away from zero and
    // f >= 0 here), so boundary doses never lose exposure to the snap.
    int k = static_cast<int>(std::lround(f * (classes - 1)));
    k = std::clamp(k, 0, classes - 1);
    s.dose = lo + (hi - lo) * k / (classes - 1);
    used[static_cast<std::size_t>(k)] = true;
  }
  return static_cast<int>(std::count(used.begin(), used.end(), true));
}

}  // namespace ebl
