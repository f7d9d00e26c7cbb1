// The proximity-effect corrector: tile the pattern, correct per shard,
// exchange halos. correct_proximity (src/pec/correction.h) runs here for
// every layout, and so does density_pec's dose formula.
//
// A global solve (shard_size == 0, no workers) is the degenerate layout:
// one shard that owns every shot, with no ghosts and no warm start, so the
// per-shard Jacobi loop below is the whole solve. Its memory is O(pattern).
// The 1979 machines never worked that way: large patterns are written as a
// grid of deflection fields with stage moves between them, and correction
// can be tiled the same way.
//
// A sharded solve partitions shots into square shards (side =
// PecOptions::shard_size, anchored at the pattern bbox corner, keyed by
// 64-bit shard indices so >2^31-dbu extents are fine). Each shard owns the
// shots whose bbox center falls inside its frame and additionally sees a
// *halo* of ghost shots from neighboring shards — every shot within
// halo_factor * max_sigma of the frame. A shard solve is the ordinary
// iterative Jacobi correction over its own shots with the ghosts
// contributing exposure at frozen doses (the evaluator's active/background
// split); per-shard memory is O(shard + halo), so patterns far beyond one
// evaluator's reach fit.
//
// Shards run concurrently on the thread pool. Cross-shard coupling — a
// shard's correction changes the backscatter its neighbors see — is driven
// below tolerance by a small number of halo-exchange rounds: after every
// shard corrected, boundary doses are re-published and each shard re-checks
// (and, if needed, re-corrects) against the neighbors' fresh values. Rounds
// after the first start from near-converged doses and typically exit after
// one error check; a round in which no shard changed any dose certifies that
// every shard meets tolerance with its neighbors' *final* doses, and the
// loop stops early. Results are bit-identical for any thread count: each
// shard writes only its own shots' doses, and all shards of a round read the
// same published snapshot.
// Out-of-process execution (PecOptions::worker_count > 0): shard solves are
// identical, self-contained jobs, so the driver can farm each round's run
// set over a pool of worker *processes* instead of pool threads. Jobs and
// results cross process boundaries in the versioned binary wire format of
// src/pec/wire.h (bit-exact doses), workers (tools/pec_worker.cpp) keep
// their own EvaluatorPool and re-enter shards through the exact
// set_background_doses / reset_doses refresh protocol, and the driver
// certifies convergence exactly as in-process — so the distributed solve is
// bitwise-identical to the single-process sharded solve, and worker_count
// = 0 keeps the in-process engine as the oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "pec/correction.h"

namespace ebl {

class ExposureEvaluator;
namespace wire {
struct ShardJob;
struct ShardResult;
}  // namespace wire

/// A good shard side for a PSF: 64x the widest sigma. Large enough that the
/// halo (4 sigma on each side) stays a modest fraction of the shard, small
/// enough that tens of shards exist on mm-scale patterns for the concurrent
/// solve to spread across cores.
Coord default_shard_size(const Psf& psf);

/// FFT-snug refinement of the default: the per-shard blur pads its map to
/// the next power of two past map + kernel radius, so a shard sized just
/// under that boundary blurs no faster than one that fills it — the padding
/// is pure waste. This overload grows the 64-sigma default until the
/// resulting long-range map (shard + halos + sampling margin + kernel
/// support, at the options' pixel) lands just inside its power-of-two grid:
/// fewer shards, each amortizing the same padded transform, with the halo a
/// smaller fraction of each. Falls back to the plain default for all-short
/// PSFs (no long-range map to pad).
Coord default_shard_size(const Psf& psf, const PecOptions& options);

/// One shard solve from its wire-format job description — THE per-shard
/// solver: the in-process round sweep (the global solve included), the
/// distributed driver (via a worker), and tools/pec_worker.cpp all execute
/// shard work through this single function, which is what makes remote
/// execution bitwise-identical to in-process execution by construction.
///
/// @p pool_slot: null for a transient solve. Non-null with an evaluator
/// inside = resident re-entry — the evaluator must hold this shard's
/// geometry, and is refreshed through reset_doses (job.reset_all) or
/// set_background_doses, both exact. Non-null and empty = residency grant:
/// the freshly built evaluator is parked there for the next entry.
/// @p errors, when given, receives the max relative error of every
/// evaluation of the solve, in order.
wire::ShardResult solve_shard_job(wire::ShardJob job,
                                  std::unique_ptr<ExposureEvaluator>* pool_slot,
                                  std::vector<double>* errors = nullptr);

/// LRU pool of resident shard evaluators, keyed by shard key: the one pool
/// behind the in-process sweep and tools/pec_worker.cpp (which plans a
/// batch of one job). A resident shard re-enters through the exact refresh
/// protocol of solve_shard_job, so residency, eviction and the budget never
/// change a result, only the wall clock.
class EvaluatorPool {
 public:
  explicit EvaluatorPool(std::size_t budget) : budget_(budget) {}
  ~EvaluatorPool();

  /// Plans residency for a batch about to run, before any of it runs (so
  /// the pool never depends on scheduling). A key already resident keeps
  /// its evaluator; any other gets a free place, else the place of the
  /// least recently planned resident outside the batch (ties: the highest
  /// key), else none and runs transient. Budget 0 keeps nothing.
  void plan(const std::vector<std::uint64_t>& batch);

  /// The pool_slot for solve_shard_job: null when the last plan gave @p key
  /// no place. Safe to call concurrently once plan() returned.
  std::unique_ptr<ExposureEvaluator>* slot(std::uint64_t key);

  std::uint32_t resident() const;
  std::uint32_t evictions() const { return evictions_; }

 private:
  struct Entry {
    std::unique_ptr<ExposureEvaluator> eval;
    std::uint64_t planned = 0;  ///< tick of the last plan naming this key
    bool granted = false;       ///< the last plan gave it a place
  };
  std::size_t budget_;
  std::uint64_t tick_ = 0;
  std::uint32_t evictions_ = 0;
  std::unordered_map<std::uint64_t, Entry> entries_;
};

/// The pec_worker binary the distributed driver spawns when
/// PecOptions::worker_path is empty: $EBL_PEC_WORKER when set, else
/// "pec_worker" next to the current executable (where the build puts it).
std::string default_pec_worker_path();

}  // namespace ebl
