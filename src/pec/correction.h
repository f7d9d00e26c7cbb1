// Proximity-effect correction by dose modulation.
//
// Two correctors, both run by the shard engine of src/pec/sharded.cpp:
//  - correct_proximity: the self-consistent iterative scheme (per-shot dose,
//    Jacobi iteration on representative points). This is the accurate,
//    shape-based method.
//  - density_pec: the cheap geometry-density method: dose from the local
//    backscatter-blurred pattern density via the closed-form equalization
//    formula d(u) = (1 + 2 eta) / (1 + 2 eta u). One raster, no iteration.
//
// Both can quantize the continuous dose into a fixed number of machine dose
// classes.
#pragma once

#include <string>
#include <vector>

#include "fracture/shot.h"
#include "pec/exposure.h"
#include "pec/psf.h"

namespace ebl {

struct PecOptions {
  int max_iterations = 10;

  /// Stop when the max relative exposure error at representative points
  /// drops below this.
  double tolerance = 0.01;

  /// Target in-pattern exposure (relative to unit-dose infinite pattern).
  double target = 1.0;

  /// Dose clamp (machines have a finite dose range).
  double min_dose = 0.1;
  double max_dose = 8.0;

  /// If > 0, final doses snap to this many discrete classes spanning
  /// [min observed, max observed] (machine dose-class granularity).
  int dose_classes = 0;

  /// Side of the square PEC shards in dbu. 0 (the default) is the global
  /// solve: one shard owning every shot, no halos, so memory is
  /// O(pattern). When > 0 the pattern is tiled (src/pec/sharded.h):
  /// per-shard memory is O(shard), shards run concurrently, and patterns
  /// beyond one evaluator's reach (10M+ shots, >2^31-dbu extents) become
  /// correctable. Pick a multiple of the widest PSF sigma —
  /// default_shard_size(psf) gives a good value.
  Coord shard_size = 0;

  /// Halo width around each shard, in units of the widest PSF sigma: shots
  /// within halo_factor * max_sigma of a shard's frame join it as frozen-
  /// dose ghosts. 4 matches the kernel truncation (contributions beyond
  /// 4 sigma are below ~1e-6 of a term's weight), so the per-shard solve
  /// sees everything the global solve sees to that accuracy.
  double halo_factor = 4.0;

  /// Extra halo-exchange rounds after the first per-shard correction pass:
  /// each round re-publishes every shard's boundary doses and re-corrects
  /// with the neighbors' fresh values. Rounds after the first start from
  /// near-converged doses and exit in O(1) iterations; a round that changes
  /// no dose certifies cross-shard convergence and stops early.
  int exchange_rounds = 2;

  /// Sharded solves only: initialize every dose from the closed-form
  /// density-PEC formula (computed per shard on a coarse backscatter-range
  /// raster, O(shard) memory) before the first correction round. The halo
  /// scheme freezes ghost doses for a whole round, so its round-1 error is
  /// exactly how wrong those frozen doses are: warm-starting from the
  /// density formula puts ghosts within a few percent of their final values
  /// instead of at the raw input doses, which both shrinks the round-1
  /// Jacobi work and leaves far less cross-shard residual for the exchange
  /// rounds. Accuracy is unaffected — the same per-shard tolerance is
  /// enforced on the same evaluators. Ignored when the layout has a single
  /// shard (no halos to stabilize).
  bool density_warm_start = true;

  /// How many per-shard evaluators may stay resident
  /// across halo-exchange rounds. A resident shard re-enters a round through
  /// an exact dose refresh (ExposureEvaluator::set_background_doses) that
  /// reuses its neighbor grid, splat clipping, and FFT plan — the expensive,
  /// geometry-only construction work — instead of rebuilding them. Over
  /// budget, the least-recently-run shards fall back to transient mode
  /// (evict-LRU); because the refresh is exact, residency never changes a
  /// bit of the result, only the wall clock. 0 disables the pool (every
  /// shard run rebuilds its evaluator, the pre-pool behavior).
  int resident_shard_budget = 64;

  /// When > 0, shard jobs of every halo-exchange round are farmed over this
  /// many out-of-process workers (tools/pec_worker, spawned from
  /// worker_path) instead of the in-process thread pool. Implies sharding:
  /// with shard_size still 0, the solve tiles at default_shard_size. Jobs
  /// and results cross in the versioned binary wire format (src/pec/wire.h,
  /// bit-exact doses), shards stick to workers so the workers' resident
  /// evaluator pools keep hitting, and results are bitwise-identical to the
  /// in-process sharded solve — worker_count = 0 (the default) IS that
  /// in-process engine, the oracle the distributed path is validated
  /// against. More workers than shards is clamped to the shard count.
  int worker_count = 0;

  /// Worker binary for worker_count > 0. Empty (the default) resolves via
  /// default_pec_worker_path(): $EBL_PEC_WORKER, else "pec_worker" next to
  /// the current executable.
  std::string worker_path;

  /// PEC-as-a-service: comma-separated "host:port" addresses of already
  /// running `pec_worker --listen` daemons. Non-empty switches the
  /// distributed solve from fork/exec pipe workers to the TCP transport —
  /// one supervisor slot per address (a daemon serves sessions
  /// sequentially, so never point two slots at the same daemon;
  /// worker_count is ignored in this mode). Each connection re-handshakes
  /// the driver session (wire::Hello), so a daemon keeps its evaluator pool
  /// warm across reconnects; per-job sequence numbers make reconnect replay
  /// idempotent. Connect/heartbeat deadlines come from
  /// $EBL_CONNECT_TIMEOUT_MS (default 5000) and $EBL_HEARTBEAT_MS (default
  /// 2000); a refused or dropped connection consumes the slot's
  /// worker_max_restarts budget exactly like a crashed pipe worker, after
  /// which jobs reassign to live slots or degrade to in-process — and every
  /// path stays bitwise-identical to the in-process engine.
  std::string worker_hosts;

  /// Distributed solves only: base per-job deadline in milliseconds. A worker
  /// that has not produced a job's result frame this long after the job was
  /// sent (scaled up for large shards) is declared hung, killed, and its
  /// unfinished jobs are reassigned — the supervisor's only defense against a
  /// worker that wedges without exiting. 0 (the default) resolves to
  /// $EBL_WORKER_TIMEOUT_MS, else 60000; < 0 disables deadlines entirely
  /// (crashed workers are still detected via EOF on their result pipe).
  double worker_timeout_ms = 0.0;

  /// Distributed solves only: how many times each worker slot may be
  /// respawned after a crash, hang, or corrupt result frame before the slot
  /// is abandoned. When every slot is dead and out of budget, the round
  /// degrades to solving the remaining jobs in-process (bitwise-identical,
  /// just slower) instead of failing the solve.
  int worker_max_restarts = 2;

  ExposureOptions exposure;
};

struct PecResult {
  ShotList shots;                        ///< same geometry, corrected doses
  /// Global solve: max |E/target - 1| at every Jacobi evaluation. Sharded
  /// solve: the cross-shard error entering each exchange round. Then the
  /// final error, when a measurement pass ran.
  std::vector<double> max_error_history;
  int iterations = 0;  ///< Jacobi update steps (per round, the busiest shard's)
  double final_max_error = 0.0;
  int shards = 0;  ///< shard count (1 for the global solve)
  int rounds = 0;  ///< correction rounds run (incl. the first pass)

  /// Wall-clock of each correction round, in round order (the pipeline
  /// surfaces these as pec_round_N stage times of sharded jobs).
  std::vector<double> round_ms;
  /// Wall-clock of the final measurement-only pass; < 0 when the last round
  /// certified convergence and no extra pass was needed.
  double measure_ms = -1.0;
  int resident_shards = 0;  ///< evaluators resident when the solve finished
  int shard_evictions = 0;  ///< resident evaluators dropped to fit the budget
  /// Worker processes the distributed solve ran on (0 = in-process). The
  /// resident/eviction counters above then aggregate the workers' own pools.
  int workers = 0;

  /// Distributed: worker processes respawned after a crash, hang, or corrupt
  /// result frame. 0 on a fault-free run.
  int worker_restarts = 0;
  /// Distributed: shard jobs that had to be re-enqueued (to a respawned or
  /// surviving worker, or solved in-process) because their worker failed.
  /// Recovery replays the identical job against the identical round snapshot,
  /// so reassignment never changes a bit of the result.
  int reassigned_jobs = 0;
  /// Distributed: true when restart budgets ran out and at least part of a
  /// round fell back to solving jobs in-process.
  bool degraded_to_inprocess = false;

  /// Aggregated long-range refresh accounting across every evaluator the
  /// solve used (all shard evaluators summed in slot order) — how much work
  /// the delta path absorbed.
  BlurPerf blur;
};

/// Iterative self-consistent dose correction. The exposure at each shot's
/// centroid is driven to options.target by multiplicative Jacobi updates
///   d_i <- d_i * target / E_i
/// on the shard engine (src/pec/sharded.h): one shard for the global solve,
/// or, with options.shard_size > 0 or workers, square shards corrected
/// concurrently with frozen-dose halo ghosts and a few halo-exchange rounds.
PecResult correct_proximity(const ShotList& shots, const Psf& psf,
                            const PecOptions& options = {});

/// Geometry-density PEC: one blurred-coverage raster at the backscatter
/// range; each shot's dose is d(u) = (1 + 2 eta) / (1 + 2 eta u(centroid)),
/// where u is the blurred local density. @p eta is inferred from the PSF
/// (weight ratio of the longest-range term to the rest). The doses are the
/// sharded solve's density warm start on the one-shard layout.
PecResult density_pec(const ShotList& shots, const Psf& psf,
                      const PecOptions& options = {});

/// Snaps doses to @p classes equally-spaced discrete values spanning the
/// observed [min, max] dose range (a machine dose table). Returns the
/// number of distinct values used. Contract details: a dose exactly on a
/// class edge ties to the higher class; classes == 1 snaps everything to
/// the range midpoint; a constant dose list is left unchanged.
int quantize_doses(ShotList& shots, int classes);

}  // namespace ebl
