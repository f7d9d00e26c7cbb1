// prepbench driver: runs one workload of the data-prep benchmark in this
// process and prints its metrics.
//
// Every workload starts from a generated OASIS file and ends with a
// PrepResult. Two modes:
//
//   --trace 0  times whole jobs through the public
//              run_data_prep(const PrepOptions&), tracing off, and prints
//              the end-to-end metrics.
//   --trace 1  alternates an untraced job with a traced composition that
//              calls each layer's public functions in pipeline order, one
//              span per call, and prints the per-layer metrics. The spans
//              are written as Chrome trace-event JSON to the output
//              directory. The library itself is not instrumented.
//
// Both modes check the outputs (see check_job and the run-level checks in
// run_untraced/run_traced). The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is nonzero when any check failed.
//
// The workload seed drives every generator (gate pitch jitter, island
// offsets, hierarchical leaf shapes); the library receives only the file.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/job.h"
#include "geom/boolean.h"
#include "layout/oasis.h"
#include "pec/exposure.h"
#include "pec/sharded.h"
#include "sim/epe.h"
#include "sim/exposure_sim.h"
#include "util/rng.h"

using namespace ebl;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

constexpr LayerKey kMetal{1, 0};

// ------------------------------------------------------------ arguments ---

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  int threads = 0;  ///< 0 = pick from the core count (see pin_threads)
  bool tiny = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "prepbench_driver: " << why << "\n"
            << "usage: prepbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--threads T] [--tiny]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--out-dir") a.out_dir = v;
      else if (k == "--threads") a.threads = std::stoi(v);
      else usage("unknown option " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.out_dir.empty()) usage("--out-dir is required");
  if (a.seconds <= 0 || a.threads < 0) usage("bad numeric option");
  return a;
}

// ------------------------------------------------------------ workloads ---
//
// Each generator builds the layout from the seed and the PrepOptions the
// job runs with. Sizes are fixed per workload (the --tiny scale is for the
// benchmark's own tests); the seed only moves features, so the work per job
// barely changes between seeds.

struct Workload {
  Library lib{"PREPBENCH"};
  PrepOptions prep;
};

/// The paper's device: 100 nm gate lines at a cantilever tip, each fanned
/// out through a Manhattan 500 nm lead to a 4.5 µm contact pad. Outer gates
/// turn first, so no two leads cross. Global PEC under the default options,
/// double-Gaussian PSF, printed-EPE verification on.
Workload gate_scored(Rng& rng, bool tiny) {
  Workload w;
  const int gates = tiny ? 2 : 6;
  const Coord pitch = 1000, gate_w = 100, gate_len = 1500;
  const Coord lead_w = 500, turn_pitch = 1500, pad = 4500, pad_pitch = 7000;
  const Coord pad_y = 12000;
  const CellId top = w.lib.add_cell("GATES");
  Cell& c = w.lib.cell(top);
  const double mid = 0.5 * (gates - 1);
  for (int i = 0; i < gates; ++i) {
    // Pitch jitter: each gate moves up to ±50 nm off its nominal pitch.
    const Coord gx = Coord(i) * pitch + static_cast<Coord>(rng.uniform(-50, 50));
    const Coord px = static_cast<Coord>(std::lround((i - mid) * pad_pitch + mid * pitch));
    const int rank = i < mid ? i : gates - 1 - i;  // 0 = outermost gate
    const Coord turn = gate_len + 1000 + Coord(rank) * turn_pitch;
    const Coord h = lead_w / 2;
    c.add_shape(kMetal, Box{gx - gate_w / 2, 0, gx + gate_w / 2, gate_len});
    c.add_shape(kMetal, Box{gx - h, gate_len - 100, gx + h, turn + h});
    c.add_shape(kMetal, Box{std::min(gx, px) - h, turn - h, std::max(gx, px) + h, turn + h});
    c.add_shape(kMetal, Box{px - h, turn - h, px + h, pad_y + 100});
    c.add_shape(kMetal, Box{px - pad / 2, pad_y, px + pad / 2, pad_y + pad});
  }
  w.prep.fracture.max_shot_size = 1000;
  w.prep.pec_psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  w.prep.field_size = 100000;
  w.prep.epe = PrepEpeOptions{};
  return w;
}

/// One arrayed tile cell: a 20 µm pad plus an isolated 1 µm island whose
/// place in the gap comes from the seed. Triple-Gaussian PSF, sharded PEC at
/// the FFT-snug default shard size, 400 µm fields.
Workload pads(Rng& rng, bool tiny, int worker_count) {
  Workload w;
  const std::uint32_t n = tiny ? 12 : 17;
  const CellId tile = w.lib.add_cell("TILE");
  w.lib.cell(tile).add_shape(kMetal, Box{0, 0, 20000, 20000});
  const Coord ix = static_cast<Coord>(rng.uniform(20500, 22500));
  const Coord iy = static_cast<Coord>(rng.uniform(0, 19000));
  w.lib.cell(tile).add_shape(kMetal, Box{ix, iy, ix + 1000, iy + 1000});
  const CellId top = w.lib.add_cell("ARRAY");
  Reference r;
  r.child = tile;
  r.cols = n;
  r.rows = n;
  r.col_step = {24000, 0};
  r.row_step = {0, 24000};
  w.lib.cell(top).add_reference(r);

  w.prep.fracture.max_shot_size = 2000;
  const Psf psf = Psf::triple_gaussian(50.0, 3000.0, 600.0, 0.7, 0.3);
  w.prep.pec_psf = psf;
  w.prep.pec.shard_size = default_shard_size(psf, w.prep.pec);
  w.prep.pec.worker_count = worker_count;
  w.prep.field_size = 400000;
  return w;
}

/// 16 random leaf cells of overlapping rectangles and triangles under one
/// mid cell, arrayed n x n. Ingest window 4 forces reloads; no PEC.
Workload hier_fracture(Rng& rng, bool tiny) {
  Workload w;
  const std::uint32_t n = tiny ? 2 : 7;
  const int leaves = 16, rects = 40, triangles = 8;
  std::vector<CellId> leaf_ids;
  for (int k = 0; k < leaves; ++k) {
    const CellId id = w.lib.add_cell("LEAF" + std::to_string(k));
    Cell& c = w.lib.cell(id);
    for (int i = 0; i < rects; ++i) {
      const Coord x = static_cast<Coord>(rng.uniform(0, 18000));
      const Coord y = static_cast<Coord>(rng.uniform(0, 18000));
      const Coord wd = static_cast<Coord>(rng.uniform(100, 1500));
      const Coord ht = static_cast<Coord>(rng.uniform(100, 1500));
      c.add_shape(kMetal, Box{x, y, x + wd, y + ht});
    }
    for (int i = 0; i < triangles; ++i) {
      const Coord x = static_cast<Coord>(rng.uniform(0, 18000));
      const Coord y = static_cast<Coord>(rng.uniform(0, 18000));
      const Coord s = static_cast<Coord>(rng.uniform(300, 1200));
      c.add_shape(kMetal, SimplePolygon({{x, y}, {x + s, y}, {x, y + s}}));
    }
    leaf_ids.push_back(id);
  }
  const CellId mid = w.lib.add_cell("MID");
  for (int k = 0; k < leaves; ++k) {
    Reference r;
    r.child = leaf_ids[static_cast<std::size_t>(k)];
    r.trans = CTrans{Point{Coord(k % 4) * 20000, Coord(k / 4) * 20000}, 0.0, 1.0, false};
    w.lib.cell(mid).add_reference(r);
  }
  const CellId top = w.lib.add_cell("TOP");
  Reference r;
  r.child = mid;
  r.cols = n;
  r.rows = n;
  r.col_step = {80000, 0};
  r.row_step = {0, 80000};
  w.lib.cell(top).add_reference(r);

  w.prep.fracture.max_shot_size = 2000;
  w.prep.field_size = 100000;
  w.prep.ingest.window = 4;
  return w;
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny) {
  Rng rng(seed);
  Workload w;
  if (name == "gate_scored") w = gate_scored(rng, tiny);
  else if (name == "pads_sharded") w = pads(rng, tiny, 0);
  else if (name == "pads_distributed") w = pads(rng, tiny, 2);
  else if (name == "hier_fracture") w = hier_fracture(rng, tiny);
  else usage("unknown workload " + name);
  // Counted by the fracture layer; leaves the shots unchanged.
  w.prep.fracture.sliver_threshold = 50;
  w.prep.ingest.layer = kMetal;
  return w;
}

// ------------------------------------------------------------- threads ---

struct Threads {
  int driver = 1;          ///< PrepOptions::threads
  int workers = 0;         ///< worker processes (pads_distributed), else 0
  int worker_threads = 0;  ///< PEC threads in each worker process
};

/// Pins the thread counts and writes them into @p prep. The driver runs
/// --threads threads (default: min(2, cores)); a distributed solve splits
/// that same budget over its workers, so driver threads, and workers x
/// worker threads, each stay within the core count. Workers get their count
/// in each shard job's options and inherit it through EBL_THREADS.
Threads pin_threads(const Args& a, PrepOptions& prep) {
  const int cores = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  Threads t;
  t.driver = a.threads > 0 ? a.threads : std::min(2, cores);
  t.workers = prep.pec.worker_count;
  prep.threads = t.driver;
  if (t.workers > 0) {
    t.worker_threads = std::max(1, t.driver / t.workers);
    prep.pec.exposure.threads = t.worker_threads;
  }
  ::setenv("EBL_THREADS", std::to_string(t.workers > 0 ? t.worker_threads : t.driver).c_str(), 1);
  return t;
}

// -------------------------------------------------------------- outputs ---

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_value(const std::optional<double>& a, const std::optional<double>& b) {
  return a.has_value() == b.has_value() && (!a || same_bits(*a, *b));
}

bool same_shots(const ShotList& a, const ShotList& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].shape == b[i].shape) || !same_bits(a[i].dose, b[i].dose)) return false;
  }
  return true;
}

bool same_epe(const std::optional<EpeStats>& a, const std::optional<EpeStats>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return same_bits(a->p50, b->p50) && same_bits(a->p99, b->p99) &&
         same_bits(a->max, b->max) && same_bits(a->mean_abs, b->mean_abs) &&
         same_bits(a->mean_signed, b->mean_signed) && a->samples == b->samples &&
         a->missing == b->missing;
}

/// FNV-1a over the shot geometry, dose bits and EPE stats: one number that
/// pins a job's whole output (compared across thread counts by the tests).
std::uint64_t digest(const ShotList& shots, const std::optional<EpeStats>& epe) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const Shot& s : shots) {
    for (Coord c : {s.shape.y0, s.shape.y1, s.shape.xl0, s.shape.xr0, s.shape.xl1,
                    s.shape.xr1})
      mix(static_cast<std::uint64_t>(c));
    mix(std::bit_cast<std::uint64_t>(s.dose));
  }
  if (epe) {
    for (double v : {epe->p50, epe->p99, epe->max, epe->mean_abs, epe->mean_signed})
      mix(std::bit_cast<std::uint64_t>(v));
    mix(epe->samples);
    mix(epe->missing);
  }
  return h;
}

/// Per-job output checks. Returns the failed checks' names (empty = pass).
std::vector<std::string> check_job(const PrepOptions& o, const PrepResult& r,
                                   const PrepResult* first) {
  std::vector<std::string> bad;
  if (first != nullptr && !same_shots(r.shots, first->shots))
    bad.push_back("shots differ from the run's first job");
  // Field partition conserves total shot area (clipping only cuts shots).
  const double area = shot_area(r.shots);
  if (o.field_size > 0 && std::abs(area - r.fracture.area) > 1e-9 * r.fracture.area)
    bad.push_back("field partition changed the total shot area");
  if (o.pec_psf) {
    if (!r.pec_final_error || !(*r.pec_final_error <= o.pec.tolerance))
      bad.push_back("pec_final_error above tolerance");
  }
  if (o.epe && (!r.epe || r.epe->missing != 0))
    bad.push_back("EPE probes without a print-threshold crossing");
  if (r.pec_worker_restarts != 0 || r.pec_reassigned_jobs != 0 ||
      r.pec_degraded_to_inprocess)
    bad.push_back("distributed solve restarted, reassigned or degraded");
  // The solve clamps the worker count to the shard count.
  if (o.pec.worker_count > 0 && r.pec_workers != std::min(o.pec.worker_count, r.pec_shards))
    bad.push_back("distributed solve ran on the wrong worker count");
  return bad;
}

double peak_rss_mb() {
  // The largest resident set of this process and of every child it has
  // reaped (the distributed solve's workers are reaped when it returns).
  rusage self{}, children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;  ///< shown in the table only
  std::string note;
};

/// Prints the metric table, then the result line: one JSON object with the
/// metric values by name (run.py attaches the units BENCHMARK.json gives).
void report(const std::string& header, bool correct, std::size_t attempted,
            std::size_t failed, const std::vector<Metric>& metrics) {
  std::printf("%s\n", header.c_str());
  for (const Metric& m : metrics)
    std::printf("  %-28s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
     << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": " << metrics[i].value;
  os << "}}";
  std::cout << os.str() << std::endl;
}

// ------------------------------------------------------------- set-up ---

/// Generates the workload from the seed, writes its OASIS file and pins the
/// thread counts.
Workload set_up(const Args& a, const std::string& path, Threads& th) {
  Workload w = make_workload(a.workload, a.seed, a.tiny);
  write_oas(w.lib, path);
  w.prep.input_path = path;
  th = pin_threads(a, w.prep);
  return w;
}

/// Runs @p f in a forked child and returns the number it produces. Called
/// before this process has run a job, so the child starts as cold as a new
/// process: no thread pool, FFT plans or scratch buffers yet.
double in_child(const std::function<double()>& f) {
  std::cout.flush();  // else the child's std::cerr (tied to std::cout) writes it twice
  int fd[2];
  if (::pipe(fd) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fd[0]);
    double v = -1.0;
    try {
      v = f();
    } catch (const std::exception& e) {
      std::cerr << "set-up threw: " << e.what() << "\n";
    }
    const bool sent = ::write(fd[1], &v, sizeof v) == static_cast<ssize_t>(sizeof v);
    ::_exit(sent && v >= 0.0 ? 0 : 1);
  }
  ::close(fd[1]);
  double v = -1.0;
  const bool got = ::read(fd[0], &v, sizeof v) == static_cast<ssize_t>(sizeof v);
  ::close(fd[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("set-up failed in a child process");
  return v;
}

// ------------------------------------------------------- untraced run ---

/// Cold set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

int run_untraced(const Args& a, const std::string& path) {
  // Set-up = generate + write the file + one untimed warm-up job, each time
  // in a cold process, so work a job leaves in process-lifetime caches is
  // paid here. All but the last run in forked children; the last is this
  // process's own, still cold because nothing has run in it yet.
  Workload w;
  Threads th;
  const auto set_up_s = [&] {
    const auto t0 = Clock::now();
    w = set_up(a, path, th);
    (void)run_data_prep(w.prep);
    return ms_since(t0) / 1000.0;
  };
  std::vector<double> setup_s;
  for (int i = 1; i < kSetups; ++i) setup_s.push_back(in_child(set_up_s));
  setup_s.push_back(set_up_s());
  const PrepOptions& o = w.prep;

  std::vector<double> job_s;
  std::optional<PrepResult> first;
  std::size_t attempted = 0, failed = 0;
  const auto start = Clock::now();
  while (attempted < 3 || ms_since(start) < a.seconds * 1000.0) {
    ++attempted;
    try {
      const auto t0 = Clock::now();
      PrepResult r = run_data_prep(o);
      job_s.push_back(ms_since(t0) / 1000.0);
      const auto bad = check_job(o, r, first ? &*first : nullptr);
      for (const auto& b : bad) std::cerr << "job " << attempted << ": " << b << "\n";
      if (!bad.empty()) ++failed;
      if (!first) first = std::move(r);
    } catch (const std::exception& e) {
      std::cerr << "job " << attempted << " threw: " << e.what() << "\n";
      ++failed;
    }
  }
  // Before the run-level checks, which may run an in-process reference.
  const double rss_mb = peak_rss_mb();
  std::cerr << "set-up seconds:";
  for (double s : setup_s) std::cerr << " " << s;
  std::cerr << "\njob seconds:";
  for (double s : job_s) std::cerr << " " << s;
  std::cerr << "\n";

  bool correct = failed == 0 && first.has_value();
  if (correct && o.pec.worker_count > 0) {
    // The distributed doses must be bitwise-identical to the in-process
    // sharded solve of the same file.
    PrepOptions ref = o;
    ref.pec.worker_count = 0;
    try {
      if (!same_shots(run_data_prep(ref).shots, first->shots))
        throw std::runtime_error("distributed doses differ from the in-process sharded solve");
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      correct = false;
      failed = attempted;
    }
  }
  if (!first) {
    report("prepbench " + a.workload + ": no job finished", false, attempted, failed, {});
    return 1;
  }

  const PrepResult& r = *first;
  const double job = median(job_s);
  const double shots = static_cast<double>(r.shots.size());
  char header[256];
  std::snprintf(header, sizeof header,
                "prepbench %s seed %llu: %zu shots, %zu timed jobs, threads %d, "
                "workers %d x %d threads, digest %016llx",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                r.shots.size(), job_s.size(), th.driver, th.workers, th.worker_threads,
                static_cast<unsigned long long>(digest(r.shots, r.epe)));
  std::vector<Metric> metrics = {
      {"job_s", job, "s", "lower, median of the timed jobs"},
      {"shots_per_s", shots / job, "1/s", "higher"},
      {"setup_s", median(setup_s), "s", "lower, median of the cold set-ups"},
      {"peak_rss_mb", rss_mb, "MB", "lower, process and reaped children"},
      {"fail_share", static_cast<double>(failed) / attempted, "share",
       "lower, failed / attempted jobs"},
      {"write_s", r.time_for("vsb").total(), "s", "lower, VSB write-time estimate"}};
  if (r.pec_final_error) metrics.push_back({"pec_max_error", *r.pec_final_error, "rel", "lower"});
  if (r.epe) {
    metrics.push_back({"epe_p50_dbu", r.epe->p50, "dbu", "lower"});
    metrics.push_back({"epe_p99_dbu", r.epe->p99, "dbu", "lower"});
  }
  report(header, correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// --------------------------------------------------------- traced run ---

/// One span per public call, with its parent; kept in memory and written
/// out when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int rep = 0;
    Clock::time_point start, end;
    double ms() const { return std::chrono::duration<double, std::milli>(end - start).count(); }
  };

  class Scope {
   public:
    Scope(Tracer& t, std::string name) : t_(t), id_(t.open(std::move(name))) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  void next_rep() { ++rep_; }
  const std::vector<Span>& spans() const { return spans_; }

  void write_chrome_json(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write " + path);
    const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
    auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "") << "{\"name\": \"" << s.name
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << us(s.start)
         << ", \"dur\": " << us(s.end) - us(s.start) << ", \"args\": {\"id\": " << i
         << ", \"parent\": " << s.parent << ", \"rep\": " << s.rep << "}}";
    }
    os << "\n]}\n";
  }

 private:
  int open(std::string name) {
    spans_.push_back({std::move(name), current_, rep_, Clock::now(), {}});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  std::vector<Span> spans_;
  int current_ = -1;
  int rep_ = 0;
};

struct Composed {
  ShotList shots;
  std::optional<double> pec_uncorrected_error;
  std::optional<double> pec_final_error;
  std::vector<MachineEstimate> estimates;
  std::optional<EpeStats> epe;
  std::map<std::string, double> counts;  ///< per-layer counts of this rep
};

/// The pipeline of run_data_prep(const PrepOptions&), rebuilt from each
/// layer's public calls in the same order with the same arguments, one span
/// per call. Its shots and EPE must be bitwise-identical to run_data_prep's.
Composed compose(const PrepOptions& o, Tracer& t) {
  Composed out;
  auto& n = out.counts;
  Tracer::Scope job(t, "job");

  // As in stream_fracture: streamed polygons go straight into the boolean
  // engine; the flattened target is kept only when the EPE stage needs it.
  const bool scored = o.epe && o.pec_psf;
  BooleanEngine merged;
  PolygonSet target;
  {
    Tracer::Scope s(t, "layout");
    const auto stream = open_layout_stream(o.input_path);
    const IngestStats ing = stream_layer(*stream, o.ingest, [&](const Polygon& p) {
      merged.add(p, 0);
      if (scored) target.insert(p);
    });
    if (ing.polygons == 0) throw DataError("no geometry on the requested layer");
    n["layout.file_bytes"] = static_cast<double>(std::filesystem::file_size(o.input_path));
    n["layout.cells"] = static_cast<double>(ing.cells);
    n["layout.placements"] = static_cast<double>(ing.placements);
    n["layout.polygons"] = static_cast<double>(ing.polygons);
    n["layout.cell_parses"] = static_cast<double>(ing.cell_parses);
    n["layout.reload_share"] =
        ing.cell_parses ? static_cast<double>(ing.reloads) / ing.cell_parses : 0.0;
    n["layout.peak_resident"] = static_cast<double>(ing.peak_resident);
  }

  {
    Tracer::Scope s(t, "fracture");
    const bool merge = o.fracture.strategy != FractureStrategy::bands;
    FractureResult frac = fracture(merged.trapezoids(BoolOp::Or, merge), o.fracture);
    n["fracture.figures"] = static_cast<double>(frac.stats.figures);
    n["fracture.shots"] = static_cast<double>(frac.stats.shots);
    n["fracture.slivers"] = static_cast<double>(frac.stats.slivers);
    out.shots = std::move(frac.shots);
  }

  PecOptions pec_opt = o.pec;
  if (pec_opt.exposure.threads == 0) pec_opt.exposure.threads = o.threads;
  if (o.pec_psf && o.pec.shard_size == 0) {
    Tracer::Scope b(t, "pec.baseline");
    ExposureEvaluator eval(out.shots, *o.pec_psf, pec_opt.exposure);
    double uncorrected = 0.0;
    for (double e : eval.exposures_at_centroids())
      uncorrected = std::max(uncorrected, std::abs(e / pec_opt.target - 1.0));
    out.pec_uncorrected_error = uncorrected;
  }
  if (o.pec_psf) {
    Tracer::Scope s(t, "pec");
    PecResult pec = correct_proximity(out.shots, *o.pec_psf, pec_opt);
    out.shots = std::move(pec.shots);
    out.pec_final_error = pec.final_max_error;
    const BlurPerf& b = pec.blur;
    double later = 0.0;
    for (std::size_t r = 1; r < pec.round_ms.size(); ++r) later += pec.round_ms[r];
    n["pec.iterations"] = pec.iterations;
    n["pec.rounds"] = pec.rounds;
    n["pec.shards"] = pec.shards;
    n["pec.round1_ms"] = pec.round_ms.empty() ? 0.0 : pec.round_ms.front();
    n["pec.later_rounds_ms"] = later;
    n["pec.measure_ms"] = std::max(0.0, pec.measure_ms);
    n["pec.blur_busy_ms"] = b.blur_ms;
    n["pec.accumulate_busy_ms"] = b.accumulate_ms;
    n["pec.delta_accumulate_busy_ms"] = b.delta_accumulate_ms;
    n["pec.full_refreshes"] = b.refreshes;
    const int refreshes = b.refreshes + b.delta_refreshes;
    n["pec.delta_share"] = refreshes ? double(b.delta_refreshes) / refreshes : 0.0;
    n["pec.windowed_share"] =
        b.delta_refreshes ? double(b.windowed_blurs) / b.delta_refreshes : 0.0;
    n["pec.shots_updated"] = static_cast<double>(b.shots_updated);
    n["pec.resident_shards"] = pec.resident_shards;
    n["pec.evictions"] = pec.shard_evictions;
    n["pec.workers"] = pec.workers;
    n["pec.worker_restarts"] = pec.worker_restarts;
    n["pec.reassigned_jobs"] = pec.reassigned_jobs;
    n["pec.degraded"] = pec.degraded_to_inprocess ? 1.0 : 0.0;
  }

  {
    Tracer::Scope s(t, "machine");
    if (o.field_size > 0) {
      Tracer::Scope p(t, "machine.partition");
      const double before = static_cast<double>(out.shots.size());
      FieldPartition part = partition_fields_counted(out.shots, o.field_size, o.threads);
      ShotList flat;
      for (const FieldJob& f : part.fields) flat.insert(flat.end(), f.shots.begin(), f.shots.end());
      out.shots = std::move(flat);
      n["machine.fields"] = static_cast<double>(part.fields.size());
      n["machine.straddler_share"] = before > 0 ? part.straddlers / before : 0.0;
    }
    Tracer::Scope w(t, "machine.write_time");
    const WriteJob job = make_write_job(out.shots);
    out.estimates = {{"raster", RasterScanWriter(o.raster).write_time(job)},
                     {"vector", VectorScanWriter(o.vector_scan).write_time(job)},
                     {"vsb", VsbWriter(o.vsb).write_time(job)}};
  }

  if (scored) {
    Tracer::Scope s(t, "sim");
    EpeOptions score = o.epe->score;
    if (score.sim.threads == 0) score.sim.threads = o.threads;
    std::optional<Raster> exposure;
    {
      Tracer::Scope sim(t, "sim.simulate");
      exposure.emplace(simulate_exposure(out.shots, *o.pec_psf, score.sim));
    }
    Tracer::Scope sc(t, "sim.score");
    out.epe = score_epe(*exposure, o.epe->print_level, epe_edges(target), score);
    n["sim.pixels"] = double(exposure->width()) * double(exposure->height());
    n["sim.probes"] = static_cast<double>(out.epe->samples);
    n["sim.missing"] = static_cast<double>(out.epe->missing);
  }
  return out;
}

int run_traced(const Args& a, const std::string& path) {
  Threads th;
  Workload w = set_up(a, path, th);
  const PrepOptions& o = w.prep;
  const PrepResult warm = run_data_prep(o);  // untimed warm-up

  // Every span but the job root gives "<span>.ms" and "<span>.share" (of the
  // traced job), or "_ms" and "_share" for a sub-call span such as
  // "sim.simulate"; each count gives its own name. A layer the workload
  // bypasses makes no call, so its metrics are absent.
  Tracer tracer;
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> untraced_ms, traced_ms;
  std::size_t attempted = 0, failed = 0;
  const auto start = Clock::now();
  while (attempted < 2 || ms_since(start) < a.seconds * 1000.0) {
    ++attempted;
    try {
      auto t0 = Clock::now();
      const PrepResult r = run_data_prep(o);
      untraced_ms.push_back(ms_since(t0));

      tracer.next_rep();
      const std::size_t root = tracer.spans().size();
      const Composed c = compose(o, tracer);
      const std::vector<Tracer::Span>& spans = tracer.spans();
      const double total = spans[root].ms();
      traced_ms.push_back(total);

      std::vector<std::string> bad = check_job(o, r, &warm);
      if (!same_shots(c.shots, r.shots)) bad.push_back("traced shots differ from run_data_prep");
      if (!same_epe(c.epe, r.epe)) bad.push_back("traced EPE differs from run_data_prep");
      if (!same_value(c.pec_uncorrected_error, r.pec_uncorrected_error) ||
          !same_value(c.pec_final_error, r.pec_final_error))
        bad.push_back("traced PEC errors differ from run_data_prep");
      for (const MachineEstimate& e : c.estimates) {
        const WriteTime& wt = r.time_for(e.machine);
        if (!same_bits(e.time.exposure_s, wt.exposure_s) ||
            !same_bits(e.time.overhead_s, wt.overhead_s) || !same_bits(e.time.stage_s, wt.stage_s))
          bad.push_back("traced " + e.machine + " write time differs from run_data_prep");
      }
      for (const auto& b : bad) std::cerr << "rep " << attempted << ": " << b << "\n";
      if (!bad.empty()) ++failed;

      for (std::size_t i = root + 1; i < spans.size(); ++i) {
        const Tracer::Span& s = spans[i];
        const std::string sep = s.name.find('.') == std::string::npos ? "." : "_";
        samples[s.name + sep + "ms"].push_back(s.ms());
        samples[s.name + sep + "share"].push_back(s.ms() / total);
      }
      for (const auto& [name, v] : c.counts) samples[name].push_back(v);
    } catch (const std::exception& e) {
      std::cerr << "rep " << attempted << " threw: " << e.what() << "\n";
      ++failed;
    }
  }

  std::filesystem::create_directories(a.out_dir);
  const std::string trace_path = a.out_dir + "/trace_" + a.workload + ".json";
  tracer.write_chrome_json(trace_path);

  std::vector<Metric> metrics;
  for (const auto& [name, v] : samples) metrics.push_back({name, median(v), "", ""});
  const double overhead =
      untraced_ms.empty() ? 0.0 : median(traced_ms) / median(untraced_ms) - 1.0;
  metrics.push_back({"trace.overhead_share", overhead, "", "traced total / untraced job - 1"});
  char header[512];
  std::snprintf(header, sizeof header,
                "prepbench %s seed %llu traced: %zu reps, threads %d, "
                "workers %d x %d threads, spans in %s",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                traced_ms.size(), th.driver, th.workers, th.worker_threads,
                trace_path.c_str());
  report(header, failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    // A missing output directory is created, never fatal.
    std::filesystem::create_directories(a.out_dir);
    const std::string path = a.out_dir + "/" + a.workload + ".oas";
    return a.trace ? run_traced(a, path) : run_untraced(a, path);
  } catch (const std::exception& e) {
    std::cerr << "prepbench_driver: " << e.what() << "\n";
    report("prepbench_driver: failed", false, 1, 1, {});
    return 1;
  }
}
