/// perfbench_e2e — the measuring half of the end-to-end benchmark.
///
///   perfbench_e2e --workload NAME --seed N --seconds S --mode MODE
///                 [--epochs E]
///
/// MODE:
///   e2e    untraced entry-point runs at 4 worker threads for S
///          seconds, each followed by a reference run and an
///          input-build sample; raw and host-speed-normalised CPU
///          seconds out (see run_e2e).
///   trace  after one 4-thread run, untraced and traced (phase-split,
///          counting-scheduler) runs at 1 worker for S seconds;
///          per-layer values out.
///   once   one entry-point run at 4 threads and the process's peak
///          resident set after it (VmHWM).
///
/// Every run's JSON is reduced to a CRC-32 digest; any digest that
/// differs from the first run's, any deterministic counter that differs
/// between traced runs, and any exception count as failed runs. Prints
/// one JSON object on stdout; perfbench/run.py turns it into metrics.
/// `--epochs` overrides the workload's horizon for one-off checks.

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "layer_trace.hpp"
#include "snipr/core/crc32.hpp"
#include "snipr/core/json_writer.hpp"
#include "snipr/core/thread_pool.hpp"
#include "workloads.hpp"

namespace {

namespace json = snipr::core::json;
using perfbench::Clock;
using perfbench::seconds_since;

/// Least CPU time of one set-up sample; builds repeat until it is
/// reached.
constexpr double kSetupSliceSeconds = 0.03;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  std::string mode{"e2e"};
  std::size_t epochs{0};
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (i + 1 >= argc) throw std::invalid_argument("missing value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--mode") {
      a.mode = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (arg == "--epochs") {
      a.epochs = std::strtoull(v, &end, 10);
    } else {
      throw std::invalid_argument("unknown flag " + std::string{arg});
    }
    if (end != nullptr && *end != '\0') {
      throw std::invalid_argument("bad value for " + std::string{arg});
    }
  }
  if (a.seed == 0 || a.seconds <= 0.0) {
    throw std::invalid_argument("--seed and --seconds must be positive");
  }
  if (a.mode != "e2e" && a.mode != "trace" && a.mode != "once") {
    throw std::invalid_argument("unknown mode '" + a.mode + "'");
  }
  return a;
}

std::string digest(const std::string& json) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x",
                static_cast<unsigned>(snipr::core::crc32(json)));
  return buf;
}

/// Run outcome bookkeeping: the first digest is the reference.
struct Gate {
  std::string reference;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

  void check(const std::string& what, const std::string& json) {
    ++attempted;
    const std::string d = digest(json);
    if (reference.empty()) reference = d;
    if (d != reference) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s digest %s != %s\n", what.c_str(),
                   d.c_str(), reference.c_str());
    }
  }
};

/// Turns the trailing comma the json:: field helpers leave into '}'.
std::string close_object(std::string out) {
  if (out.back() == ',') {
    out.back() = '}';
  } else {
    out += '}';
  }
  return out;
}

void append_list(std::string& out, const std::string& key,
                 const std::vector<double>& values) {
  out += '"' + key + "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    json::append_number(out, values[i]);
  }
  out += "],";
}

std::string samples_json(const std::map<std::string, std::vector<double>>& m) {
  std::string out{"{"};
  for (const auto& [name, values] : m) append_list(out, name, values);
  return close_object(std::move(out));
}

std::string context_json(std::size_t threads) {
  std::string out{"{"};
  json::append_string_field(out, "compiler", PERFBENCH_COMPILER);
  json::append_string_field(out, "build_type", PERFBENCH_BUILD_TYPE);
  json::append_string_field(out, "ipo", PERFBENCH_IPO);
  json::append_uint_field(out, "threads", threads);
  json::append_uint_field(out, "hardware_threads",
                          snipr::core::ThreadPool::hardware_threads());
  return close_object(std::move(out));
}

/// This process's peak resident set in MiB (VmHWM, which exec resets,
/// so it is the benchmark's own and not its parent's); 0 if unreadable.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Single-threaded samples rotate over the process's cores. On a shared
/// host each core has its own neighbours: the same 1-thread run read
/// 1.4 s on one core and 0.9 s on another within the same minute, so a
/// median taken on whichever core the thread settled on measures that
/// core. Threads inherit the mask, so the pool worker of a 1-thread run
/// is pinned with its caller.
class CoreRotation {
 public:
  CoreRotation() {
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cores_.push_back(c);
    }
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;
  ~CoreRotation() { release(); }

  /// Pin the calling thread to the `i`-th core, round robin.
  void pin(std::size_t i) const {
    if (cores_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cores_[i % cores_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
  }

  /// Back to every core the process started with.
  void release() const {
    if (cores_.size() >= 2) (void)sched_setaffinity(0, sizeof all_, &all_);
  }

 private:
  cpu_set_t all_{};
  std::vector<int> cores_;
};

/// CPU seconds this process's threads have consumed. It does not count
/// time a thread waits for a core, nor, under paravirtual steal
/// accounting, time the host withholds the virtual CPU.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A fixed unit of work whose CPU time measures how fast the host runs
/// instructions right now: a 32 KiB binary heap churned with xorshift
/// keys, cache-resident like the simulator's event queue. Its code
/// belongs to the benchmark, so no change to the program moves it.
std::uint64_t reference_kernel(std::uint64_t seed) {
  constexpr std::size_t kKeys = 4096;
  constexpr std::size_t kOps = 1'000'000;
  std::uint64_t x = seed | 1;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::uint64_t> heap(kKeys);
  for (std::uint64_t& key : heap) key = next();
  std::make_heap(heap.begin(), heap.end());
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kOps; ++i) {
    std::pop_heap(heap.begin(), heap.end());
    sum += heap.back();
    heap.back() = next();
    std::push_heap(heap.begin(), heap.end());
  }
  return sum;
}

/// CPU seconds one reference_kernel call takes on this hardware (Intel
/// Xeon, 4 virtual CPUs, gcc -O3), about its median: the scale of the
/// normalised timings below, so that they read as CPU seconds.
constexpr double kReferenceNominalS = 0.023;

/// CPU seconds of `threads` concurrent reference_kernel calls.
double reference_cpu_s(std::size_t threads) {
  std::vector<std::uint64_t> sums(threads);
  const double cpu = process_cpu_s();
  if (threads == 1) {
    sums[0] = reference_kernel(1);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t k = 0; k < threads; ++k) {
      pool.emplace_back([&sums, k] { sums[k] = reference_kernel(k + 1); });
    }
    for (std::thread& t : pool) t.join();
  }
  const double spent = process_cpu_s() - cpu;
  // Using the sums keeps the compiler from dropping the kernel.
  if (std::count(sums.begin(), sums.end(), 0) != 0) {
    throw std::logic_error("reference kernel summed to 0");
  }
  return spent;
}

/// One set-up sample on the calling thread: CPU seconds per input build,
/// the build repeated for at least kSetupSliceSeconds. Returns the raw
/// figure and the figure normalised by a reference run just before it.
std::pair<double, double> setup_sample(const perfbench::Workload& w) {
  const double reference = reference_cpu_s(1);
  std::size_t reps = 0;
  const double cpu = process_cpu_s();
  double spent = 0.0;
  do {
    perfbench::build_inputs(w);
    ++reps;
    spent = process_cpu_s() - cpu;
  } while (spent < kSetupSliceSeconds);
  const double raw = spent / static_cast<double>(reps);
  return {raw, raw * kReferenceNominalS / reference};
}

/// Untraced samples: entry-point runs at `threads` workers, each followed
/// by a reference run on as many threads and a set-up sample, so set-up
/// samples spread over the whole run.
///
/// The host's speed drifts with its neighbours' load, in spells of
/// seconds to tens of minutes, and moves every CPU-time reading with it.
/// A run's CPU time divided by the mean of the reference runs on either
/// side of it, on the same number of threads, cancels most of it; times
/// the nominal reference time it reads as CPU seconds at the host's
/// median speed. `cpu_s` and `setup_s` are the normalised series; the raw
/// CPU and wall series are kept beside them.
void run_e2e(const perfbench::Workload& w, const Args& a, std::size_t threads,
             Gate& gate, std::map<std::string, std::vector<double>>& s) {
  const double nominal = static_cast<double>(threads) * kReferenceNominalS;
  double reference_before = reference_cpu_s(threads);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < 3 || seconds_since(start) < a.seconds; ++i) {
    const double cpu = process_cpu_s();
    const Clock::time_point r = Clock::now();
    const std::string json = perfbench::run_entry_point(w, threads);
    s["wall_s"].push_back(seconds_since(r));
    const double raw = process_cpu_s() - cpu;
    gate.check("entry point", json);
    const double reference_after = reference_cpu_s(threads);
    s["cpu_raw_s"].push_back(raw);
    s["cpu_s"].push_back(raw * nominal /
                         (0.5 * (reference_before + reference_after)));
    reference_before = reference_after;
    const auto [setup_raw, setup] = setup_sample(w);
    s["setup_raw_s"].push_back(setup_raw);
    s["setup_s"].push_back(setup);
  }
}

/// The crash seam under the decorator: the checkpoint variant of `w` must
/// give the same bytes wrapped and unwrapped, and must actually
/// checkpoint, restore and see phantom detections. Its counts replace the
/// workload's own for those three metrics.
void check_checkpoint_seam(const perfbench::Workload& w, double timer_ns,
                           Gate& gate, std::map<std::string, double>& values) {
  const perfbench::Workload v = perfbench::checkpoint_variant(w);
  Gate seam;
  seam.check("checkpoint variant entry point",
             perfbench::run_entry_point(v, 1));
  const perfbench::TracedRun traced = perfbench::run_traced(v, 1, timer_ns);
  seam.check("checkpoint variant traced replay", traced.json);
  for (const char* name :
       {"core.checkpoints", "core.restores", "fault.spurious_detections"}) {
    double count = 0.0;
    for (const auto& [n, value] : traced.counters) {
      if (n == name) count = value;
    }
    if (count <= 0.0) {
      ++seam.failed;
      std::fprintf(stderr, "perfbench: checkpoint variant never hit %s\n",
                   name);
    }
    values[name] = count;
  }
  gate.attempted += seam.attempted;
  gate.failed += seam.failed;
}

/// Untraced and traced runs at 1 worker, alternating; the traced runs'
/// counters must repeat exactly and their bytes match the entry point.
void run_trace(const perfbench::Workload& w, const Args& a, Gate& gate,
               std::map<std::string, std::vector<double>>& s,
               std::map<std::string, double>& values) {
  const double timer_ns = perfbench::calibrate_timer_ns();
  values["bench.timer_ns"] = timer_ns;
  perfbench::Values reference_counters;
  std::string aggregates;
  const CoreRotation cores;
  const Clock::time_point start = Clock::now();
  for (std::size_t iter = 0; iter < 2 || seconds_since(start) < a.seconds;
       ++iter) {
    // Both runs of a pair on one core, so their difference is tracing.
    cores.pin(iter);
    const Clock::time_point r = Clock::now();
    const std::string json = perfbench::run_entry_point(w, 1);
    const double untraced = seconds_since(r);
    gate.check("untraced entry point at 1 thread", json);

    const perfbench::TracedRun traced = perfbench::run_traced(w, 1, timer_ns);
    gate.check("traced phase-split replay", traced.json);
    if (reference_counters.empty()) {
      reference_counters = traced.counters;
      aggregates = traced.aggregates;
    } else if (traced.counters != reference_counters) {
      ++gate.failed;
      std::fprintf(stderr, "perfbench: traced counters differ between runs\n");
    }
    double phases = 0.0;
    for (const auto& [name, v] : traced.phases) {
      s[name].push_back(v);
      phases += v;
    }
    for (const auto& [name, v] : traced.timings) s[name].push_back(v);
    s["bench.untraced_wall_s"].push_back(untraced);
    s["bench.traced_wall_s"].push_back(traced.wall_s);
    s["bench.trace_overhead_s"].push_back(traced.wall_s - untraced);
    s["bench.phase_gap_s"].push_back(traced.wall_s - phases);
  }
  cores.release();
  for (const auto& [name, v] : reference_counters) values[name] = v;

  double stream_s = 0.0;
  if (w.name == "highway-rh") {
    // Streaming drops fault plans, so it is cross-checked only on the
    // fault-free workload.
    ++gate.attempted;
    const perfbench::StreamRun stream = perfbench::run_streaming(w, 1);
    stream_s = stream.wall_s;
    if (stream.aggregates != aggregates ||
        static_cast<double>(stream.contacts_probed) !=
            values["deploy.sessions"]) {
      ++gate.failed;
      std::fprintf(stderr,
                   "perfbench: streaming aggregates differ from the engine\n"
                   "  engine:    %s\n  streaming: %s\n",
                   aggregates.c_str(), stream.aggregates.c_str());
    }
  }
  values["deploy.stream_s"] = stream_s;

  if (w.spec.faults != nullptr &&
      w.spec.faults->node.crash_prob_per_epoch > 0.0) {
    check_checkpoint_seam(w, timer_ns, gate, values);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  perfbench::Workload w;
  try {
    a = parse(argc, argv);
    w = perfbench::make_workload(a.workload, a.seed, a.epochs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\nworkloads:", e.what());
    for (const std::string& n : perfbench::workload_names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  // A closed loop: one run at a time, at most 4 workers.
  const std::size_t threads =
      std::min<std::size_t>(4, snipr::core::ThreadPool::hardware_threads());

  Gate gate;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  try {
    // Warm-up run: fills caches, builds the catalog and the worker
    // threads' heaps (the first run at a thread count can take 2-4x
    // longer), and sets the reference digest every later run must match.
    gate.check("warm-up entry point", perfbench::run_entry_point(w, threads));
    if (a.mode == "e2e") {
      run_e2e(w, a, threads, gate, samples);
    } else if (a.mode == "trace") {
      run_trace(w, a, gate, samples, values);
    } else {
      values["peak_rss_mib"] = peak_rss_mib();
    }
  } catch (const std::exception& e) {
    ++gate.attempted;
    ++gate.failed;
    std::fprintf(stderr, "perfbench_e2e: run threw: %s\n", e.what());
  }

  std::string out{"{"};
  json::append_string_field(out, "workload", w.name);
  json::append_uint_field(out, "seed", a.seed);
  json::append_uint_field(out, "epochs", w.epochs);
  json::append_string_field(out, "digest", gate.reference);
  json::append_uint_field(out, "attempted", gate.attempted);
  json::append_uint_field(out, "failed", gate.failed);
  out += "\"samples\":" + samples_json(samples) + ',';
  std::string v{"{"};
  for (const auto& [name, value] : values) {
    json::append_field(v, name.c_str(), value);
  }
  out += "\"values\":" + close_object(std::move(v)) + ',';
  out += "\"context\":" + context_json(threads);
  std::printf("%s}\n", out.c_str());
  return gate.failed == 0 ? 0 : 1;
}
