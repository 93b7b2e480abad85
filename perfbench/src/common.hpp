// Shared plumbing of the repository benchmark: run options, the result
// record every workload fills, timing and percentile helpers, resource
// probes (peak RSS, child processes, shm segments), and the pinned
// execution context.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/context.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for temporary files (the ingress checkpoint); inside the
  /// checkout the benchmark runs from.
  std::string tmpdir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `end_to_end` and `per_layer` carry the
/// metrics named in BENCHMARK.json; `info` carries context a reader needs
/// (sample counts, the workload-specific names of shared metrics) that the
/// result line does not gate on.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  /// Errors, unanswered requests and wrong answers. Typed kSaturated
  /// shedding is not a failure.
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> info;
  /// Per-layer metric names whose layer is not on this workload's path.
  std::vector<std::string> not_applicable;
  /// Anything a reader must not miss: failed checks, invalid phases.
  std::vector<std::string> findings;
  /// Set when the run could not be measured honestly (e.g. the open-loop
  /// sender fell behind); no result is reported for an invalid run.
  std::string invalid;
};

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// CPU time (s) of every thread, live or exited, of this process. Like
/// every CPU clock below, it leaves out time the hypervisor stole: with
/// the kernel's paravirtual steal accounting, a thread is not charged for
/// the time its vCPU did not run. The gated figures are CPU times for
/// that reason; wall-clock figures on a shared host move with the steal.
[[nodiscard]] double process_cpu_s();
/// CPU time (ms) of the calling thread.
[[nodiscard]] double thread_cpu_ms();
/// Linux thread id of the calling thread.
[[nodiscard]] long current_tid();

/// CPU time (s) of each live thread of this process and of its live child
/// processes, keyed by thread id.
using ThreadCpu = std::map<long, double>;
[[nodiscard]] ThreadCpu thread_cpu_snapshot();

/// CPU used between two snapshots by the threads live at the second one,
/// leaving out the threads in `exclude` (the load generator).
struct CpuUse {
  double total_s = 0.0;
  /// The busiest single thread: the bottleneck of a pipeline whose stages
  /// are threads and processes.
  double busiest_s = 0.0;
};
[[nodiscard]] CpuUse cpu_between(const ThreadCpu& before,
                                 const ThreadCpu& after,
                                 const std::vector<long>& exclude);

/// Peak resident set of this process (MiB).
[[nodiscard]] double peak_rss_mb_self();
/// Peak resident set of the largest reaped child process (MiB).
[[nodiscard]] double peak_rss_mb_children();
/// Live child processes of this process.
[[nodiscard]] int count_children();
/// /dev/shm segments named by this process's ingress rings.
[[nodiscard]] int count_own_shm_segments();

/// The context every workload pins explicitly instead of inheriting the
/// process default: kernel backend, one kernel lane per calling thread,
/// synchronous comm, monolithic (unpipelined) forward.
[[nodiscard]] dchag::runtime::Context pinned_context(
    dchag::runtime::KernelBackend backend);

Result run_ingress_poisson(const Options& opt);
Result run_dchag_serve(const Options& opt);
Result run_dchag_train(const Options& opt);

}  // namespace perfbench
