// The benchmark's workloads. Each run_* measures for opt.seconds (untraced)
// or runs a fixed, seed-determined traced pass (opt.trace), and fills the
// end-to-end or per-layer metrics of a Result. See README.md.
#pragma once

#include <cstdio>
#include <vector>

#include "common.hpp"

namespace perfbench {

Result run_paper_mixer(const Options& opt);
Result run_gen_array_op(const Options& opt);
Result run_svc(const Options& opt, bool cluster);

/// The work a library workload does before its first timed operation
/// (the set-up probe's body).
void setup_paper_mixer(std::uint64_t seed);
void setup_gen_array_op(std::uint64_t seed);

/// Cold operations draw fresh inputs; warm operations repeat the previous
/// cold operation's inputs. Library workloads alternate the two.
inline bool is_cold_op(int index) { return index % 2 == 0; }

/// File a library operation's reference-core CPU time under cold or warm,
/// and log it with its wall time and the mean probe time behind it.
inline void record_op(int index, double cpu_ms, double wall_ms, double probe_us,
                      std::vector<double>& cold_ms, std::vector<double>& warm_ms) {
  (is_cold_op(index) ? cold_ms : warm_ms).push_back(cpu_ms);
  std::fprintf(stderr, "  op %d (%s): %.3f ms cpu (reference core), %.3f ms wall, probe %.3f us\n",
               index, is_cold_op(index) ? "cold" : "warm", cpu_ms, wall_ms, probe_us);
}

/// Set-ups per run; setup_s is their median.
constexpr int kSetupProbes = 31;

/// Tracing overhead of a library operation [%]. One uncounted warm-up
/// takes the first-call effects (page faults, allocator growth), then
/// kOverheadPairs pairs run the same operation untraced and traced; the
/// result is the median of the pairs' differences. `op(traced)` runs one
/// operation and returns its CPU time.
constexpr int kOverheadPairs = 2;
template <class Op>
double trace_overhead_pct(Op&& op) {
  op(false);
  std::vector<double> pct;
  for (int i = 0; i < kOverheadPairs; ++i) {
    const double untraced_s = op(false);
    rfmix::obs::trace::enable();
    const double traced_s = op(true);
    rfmix::obs::trace::disable();
    pct.push_back(100.0 * (traced_s - untraced_s) / untraced_s);
    std::fprintf(stderr, "  overhead pair %d: untraced %.3f s, traced %.3f s\n", i, untraced_s,
                 traced_s);
  }
  return median(pct);
}

/// End-to-end metrics shared by every workload: `ops` operations took
/// `cpu_s` of the program's CPU time in all.
void add_end_to_end(Result& r, double setup_s, double peak_rss_mb,
                    const std::vector<double>& cold_cpu_ms,
                    const std::vector<double>& warm_cpu_ms, double ops, double cpu_s);

}  // namespace perfbench
