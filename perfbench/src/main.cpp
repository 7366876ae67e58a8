// rfmix_perf: the rfmix benchmark harness.
//
//   rfmix_perf --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//              [--git-sha SHA]
//
// Runs one workload (paper_mixer, gen_array_op, svc_daemon, svc_cluster)
// and prints, as the last line of stdout, one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// catalogue. A run report (obs::RunReport) and, when traced, the span
// timeline (obs trace export) are written under --out. Exits 1 when any
// output check failed, 2 on bad usage or a refused build.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

void add_end_to_end(Result& r, double setup_s, double peak_rss_mb,
                    const std::vector<double>& cold_cpu_ms,
                    const std::vector<double>& warm_cpu_ms, double ops, double cpu_s) {
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", peak_rss_mb, "MB");
  r.add("cold_cpu_ms", median(cold_cpu_ms), "ms");
  r.add("warm_cpu_ms", median(warm_cpu_ms), "ms");
  r.add("ops_per_cpu_s", cpu_s > 0.0 ? ops / cpu_s : 0.0, "1/s");
}

namespace {

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"}, {"cold_cpu_ms", "ms"},
    {"warm_cpu_ms", "ms"},     {"ops_per_cpu_s", "1/s"},
};

/// RFMIX_THREADS every workload pins for itself (children are pinned by the
/// workload that spawns them).
int workload_threads(const std::string& w) { return w == "svc_daemon" ? 2 : 1; }

bool known_workload(const std::string& w) {
  return w == "paper_mixer" || w == "gen_array_op" || w == "svc_daemon" || w == "svc_cluster";
}

/// Refuse builds whose timings would mislead: Debug or sanitizers.
const char* refused_build() {
#ifndef NDEBUG
  return "assertions enabled (Debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") return "build type is not Release";
  return nullptr;
}

int usage() {
  std::cerr << "usage: rfmix_perf --workload paper_mixer|gen_array_op|svc_daemon|svc_cluster\n"
               "                  --seed N --seconds S --trace 0|1 [--out DIR] [--git-sha SHA]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string probe, git_sha = rfmix::obs::RunReport::git_sha();
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") opt.workload = value;
      else if (arg == "--seed") opt.seed = std::stoull(value);
      else if (arg == "--seconds") opt.seconds = std::stod(value);
      else if (arg == "--trace") opt.trace = value == "1";
      else if (arg == "--out") opt.out_dir = value;
      else if (arg == "--git-sha") git_sha = value;
      else if (arg == "--setup-probe") probe = value;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!probe.empty()) opt.workload = probe;
  if (!known_workload(opt.workload) || !(opt.seconds > 0.0)) return usage();
  if (const char* why = refused_build()) {
    std::cerr << "rfmix_perf: refusing to measure: " << why << "\n";
    return 2;
  }

  // Pin the pool size before anything creates the pool; never rely on the
  // default, which follows hardware_concurrency().
  const int threads = workload_threads(opt.workload);
  ::setenv("RFMIX_THREADS", std::to_string(threads).c_str(), 1);
  if (rfmix::runtime::ThreadPool::configured_threads() != threads) {
    std::cerr << "rfmix_perf: RFMIX_THREADS did not take effect\n";
    return 2;
  }

  if (!probe.empty()) {
    // Set-up probe: ready for the first timed operation; report the CPU
    // time spent since the exec on the reference core, the speed probed at
    // both ends.
    const double before_probe_s = process_cpu_s();
    const double probe0_us = probe_us();
    const double probe_cost_s = process_cpu_s() - before_probe_s;
    if (opt.workload == "paper_mixer") setup_paper_mixer(opt.seed);
    if (opt.workload == "gen_array_op") setup_gen_array_op(opt.seed);
    const double cpu_s = process_cpu_s() - probe_cost_s;
    const double probe1_us = probe_us();
    std::printf("%.9f\n",
                on_reference_core(cpu_s, 0.5 * (probe0_us + probe1_us), kSetupSensitivity));
    return 0;
  }

  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const unsigned hw = std::thread::hardware_concurrency();
  std::cerr << "rfmix_perf: workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace << " nproc=" << nproc
            << " hardware_concurrency=" << hw << " build=" << PERFBENCH_BUILD_TYPE
            << " git=" << git_sha << " RFMIX_THREADS=" << threads << "\n";

  Result r;
  try {
    if (opt.workload == "paper_mixer") r = run_paper_mixer(opt);
    else if (opt.workload == "gen_array_op") r = run_gen_array_op(opt);
    else r = run_svc(opt, opt.workload == "svc_cluster");
  } catch (const std::exception& e) {
    std::cerr << "rfmix_perf: " << opt.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  // Exactly the metric set of this mode, in catalogue order; a layer the
  // workload does not exercise reads 0.
  std::map<std::string, std::pair<double, std::string>> measured(r.metrics.begin(),
                                                                 r.metrics.end());
  const auto& names = opt.trace ? per_layer_catalogue() : kEndToEnd;
  rfmix::obs::RunReport report("rfmix_perf");
  report.set_config("workload", opt.workload);
  report.set_config("seed", static_cast<double>(opt.seed));
  report.set_config("seconds", opt.seconds);
  report.set_config("trace", opt.trace ? 1.0 : 0.0);
  report.set_config("nproc", static_cast<double>(nproc));
  report.set_config("hardware_concurrency", static_cast<double>(hw));
  report.set_config("build_type", PERFBENCH_BUILD_TYPE);
  report.set_config("git_sha", git_sha);
  report.set_config("rfmix_threads", static_cast<double>(threads));
  if (opt.trace) report.set_config("input_digest", r.inputs.hex());
  report.add_metric("attempted", static_cast<double>(r.attempted));
  report.add_metric("failed", static_cast<double>(r.failed));

  std::ostringstream line;
  line << "{\"correct\":" << (r.correct() ? "true" : "false") << ",\"attempted\":" << r.attempted
       << ",\"failed\":" << r.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, unit] : names) {
    double value = 0.0;
    if (const auto it = measured.find(name); it != measured.end()) value = it->second.first;
    if (!std::isfinite(value)) {
      std::cerr << "rfmix_perf: " << name << " is not finite; reporting 0\n";
      value = 0.0;
    }
    report.add_metric(name, value);
    std::cerr << "  " << name << " = " << full_digits(value) << " " << unit << "\n";
    line << (first ? "" : ",") << "\"" << name << "\":{\"value\":" << full_digits(value)
         << ",\"unit\":\"" << unit << "\"}";
    first = false;
  }
  line << "}}";

  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + (opt.trace ? "-traced" : "");
  if (!report.write_file(stem + ".report.json"))
    std::cerr << "rfmix_perf: cannot write " << stem << ".report.json\n";
  if (opt.trace && !rfmix::obs::trace::write_file(stem + ".trace.json"))
    std::cerr << "rfmix_perf: cannot write " << stem << ".trace.json\n";

  std::cout << line.str() << std::endl;
  return r.correct() ? 0 : 1;
}
