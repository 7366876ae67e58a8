// CACHE: service-layer replay of the Fig. 8 gain-vs-RF sweep.
//
// Runs the same batch of mixer-gain requests (both modes, 0.5-7 GHz at
// 5 MHz IF) twice through the svc:: scheduler against one result cache:
// the cold pass executes every LPTV solve, the warm pass must be served
// entirely from the cache with bit-identical payloads. Reports cold/warm
// wall time, speedup, and hit rate — the service layer's headline numbers.
#include <atomic>
#include <chrono>
#include <exception>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "obs/cli.hpp"
#include "rf/table.hpp"
#include "runtime/thread_pool.hpp"
#include "svc/request.hpp"
#include "svc/scheduler.hpp"

using namespace rfmix;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Submit every job, then help the pool until all have completed; payloads
/// come back in input order (a failed job leaves its slot empty).
std::vector<std::string> run_all(svc::JobScheduler& sched,
                                 const std::vector<svc::JobScheduler::Job>& jobs) {
  std::vector<std::string> results(jobs.size());
  std::atomic<std::size_t> remaining{jobs.size()};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    sched.submit(jobs[i], [&results, &remaining, i](const std::string* payload,
                                                    std::exception_ptr, bool, bool) {
      if (payload != nullptr) results[i] = *payload;
      remaining.fetch_sub(1, std::memory_order_release);
    });
  }
  sched.pool().assist_until(
      [&remaining] { return remaining.load(std::memory_order_acquire) == 0; });
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchCli cli(argc, argv, "bench_cache_sweep");
  std::ostream& out = cli.out();
  if (!cli.csv())
    out << "=== CACHE: Fig. 8 sweep replay through the svc result cache ===\n\n";

  // The Fig. 8 request set: gain vs RF for both modes.
  std::vector<svc::JobScheduler::Job> jobs;
  std::vector<double> freqs;
  for (double f = 0.5e9; f <= 7.0e9 + 1.0; f += 0.25e9) freqs.push_back(f);
  for (const core::MixerMode mode : {core::MixerMode::kActive, core::MixerMode::kPassive}) {
    for (const double f_rf : freqs) {
      svc::Request req;
      req.kind = svc::RequestKind::kMixerMetric;
      req.metric.metric = core::MixerMetric::kGainDb;
      req.metric.config.mode = mode;
      req.metric.f_rf_hz = f_rf;
      jobs.push_back({svc::request_key(req), [req] { return svc::execute_request(req); }, 0});
    }
  }

  svc::ResultCache cache(4096);
  svc::JobScheduler sched(cache, runtime::ThreadPool::current());

  const auto t_cold = std::chrono::steady_clock::now();
  const std::vector<std::string> cold = run_all(sched, jobs);
  const double cold_ms = ms_since(t_cold);

  const auto t_warm = std::chrono::steady_clock::now();
  const std::vector<std::string> warm = run_all(sched, jobs);
  const double warm_ms = ms_since(t_warm);

  bool identical = cold.size() == warm.size();
  for (std::size_t i = 0; identical && i < cold.size(); ++i)
    identical = cold[i] == warm[i];

  const auto stats = sched.stats();
  const double hit_rate =
      static_cast<double>(stats.cache_hits) / static_cast<double>(stats.submitted);
  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;

  rf::ConsoleTable table({"pass", "requests", "wall (ms)", "cache hits"});
  table.add_row({"cold", std::to_string(jobs.size()), rf::ConsoleTable::num(cold_ms, 2),
                 "0"});
  table.add_row({"warm", std::to_string(jobs.size()), rf::ConsoleTable::num(warm_ms, 2),
                 std::to_string(stats.cache_hits)});
  if (cli.csv()) {
    table.print_csv(out);
  } else {
    table.print(out);
    out << "\nwarm replay " << rf::ConsoleTable::num(speedup, 1)
        << "x faster than cold; payloads bit-identical: " << (identical ? "yes" : "NO")
        << "\n";
  }

  cli.set_config("requests", static_cast<double>(jobs.size()));
  cli.set_config("threads", static_cast<double>(runtime::ThreadPool::current().concurrency()));
  cli.add_metric("cold_ms", cold_ms);
  cli.add_metric("warm_ms", warm_ms);
  cli.add_metric("speedup", speedup);
  cli.add_metric("hit_rate", hit_rate);
  cli.add_metric("bit_identical", identical ? 1.0 : 0.0);
  cli.add_metric("executed", static_cast<double>(stats.executed));

  // Failures the exit code reports: a failed solve, or a warm pass that
  // re-executed or drifted.
  if (!identical || stats.executed != jobs.size() || stats.failed != 0) {
    out << "cache replay FAILED: executed=" << stats.executed << " expected "
        << jobs.size() << ", failed=" << stats.failed << ", identical=" << identical
        << "\n";
    cli.finish();
    return 1;
  }
  return cli.finish();
}
