// sqleqd end-to-end benchmark (README.md in this directory).
//
//   sqleqd_bench --workload check_hot|check_cold|reformulate --seed N
//                --seconds S --trace 0|1 --scratch DIR
//
// Drives an in-process sqleqd (service::Server) through a one-shard
// service::FleetClient over loopback with a seed-generated, fixed-length
// request sequence, checks every answer, and prints the run manifest and,
// as its last line, one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics of the traced run (--trace 1).
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"

#ifndef SQLEQD_BENCH_BUILD_TYPE
#define SQLEQD_BENCH_BUILD_TYPE "unknown"
#endif

namespace sqleqd_bench {
namespace {

/// Requests per second of --seconds, per workload. A run sends exactly
/// round(seconds × rate) requests, so its work is fixed by its arguments.
constexpr double kHotRate = 2500;
constexpr double kColdRate = 800;
constexpr double kReformulateRate = 600;

/// Set-ups per run; setup_s is their median. A check_hot set-up includes
/// the warming pass (about a second); the others take milliseconds, so
/// they repeat more to steady the median.
constexpr size_t kHotSetups = 5;
constexpr size_t kSetups = 31;

/// Per-context memo bound: the check_hot working set fits, check_cold's
/// inserts exceed it several times over.
constexpr size_t kMemoByteLimit = 512u << 10;

bool ParseWorkload(const std::string& name, WorkloadShape* shape) {
  if (name == "check_hot") {
    *shape = {WorkloadKind::kCheckHot, name, 2, 0};
  } else if (name == "check_cold") {
    *shape = {WorkloadKind::kCheckCold, name, 2, 0};
  } else if (name == "reformulate") {
    *shape = {WorkloadKind::kReformulate, name, 1, 0};
  } else {
    return false;
  }
  return true;
}

double RateOf(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kCheckHot:
      return kHotRate;
    case WorkloadKind::kCheckCold:
      return kColdRate;
    case WorkloadKind::kReformulate:
      return kReformulateRate;
  }
  return 0;
}

/// CPU time the hypervisor took from this machine (all CPUs), from the
/// steal column of /proc/stat; 0 where the kernel does not report it.
double HostStealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double ticks[8] = {};
  stat >> cpu;
  for (double& t : ticks) stat >> t;
  return ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string Number(double v) {
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << Number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int Usage() {
  std::cerr << "usage: sqleqd_bench --workload check_hot|check_cold|reformulate "
               "--seed N --seconds S --trace 0|1 --scratch DIR\n";
  return 2;
}

int Run(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::cerr << "sqleqd_bench: refusing to run an unoptimised or sanitizer build\n";
  return 3;
#endif
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string scratch;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--scratch") {
      scratch = value;
    } else {
      return Usage();
    }
  }
  WorkloadShape shape;
  if (argc % 2 != 1 || !ParseWorkload(workload, &shape) || seconds <= 0 ||
      (trace != 0 && trace != 1) || scratch.empty()) {
    return Usage();
  }
  shape.requests = static_cast<size_t>(std::llround(seconds * RateOf(shape.kind)));
  DaemonConfig config;
  config.memo_byte_limit = kMemoByteLimit;
  std::filesystem::create_directories(scratch);

  const auto corpus_start = std::chrono::steady_clock::now();
  sqleq::Result<Corpus> corpus = BuildCorpus(shape, seed);
  if (!corpus.ok()) {
    std::cerr << "corpus: " << corpus.status().ToString() << "\n";
    return 1;
  }
  const double corpus_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - corpus_start).count();

  std::cout << "manifest nproc: " << std::thread::hardware_concurrency() << "\n"
            << "manifest build_type: " << SQLEQD_BENCH_BUILD_TYPE << "\n"
            << "manifest workload: " << shape.name << " seed " << seed << " trace " << trace
            << "\n"
            << "manifest load: closed loop, " << shape.clients << " client thread(s), "
            << shape.requests << " requests (" << RateOf(shape.kind)
            << " per --seconds unit)\n"
            << "manifest daemon: ServerOptions defaults (worker_threads "
            << config.worker_threads << ", max_inflight " << config.max_inflight
            << "), memo_byte_limit " << config.memo_byte_limit
            << " per context, fresh memo_dir, memo_fsync " << config.memo_fsync << "\n"
            << "manifest corpus: " << corpus->tmpl.name << " |Σ|="
            << corpus->tmpl.catalog.sigma.size() << ", " << corpus->generated_queries
            << " generated queries, " << corpus->items.size() << " distinct requests ("
            << corpus->positives << " positive / " << corpus->negatives
            << " negative pairs), " << corpus->sequence.size() << " timed, "
            << corpus->repeated_keys << " canonical keys shared across requests, built in "
            << Number(corpus_s) << " s\n";

  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  if (trace == 1) {
    sqleq::Result<std::vector<Metric>> metrics = RunTraced(
        shape, *corpus, config, scratch, seed, &attempted, &failed, &correct);
    if (!metrics.ok()) {
      std::cerr << "traced run: " << metrics.status().ToString() << "\n";
      return 1;
    }
    std::filesystem::remove_all(scratch);
    PrintResult(correct, attempted, failed, *metrics);
    return 0;
  }

  // peak_rss_mb is what serving adds to the process: the corpus
  // generator's peak is cleared and its resident corpus is subtracted.
  const double corpus_peak_mb = ProcStatusMb("VmHWM");
  malloc_trim(0);
  if (!ResetPeakRss()) {
    std::cerr << "cannot reset the peak resident size (/proc/self/clear_refs)\n";
    return 1;
  }
  const double baseline_mb = ProcStatusMb("VmRSS");

  // Set up kSetups times; the last daemon serves the timed sequence.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  const size_t setups = shape.kind == WorkloadKind::kCheckHot ? kHotSetups : kSetups;
  for (size_t k = 0; k < setups; ++k) {
    daemon.reset();
    const auto start = std::chrono::steady_clock::now();
    sqleq::Result<std::unique_ptr<Daemon>> d = SetUpDaemon(shape, *corpus, config, scratch, k);
    setup_s.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
    if (!d.ok()) {
      std::cerr << "set-up: " << d.status().ToString() << "\n";
      return 1;
    }
    daemon = std::move(*d);
  }
  uint64_t warm_bytes = 0;
  for (const auto& [sem, bytes] : daemon->warm_bytes) {
    warm_bytes = std::max(warm_bytes, bytes);
  }

  std::cout << "manifest setup: median of " << setups << " set-ups, "
            << Number(Median(setup_s)) << " s\n";

  const double steal_start = HostStealSeconds();
  LoadResult load = RunLoad(shape, *corpus, *daemon, nullptr,
                            shape.kind == WorkloadKind::kReformulate);
  const double steal_s = HostStealSeconds() - steal_start;
  const sqleq::service::FleetClient::Stats client_stats = daemon->client->stats();
  // Read before answer checking, whose in-process chases are not serving.
  const double peak_rss_mb = ProcStatusMb("VmHWM") - baseline_mb;
  if (shape.kind == WorkloadKind::kCheckCold) {
    sqleq::Result<StatsView> stats = ReadStats(*daemon->client);
    if (stats.ok()) {
      std::cout << "manifest working_set: " << Number(stats->Value("sqleq_memo_bytes"))
                << " memo bytes inserted over the run across 3 contexts, limit "
                << config.memo_byte_limit << " per context, "
                << Number(stats->Value("sqleq_memo_evictions")) << " evictions\n";
    }
  }
  daemon.reset();
  attempted = load.attempted;
  failed = load.failed;
  if (load.wrong > 0) correct = false;

  size_t invalid = 0;
  if (shape.kind == WorkloadKind::kReformulate) {
    size_t checked = 0;
    size_t databases = 0;
    std::string why;
    invalid = ValidateReformulations(*corpus, load, &checked, &databases, &why);
    std::cout << "manifest reformulations: " << checked << " validated on " << databases
              << " Σ-satisfying databases, " << invalid << " invalid"
              << (why.empty() ? "" : " (first: " + why + ")") << "\n";
    if (invalid > 0) correct = false;
  }
  if (shape.kind == WorkloadKind::kCheckHot) {
    std::cout << "manifest working_set: " << warm_bytes
              << " memo bytes after warm-up in the largest context, limit "
              << config.memo_byte_limit << " ("
              << (warm_bytes <= config.memo_byte_limit ? "fits" : "OVERFLOWS") << ")\n";
  }
  const size_t per_segment = load.latency_us.size() / load.segments.size();
  std::cout << "manifest answers: " << attempted << " attempted, " << failed << " failed ("
            << Number(attempted > 0 ? 100.0 * static_cast<double>(failed) /
                                          static_cast<double>(attempted)
                                    : 0)
            << "%), " << load.wrong << " wrong"
            << (load.first_error.empty() ? "" : " (first: " + load.first_error + ")") << "\n"
            << "manifest latency_samples: " << load.latency_us.size() << " in "
            << load.segments.size() << " segments of ~" << per_segment << ", ~"
            << per_segment / 100 << " beyond each segment's p99; metrics are medians over "
            << "segments\n"
            << "manifest client: " << client_stats.dials << " dials, "
            << client_stats.pool_reuses << " pool reuses\n"
            << "manifest host: " << Number(steal_s)
            << " s of CPU stolen by the hypervisor during the timed interval\n";
  std::cout << "manifest memory: corpus generation peaked at " << Number(corpus_peak_mb)
            << " MB; the resident corpus (" << Number(baseline_mb)
            << " MB) is excluded from peak_rss_mb (" << Number(peak_rss_mb) << " MB)\n";
  std::filesystem::remove_all(scratch);

  std::vector<double> throughput, p50, p99, cpu_per_req;
  for (const Segment& seg : load.segments) {
    const double completed = static_cast<double>(seg.end - seg.begin - seg.failed);
    std::vector<double> latency(load.latency_us.begin() + static_cast<ptrdiff_t>(seg.begin),
                                load.latency_us.begin() + static_cast<ptrdiff_t>(seg.end));
    throughput.push_back(completed / seg.wall_s);
    p50.push_back(Percentile(latency, 0.50));
    p99.push_back(Percentile(latency, 0.99));
    cpu_per_req.push_back(seg.cpu_s * 1e6 / std::max(1.0, completed));
  }
  std::vector<Metric> metrics = {
      {"throughput_rps", Median(throughput), "1/s"},
      {"latency_p50_us", Median(p50), "us"},
      {"latency_p99_us", Median(p99), "us"},
      {"cpu_us_per_req", Median(cpu_per_req), "us"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace sqleqd_bench

int main(int argc, char** argv) { return sqleqd_bench::Run(argc, argv); }
