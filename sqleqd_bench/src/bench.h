// Shared declarations of the sqleqd end-to-end benchmark (README.md in this
// directory): the seeded corpora with known answers, the daemon the load
// runs against, the closed-loop load itself, answer checking, and the
// traced per-layer ladder.
#ifndef SQLEQD_BENCH_BENCH_H_
#define SQLEQD_BENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "chase/chase_plan.h"
#include "db/database.h"
#include "db/eval.h"
#include "ir/query.h"
#include "service/fleet_client.h"
#include "service/server.h"
#include "util/json.h"
#include "util/telemetry.h"
#include "workload/schema_templates.h"

namespace sqleqd_bench {

using sqleq::ConjunctiveQuery;
using sqleq::Semantics;

enum class WorkloadKind { kCheckHot, kCheckCold, kReformulate };

/// Everything a workload's size depends on. Counts, never durations: the
/// same (workload, seed, seconds) always sends the same requests.
struct WorkloadShape {
  WorkloadKind kind;
  std::string name;
  size_t clients = 0;
  /// Requests in the timed sequence.
  size_t requests = 0;
};

/// Fixed daemon configuration, recorded in the run manifest.
struct DaemonConfig {
  size_t worker_threads = 2;
  size_t max_inflight = 4;
  size_t memo_byte_limit = 0;
  bool memo_fsync = false;
};

/// One request with its known answer. For `check`, q1/q2 are the pair; for
/// `reformulate`, q1 is the query sent and q2 the base it was derived from.
struct Item {
  ConjunctiveQuery q1;
  ConjunctiveQuery q2;
  std::string q1_text;
  std::string q2_text;
  Semantics semantics = Semantics::kSet;
  bool expect_equivalent = false;
};

struct Corpus {
  sqleq::workload::SchemaTemplate tmpl;
  /// Distinct requests (the hot working set, the cold sequence, or the
  /// reformulate query pool).
  std::vector<Item> items;
  /// The timed request order, as indices into `items`.
  std::vector<size_t> sequence;
  /// Encoded request lines, one per item.
  std::vector<std::string> lines;
  size_t generated_queries = 0;
  size_t positives = 0;
  size_t negatives = 0;
  /// Canonical query keys that occur in more than one item (0 by
  /// construction on check_cold; the self-test asserts it).
  size_t repeated_keys = 0;
};

/// Builds the workload's corpus from `seed` (the load generator's cost; not
/// part of setup_s).
sqleq::Result<Corpus> BuildCorpus(const WorkloadShape& shape, uint64_t seed);

/// The request line for `item`. It carries no request id: sqleqd replays
/// settled responses by id, which would let repeated check_hot requests
/// skip the engine.
std::string EncodeItem(WorkloadKind kind, const Item& item);

/// The daemon's ServerOptions: defaults except for `config`'s fields.
sqleq::service::ServerOptions ToServerOptions(const DaemonConfig& config);

/// A running daemon plus the pooled one-shard client driving it.
struct Daemon {
  std::string memo_dir;
  std::unique_ptr<sqleq::service::Server> server;
  std::unique_ptr<sqleq::service::FleetClient> client;
  /// Memo bytes inserted by the warming pass (check_hot), per semantics.
  std::map<std::string, uint64_t> warm_bytes;

  ~Daemon();
};

/// Starts a daemon on a fresh memo dir under `scratch_dir`, uploads the
/// catalog, and (check_hot) warms the memo with every item. Every request
/// of the warming pass is answer-checked; a wrong one fails set-up.
sqleq::Result<std::unique_ptr<Daemon>> SetUpDaemon(const WorkloadShape& shape,
                                                   const Corpus& corpus,
                                                   const DaemonConfig& config,
                                                   const std::string& scratch_dir,
                                                   size_t tag);

/// The template catalog (relations, then Σ) as request lines.
std::vector<std::string> CatalogLines(const sqleq::workload::SchemaTemplate& tmpl);

/// Span records of the traced run: name, start, end, parent span and
/// request id. Also mirrored into a TraceSink for Chrome trace export.
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;
    int64_t request;
  };
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, int64_t request, int64_t parent = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int64_t index() const { return index_; }

   private:
    SpanLog* log_;
    int64_t index_ = -1;
  };

  SpanLog();
  /// Durations (µs) of every span named `name`, keyed by request id.
  std::map<int64_t, double> DurationsUs(const char* name) const;
  /// The span table as JSON: [{"name","start_us","end_us","parent","request"}].
  std::string ToJson() const;
  sqleq::TraceSink& sink() { return sink_; }

 private:
  int64_t Open(const char* name, int64_t request, int64_t parent);
  void Close(int64_t index);

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  sqleq::TraceSink sink_;
};

/// The timed sequence runs as consecutive segments of at least
/// kMinSegmentRequests requests (so each has ≥ 10 samples beyond its p99),
/// at most kMaxSegments of them. The end-to-end metrics are medians over
/// segments: on a shared host, a slowdown that hits a few seconds of a run
/// then moves the result less than it moves a whole-run mean.
inline constexpr size_t kMinSegmentRequests = 1000;
inline constexpr size_t kMaxSegments = 10;

struct Segment {
  size_t begin = 0;  ///< [begin, end) of the sequence
  size_t end = 0;
  double wall_s = 0;
  double cpu_s = 0;
  size_t failed = 0;
};

/// A `stats` response: the plain Prometheus samples (counters, histogram
/// sums and counts) by exported name, and the disk tier's write count.
struct StatsView {
  std::map<std::string, double> prometheus;
  double disk_writes = 0;

  /// The sample named `name`, 0 when absent.
  double Value(const std::string& name) const;
};

sqleq::Result<StatsView> ReadStats(sqleq::service::FleetClient& client);

/// Per-response facts folded by the load loop.
struct LoadResult {
  size_t attempted = 0;
  size_t failed = 0;
  size_t wrong = 0;
  std::string first_error;
  std::vector<Segment> segments;
  /// Client wall time per request, in sequence order.
  std::vector<double> latency_us;
  /// Raw response line per request (kept for the traced run and for
  /// reformulation validation).
  std::vector<std::string> responses;
};

/// Sends the corpus sequence through `daemon.client` from `shape.clients`
/// closed-loop threads, checking every answer. With `spans`, every
/// odd-numbered request of the sequence is recorded as a span under one
/// span for the whole pass; the even-numbered ones stay untraced, so the
/// two halves share a daemon, a request mix and host time, and the
/// difference of their latency medians is the tracing overhead.
LoadResult RunLoad(const WorkloadShape& shape, const Corpus& corpus, Daemon& daemon,
                   SpanLog* spans, bool keep_responses);

/// Validates every distinct reformulation returned in `load` against its
/// input with db/eval on the chased canonical databases of the input, its
/// base and the reformulation. Returns the number of invalid
/// reformulations; `checked`/`databases` receive what was examined.
size_t ValidateReformulations(const Corpus& corpus, const LoadResult& load,
                              size_t* checked, size_t* databases,
                              std::string* first_error);

/// The canonical database of chase(q) under `plan` (Σ, set semantics),
/// or nullopt when the chase fails or the database is not set valued or
/// does not Satisfies(Σ). If two queries are not Σ-equivalent under set
/// semantics, the database of one of them tells them apart; the checks
/// keep soundness from resting on the chase.
std::optional<sqleq::Database> ChasedCanonicalDatabase(const ConjunctiveQuery& q,
                                                       const sqleq::ChasePlan& plan,
                                                       const sqleq::workload::SchemaTemplate& tmpl);

/// Ordered metric values for the final JSON line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The traced run: per-layer metrics for `shape` (every metric the
/// benchmark declares, n/a rows as 0).
sqleq::Result<std::vector<Metric>> RunTraced(const WorkloadShape& shape,
                                             const Corpus& corpus,
                                             const DaemonConfig& config,
                                             const std::string& scratch_dir,
                                             uint64_t seed, size_t* attempted,
                                             size_t* failed, bool* correct);

// ---- small numeric helpers ----
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double ProcessCpuSeconds();
/// A size field of /proc/self/status ("VmRSS", "VmHWM"), in MB.
double ProcStatusMb(const std::string& field);
/// Resets the process's VmHWM to its current resident size.
bool ResetPeakRss();

}  // namespace sqleqd_bench

#endif  // SQLEQD_BENCH_BENCH_H_
