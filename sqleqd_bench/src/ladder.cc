// The traced run: the workload on one daemon with a span around every
// other call (the tracing overhead is the traced calls' latency median
// minus the untraced calls'), exact counts folded from every response and
// from `stats`, then a latency ladder that sends a sample of the same
// inputs to each layer's public entry point, from ChasePlan::Run up to a
// 3-shard FleetClient call.
// A layer's cost is a subtraction between rungs, taken per request id.
#include <chrono>
#include <fstream>
#include <set>

#include "bench.h"
#include "chase/chase_plan.h"
#include "equivalence/engine.h"
#include "ir/parser.h"
#include "reformulation/candb.h"
#include "service/connection.h"
#include "service/protocol.h"
#include "util/socket.h"

namespace sqleqd_bench {

using sqleq::JsonValue;
using sqleq::Result;
using sqleq::Status;
namespace service = sqleq::service;

namespace {

/// Items the ladder times: the whole check_hot working set or reformulate
/// pool, the first items of the check_cold sequence.
constexpr size_t kLadderSample = 240;

double AsNumber(const JsonValue* v) { return v != nullptr && v->is_number() ? v->number : 0; }

/// Mean of a Prometheus histogram over the interval between two snapshots.
double HistogramMeanDelta(const StatsView& before, const StatsView& after,
                          const std::string& name) {
  double count = after.Value(name + "_count") - before.Value(name + "_count");
  double sum = after.Value(name + "_sum") - before.Value(name + "_sum");
  return count > 0 ? sum / count : 0;
}

/// Median over request ids present in both maps of (minuend − subtrahend).
double MedianDifference(const std::map<int64_t, double>& minuend,
                        const std::map<int64_t, double>& subtrahend) {
  std::vector<double> diffs;
  for (const auto& [id, value] : minuend) {
    auto it = subtrahend.find(id);
    if (it != subtrahend.end()) diffs.push_back(value - it->second);
  }
  return Median(std::move(diffs));
}

std::vector<double> Values(const std::map<int64_t, double>& m) {
  std::vector<double> out;
  for (const auto& [id, v] : m) out.push_back(v);
  return out;
}

/// Loopback shard topology with ports from ephemeral-bind probes.
Result<std::vector<service::ShardId>> ProbeTopology(size_t n) {
  std::vector<service::ShardId> topology;
  for (size_t i = 0; i < n; ++i) {
    sqleq::TcpListener probe;
    SQLEQ_RETURN_IF_ERROR(probe.Listen(0));
    topology.push_back({"shard" + std::to_string(i), "127.0.0.1", probe.port()});
  }
  return topology;
}

/// Sends every catalog line and `warm` passes of the sample through `call`.
template <typename Call>
Status Prepare(const Corpus& corpus, const std::vector<size_t>& sample, size_t warm,
               Call call) {
  for (const std::string& line : CatalogLines(corpus.tmpl)) {
    SQLEQ_ASSIGN_OR_RETURN(JsonValue r, call(line));
    if (!service::OptionalBool(r, "ok", false)) {
      return Status::Internal("catalog upload refused: " + line);
    }
  }
  for (size_t pass = 0; pass < warm; ++pass) {
    for (size_t i : sample) SQLEQ_RETURN_IF_ERROR(call(corpus.lines[i]).status());
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<Metric>> RunTraced(const WorkloadShape& shape, const Corpus& corpus,
                                      const DaemonConfig& config,
                                      const std::string& scratch_dir, uint64_t seed,
                                      size_t* attempted, size_t* failed, bool* correct) {
  const bool reformulate = shape.kind == WorkloadKind::kReformulate;
  SpanLog log;

  // ---- The workload, every other call traced. ----
  SQLEQ_ASSIGN_OR_RETURN(std::unique_ptr<Daemon> daemon,
                         SetUpDaemon(shape, corpus, config, scratch_dir, 0));
  SQLEQ_ASSIGN_OR_RETURN(StatsView before, ReadStats(*daemon->client));
  LoadResult load = RunLoad(shape, corpus, *daemon, &log, true);
  SQLEQ_ASSIGN_OR_RETURN(StatsView after, ReadStats(*daemon->client));
  daemon.reset();
  *attempted += load.attempted;
  *failed += load.failed;
  if (load.wrong > 0) *correct = false;
  if (reformulate) {
    size_t checked = 0;
    size_t databases = 0;
    std::string why;
    if (ValidateReformulations(corpus, load, &checked, &databases, &why) > 0) {
      *correct = false;
    }
  }

  // Exact counts from every response's metrics object.
  double steps = 0, memo_hits = 0, memo_misses = 0, counters = 0, bytes = 0;
  double candidates = 0, accepted = 0, bc_hits = 0, bc_misses = 0;
  std::map<size_t, std::string> response_of;  // first response line per item
  for (size_t r = 0; r < load.responses.size(); ++r) {
    const std::string& raw = load.responses[r];
    bytes += static_cast<double>(raw.size());
    response_of.emplace(corpus.sequence[r], raw);
    Result<JsonValue> body = sqleq::ParseJson(raw);
    if (!body.ok()) continue;
    if (const JsonValue* m = body->Find("metrics"); m != nullptr && m->is_object()) {
      counters += static_cast<double>(m->object.size());
      steps += AsNumber(m->Find("chase.steps"));
      memo_hits += AsNumber(m->Find("memo.hits"));
      memo_misses += AsNumber(m->Find("memo.misses"));
      accepted += AsNumber(m->Find("backchase.accepted"));
    }
    candidates += AsNumber(body->Find("candidates"));
    bc_hits += AsNumber(body->Find("cache_hits"));
    bc_misses += AsNumber(body->Find("cache_misses"));
  }
  const double n = static_cast<double>(load.responses.size());

  // ---- The ladder. ----
  std::vector<size_t> sample;
  {
    std::set<size_t> distinct;
    for (size_t item : corpus.sequence) {
      if (distinct.size() == kLadderSample) break;
      if (distinct.insert(item).second) sample.push_back(item);
    }
  }
  const sqleq::DependencySet& sigma = corpus.tmpl.catalog.sigma;
  const sqleq::Schema& schema = corpus.tmpl.catalog.schema;

  // ir: parse both queries of each request.
  {
    SpanLog::Scope pass(&log, "ladder.ir", -1);
    for (size_t i : sample) {
      SpanLog::Scope span(&log, "ir.parse", static_cast<int64_t>(i), pass.index());
      SQLEQ_RETURN_IF_ERROR(sqleq::ParseQuery(corpus.items[i].q1_text).status());
      SQLEQ_RETURN_IF_ERROR(sqleq::ParseQuery(corpus.items[i].q2_text).status());
    }
  }

  // analysis + chase: one plan per semantics, built before timing.
  std::map<Semantics, std::unique_ptr<sqleq::ChasePlan>> plans;
  for (size_t i : sample) {
    Semantics s = corpus.items[i].semantics;
    if (plans.count(s) == 0) plans[s] = std::make_unique<sqleq::ChasePlan>(sigma, s, schema);
  }
  std::vector<double> slice_first_us;
  {
    SpanLog::Scope pass(&log, "ladder.analysis", -1);
    std::set<const void*> seen;
    for (size_t i : sample) {
      const sqleq::ChasePlan& plan = *plans[corpus.items[i].semantics];
      for (const ConjunctiveQuery* q : {&corpus.items[i].q1, &corpus.items[i].q2}) {
        const auto start = std::chrono::steady_clock::now();
        const sqleq::SigmaSlice* slice = nullptr;
        {
          SpanLog::Scope span(&log, "analysis.slice", static_cast<int64_t>(i), pass.index());
          slice = &plan.SliceFor(*q);
        }
        const double us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        // Slices are cached per body shape at a stable address: a new
        // address is a first-seen shape.
        if (seen.insert(slice).second) slice_first_us.push_back(us);
      }
    }
  }
  std::vector<double> chase_us;
  sqleq::MetricsRegistry chase_metrics;
  {
    SpanLog::Scope pass(&log, "ladder.chase", -1);
    sqleq::ChaseRuntime runtime;
    runtime.metrics = &chase_metrics;
    for (size_t i : sample) {
      const sqleq::ChasePlan& plan = *plans[corpus.items[i].semantics];
      for (const ConjunctiveQuery* q : {&corpus.items[i].q1, &corpus.items[i].q2}) {
        const auto start = std::chrono::steady_clock::now();
        {
          SpanLog::Scope span(&log, "chase.run", static_cast<int64_t>(i), pass.index());
          SQLEQ_RETURN_IF_ERROR(plan.Run(*q, runtime).status());
        }
        chase_us.push_back(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - start)
                               .count());
      }
    }
  }
  const double ladder_steps =
      static_cast<double>(chase_metrics.counter(sqleq::metric::kChaseSteps).value());

  // equivalence: never-seen pairs on a fresh engine, then the same calls
  // with both chases memo-resident. Verdicts are checked here too.
  {
    sqleq::EquivalenceEngine engine;
    for (const char* rung : {"equivalence.miss", "equivalence.hit"}) {
      SpanLog::Scope pass(&log, "ladder.equivalence", -1);
      for (size_t i : sample) {
        const Item& item = corpus.items[i];
        sqleq::EquivRequest request(item.semantics, sigma, schema);
        Result<sqleq::EquivVerdict> v = [&] {
          SpanLog::Scope span(&log, rung, static_cast<int64_t>(i), pass.index());
          return engine.Equivalent(item.q1, item.q2, request);
        }();
        SQLEQ_RETURN_IF_ERROR(v.status());
        if (v->verdict == sqleq::Verdict::kUnknown ||
            v->equivalent != item.expect_equivalent) {
          *correct = false;
        }
      }
    }
  }

  // reformulation: C&B per query, in process.
  if (reformulate) {
    SpanLog::Scope pass(&log, "ladder.reformulation", -1);
    for (size_t i : sample) {
      SpanLog::Scope span(&log, "reformulation.candb", static_cast<int64_t>(i),
                          pass.index());
      SQLEQ_RETURN_IF_ERROR(
          sqleq::ChaseAndBackchase(corpus.items[i].q1, sigma, Semantics::kSet, schema)
              .status());
    }
  }

  // service protocol: encode + parse each request line, decode its response.
  {
    SpanLog::Scope pass(&log, "ladder.codec", -1);
    for (size_t i : sample) {
      auto it = response_of.find(i);
      if (it == response_of.end()) continue;
      SpanLog::Scope span(&log, "service.codec", static_cast<int64_t>(i), pass.index());
      std::string line = EncodeItem(shape.kind, corpus.items[i]);
      SQLEQ_RETURN_IF_ERROR(service::ParseRequest(line).status());
      SQLEQ_RETURN_IF_ERROR(service::DecodeResponse(it->second).status());
    }
  }

  // service: one Connection to one Server, memo warmed with the sample
  // (check workloads), then the FleetClient over the same server.
  const size_t warm_passes = reformulate ? 0 : 1;
  {
    service::Server server(ToServerOptions(config));
    SQLEQ_RETURN_IF_ERROR(server.Start());
    {
      SQLEQ_ASSIGN_OR_RETURN(service::Connection conn,
                             service::Connection::Connect("127.0.0.1", server.port()));
      SQLEQ_RETURN_IF_ERROR(Prepare(corpus, sample, warm_passes,
                                    [&](const std::string& l) { return conn.Call(l); }));
      SpanLog::Scope pass(&log, "ladder.service", -1);
      for (size_t i : sample) {
        SpanLog::Scope span(&log, "service.call", static_cast<int64_t>(i), pass.index());
        SQLEQ_RETURN_IF_ERROR(conn.Call(corpus.lines[i]).status());
      }
    }
    service::FleetClientOptions client_options;
    client_options.shards = {{"shard0", "127.0.0.1", server.port()}};
    SQLEQ_ASSIGN_OR_RETURN(std::unique_ptr<service::FleetClient> client,
                           service::FleetClient::Create(client_options));
    SQLEQ_RETURN_IF_ERROR(Prepare(corpus, sample, 0,
                                  [&](const std::string& l) { return client->Call(l); }));
    {
      SpanLog::Scope pass(&log, "ladder.fleet1", -1);
      for (size_t i : sample) {
        SpanLog::Scope span(&log, "fleet.call1", static_cast<int64_t>(i), pass.index());
        SQLEQ_RETURN_IF_ERROR(client->Call(corpus.lines[i]).status());
      }
    }
    client->Close();
    server.Stop();
  }

  // fleet: three in-process shards, hot memo, one sequential client.
  double redirects_per_req = 0;
  {
    SQLEQ_ASSIGN_OR_RETURN(std::vector<service::ShardId> topology, ProbeTopology(3));
    std::vector<std::unique_ptr<service::Server>> shards;
    for (const service::ShardId& id : topology) {
      service::ServerOptions options = ToServerOptions(config);
      options.fleet = topology;
      options.shard_name = id.name;
      shards.push_back(std::make_unique<service::Server>(options));
      SQLEQ_RETURN_IF_ERROR(shards.back()->Start());
    }
    service::FleetClientOptions client_options;
    client_options.shards = topology;
    SQLEQ_ASSIGN_OR_RETURN(std::unique_ptr<service::FleetClient> client,
                           service::FleetClient::Create(client_options));
    SQLEQ_RETURN_IF_ERROR(Prepare(corpus, sample, warm_passes,
                                  [&](const std::string& l) { return client->Call(l); }));
    const uint64_t redirects_before = client->stats().redirects_followed;
    {
      SpanLog::Scope pass(&log, "ladder.fleet3", -1);
      for (size_t i : sample) {
        SpanLog::Scope span(&log, "fleet.call3", static_cast<int64_t>(i), pass.index());
        SQLEQ_RETURN_IF_ERROR(client->Call(corpus.lines[i]).status());
      }
    }
    redirects_per_req =
        static_cast<double>(client->stats().redirects_followed - redirects_before) /
        static_cast<double>(sample.size());
    client->Close();
    for (auto& s : shards) s->Stop();
  }

  // Every span as Chrome trace_event JSON, and the span table with parents
  // and request ids beside it.
  {
    const std::string stem =
        scratch_dir + "/../trace-" + shape.name + "-" + std::to_string(seed);
    std::ofstream(stem + ".json") << log.sink().ToChromeTraceJson();
    std::ofstream(stem + "-spans.json") << log.ToJson();
  }

  // ---- Per-layer metrics. ----
  const std::map<int64_t, double> call = log.DurationsUs("service.call");
  const std::map<int64_t, double> engine_side =
      log.DurationsUs(reformulate ? "reformulation.candb" : "equivalence.hit");
  const std::vector<double> candb = Values(log.DurationsUs("reformulation.candb"));
  std::vector<double> latency_by_parity[2];
  for (size_t r = 0; r < load.latency_us.size(); ++r) {
    latency_by_parity[r % 2].push_back(load.latency_us[r]);
  }
  double chase_total = 0;
  for (double us : chase_us) chase_total += us;

  std::vector<Metric> m = {
      {"ir.parse_us", Median(Values(log.DurationsUs("ir.parse"))), "us"},
      {"analysis.slice_us", Median(slice_first_us), "us"},
      {"chase.run_us", Median(chase_us), "us"},
      {"chase.steps_per_req", steps / n, "count"},
      {"chase.us_per_step", ladder_steps > 0 ? chase_total / ladder_steps : 0, "us"},
      {"memo.hit_ratio", memo_hits + memo_misses > 0 ? memo_hits / (memo_hits + memo_misses) : 0,
       "ratio"},
      {"memo.evictions_per_req",
       (after.Value("sqleq_memo_evictions") - before.Value("sqleq_memo_evictions")) / n,
       "count"},
      {"memo.disk.writes_per_req", (after.disk_writes - before.disk_writes) / n, "count"},
      {"equivalence.hit_us", Median(Values(log.DurationsUs("equivalence.hit"))), "us"},
      {"equivalence.miss_us", Median(Values(log.DurationsUs("equivalence.miss"))), "us"},
      {"reformulation.candb_us.p50", reformulate ? Percentile(candb, 0.5) : 0, "us"},
      {"reformulation.candb_us.p99", reformulate ? Percentile(candb, 0.99) : 0, "us"},
      {"backchase.candidates_per_req", candidates / n, "count"},
      {"backchase.accept_ratio", candidates > 0 ? accepted / candidates : 0, "ratio"},
      {"backchase.memo_hit_ratio", bc_hits + bc_misses > 0 ? bc_hits / (bc_hits + bc_misses) : 0,
       "ratio"},
      {"service.codec_us", Median(Values(log.DurationsUs("service.codec"))), "us"},
      {"service.response_bytes", bytes / n, "bytes"},
      {"service.call_us", Median(Values(call)), "us"},
      {"service.overhead_us", MedianDifference(call, engine_side), "us"},
      {"service.queue_wait_us", HistogramMeanDelta(before, after, "sqleq_pool_queue_wait_us"),
       "us"},
      {"service.server_request_us",
       HistogramMeanDelta(before, after, "sqleq_service_request_us"), "us"},
      {"fleet.client_overhead_us", MedianDifference(log.DurationsUs("fleet.call1"), call), "us"},
      {"fleet.shard3_call_us", Median(Values(log.DurationsUs("fleet.call3"))), "us"},
      {"fleet.redirects_per_req", redirects_per_req, "count"},
      {"telemetry.counters_per_resp", counters / n, "count"},
      {"tracing.overhead_us", Median(latency_by_parity[1]) - Median(latency_by_parity[0]),
       "us"},
  };
  return m;
}

}  // namespace sqleqd_bench
