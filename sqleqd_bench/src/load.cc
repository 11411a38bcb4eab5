// The daemon under test, the closed-loop load that drives it, and the
// answer checks applied to every response.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "ir/parser.h"
#include "service/protocol.h"

namespace sqleqd_bench {

using sqleq::JsonValue;
using sqleq::Result;
using sqleq::Status;
namespace service = sqleq::service;

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace

// ---- numeric helpers ----

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Nearest-rank: the smallest sample with at least p of the samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double ProcStatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;  // kB
    }
  }
  return 0;
}

bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

// ---- spans ----

SpanLog::SpanLog() = default;

SpanLog::Scope::Scope(SpanLog* log, const char* name, int64_t request, int64_t parent)
    : log_(log) {
  if (log_ != nullptr) index_ = log_->Open(name, request, parent);
}

SpanLog::Scope::~Scope() {
  if (log_ != nullptr) log_->Close(index_);
}

int64_t SpanLog::Open(const char* name, int64_t request, int64_t parent) {
  sink_.Begin(name);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, NowNs(), 0, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::Close(int64_t index) {
  const char* name = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    name = spans_[static_cast<size_t>(index)].name;
  }
  sink_.End(name);
}

std::map<int64_t, double> SpanLog::DurationsUs(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int64_t, double> out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) {
      out[s.request] = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  return out;
}

std::string SpanLog::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += (i > 0 ? ",\n" : "") + std::string("{\"name\":\"") + s.name +
           "\",\"start_us\":" + std::to_string((s.start_ns - origin) / 1000) +
           ",\"end_us\":" + std::to_string((s.end_ns - origin) / 1000) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"request\":" + std::to_string(s.request) + "}";
  }
  return out + "]\n";
}

// ---- daemon ----

Daemon::~Daemon() {
  if (client != nullptr) client->Close();
  if (server != nullptr) server->Stop();
  client.reset();
  server.reset();
  if (!memo_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(memo_dir, ec);
  }
}

std::vector<std::string> CatalogLines(const sqleq::workload::SchemaTemplate& tmpl) {
  std::vector<std::string> lines;
  for (const sqleq::RelationInfo& info : tmpl.catalog.schema.Relations()) {
    service::RequestSpec spec("relation");
    spec.Str("name", info.name)
        .Int("arity", info.arity)
        .Bool("set_valued", info.set_valued);
    lines.push_back(service::EncodeRequest(spec).value());
  }
  for (const sqleq::Dependency& dep : tmpl.catalog.sigma) {
    service::RequestSpec spec("dep");
    spec.Str("text", dep.IsTgd() ? dep.tgd().ToString() : dep.egd().ToString())
        .Str("label", dep.label());
    lines.push_back(service::EncodeRequest(spec).value());
  }
  return lines;
}

namespace {

/// Judges one response against its item's known answer. Returns "" for a
/// settled, correct answer; otherwise sets *failed (operation failed) or
/// *wrong (a wrong verdict) and describes why.
std::string Judge(WorkloadKind kind, const Item& item, const Result<JsonValue>& response,
                  bool* failed, bool* wrong) {
  if (!response.ok()) {
    *failed = true;
    return "transport: " + response.status().ToString();
  }
  const JsonValue& body = *response;
  if (service::OptionalBool(body, "overloaded", false)) {
    *failed = true;
    return "overloaded";
  }
  if (!service::OptionalBool(body, "ok", false)) {
    *failed = true;
    return "ok:false " + service::OptionalString(body, "error").value_or("");
  }
  if (kind == WorkloadKind::kReformulate) {
    if (!service::OptionalBool(body, "complete", false)) {
      *failed = true;
      return "complete:false";
    }
    const JsonValue* list = body.Find("reformulations");
    if (list == nullptr || !list->is_array() || list->array.empty()) {
      *wrong = true;
      return "no reformulation returned";
    }
    return "";
  }
  std::string verdict = service::OptionalString(body, "verdict").value_or("");
  if (verdict == "unknown") {
    *failed = true;
    return "verdict unknown";
  }
  const bool equivalent = verdict == "equivalent";
  if (verdict != "equivalent" && verdict != "not-equivalent") {
    *wrong = true;
    return "bad verdict \"" + verdict + "\"";
  }
  if (equivalent != item.expect_equivalent) {
    *wrong = true;
    return "wrong verdict " + verdict + " under " + service::SemanticsWireName(item.semantics) +
           " for " + item.q1_text + " vs " + item.q2_text;
  }
  return "";
}

}  // namespace

service::ServerOptions ToServerOptions(const DaemonConfig& config) {
  service::ServerOptions options;
  options.worker_threads = config.worker_threads;
  options.max_inflight = config.max_inflight;
  options.memo_byte_limit = config.memo_byte_limit;
  options.memo_fsync = config.memo_fsync;
  return options;
}

Result<std::unique_ptr<Daemon>> SetUpDaemon(const WorkloadShape& shape,
                                            const Corpus& corpus,
                                            const DaemonConfig& config,
                                            const std::string& scratch_dir, size_t tag) {
  auto daemon = std::make_unique<Daemon>();
  daemon->memo_dir = scratch_dir + "/memo-" + std::to_string(tag);
  std::error_code ec;
  std::filesystem::remove_all(daemon->memo_dir, ec);

  service::ServerOptions options = ToServerOptions(config);
  options.memo_dir = daemon->memo_dir;
  daemon->server = std::make_unique<service::Server>(options);
  SQLEQ_RETURN_IF_ERROR(daemon->server->Start());

  service::FleetClientOptions client_options;
  client_options.shards = {{"shard0", "127.0.0.1", daemon->server->port()}};
  client_options.pool_size_per_shard = std::max<size_t>(2, shape.clients);
  SQLEQ_ASSIGN_OR_RETURN(daemon->client, service::FleetClient::Create(client_options));
  for (const std::string& line : CatalogLines(corpus.tmpl)) {
    SQLEQ_ASSIGN_OR_RETURN(JsonValue r, daemon->client->Call(line));
    if (!service::OptionalBool(r, "ok", false)) {
      return Status::Internal("catalog upload refused: " + line);
    }
  }
  if (shape.kind != WorkloadKind::kCheckHot) return daemon;

  // Warming pass: every working-set item once, from the same client
  // threads the timed loop uses, so every timed request is a memo hit.
  std::atomic<size_t> next{0};
  std::mutex mu;
  Status status = Status::OK();
  auto worker = [&] {
    for (size_t i = next++; i < corpus.items.size(); i = next++) {
      Result<JsonValue> r = daemon->client->Call(corpus.lines[i]);
      bool failed = false;
      bool wrong = false;
      std::string why = Judge(shape.kind, corpus.items[i], r, &failed, &wrong);
      std::lock_guard<std::mutex> lock(mu);
      if (!why.empty() && status.ok()) status = Status::Internal("warm-up: " + why);
      if (r.ok()) {
        if (const JsonValue* m = r->Find("metrics"); m != nullptr && m->is_object()) {
          if (const JsonValue* b = m->Find("memo.bytes"); b != nullptr && b->is_number()) {
            daemon->warm_bytes[service::SemanticsWireName(corpus.items[i].semantics)] +=
                static_cast<uint64_t>(b->number);
          }
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < shape.clients; ++c) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  SQLEQ_RETURN_IF_ERROR(status);
  return daemon;
}

LoadResult RunLoad(const WorkloadShape& shape, const Corpus& corpus, Daemon& daemon,
                   SpanLog* spans, bool keep_responses) {
  const size_t n = corpus.sequence.size();
  LoadResult out;
  out.attempted = n;
  out.latency_us.assign(n, 0);
  if (keep_responses) out.responses.assign(n, "");
  std::atomic<size_t> next{0};
  std::atomic<size_t> failed{0};
  std::atomic<size_t> wrong{0};
  std::mutex error_mu;
  SpanLog::Scope pass(spans, "load.pass", -1);

  auto worker = [&](size_t end) {
    for (size_t r = next++; r < end; r = next++) {
      const size_t item = corpus.sequence[r];
      std::string raw;
      const auto start = std::chrono::steady_clock::now();
      Result<JsonValue> response = [&] {
        SpanLog::Scope span(r % 2 == 1 ? spans : nullptr, "load.fleet_call", static_cast<int64_t>(r), pass.index());
        return daemon.client->Call(corpus.lines[item], &raw);
      }();
      out.latency_us[r] = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      bool is_failed = false;
      bool is_wrong = false;
      std::string why =
          Judge(shape.kind, corpus.items[item], response, &is_failed, &is_wrong);
      if (is_failed) ++failed;
      if (is_wrong) ++wrong;
      if (!why.empty()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (out.first_error.empty()) out.first_error = why;
      }
      if (keep_responses) out.responses[r] = std::move(raw);
    }
  };

  // Consecutive segments of the sequence, each timed on its own (the
  // clients join between segments).
  const size_t segments = std::max<size_t>(1, std::min(kMaxSegments, n / kMinSegmentRequests));
  for (size_t k = 0; k < segments; ++k) {
    Segment seg;
    seg.begin = n * k / segments;
    seg.end = n * (k + 1) / segments;
    next = seg.begin;
    const size_t failed_before = failed;
    const double cpu_start = ProcessCpuSeconds();
    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < shape.clients; ++c) threads.emplace_back(worker, seg.end);
    for (std::thread& t : threads) t.join();
    seg.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    seg.cpu_s = ProcessCpuSeconds() - cpu_start;
    seg.failed = failed - failed_before;
    out.segments.push_back(seg);
  }
  out.failed = failed;
  out.wrong = wrong;
  return out;
}

double StatsView::Value(const std::string& name) const {
  auto it = prometheus.find(name);
  return it == prometheus.end() ? 0.0 : it->second;
}

Result<StatsView> ReadStats(service::FleetClient& client) {
  SQLEQ_ASSIGN_OR_RETURN(JsonValue stats, client.Call(R"({"cmd":"stats"})"));
  StatsView view;
  std::istringstream text(service::OptionalString(stats, "prometheus").value_or(""));
  std::string line;
  while (std::getline(text, line)) {
    // Plain samples only: skip comments and bucket lines.
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) continue;
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    view.prometheus[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  if (const JsonValue* disk = stats.Find("disk"); disk != nullptr) {
    if (const JsonValue* writes = disk->Find("writes"); writes != nullptr && writes->is_number()) {
      view.disk_writes = writes->number;
    }
  }
  return view;
}

size_t ValidateReformulations(const Corpus& corpus, const LoadResult& load,
                              size_t* checked, size_t* databases,
                              std::string* first_error) {
  // One validation per distinct (item, reformulation): repeats of an item
  // must return the same reformulations, which is checked too.
  std::map<size_t, std::string> seen;
  size_t invalid = 0;
  *checked = 0;
  *databases = 0;
  const sqleq::ChasePlan plan(corpus.tmpl.catalog.sigma, Semantics::kSet,
                              corpus.tmpl.catalog.schema);
  auto fail = [&](const std::string& why) {
    ++invalid;
    if (first_error->empty()) *first_error = why;
  };
  for (size_t r = 0; r < load.responses.size(); ++r) {
    const size_t index = corpus.sequence[r];
    Result<JsonValue> body = sqleq::ParseJson(load.responses[r]);
    if (!body.ok()) continue;  // already counted as a failed operation
    const JsonValue* list = body->Find("reformulations");
    if (list == nullptr || !list->is_array()) continue;
    std::string rendered;
    for (const JsonValue& v : list->array) rendered += v.string + "\n";
    auto [it, inserted] = seen.emplace(index, rendered);
    if (!inserted) {
      if (it->second != rendered) fail("reformulations differ between repeats of one query");
      continue;
    }
    const Item& item = corpus.items[index];
    std::vector<ConjunctiveQuery> reformulations;
    for (const JsonValue& v : list->array) {
      Result<ConjunctiveQuery> q = sqleq::ParseQuery(v.string);
      if (!q.ok()) {
        fail("unparsable reformulation " + v.string);
        continue;
      }
      reformulations.push_back(*std::move(q));
    }
    // The chased canonical databases of the input, its base and every
    // reformulation: a reformulation not Σ-equivalent to its input differs
    // from it on the input's database or on its own.
    std::vector<const ConjunctiveQuery*> sources = {&item.q1, &item.q2};
    for (const ConjunctiveQuery& q : reformulations) sources.push_back(&q);
    std::vector<sqleq::Database> dbs;
    for (const ConjunctiveQuery* source : sources) {
      std::optional<sqleq::Database> db = ChasedCanonicalDatabase(*source, plan, corpus.tmpl);
      if (!db.has_value()) break;
      dbs.push_back(*std::move(db));
    }
    if (dbs.size() < sources.size()) {
      fail("no Σ-satisfying chased canonical database for a query of " + item.q1_text);
      continue;
    }
    *databases += dbs.size();
    for (const ConjunctiveQuery& q : reformulations) {
      ++*checked;
      if (q.size() > item.q1.size()) {
        fail("reformulation has more atoms than its input: " + q.ToString());
        continue;
      }
      for (const sqleq::Database& db : dbs) {
        Result<sqleq::Bag> expected = sqleq::Evaluate(item.q1, db, Semantics::kSet);
        Result<sqleq::Bag> got = sqleq::Evaluate(q, db, Semantics::kSet);
        if (!expected.ok() || !got.ok() || !(*expected == *got)) {
          fail("reformulation " + q.ToString() + " differs from " + item.q1_text);
          break;
        }
      }
    }
  }
  return invalid;
}

}  // namespace sqleqd_bench
