// servebench: closed-loop serving benchmark over real sockets.
//
// Loads the synthetic `events` table the way tools/hsdb_server.cc does,
// starts an in-process SocketServer on loopback and drives it with
// kClients closed-loop line-protocol clients, one connection each. Every
// reply is checked; a wrong answer names the request and fails the run.
//
//   servebench --workload oltp_point|olap_scan|hybrid_advise --seed N
//              --seconds S [--trace 0|1] [--trace-dir DIR]
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
// additionally serves one traced window (a client.roundtrip span per
// request), then replays the traced request lines on one thread through
// the layers' public functions (ParseRequest, Database::Execute or
// BatchExecutor::ExecuteBatch, FormatResponse, Database::PredictCost),
// and derives the per-layer metrics from those spans and the metrics
// registry. The spans are written to DIR as JSON lines when the run ends.
//
// Human-readable lines go to stdout first; the last line is one JSON
// object {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}} holding every metric the mode computed.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "catalog/catalog.h"
#include "common/epoch.h"
#include "core/advisor.h"
#include "executor/batch_executor.h"
#include "executor/database.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "stats.h"
#include "storage/compression/simd/dispatch.h"
#include "workload.h"
#include "workload/recorder.h"
#include "workload/synthetic.h"

namespace servebench {
namespace {

using hsdb::Database;
using hsdb::Query;
using hsdb::QueryResult;

/// Set-ups per run; setup_s and the set-up layer times are their medians.
/// All but the last run in child processes (SetUpInChild).
constexpr int kSetupRepeats = 5;
/// The expected workload hybrid_advise hands to RecommendOffline: this many
/// requests of the hybrid mix, drawn under a fixed seed rather than --seed.
/// Shorter streams, or streams drawn under each run's seed, let the few
/// grouped sums in them tip the decision; with a fixed stream every run
/// applies the same recommendation.
constexpr size_t kAdviseStreamLength = 4000;
constexpr uint64_t kAdviseSeed = 0;
/// Shareable reads the replay runs per ExecuteBatch call.
constexpr size_t kReplayBatchWidth = 4;
/// Upper bound on replayed requests per traced run.
constexpr size_t kReplayCap = 20'000;
/// Longest traced window; the per-layer means need far fewer requests than
/// the end-to-end percentiles, and every traced request becomes spans.
constexpr double kMaxTracedSeconds = 3.0;
/// Ids the replay inserts under, far above anything the clients insert.
constexpr int64_t kReplayInsertBase = 100'000'000;

const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

[[noreturn]] void Fail(const std::string& message) {
  std::fflush(stdout);
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  std::exit(1);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 0.5);
}

// --- Spans -----------------------------------------------------------------

/// In-memory span store of the single-threaded parts of a run (set-up,
/// advise/apply, replay). Client threads keep their own and are merged in.
class SpanLog {
 public:
  uint64_t Open(const std::string& name, uint64_t parent = 0,
                uint64_t request = 0) {
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  /// Closes the span and returns its duration in seconds.
  double Close(uint64_t id) {
    Span& s = spans_[id - 1];
    s.end_ns = NowNs();
    return Seconds(s.end_ns - s.start_ns);
  }
  uint64_t Add(Span s) {
    s.id = spans_.size() + 1;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  /// Hangs an engine trace tree under `parent`, its root aligned with the
  /// parent's start.
  void AddTrace(const hsdb::telemetry::TraceSpan& node, uint64_t parent,
                uint64_t request, int64_t root_start_ns) {
    Span s;
    s.parent = parent;
    s.request = request;
    s.name = node.name;
    s.start_ns = root_start_ns + static_cast<int64_t>(node.start_ms * 1e6);
    s.end_ns = s.start_ns + static_cast<int64_t>(node.elapsed_ms * 1e6);
    const uint64_t id = Add(std::move(s));
    for (const auto& child : node.children) {
      AddTrace(child, id, request, root_start_ns);
    }
  }
  const Span& at(uint64_t id) const { return spans_[id - 1]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// --- Host context ----------------------------------------------------------

struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return t;
  for (int i = 0; i < 8; ++i) {  // user nice system idle iowait irq softirq steal
    uint64_t v = 0;
    in >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTimes& a, const CpuTimes& b) {
  const uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// --- The served system -----------------------------------------------------

/// One loaded database behind a running server with connected clients.
/// Members are destroyed in reverse order: clients, server, advisor,
/// recorder, then the database they all point into.
struct System {
  std::unique_ptr<Database> db;
  std::unique_ptr<hsdb::WorkloadRecorder> recorder;
  std::unique_ptr<hsdb::StorageAdvisor> advisor;
  std::unique_ptr<hsdb::server::SocketServer> server;
  std::vector<std::unique_ptr<hsdb::server::Client>> clients;
  double setup_s = 0.0;
  double load_s = 0.0;
  double statistics_s = 0.0;
};

/// Load, statistics, observer, (advisor,) server start and client connects:
/// everything up to the first request, as hsdb_server wires it.
std::unique_ptr<System> SetUp(Workload workload, SpanLog* log) {
  const uint64_t setup_span = log->Open("bench.setup");
  auto sys = std::make_unique<System>();
  Database::Options options;
  options.num_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  sys->db = std::make_unique<Database>(options);
  const hsdb::SyntheticTableSpec spec = EventsSpec();
  const hsdb::StoreType store = workload == Workload::kOltpPoint
                                    ? hsdb::StoreType::kRow
                                    : hsdb::StoreType::kColumn;
  if (!sys->db->CreateTable(spec.name, spec.MakeSchema(),
                            hsdb::TableLayout::SingleStore(store))
           .ok()) {
    Fail("CreateTable failed");
  }
  const uint64_t load_span = log->Open("storage.load", setup_span);
  hsdb::Status loaded = hsdb::PopulateSynthetic(
      sys->db->catalog().GetTable(spec.name), spec, kLoadedRows);
  sys->load_s = log->Close(load_span);
  if (!loaded.ok()) Fail("PopulateSynthetic: " + loaded.ToString());
  const uint64_t stats_span = log->Open("catalog.statistics", setup_span);
  sys->db->catalog().UpdateAllStatistics();
  sys->statistics_s = log->Close(stats_span);

  sys->recorder = std::make_unique<hsdb::WorkloadRecorder>(&sys->db->catalog());
  sys->db->set_observer(sys->recorder.get());
  if (workload == Workload::kHybridAdvise) {
    // Installs the per-query cost predictor; default parameters (no
    // calibration probes) keep the decision identical on every run.
    sys->advisor = std::make_unique<hsdb::StorageAdvisor>(sys->db.get());
    sys->advisor->SetCostModelParams(hsdb::CostModelParams::Default());
  }
  sys->server = std::make_unique<hsdb::server::SocketServer>(
      sys->db.get(), hsdb::server::SocketServer::Options{});
  hsdb::Status started = sys->server->Start();
  if (!started.ok()) Fail("server start: " + started.ToString());
  for (int c = 0; c < kClients; ++c) {
    auto client = std::make_unique<hsdb::server::Client>();
    hsdb::Status connected = client->Connect("127.0.0.1", sys->server->port());
    if (!connected.ok()) Fail("connect: " + connected.ToString());
    sys->clients.push_back(std::move(client));
  }
  sys->setup_s = log->Close(setup_span);
  return sys;
}

struct SetupTimes {
  double setup_s = 0.0;
  double load_s = 0.0;
  double statistics_s = 0.0;
};

/// Runs one SetUp in a forked child and returns its timings. Call only
/// while this process is single-threaded.
SetupTimes SetUpInChild(Workload workload) {
  int fds[2];
  if (pipe(fds) != 0) Fail(std::string("pipe: ") + std::strerror(errno));
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) Fail(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    close(fds[0]);
    SpanLog log;
    std::unique_ptr<System> sys = SetUp(workload, &log);
    const SetupTimes t{sys->setup_s, sys->load_s, sys->statistics_s};
    const bool sent = write(fds[1], &t, sizeof(t)) == sizeof(t);
    _exit(sent ? 0 : 1);  // no teardown: the kernel reclaims everything
  }
  close(fds[1]);
  SetupTimes t;
  const ssize_t got = read(fds[0], &t, sizeof(t));
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || got != static_cast<ssize_t>(sizeof(t))) {
    Fail("set-up child failed");
  }
  return t;
}

hsdb::Result<hsdb::server::Request> ParseLine(Database& db,
                                              const std::string& line) {
  // Same as the server: pin the epoch for exactly the parse.
  hsdb::EpochPin pin(&db.catalog().epochs());
  hsdb::server::SchemaResolver resolver =
      [&db](const std::string& name) -> const hsdb::Schema* {
    const hsdb::LogicalTable* table = db.catalog().GetTable(name);
    return table == nullptr ? nullptr : &table->schema();
  };
  return hsdb::server::ParseRequest(line, resolver);
}

Query ParseQueryOrDie(Database& db, const std::string& line) {
  auto parsed = ParseLine(db, line);
  if (!parsed.ok() || parsed->kind != hsdb::server::Request::Kind::kQuery) {
    Fail("generated line does not parse: " + line);
  }
  return parsed->query;
}

/// Payload lines of a formatted response block (header dropped).
std::vector<std::string> PayloadLines(const std::string& block) {
  std::vector<std::string> lines;
  size_t pos = block.find('\n');
  while (pos != std::string::npos && pos + 1 < block.size()) {
    const size_t next = block.find('\n', pos + 1);
    lines.push_back(block.substr(pos + 1, next - pos - 1));
    pos = next;
  }
  return lines;
}

// --- Closed-loop clients ---------------------------------------------------

/// One completed request; kept compact because the samples live in the
/// measured process and count towards its peak RSS.
struct Sample {
  int64_t done_ns = 0;
  float latency_ms = 0.0f;
  RequestKind kind = RequestKind::kPoint;
  bool ok = false;
};

struct TracedRequest {
  Request request;
  uint64_t id = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
};

struct ClientState {
  std::vector<Sample> samples;
  std::vector<TracedRequest> traced;
  uint64_t acked_inserts = 0;
  uint64_t unknown_inserts = 0;  // insert with a transport failure
  uint64_t failed = 0;
  std::string error;
};

/// What every client thread reads: the run's switches and the oracle.
struct Shared {
  Workload workload = Workload::kOltpPoint;
  uint64_t seed = 0;
  uint16_t port = 0;
  std::atomic<bool> stop{false};
  std::atomic<bool> tracing{false};
  /// Loaded keys some client has sent an update for; a point select of
  /// such a key is only checked for shape.
  std::vector<std::atomic<uint8_t>> written =
      std::vector<std::atomic<uint8_t>>(kLoadedRows);
  /// olap_scan: precomputed payload lines per pool index.
  std::vector<std::vector<std::string>> olap_answers;
};

std::string ExpectedPointRow(const hsdb::SyntheticTableSpec& spec,
                             int64_t key) {
  const hsdb::Row row = hsdb::SyntheticRow(spec, key);
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out.push_back('\t');
    out += row[i].ToString();
  }
  return out;
}

/// Empty when the reply is right, else what was wrong.
std::string CheckReply(const Request& req, const hsdb::server::Reply& reply,
                       const Shared& shared,
                       const hsdb::SyntheticTableSpec& spec) {
  const std::vector<std::string>& got = reply.lines;
  switch (req.kind) {
    case RequestKind::kPoint: {
      if (got.size() != 1) {
        return "expected 1 row, got " + std::to_string(got.size());
      }
      const bool untouched =
          shared.written[static_cast<size_t>(req.key)].load(
              std::memory_order_acquire) == 0;
      if (untouched) {
        const std::string want = ExpectedPointRow(spec, req.key);
        if (got[0] != want) return "row '" + got[0] + "' != '" + want + "'";
      }
      return "";
    }
    case RequestKind::kUpdate:
    case RequestKind::kInsert:
      if (got.size() != 1 || got[0] != "1") {
        return "DML did not report 1 affected row";
      }
      return "";
    case RequestKind::kRangeCount:
    case RequestKind::kGroupedSum:
      if (shared.workload == Workload::kOlapScan &&
          got != shared.olap_answers[static_cast<size_t>(req.key)]) {
        return "answer differs from the serial precomputed one";
      }
      if (got.empty()) return "empty aggregate reply";
      return "";
  }
  return "";
}

void RunClient(int c, hsdb::server::Client* client, Shared* shared,
               ClientState* state) {
  const hsdb::SyntheticTableSpec spec = EventsSpec();
  Generator generator(shared->workload, shared->seed, c);
  state->samples.reserve(1 << 16);
  uint64_t seq = 0;
  while (!shared->stop.load(std::memory_order_relaxed)) {
    Request req = generator.Next();
    ++seq;
    if (req.kind == RequestKind::kUpdate) {
      shared->written[static_cast<size_t>(req.key)].store(
          1, std::memory_order_release);
    }
    const bool traced = shared->tracing.load(std::memory_order_relaxed);
    Sample sample;
    sample.kind = req.kind;
    const int64_t send_ns = NowNs();
    hsdb::Result<hsdb::server::Reply> reply = client->RoundTrip(req.line);
    sample.done_ns = NowNs();
    sample.latency_ms = static_cast<float>(sample.done_ns - send_ns) * 1e-6f;
    if (!reply.ok()) {
      ++state->failed;
      if (req.kind == RequestKind::kInsert) ++state->unknown_inserts;
      client->Close();
      if (!client->Connect("127.0.0.1", shared->port).ok()) {
        state->samples.push_back(sample);
        state->error = "cannot reconnect after '" + req.line + "'";
        shared->stop.store(true);
        break;
      }
    } else if (!reply->ok) {
      ++state->failed;
    } else {
      std::string wrong = CheckReply(req, *reply, *shared, spec);
      if (!wrong.empty()) {
        state->error = "wrong answer to '" + req.line + "': " + wrong;
        shared->stop.store(true);
        break;
      }
      sample.ok = true;
      if (req.kind == RequestKind::kInsert) ++state->acked_inserts;
    }
    state->samples.push_back(sample);
    if (traced) {
      const uint64_t id = (static_cast<uint64_t>(c) + 1) * 1'000'000'000ull + seq;
      state->traced.push_back(
          TracedRequest{std::move(req), id, send_ns, sample.done_ns});
    }
  }
}

// --- Windows ---------------------------------------------------------------

struct Window {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

struct WindowStats {
  double qps = 0.0;
  std::vector<double> latency_ms;  // ok requests, sorted
  std::vector<double> write_ms;    // ok inserts and updates, sorted
  size_t reads_shareable = 0;      // ok range counts / grouped sums
};

WindowStats Summarize(const std::vector<ClientState>& states, Window w) {
  WindowStats s;
  size_t done = 0;
  for (const ClientState& st : states) {
    for (const Sample& x : st.samples) {
      if (!x.ok || x.done_ns < w.begin_ns || x.done_ns >= w.end_ns) continue;
      ++done;
      const double ms = x.latency_ms;
      s.latency_ms.push_back(ms);
      if (IsWrite(x.kind)) s.write_ms.push_back(ms);
      if (x.kind == RequestKind::kRangeCount ||
          x.kind == RequestKind::kGroupedSum) {
        ++s.reads_shareable;
      }
    }
  }
  std::sort(s.latency_ms.begin(), s.latency_ms.end());
  std::sort(s.write_ms.begin(), s.write_ms.end());
  s.qps = static_cast<double>(done) / Seconds(w.end_ns - w.begin_ns);
  return s;
}

/// Medians over k equal sub-windows of a window, k = samples / 1000 capped
/// at 10, so every sub-window's p99 has about ten samples beyond it. A burst
/// of host load that covers less than half the window does not move them.
struct SubWindowMedians {
  int parts = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

SubWindowMedians SubWindows(const std::vector<ClientState>& states, Window w,
                            size_t samples) {
  constexpr size_t kMinSamplesPerPart = 1000;
  constexpr size_t kMaxParts = 10;
  SubWindowMedians out;
  out.parts = static_cast<int>(
      std::clamp<size_t>(samples / kMinSamplesPerPart, 1, kMaxParts));
  std::vector<double> qps, p50, p99;
  const int64_t step = (w.end_ns - w.begin_ns) / out.parts;
  for (int i = 0; i < out.parts; ++i) {
    const int64_t begin = w.begin_ns + step * i;
    const WindowStats part = Summarize(
        states, {begin, i + 1 == out.parts ? w.end_ns : begin + step});
    qps.push_back(part.qps);
    p50.push_back(Percentile(part.latency_ms, 0.5));
    p99.push_back(Percentile(part.latency_ms, 0.99));
  }
  out.qps = Median(qps);
  out.p50_ms = Median(p50);
  out.p99_ms = Median(p99);
  return out;
}

/// CPU time of this process over all its threads (server and clients).
int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double StallMs(const std::vector<ClientState>& states, Window w) {
  std::vector<int64_t> completions;
  for (const ClientState& st : states) {
    for (const Sample& x : st.samples) completions.push_back(x.done_ns);
  }
  return static_cast<double>(LongestGap(std::move(completions), w.begin_ns,
                                        w.end_ns)) *
         1e-6;
}

void Serve(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

// --- Report ----------------------------------------------------------------

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.push_back({name, value, unit});
    std::printf("  %-30s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  /// The result line. Only a run whose every reply checked out gets here,
  /// so "correct" is always true.
  std::string Json(uint64_t attempted, uint64_t failed) const {
    std::string out = "{\"correct\": true, \"attempted\": " +
                      std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

std::string SampleNote(const std::vector<double>& sorted) {
  const double q = HighestSupportedPercentile(sorted.size());
  char buf[160];
  std::snprintf(buf, sizeof(buf), "(n=%zu; highest supported p%g = %.4f ms)",
                sorted.size(), q * 100.0, Percentile(sorted, q));
  return buf;
}

// --- Replay ----------------------------------------------------------------

struct ReplayTotals {
  size_t requests = 0;
  /// Execution time along the server's path: ExecuteBatch walls of the
  /// shareable groups plus Database::Execute of everything else.
  double server_execute_ms = 0.0;
  std::vector<double> batch_us;  // per width-kReplayBatchWidth group
};

/// Replays the traced lines on this thread in server order: parse, then
/// execute (shareable reads in ExecuteBatch groups), then format, each a
/// span; hybrid_advise adds the per-request cost prediction.
ReplayTotals Replay(Workload workload, Database& db,
                    std::vector<TracedRequest> traced, double budget_s,
                    SpanLog* log) {
  std::sort(traced.begin(), traced.end(),
            [](const TracedRequest& a, const TracedRequest& b) {
              return a.send_ns < b.send_ns;
            });
  const hsdb::SyntheticTableSpec spec = EventsSpec();
  hsdb::BatchExecutor batch(&db);
  ReplayTotals totals;
  struct Pending {
    uint64_t id;
    Query query;
  };
  std::vector<Pending> group;
  int64_t next_insert = kReplayInsertBase;

  auto format = [&](uint64_t id, const hsdb::Result<QueryResult>& result,
                    const Query& query) {
    const uint64_t span = log->Open("server.format", 0, id);
    std::string block = hsdb::server::FormatResponse(*result, hsdb::KindOf(query));
    log->Close(span);
    if (block.size() < 4) Fail("empty replay response");
  };
  auto execute = [&](uint64_t id, const Query& query) {
    const uint64_t span = log->Open("executor.execute", 0, id);
    hsdb::Result<QueryResult> result = db.Execute(query);
    log->Close(span);
    if (!result.ok()) Fail("replay execution failed: " + result.status().ToString());
    if (result->trace != nullptr) {
      log->AddTrace(*result->trace, span, id, log->at(span).start_ns);
    }
    return result;
  };
  auto run_group = [&]() {
    if (group.empty()) return;
    std::vector<Query> queries;
    for (const Pending& p : group) queries.push_back(p.query);
    const uint64_t span = log->Open("executor.batch", 0, group.front().id);
    std::vector<hsdb::Result<QueryResult>> results = batch.ExecuteBatch(queries);
    const double wall_s = log->Close(span);
    totals.server_execute_ms += wall_s * 1e3;
    if (group.size() == kReplayBatchWidth) {
      totals.batch_us.push_back(wall_s * 1e6 /
                                static_cast<double>(kReplayBatchWidth));
    }
    // Every shared member carries the same group tree; hang it once.
    if (!results.empty() && results[0].ok() && results[0]->trace != nullptr) {
      log->AddTrace(*results[0]->trace, span, group.front().id,
                    log->at(span).start_ns);
    }
    for (size_t i = 0; i < group.size(); ++i) {
      format(group[i].id, results[i], group[i].query);
    }
    // The shared pass has no per-phase spans of its own; running each
    // member once more through Database::Execute gives the predicate and
    // decode split of the same queries.
    for (const Pending& p : group) execute(p.id, p.query);
    group.clear();
  };

  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (TracedRequest& t : traced) {
    if (totals.requests >= kReplayCap || NowNs() >= deadline) break;
    ++totals.requests;
    // A replayed insert needs a key nobody has used yet.
    std::string line = t.request.kind == RequestKind::kInsert
                           ? InsertLine(spec, next_insert++)
                           : t.request.line;
    const uint64_t parse_span = log->Open("server.parse", 0, t.id);
    auto parsed = ParseLine(db, line);
    log->Close(parse_span);
    if (!parsed.ok()) Fail("replay parse failed: " + line);
    Query query = std::move(parsed->query);
    if (hsdb::BatchExecutor::ShareableTable(query) != nullptr) {
      group.push_back({t.id, std::move(query)});
      if (group.size() == kReplayBatchWidth) run_group();
      continue;
    }
    if (workload == Workload::kHybridAdvise) {
      const uint64_t span = log->Open("core.predict", 0, t.id);
      {
        hsdb::CatalogReadLock lock(db.catalog(), hsdb::TablesOf(query));
        (void)db.PredictCost(query);
      }
      log->Close(span);
    }
    const hsdb::Result<QueryResult> result = execute(t.id, query);
    totals.server_execute_ms +=
        Seconds(log->spans().back().end_ns - log->spans().back().start_ns);
    format(t.id, result, query);
  }
  run_group();
  return totals;
}

// --- Registry --------------------------------------------------------------

double HistogramMean(hsdb::telemetry::MetricsRegistry& reg,
                     const std::string& name,
                     const hsdb::telemetry::Labels& labels = {}) {
  hsdb::telemetry::LogHistogram& h = reg.GetHistogram(name, "", labels);
  return h.count() == 0 ? 0.0 : h.sum() / static_cast<double>(h.count());
}

double CounterValue(hsdb::telemetry::MetricsRegistry& reg,
                    const std::string& name) {
  return static_cast<double>(reg.GetCounter(name).value());
}

// --- Main ------------------------------------------------------------------

struct Args {
  Workload workload = Workload::kOltpPoint;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      std::optional<Workload> w = ParseWorkload(value);
      if (!w) Fail("unknown workload " + value);
      args.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else {
      Fail("unknown argument " + key);
    }
  }
  if (argc % 2 != 1 || !have_workload || !(args.seconds > 0.0)) {
    Fail("usage: servebench --workload W --seed N --seconds S [--trace 0|1] "
         "[--trace-dir DIR]");
  }
  return args;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fail("cannot write " + path + ": " + std::strerror(errno));
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  if (std::fclose(f) != 0) Fail("cannot write " + path);
}

int Run(const Args& args) {
  const Workload workload = args.workload;
  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d\n",
              WorkloadName(workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host: nproc=%u cpu=\"%s\" simd=%s build=%s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              std::string(hsdb::compression::simd::SimdLevelName(
                              hsdb::compression::simd::ActiveLevel()))
                  .c_str(),
              SERVEBENCH_BUILD_TYPE);

  // All set-ups but the served one run in child processes, so each starts
  // from a fresh heap and none inflates this process's peak RSS.
  SpanLog log;
  std::vector<double> setup_s, load_s, statistics_s;
  for (int i = 0; i + 1 < kSetupRepeats; ++i) {
    const SetupTimes t = SetUpInChild(workload);
    setup_s.push_back(t.setup_s);
    load_s.push_back(t.load_s);
    statistics_s.push_back(t.statistics_s);
  }
  std::unique_ptr<System> sys = SetUp(workload, &log);
  setup_s.push_back(sys->setup_s);
  load_s.push_back(sys->load_s);
  statistics_s.push_back(sys->statistics_s);
  Database& db = *sys->db;
  hsdb::telemetry::MetricsRegistry& reg = db.metrics();

  Shared shared;
  shared.workload = workload;
  shared.seed = args.seed;
  shared.port = sys->server->port();
  if (workload == Workload::kOlapScan) {
    for (const std::string& text : OlapPool(args.seed)) {
      Query query = ParseQueryOrDie(db, text);
      hsdb::Result<QueryResult> result = db.Execute(query);
      if (!result.ok()) Fail("precompute failed: " + text);
      shared.olap_answers.push_back(PayloadLines(
          hsdb::server::FormatResponse(*result, hsdb::KindOf(query))));
    }
  }
  std::vector<Query> advise_stream;
  if (workload == Workload::kHybridAdvise) {
    Generator stream(workload, kAdviseSeed, -1);
    for (size_t i = 0; i < kAdviseStreamLength; ++i) {
      advise_stream.push_back(ParseQueryOrDie(db, stream.Next().line));
    }
  }

  // --- Socket phase ----------------------------------------------------------
  reg.ResetValues();
  std::vector<ClientState> states(kClients);
  std::vector<std::thread> threads;
  const CpuTimes cpu_begin = ReadCpuTimes();
  const int64_t phase_begin = NowNs();
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(RunClient, c, sys->clients[c].get(), &shared,
                         &states[c]);
  }
  auto check_stopped = [&] {
    if (shared.stop.load()) {
      for (std::thread& t : threads) t.join();
      for (const ClientState& st : states) {
        if (!st.error.empty()) Fail(st.error);
      }
      Fail("a client stopped early");
    }
  };

  Window measured{phase_begin, 0};
  int64_t cpu_begin_ns = ProcessCpuNs();
  int64_t cpu_end_ns = 0;
  Window naive{};
  double advise_s = 0.0, apply_s = 0.0;
  double evaluated_assignments = 0.0;
  hsdb::Recommendation rec;
  // hybrid_advise splits its measured time between the naive and the
  // advised layout; its table grows with every insert, so longer phases
  // would drift further from the layout the advisor costed.
  const double phase_s = workload == Workload::kHybridAdvise
                             ? args.seconds / 2
                             : args.seconds;
  Serve(phase_s);
  check_stopped();
  measured.end_ns = NowNs();
  cpu_end_ns = ProcessCpuNs();
  if (workload == Workload::kHybridAdvise) {
    // Naive layout served; now advise and apply while the clients run.
    naive = measured;
    const uint64_t advise_span = log.Open("core.advise");
    hsdb::Result<hsdb::Recommendation> advised =
        sys->advisor->RecommendOffline(advise_stream);
    advise_s = log.Close(advise_span);
    if (!advised.ok()) Fail("RecommendOffline: " + advised.status().ToString());
    rec = std::move(advised).value();
    evaluated_assignments =
        CounterValue(reg, "hsdb_advisor_evaluated_assignments_total");
    const uint64_t apply_span = log.Open("core.apply");
    hsdb::Status applied = sys->advisor->Apply(rec);
    apply_s = log.Close(apply_span);
    if (!applied.ok()) Fail("Apply: " + applied.ToString());
    {
      hsdb::CatalogReadLock lock(db.catalog(), {"events"});
      const hsdb::TableLayout& live = db.catalog().GetTable("events")->layout();
      const hsdb::TableLayout& want = rec.layouts.at("events").layout;
      if (!(live == want)) {
        Fail("live layout " + live.ToString() + " != recommended " +
             want.ToString());
      }
    }
    measured.begin_ns = NowNs();
    cpu_begin_ns = ProcessCpuNs();
    Serve(phase_s);
    check_stopped();
    measured.end_ns = NowNs();
    cpu_end_ns = ProcessCpuNs();
  }
  Window traced{};
  if (args.trace) {
    reg.ResetValues();
    traced.begin_ns = NowNs();
    shared.tracing.store(true);
    Serve(std::min(phase_s, kMaxTracedSeconds));
    check_stopped();
    traced.end_ns = NowNs();
  }
  const CpuTimes cpu_end = ReadCpuTimes();
  // Registry values are read once, after the socket phase.
  const double queue_wait_ms = HistogramMean(reg, "hsdb_server_queue_wait_ms");
  const double batch_formation_ms =
      HistogramMean(reg, "hsdb_server_batch_formation_ms");
  const double batch_width = HistogramMean(reg, "hsdb_server_batch_width");
  const double rejected = CounterValue(reg, "hsdb_server_rejected_total") +
                          CounterValue(reg, "hsdb_server_protocol_errors_total");
  const double shared_queries =
      CounterValue(reg, "hsdb_batch_shared_queries_total");
  const double morsels = CounterValue(reg, "hsdb_scan_morsels_total");
  const hsdb::telemetry::Labels events_table = {{"table", "events"}};
  const double latch_wait_ms =
      HistogramMean(reg, "hsdb_table_latch_wait_ms", events_table);
  const double latch_hold_ms =
      HistogramMean(reg, "hsdb_table_latch_hold_ms", events_table);
  const double cost_rel_error_p50 =
      reg.GetHistogram("hsdb_cost_abs_rel_error").Quantile(0.5);

  shared.stop.store(true);
  for (std::thread& t : threads) t.join();
  const int64_t phase_end = NowNs();
  const double rss_mb = PeakRssMb();
  uint64_t attempted = 0, failed = 0, acked_inserts = 0, unknown_inserts = 0;
  for (const ClientState& st : states) {
    if (!st.error.empty()) Fail(st.error);
    attempted += st.samples.size();
    failed += st.failed;
    acked_inserts += st.acked_inserts;
    unknown_inserts += st.unknown_inserts;
  }
  if (attempted == 0) Fail("no request was sent");

  // Closing count: every loaded row plus every acknowledged insert.
  {
    hsdb::Result<hsdb::server::Reply> reply =
        sys->clients[0]->RoundTrip("count events");
    if (!reply.ok() || !reply->ok || reply->lines.size() != 1) {
      Fail("closing 'count events' failed");
    }
    const uint64_t counted = std::strtoull(reply->lines[0].c_str(), nullptr, 10);
    const uint64_t expected = kLoadedRows + acked_inserts;
    if (counted < expected || counted > expected + unknown_inserts) {
      Fail("closing 'count events' = " + reply->lines[0] + ", expected " +
           std::to_string(expected));
    }
  }
  const hsdb::LogicalTable* table = db.catalog().GetTable("events");
  const double bytes_per_row = static_cast<double>(table->memory_bytes()) /
                               static_cast<double>(table->row_count());

  // Share of requests whose text an earlier request already had: the
  // streams are regenerated, so the clients never kept the lines.
  std::vector<size_t> hashes;
  for (int c = 0; c < kClients; ++c) {
    Generator generator(workload, args.seed, c);
    for (size_t i = 0; i < states[c].samples.size(); ++i) {
      hashes.push_back(std::hash<std::string>{}(generator.Next().line));
    }
  }
  std::sort(hashes.begin(), hashes.end());
  const size_t distinct = static_cast<size_t>(
      std::unique(hashes.begin(), hashes.end()) - hashes.begin());
  const double repeated_share =
      1.0 - static_cast<double>(distinct) / static_cast<double>(attempted);

  const WindowStats m = Summarize(states, measured);
  const double stall_ms =
      StallMs(states, {workload == Workload::kHybridAdvise ? naive.begin_ns
                                                           : measured.begin_ns,
                       measured.end_ns});

  std::printf("context: steal_share=%.4f repeated_query_share=%.4f "
              "requests=%llu failed=%llu\n",
              StealShare(cpu_begin, cpu_end), repeated_share,
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  if (workload == Workload::kHybridAdvise) {
    std::printf("recommendation:");
    for (const std::string& ddl : rec.ddl) std::printf(" %s;", ddl.c_str());
    std::printf("\n");
  }
  // Drift inside the window shows here, next to the window's totals.
  std::printf("per-second qps/p50_ms/p99_ms:");
  constexpr int64_t kSecondNs = 1'000'000'000;
  for (int64_t b = measured.begin_ns; b + kSecondNs <= measured.end_ns;
       b += kSecondNs) {
    const WindowStats ws = Summarize(states, {b, b + kSecondNs});
    std::printf(" %.0f/%.4f/%.4f", ws.qps, Percentile(ws.latency_ms, 0.5),
                Percentile(ws.latency_ms, 0.99));
  }
  std::printf("\n");
  std::printf("end-to-end metrics:\n");
  Report report;
  report.Add("setup_s", Median(setup_s), "s");
  const SubWindowMedians sub = SubWindows(states, measured, m.latency_ms.size());
  const std::string parts =
      "(median of " + std::to_string(sub.parts) + " sub-windows; ";
  report.Add("qps", sub.qps, "1/s",
             parts + "whole window " + std::to_string(m.qps) + ")");
  report.Add("p50_ms", sub.p50_ms, "ms",
             parts + "whole window " +
                 std::to_string(Percentile(m.latency_ms, 0.5)) + ")");
  report.Add("p99_ms", sub.p99_ms, "ms",
             parts + "whole window " +
                 std::to_string(Percentile(m.latency_ms, 0.99)) + ")");
  std::printf("  %-30s %s\n", "", SampleNote(m.latency_ms).c_str());
  report.Add("cpu_us_per_req",
             m.latency_ms.empty()
                 ? 0.0
                 : static_cast<double>(cpu_end_ns - cpu_begin_ns) * 1e-3 /
                       static_cast<double>(m.latency_ms.size()),
             "us", "(process CPU, in-process clients included)");
  report.Add("stall_ms", stall_ms, "ms");
  report.Add("rss_mb", rss_mb, "MB");
  report.Add("bytes_per_row", bytes_per_row, "B");
  report.Add("failed_ratio",
             static_cast<double>(failed) / static_cast<double>(attempted),
             "ratio");
  // Workload-specific metrics read 0 where they do not apply.
  const std::string na = "(n/a for this workload)";
  const bool writes = workload != Workload::kOlapScan;
  const bool hybrid = workload == Workload::kHybridAdvise;
  report.Add("write_p99_ms", Percentile(m.write_ms, 0.99), "ms",
             writes ? SampleNote(m.write_ms) : na);
  const double naive_qps = hybrid ? Summarize(states, naive).qps : 0.0;
  report.Add("advise_s", advise_s, "s", hybrid ? "" : na);
  report.Add("apply_s", apply_s, "s", hybrid ? "" : na);
  report.Add("advise_gain", naive_qps > 0.0 ? m.qps / naive_qps : 0.0, "ratio",
             hybrid ? "(naive qps " + std::to_string(naive_qps) + ")" : na);

  if (args.trace) {
    std::printf("per-layer metrics (traced window + single-thread replay):\n");
    std::vector<TracedRequest> traced_requests;
    for (ClientState& st : states) {
      for (TracedRequest& t : st.traced) {
        if (t.done_ns < traced.end_ns) traced_requests.push_back(std::move(t));
      }
    }
    // One client.roundtrip span per traced request.
    std::vector<double> roundtrip_ms;
    for (const TracedRequest& t : traced_requests) {
      Span s;
      s.request = t.id;
      s.name = "client.roundtrip";
      s.start_ns = t.send_ns;
      s.end_ns = t.done_ns;
      log.Add(std::move(s));
      roundtrip_ms.push_back(static_cast<double>(t.done_ns - t.send_ns) * 1e-6);
    }
    const WindowStats tw = Summarize(states, traced);
    const ReplayTotals replay = Replay(workload, db, std::move(traced_requests),
                                       std::max(2.0, args.seconds / 2), &log);
    std::printf("replayed %zu of %zu traced requests\n", replay.requests,
                roundtrip_ms.size());

    // Per-request self time by span name over the replay.
    const std::vector<int64_t> self = SelfTimes(log.spans());
    std::map<std::string, double> self_ms;
    for (size_t i = 0; i < self.size(); ++i) {
      self_ms[log.spans()[i].name] += static_cast<double>(self[i]) * 1e-6;
    }
    const double n = static_cast<double>(std::max<size_t>(1, replay.requests));
    auto per_request = [&](const std::string& name) {
      return self_ms[name] / n;
    };
    const double parse_ms = per_request("server.parse");
    const double format_ms = per_request("server.format");
    const double execute_ms = replay.server_execute_ms / n;
    const double rt_mean_ms = Mean(roundtrip_ms);
    const size_t scans = tw.reads_shareable;

    report.Add("server.queue_wait_ms", queue_wait_ms, "ms");
    report.Add("server.batch_formation_ms", batch_formation_ms, "ms");
    report.Add("server.batch_width", batch_width, "count");
    report.Add("server.parse_us", parse_ms * 1e3, "us");
    report.Add("server.format_us", format_ms * 1e3, "us");
    report.Add("server.unattributed_share",
               rt_mean_ms > 0.0 ? (rt_mean_ms - parse_ms - queue_wait_ms -
                                   execute_ms - format_ms) /
                                      rt_mean_ms
                                : 0.0,
               "ratio", "(round-trip mean " + std::to_string(rt_mean_ms) + " ms)");
    report.Add("server.rejected", rejected, "count");
    report.Add("executor.execute_us", per_request("executor.execute") * 1e3,
               "us");
    report.Add("executor.batch_us", Mean(replay.batch_us), "us",
               "(groups=" + std::to_string(replay.batch_us.size()) + ")");
    report.Add("executor.shared_share",
               scans == 0 ? 0.0 : shared_queries / static_cast<double>(scans),
               "ratio");
    report.Add("executor.morsels_per_query",
               scans == 0 ? 0.0 : morsels / static_cast<double>(scans),
               "count");
    // At DOP > 1 the engine's scans record one scan_parallel span and no
    // predicate/decode children (its workers run untraced), so this is
    // where the kernels of a parallel scan show.
    report.Add("executor.scan_parallel_ms", per_request("scan_parallel"), "ms");
    report.Add("executor.stitch_ms", per_request("stitch"), "ms");
    report.Add("storage.predicate_ms", per_request("predicate"), "ms");
    report.Add("storage.decode_ms", per_request("decode"), "ms");
    report.Add("storage.write_ms", per_request("write"), "ms");
    report.Add("storage.delta_merge_ms", per_request("delta_merge"), "ms");
    report.Add("storage.load_s", Median(load_s), "s");
    report.Add("catalog.latch_wait_ms", latch_wait_ms, "ms");
    report.Add("catalog.latch_hold_ms", latch_hold_ms, "ms");
    report.Add("catalog.statistics_s", Median(statistics_s), "s");
    report.Add("core.predict_us", per_request("core.predict") * 1e3, "us");
    report.Add("core.cost_rel_error_p50", cost_rel_error_p50, "ratio");
    report.Add("core.evaluated_assignments", evaluated_assignments, "count");
    report.Add("core.est_cost_ms", rec.estimated_cost_ms, "ms");
    report.Add("core.cs_only_cost_ms", rec.cs_only_cost_ms, "ms");
    report.Add("core.rs_only_cost_ms", rec.rs_only_cost_ms, "ms");
    report.Add("bench.trace_overhead", m.qps > 0.0 ? 1.0 - tw.qps / m.qps : 0.0,
               "ratio", "(traced qps " + std::to_string(tw.qps) + ")");
    report.Add("host.steal_share", StealShare(cpu_begin, cpu_end), "ratio");

    // One file per workload: the latest traced run replaces the previous.
    const std::string path =
        args.trace_dir + "/" + WorkloadName(workload) + ".spans.jsonl";
    WriteSpans(path, log.spans());
    std::printf("spans: %zu written to %s\n", log.spans().size(), path.c_str());
  }
  std::printf("socket phase %.1f s\n", Seconds(phase_end - phase_begin));
  sys.reset();
  std::printf("%s\n", report.Json(attempted, failed).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  return servebench::Run(servebench::ParseArgs(argc, argv));
}
