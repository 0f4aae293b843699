// The benchmark's request streams. Every workload draws its requests from
// one seeded generator per client, so the same --seed yields the same lines
// on every run; the server receives nothing but these lines. See README.md
// for why each workload exists and which layer it stresses.
#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "workload/synthetic.h"

namespace servebench {

enum class Workload { kOltpPoint, kOlapScan, kHybridAdvise };

std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);

/// Rows of the `events` table every workload loads.
inline constexpr size_t kLoadedRows = 200'000;
/// Closed-loop clients, one connection each.
inline constexpr int kClients = 4;
/// Distinct analytic query texts olap_scan draws from.
inline constexpr size_t kOlapPoolSize = 128;

/// The benchmark's table: the synthetic evaluation table named `events`.
hsdb::SyntheticTableSpec EventsSpec();

enum class RequestKind { kPoint, kUpdate, kInsert, kRangeCount, kGroupedSum };

/// One generated request. `key` is the primary key a point select, update
/// or insert touches, or the pool index of an olap_scan query (-1 else).
struct Request {
  RequestKind kind = RequestKind::kPoint;
  int64_t key = -1;
  std::string line;
};

/// True for DML (the requests write_p99_ms is taken over).
inline bool IsWrite(RequestKind kind) {
  return kind == RequestKind::kUpdate || kind == RequestKind::kInsert;
}

/// The analytic query texts olap_scan draws from: half two-sided range
/// counts, half filtered grouped sums. Depends on the seed only.
std::vector<std::string> OlapPool(uint64_t seed);

/// `insert events ...` for SyntheticRow(spec, id), doubles printed so they
/// parse back bit-identically.
std::string InsertLine(const hsdb::SyntheticTableSpec& spec, int64_t id);

/// The request stream of one client. Inserted ids are disjoint across
/// clients (client c inserts kLoadedRows + c, + c + kClients, ...) so every
/// stream is independent of how the clients interleave.
class Generator {
 public:
  /// `client` < 0 selects the advisor's expected-workload stream of
  /// hybrid_advise, which shares the mix but no state with the clients.
  Generator(Workload workload, uint64_t seed, int client);

  Request Next();

 private:
  Request Point(int64_t key) const;
  Request Update(int64_t key);
  Request Insert();
  Request GroupedSum();

  Workload workload_;
  hsdb::SyntheticTableSpec spec_;
  hsdb::Rng rng_;
  int64_t next_insert_id_;
  std::vector<std::string> pool_;  // olap_scan only
};

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
