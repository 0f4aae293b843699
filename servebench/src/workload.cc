#include "workload.h"

#include <cstdio>

namespace servebench {

namespace {

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Distinct seeds per stream, so no two streams replay each other's draws.
uint64_t StreamSeed(uint64_t seed, int stream) {
  return seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(stream + 17);
}

std::string RangeCountText(hsdb::Rng& rng, const hsdb::SyntheticTableSpec& s) {
  const int64_t column = rng.UniformInt(0, static_cast<int64_t>(s.num_filters) - 1);
  // Narrow parameter bands keep every pool query at a similar cost, so the
  // pool's mean cost, and with it qps, barely depends on the seed.
  const int64_t width = rng.UniformInt(100, 200);
  const int64_t lo = rng.UniformInt(
      0, static_cast<int64_t>(s.filter_cardinality) - 1 - width);
  const std::string col = "f" + std::to_string(column);
  return "count events where " + col + ">=" + std::to_string(lo) + " " + col +
         "<=" + std::to_string(lo + width);
}

std::string GroupedSumText(hsdb::Rng& rng, const hsdb::SyntheticTableSpec& s) {
  const int64_t kf = rng.UniformInt(0, static_cast<int64_t>(s.num_keyfigures) - 1);
  const int64_t f = rng.UniformInt(0, static_cast<int64_t>(s.num_filters) - 1);
  const int64_t g = rng.UniformInt(0, static_cast<int64_t>(s.num_groups) - 1);
  const int64_t bound = rng.UniformInt(200, 300);
  return "sum events kf" + std::to_string(kf) + " where f" + std::to_string(f) +
         "<" + std::to_string(bound) + " by g" + std::to_string(g);
}

}  // namespace

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kOltpPoint, Workload::kOlapScan,
                     Workload::kHybridAdvise}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kOltpPoint:
      return "oltp_point";
    case Workload::kOlapScan:
      return "olap_scan";
    case Workload::kHybridAdvise:
      return "hybrid_advise";
  }
  return "?";
}

hsdb::SyntheticTableSpec EventsSpec() {
  hsdb::SyntheticTableSpec spec;
  spec.name = "events";
  return spec;
}

std::vector<std::string> OlapPool(uint64_t seed) {
  const hsdb::SyntheticTableSpec spec = EventsSpec();
  hsdb::Rng rng(StreamSeed(seed, -100));
  std::vector<std::string> pool;
  pool.reserve(kOlapPoolSize);
  for (size_t i = 0; i < kOlapPoolSize / 2; ++i) {
    pool.push_back(RangeCountText(rng, spec));
  }
  for (size_t i = kOlapPoolSize / 2; i < kOlapPoolSize; ++i) {
    pool.push_back(GroupedSumText(rng, spec));
  }
  return pool;
}

std::string InsertLine(const hsdb::SyntheticTableSpec& spec, int64_t id) {
  const hsdb::Row row = hsdb::SyntheticRow(spec, id);
  std::string line = "insert events ";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) line.push_back(',');
    const hsdb::Value& v = row[i];
    line += v.type() == hsdb::DataType::kDouble ? FormatDouble(v.as_double())
                                                : v.ToString();
  }
  return line;
}

Generator::Generator(Workload workload, uint64_t seed, int client)
    : workload_(workload),
      spec_(EventsSpec()),
      rng_(StreamSeed(seed, client)),
      // The advisor's stream is never executed; its ids only have to be
      // fresh for the cost model's insert term.
      next_insert_id_(client < 0 ? int64_t{50'000'000}
                                 : static_cast<int64_t>(kLoadedRows) + client) {
  if (workload_ == Workload::kOlapScan) pool_ = OlapPool(seed);
}

Request Generator::Next() {
  const int64_t roll = rng_.UniformInt(0, 99);
  const int64_t rows = static_cast<int64_t>(kLoadedRows);
  switch (workload_) {
    case Workload::kOltpPoint:
      // 80% PK point selects, 10% PK updates, 10% inserts; uniform keys.
      if (roll < 80) return Point(rng_.UniformInt(0, rows - 1));
      if (roll < 90) return Update(rng_.UniformInt(0, rows - 1));
      return Insert();
    case Workload::kOlapScan: {
      // 50% range counts, 50% grouped sums, drawn from the seeded pool.
      const int64_t half = static_cast<int64_t>(kOlapPoolSize / 2);
      const int64_t index =
          rng_.UniformInt(0, half - 1) + (roll < 50 ? 0 : half);
      Request r;
      r.kind = roll < 50 ? RequestKind::kRangeCount : RequestKind::kGroupedSum;
      r.key = index;
      r.line = pool_[static_cast<size_t>(index)];
      return r;
    }
    case Workload::kHybridAdvise:
      // 78% point selects, 10% updates on a hot 1% of keys (every 100th
      // id), 10% inserts, 2% filtered grouped sums.
      if (roll < 78) return Point(rng_.UniformInt(0, rows - 1));
      if (roll < 88) return Update(rng_.UniformInt(0, rows / 100 - 1) * 100);
      if (roll < 98) return Insert();
      return GroupedSum();
  }
  return Request{};
}

Request Generator::Point(int64_t key) const {
  Request r;
  r.kind = RequestKind::kPoint;
  r.key = key;
  r.line = "select events * where id=" + std::to_string(key);
  return r;
}

Request Generator::Update(int64_t key) {
  const double step =
      spec_.keyfigure_max / static_cast<double>(spec_.keyfigure_distinct);
  const int64_t bucket = rng_.UniformInt(
      0, static_cast<int64_t>(spec_.keyfigure_distinct) - 1);
  Request r;
  r.kind = RequestKind::kUpdate;
  r.key = key;
  r.line = "update events kf1=" +
           FormatDouble(static_cast<double>(bucket) * step) +
           " where id=" + std::to_string(key);
  return r;
}

Request Generator::Insert() {
  Request r;
  r.kind = RequestKind::kInsert;
  r.key = next_insert_id_;
  next_insert_id_ += kClients;
  r.line = InsertLine(spec_, r.key);
  return r;
}

Request Generator::GroupedSum() {
  Request r;
  r.kind = RequestKind::kGroupedSum;
  r.line = GroupedSumText(rng_, spec_);
  return r;
}

}  // namespace servebench
