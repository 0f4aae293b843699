// Statistics the serving benchmark reports: latency percentiles with the
// sample support each one has, the longest completion gap (stall_ms), and
// the self time of spans in a recorded span tree.
#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/// Nearest-rank percentile of `sorted` (ascending), q in [0, 1]: the
/// smallest sample with at least q * n samples at or below it. 0 when empty.
double Percentile(const std::vector<double>& sorted, double q);

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
size_t SamplesBeyond(size_t n, double q);

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99, 99.999
/// that has at least `min_beyond` samples beyond it among n samples, as a
/// fraction (0.999 for p99.9); 0 when not even the median has that support.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// Longest interval inside [begin_ns, end_ns] in which no completion
/// happened: the largest gap between consecutive completion times, with the
/// window edges counting as boundaries. Completions outside the window are
/// ignored; the whole window when there are none.
int64_t LongestGap(std::vector<int64_t> completions_ns, int64_t begin_ns,
                   int64_t end_ns);

/// One timed interval of the benchmark's span tree. Spans that belong to
/// one request share `request`; `parent` is 0 for a root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval that the union of its children's intervals covers.
/// Overlapping children are counted once; child time outside the parent's
/// interval is not subtracted.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& values);

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
