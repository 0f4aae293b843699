#include "stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace servebench {

namespace {

// 1-based nearest rank of the q-percentile among n samples.
size_t Rank(size_t n, double q) {
  if (n == 0) return 0;
  const double exact = q * static_cast<double>(n);
  // Guard against q * n landing a hair above an integer (0.99 * 100).
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[Rank(sorted.size(), q) - 1];
}

size_t SamplesBeyond(size_t n, double q) { return n - Rank(n, q); }

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  static constexpr double kLadder[] = {0.5,   0.9,    0.99,
                                       0.999, 0.9999, 0.99999};
  double best = 0.0;
  for (double q : kLadder) {
    if (n > 0 && SamplesBeyond(n, q) >= min_beyond) best = q;
  }
  return best;
}

int64_t LongestGap(std::vector<int64_t> completions_ns, int64_t begin_ns,
                   int64_t end_ns) {
  if (end_ns <= begin_ns) return 0;
  std::sort(completions_ns.begin(), completions_ns.end());
  int64_t previous = begin_ns;
  int64_t longest = 0;
  for (int64_t t : completions_ns) {
    if (t < begin_ns) continue;
    if (t > end_ns) break;
    longest = std::max(longest, t - previous);
    previous = t;
  }
  return std::max(longest, end_ns - previous);
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  // Children's intervals per parent, clipped to the parent's interval.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace servebench
