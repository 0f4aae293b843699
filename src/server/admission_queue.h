// AdmissionQueue: the bounded hand-off between connection threads and the
// batch worker. Connection threads TryPush one admitted query each (and are
// told "busy" instead of blocking when the queue is full — back-pressure is
// the client's problem, not the server's memory); the worker PopBatches up
// to max_batch queued queries at once, which is where shared-scan batches
// come from: concurrency in the queue *is* the batch width.
//
// Lock rules (docs/CONCURRENCY.md): the queue's internal mutex is a leaf —
// no table lock, catalog lock or epoch pin is ever taken while holding it,
// and none of its methods call back into the engine. Connection threads
// block only on the future of their own admitted query, never on the queue;
// the worker is the only popper. Close() wakes the worker for shutdown;
// items still queued at Close are drained by the worker before PopBatch
// returns false, so every admitted promise is eventually fulfilled.
#ifndef HSDB_SERVER_ADMISSION_QUEUE_H_
#define HSDB_SERVER_ADMISSION_QUEUE_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "executor/query.h"
#include "executor/result.h"

namespace hsdb {
namespace server {

/// One admitted query and the promise its connection thread waits on.
struct Admitted {
  Query query;
  std::promise<Result<QueryResult>> reply;
  /// Stamped at admission; the worker turns it into the queue-wait
  /// histogram and the slow-query log's queue_wait_ms attribution.
  std::chrono::steady_clock::time_point admitted_at;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}
  HSDB_DISALLOW_COPY_AND_ASSIGN(AdmissionQueue);

  /// Admits one query; false when the queue is full or closed (the caller
  /// answers with an "err" reply itself).
  bool TryPush(Admitted item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until at least one item is queued (or the queue is closed),
  /// then moves up to `max_batch` items into `*out` (cleared first).
  /// Returns false only when closed *and* drained — the worker's exit
  /// condition.
  bool PopBatch(size_t max_batch, std::vector<Admitted>* out) {
    out->clear();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    size_t n = std::min(max_batch, items_.size());
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return true;
  }

  /// Rejects further pushes and wakes the worker. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Admitted> items_;
  bool closed_ = false;
};

}  // namespace server
}  // namespace hsdb

#endif  // HSDB_SERVER_ADMISSION_QUEUE_H_
