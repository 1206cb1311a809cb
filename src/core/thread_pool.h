#ifndef STRDB_CORE_THREAD_POOL_H_
#define STRDB_CORE_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace strdb {

// A fixed-size worker pool.  The engine uses it to partition tuple
// batches across cores for σ_A acceptance checks; results are merged in
// submission order by the caller, so parallel evaluation stays
// deterministic regardless of completion order.  ParallelFor is the
// whole interface: the pool runs no free-standing tasks.
//
// Exception safety: a throwing task never terminates the process.  The
// worker catches it (counting core.pool.task_exceptions), and
// ParallelFor rethrows the first exception from its own chunks — and
// only its own, so concurrent callers are isolated.
class ThreadPool {
 public:
  // `num_threads` <= 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads = 0);
  // Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Runs fn(begin, end) over [0, n) split into roughly equal chunks (at
  // most `max_chunks`, default 4 per worker), blocking until all chunks
  // complete.  Completion is tracked by a per-call latch, so concurrent
  // ParallelFor calls from different threads return as soon as their own
  // chunks drain instead of waiting for the pool to go globally idle.
  // With a single worker the chunks run inline on the calling thread, so
  // single-core machines pay no synchronisation cost.  Must be called
  // from outside the pool: a chunk calling ParallelFor could deadlock
  // once every worker blocks.
  void ParallelFor(int64_t n,
                   const std::function<void(int64_t, int64_t)>& fn,
                   int max_chunks = 0);

 private:
  void Submit(std::function<void()> task);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for tasks
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace strdb

#endif  // STRDB_CORE_THREAD_POOL_H_
