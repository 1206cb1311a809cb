#include "core/thread_pool.h"

#include <algorithm>
#include <exception>
#include <memory>

#include "core/metrics.h"

namespace strdb {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t, int64_t)>& fn,
                             int max_chunks) {
  if (n <= 0) return;
  if (max_chunks <= 0) max_chunks = num_threads() * 4;
  int64_t chunks = std::min<int64_t>(n, std::max(1, max_chunks));
  if (num_threads() <= 1 || chunks == 1) {
    fn(0, n);
    return;
  }
  MetricsRegistry::Global().GetCounter("core.pool.parallel_for")->Increment();
  // One completion latch per call: this caller blocks on its own chunks
  // only, and a chunk exception lands in this latch (concurrent callers
  // never see each other's failures).
  struct Latch {
    std::mutex mu;
    std::condition_variable done_cv;
    int64_t remaining = 0;
    std::exception_ptr first_exception;
  };
  auto latch = std::make_shared<Latch>();
  int64_t per = (n + chunks - 1) / chunks;
  latch->remaining = (n + per - 1) / per;
  for (int64_t begin = 0; begin < n; begin += per) {
    int64_t end = std::min(n, begin + per);
    auto chunk = [latch, &fn, begin, end] {
      try {
        fn(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(latch->mu);
        if (latch->first_exception == nullptr) {
          latch->first_exception = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(latch->mu);
      if (--latch->remaining == 0) latch->done_cv.notify_all();
    };
    Submit(std::move(chunk));
  }
  std::exception_ptr rethrow;
  {
    std::unique_lock<std::mutex> lock(latch->mu);
    latch->done_cv.wait(lock, [&latch] { return latch->remaining == 0; });
    rethrow = latch->first_exception;
  }
  if (rethrow != nullptr) std::rethrow_exception(rethrow);
}

void ThreadPool::WorkerLoop() {
  Counter* executed = MetricsRegistry::Global().GetCounter("core.pool.tasks");
  Counter* failed =
      MetricsRegistry::Global().GetCounter("core.pool.task_exceptions");
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // ParallelFor's chunks catch their own exceptions into the caller's
    // latch; this catch-all only keeps a stray throw from terminating
    // the process.
    try {
      task();
    } catch (...) {
      failed->Increment();
    }
    executed->Increment();
  }
}

}  // namespace strdb
