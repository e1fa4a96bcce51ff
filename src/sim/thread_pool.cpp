#include "sim/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <optional>
#include <utility>

#include "sim/parse.h"

namespace mpr::sim {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock{mu_};
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(Job job) {
  {
    std::lock_guard<std::mutex> lock{mu_};
    queue_.push_back(std::move(job));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock{mu_};
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_ != nullptr) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock{mu_};
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    // An exception escaping a job must reach the dispatcher (via wait()),
    // never std::terminate the whole campaign off a worker thread.
    std::exception_ptr err;
    try {
      job();
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock{mu_};
      if (err != nullptr && first_error_ == nullptr) first_error_ = err;
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

unsigned effective_jobs(int requested) {
  if (requested > 0) return static_cast<unsigned>(requested);
  if (const char* env = std::getenv("MPR_JOBS"); env != nullptr) {
    const std::optional<unsigned> v = int_from_string<unsigned>(env);
    if (v && *v > 0) return *v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void parallel_for_index(std::size_t n, unsigned jobs,
                        const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // Per-index exception capture, schedule-invariantly reduced to the lowest
  // failing index: every index runs regardless of other indices' failures,
  // and the winner does not depend on which worker noticed a throw first.
  std::mutex err_mu;
  std::size_t err_index = n;
  std::exception_ptr err;
  const auto guarded = [&](std::size_t i) {
    try {
      body(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock{err_mu};
      if (i < err_index) {
        err_index = i;
        err = std::current_exception();
      }
    }
  };
  if (jobs <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) guarded(i);
  } else {
    if (static_cast<std::size_t>(jobs) > n) jobs = static_cast<unsigned>(n);
    // One counter, one submit per worker: each worker claims the next
    // unclaimed index until the range is exhausted. No per-index queue
    // traffic.
    std::atomic<std::size_t> next{0};
    ThreadPool pool{jobs};
    for (unsigned w = 0; w < jobs; ++w) {
      pool.submit([&] {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
             i = next.fetch_add(1, std::memory_order_relaxed)) {
          guarded(i);
        }
      });
    }
    pool.wait();
  }
  if (err != nullptr) std::rethrow_exception(err);
}

}  // namespace mpr::sim
