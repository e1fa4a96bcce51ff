#include "sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "sim/parse.h"

namespace mpr::sim {

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
  // and the winner does not depend on which thread noticed a throw first.
  std::mutex err_mu;
  std::size_t err_index = n;
  std::exception_ptr err;
  // One counter: each thread claims the next unclaimed index until the
  // range is exhausted. Alone, the calling thread claims 0, 1, ... in order.
  std::atomic<std::size_t> next{0};
  const auto claim_loop = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock{err_mu};
        if (i < err_index) {
          err_index = i;
          err = std::current_exception();
        }
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    const std::size_t threads = std::min<std::size_t>(jobs, n);
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(claim_loop);
    claim_loop();
  }  // joins the helpers
  if (err != nullptr) std::rethrow_exception(err);
}

}  // namespace mpr::sim
