#include "runner/sweep.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

namespace omr::runner {

std::size_t default_jobs() {
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const std::size_t hw = hw_raw == 0 ? 1 : hw_raw;
  const char* env = std::getenv("OMR_JOBS");
  if (env == nullptr) return hw;
  // "auto" clamps to the hardware: an explicit numeric request is honored
  // as given (the user may want oversubscription), but auto never fans 8
  // jobs onto a 1-CPU host.
  if (std::strcmp(env, "auto") == 0) return hw;
  const char* end = env + std::strlen(env);
  long v = 0;
  const auto [ptr, ec] = std::from_chars(env, end, v);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument(
        "OMR_JOBS must be an integer or \"auto\", got \"" +
        std::string(env) + "\"");
  }
  return v < 1 ? 1 : static_cast<std::size_t>(v);
}

SweepRunner::SweepRunner(std::size_t jobs)
    : jobs_(jobs == 0 ? default_jobs() : jobs) {}

SweepRunner::~SweepRunner() = default;

void SweepRunner::ensure_pool(std::size_t n_tasks) {
  const std::size_t want = std::min(jobs_, n_tasks);
  if (pool_ != nullptr && pool_->n_threads() >= want) return;
  pool_.reset();  // joins the smaller pool's idle workers
  pool_ = std::make_unique<ThreadPool>(want);
}

}  // namespace omr::runner
