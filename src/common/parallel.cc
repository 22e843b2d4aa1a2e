#include "common/parallel.h"

#include <algorithm>
#include <charconv>

#include "common/logging.h"

namespace hsis::common {

int HardwareConcurrency() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ResolveThreadCount(int threads) {
  if (threads == 0) return HardwareConcurrency();
  return std::max(1, threads);
}

Result<int> ParseThreadsValue(std::string_view value) {
  int threads = 0;
  auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(),
                                   threads);
  if (value.empty() || ec != std::errc() ||
      ptr != value.data() + value.size() || threads < 0) {
    return Status::InvalidArgument("--threads expects a non-negative integer, "
                                   "got '" +
                                   std::string(value) + "'");
  }
  return threads == 0 ? HardwareConcurrency() : threads;
}

std::pair<size_t, size_t> ThreadPool::ChunkBounds(size_t n, int k, int w) {
  HSIS_CHECK(k >= 1 && w >= 0 && w < k);
  size_t ku = static_cast<size_t>(k);
  size_t wu = static_cast<size_t>(w);
  return {n * wu / ku, n * (wu + 1) / ku};
}

ThreadPool::ThreadPool(int threads) {
  int k = ResolveThreadCount(threads);
  workers_.reserve(static_cast<size_t>(k - 1));
  for (int w = 1; w < k; ++w) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Run(size_t n, const std::function<void(size_t)>& body) {
  const int k = size();
  if (k == 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    HSIS_CHECK(job_body_ == nullptr) << "ThreadPool::Run is not reentrant";
    job_n_ = n;
    job_body_ = &body;
    next_index_.store(0);
    pending_workers_ = k - 1;
    ++generation_;
  }
  work_cv_.notify_all();

  Drain(n, body);

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_workers_ == 0; });
  job_body_ = nullptr;
}

void ThreadPool::Drain(size_t n, const std::function<void(size_t)>& body) {
  const size_t grain =
      std::max<size_t>(1, n / (8 * static_cast<size_t>(size())));
  for (;;) {
    const size_t lo = next_index_.fetch_add(grain);
    if (lo >= n) return;
    const size_t hi = std::min(n, lo + grain);
    for (size_t i = lo; i < hi; ++i) body(i);
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(size_t)>* body;
    size_t n;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      body = job_body_;
      n = job_n_;
    }
    Drain(n, *body);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_workers_ == 0) done_cv_.notify_one();
    }
  }
}

void ParallelFor(int threads, size_t n,
                 const std::function<void(size_t)>& body) {
  int k = ResolveThreadCount(threads);
  // Serial fallback when the range cannot occupy every worker: a chunk
  // per index is all the parallelism there is, and spawning threads
  // that would receive empty chunks is pure overhead.
  if (k == 1 || n < static_cast<size_t>(k) || n <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool(k);
  pool.Run(n, body);
}

void ParallelFor(int threads, size_t n, size_t batch_size,
                 const std::function<void(size_t)>& body) {
  if (batch_size <= 1) {
    ParallelFor(threads, n, body);
    return;
  }
  const size_t batches = (n + batch_size - 1) / batch_size;
  ParallelFor(threads, batches, [&](size_t b) {
    const size_t lo = b * batch_size;
    const size_t hi = std::min(n, lo + batch_size);
    for (size_t i = lo; i < hi; ++i) body(i);
  });
}

void ParallelForTiles(int threads, size_t n, size_t tile_size,
                      const std::function<void(size_t, size_t)>& body) {
  const size_t tile = tile_size == 0 ? 1 : tile_size;
  const size_t tiles = (n + tile - 1) / tile;
  ParallelFor(threads, tiles, [&](size_t t) {
    const size_t lo = t * tile;
    body(lo, std::min(n, lo + tile));
  });
}

Status ParallelForWithStatus(int threads, size_t n,
                             const std::function<Status(size_t)>& body) {
  return ParallelForWithStatus(threads, n, /*batch_size=*/1, body);
}

Status ParallelForWithStatus(int threads, size_t n, size_t batch_size,
                             const std::function<Status(size_t)>& body) {
  std::mutex err_mu;
  size_t first_error_index = n;
  Status first_error = Status::OK();
  ParallelFor(threads, n, batch_size, [&](size_t i) {
    Status s = body(i);
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(err_mu);
      if (i < first_error_index) {
        first_error_index = i;
        first_error = std::move(s);
      }
    }
  });
  return first_error;
}

}  // namespace hsis::common
