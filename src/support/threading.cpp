#include "support/threading.h"

#include <algorithm>
#include <exception>

namespace cusp::support {

ThreadPool::ThreadPool(unsigned numWorkers) {
  workers_.reserve(numWorkers);
  for (unsigned i = 0; i < numWorkers; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::runOnAll(const std::function<void(unsigned)>& fn) {
  if (workers_.empty()) {
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    remaining_ = static_cast<unsigned>(workers_.size());
    ++generation_;
  }
  wake_.notify_all();
  // The caller participates as participant index numWorkers().
  fn(numWorkers());
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return remaining_ == 0; });
  job_ = nullptr;
}

void ThreadPool::workerLoop(unsigned index) {
  uint64_t seenGeneration = 0;
  for (;;) {
    const std::function<void(unsigned)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] {
        return shutdown_ || (job_ != nullptr && generation_ != seenGeneration);
      });
      if (shutdown_) {
        return;
      }
      seenGeneration = generation_;
      job = job_;
    }
    (*job)(index);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--remaining_ == 0) {
        done_.notify_all();
      }
    }
  }
}

namespace {

// Runs body(threadId) on `numThreads` threads including the caller, joining
// before returning and rethrowing the first captured exception.
void forkJoin(unsigned numThreads,
              const std::function<void(unsigned)>& body) {
  if (numThreads <= 1) {
    body(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(numThreads - 1);
  std::exception_ptr firstError;
  std::mutex errorMutex;
  auto guarded = [&](unsigned tid) {
    try {
      body(tid);
    } catch (...) {
      std::lock_guard<std::mutex> lock(errorMutex);
      if (!firstError) {
        firstError = std::current_exception();
      }
    }
  };
  for (unsigned t = 1; t < numThreads; ++t) {
    threads.emplace_back(guarded, t);
  }
  guarded(0);
  for (auto& thread : threads) {
    thread.join();
  }
  if (firstError) {
    std::rethrow_exception(firstError);
  }
}

}  // namespace

void parallelFor(uint64_t begin, uint64_t end,
                 const std::function<void(uint64_t)>& fn, unsigned numThreads,
                 uint64_t chunkSize) {
  parallelForChunks(
      begin, end,
      [&](unsigned, uint64_t lo, uint64_t hi) {
        for (uint64_t i = lo; i < hi; ++i) {
          fn(i);
        }
      },
      numThreads, chunkSize);
}

void parallelForChunks(
    uint64_t begin, uint64_t end,
    const std::function<void(unsigned, uint64_t, uint64_t)>& fn,
    unsigned numThreads, uint64_t chunkSize) {
  if (begin >= end) {
    return;
  }
  const uint64_t count = end - begin;
  if (numThreads <= 1 || count == 1) {
    fn(0, begin, end);
    return;
  }
  if (chunkSize == 0) {
    // Aim for ~8 chunks per thread so stragglers can be absorbed.
    chunkSize = std::max<uint64_t>(1, count / (8ull * numThreads));
  }
  std::atomic<uint64_t> next{begin};
  forkJoin(numThreads, [&](unsigned worker) {
    for (;;) {
      const uint64_t lo = next.fetch_add(chunkSize, std::memory_order_relaxed);
      if (lo >= end) {
        break;
      }
      fn(worker, lo, std::min(end, lo + chunkSize));
    }
  });
}

void parallelForBlocked(
    uint64_t begin, uint64_t end,
    const std::function<void(unsigned, uint64_t, uint64_t)>& fn,
    unsigned numThreads) {
  if (begin > end) {
    throw std::invalid_argument("parallelForBlocked: begin > end");
  }
  const uint64_t count = end - begin;
  if (numThreads <= 1) {
    fn(0, begin, end);
    return;
  }
  forkJoin(numThreads, [&](unsigned tid) {
    const uint64_t lo = begin + count * tid / numThreads;
    const uint64_t hi = begin + count * (tid + 1) / numThreads;
    fn(tid, lo, hi);
  });
}

void onEach(const std::function<void(unsigned, unsigned)>& fn,
            unsigned numThreads) {
  if (numThreads == 0) {
    numThreads = 1;
  }
  forkJoin(numThreads, [&](unsigned tid) { fn(tid, numThreads); });
}

unsigned defaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace cusp::support
