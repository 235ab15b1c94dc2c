// Shared-memory parallel loop constructs, in the style of Galois' do_all.
//
// CuSP runs every phase of partitioning with intra-host parallelism: master
// assignment, edge assignment and graph construction all iterate over vertex
// or edge ranges with thread-safe updates (paper Section IV-C1). We provide:
//
//   * ThreadPool      — a persistent pool of worker threads.
//   * parallelFor     — chunked dynamic-scheduled loop over [begin, end).
//   * parallelForChunks — the same schedule, handing each chunk with the
//                       index of the worker that runs it.
//   * onEach          — run a function once per thread (thread id, count).
//
// Work distribution uses an atomic chunk counter, which gives the same
// load-balancing benefit as work stealing for loop-shaped work: a thread that
// finishes its chunk simply grabs the next one. The *calling* thread always
// participates, so parallelFor(…, threads = 1) runs inline with zero
// synchronization — important because the simulated cluster runs one thread
// per logical host and defaults to one worker per host.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cusp::support {

// A persistent pool of workers executing submitted jobs. Each job is a
// function of the worker index. The pool is intentionally simple: one mutex,
// one condition variable, jobs executed to completion before run() returns.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned numWorkers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned numWorkers() const { return static_cast<unsigned>(workers_.size()); }

  // Runs fn(workerIndex) on every pool worker plus the calling thread
  // (callers pass a fn that partitions work by index over numWorkers()+1
  // participants). Blocks until all invocations return. Not re-entrant.
  void runOnAll(const std::function<void(unsigned)>& fn);

 private:
  void workerLoop(unsigned index);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(unsigned)>* job_ = nullptr;
  uint64_t generation_ = 0;
  unsigned remaining_ = 0;
  bool shutdown_ = false;
};

// Chunked dynamic-scheduled parallel loop: calls fn(i) for every i in
// [begin, end). `numThreads` includes the calling thread; numThreads <= 1
// runs inline. Exceptions thrown by fn on any thread are rethrown on the
// caller (first one wins).
void parallelFor(uint64_t begin, uint64_t end,
                 const std::function<void(uint64_t)>& fn,
                 unsigned numThreads = 1, uint64_t chunkSize = 0);

// The schedule of parallelFor, one call per chunk: fn(worker, lo, hi) for
// disjoint [lo, hi) covering [begin, end). `worker` < max(1, numThreads)
// names the thread running the chunk (0 is the caller), so per-worker state
// indexed by it is single-writer. numThreads <= 1 runs fn(0, begin, end)
// inline. Exceptions propagate as in parallelFor.
void parallelForChunks(
    uint64_t begin, uint64_t end,
    const std::function<void(unsigned, uint64_t, uint64_t)>& fn,
    unsigned numThreads = 1, uint64_t chunkSize = 0);

// Block-scheduled variant handing each thread one contiguous [lo, hi) slice;
// fn(threadId, lo, hi). Useful when per-thread state (e.g. thread-local send
// buffers) should see a contiguous range.
void parallelForBlocked(
    uint64_t begin, uint64_t end,
    const std::function<void(unsigned, uint64_t, uint64_t)>& fn,
    unsigned numThreads = 1);

// Runs fn(threadId, numThreads) once on each of `numThreads` threads
// (including the caller).
void onEach(const std::function<void(unsigned, unsigned)>& fn,
            unsigned numThreads = 1);

// Default intra-host parallelism: hardware_concurrency clamped to >= 1.
unsigned defaultThreadCount();

}  // namespace cusp::support
