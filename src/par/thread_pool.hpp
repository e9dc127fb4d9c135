// Work-stealing-free thread pool and chunked parallel-for.
//
// The execution layer for the sharded pipeline (DESIGN.md §10). A fixed set
// of workers pulls tasks FIFO from a single queue — no stealing, no
// per-worker deques — because determinism never comes from scheduling here:
// callers write shard results into per-shard slots and merge them in shard
// order on the coordinating thread. The pool only guarantees that every task
// of a batch ran and that its writes are visible when the batch barrier
// returns (the barrier's mutex establishes the happens-before edge).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <thread>
#include <utility>
#include <vector>

namespace certchain::par {

/// Resolves a requested worker count: 0 means "whatever the hardware says"
/// (at least 1); anything else is taken literally.
std::size_t resolve_threads(std::size_t requested);

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = hardware concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs every task and blocks until all of them finished. Tasks may run on
  /// any worker in any order; the calling thread only waits. If tasks threw,
  /// the exception of the lowest task index is rethrown after the batch
  /// drained (so a failure never leaves tasks running against destroyed
  /// caller state). Must not be called from inside one of the pool's own
  /// tasks — the workers blocking on the inner batch would deadlock.
  void run_batch(std::vector<std::function<void()>> tasks);

  /// Enqueues one task without waiting for it — the service-layer shape
  /// (svc::Server submits its long-running request-worker loops this way).
  /// The task must not throw; an escaping exception would terminate the
  /// worker thread's std::function call and the process. The destructor
  /// still drains the queue before joining, so every submitted task runs.
  void submit(std::function<void()> task);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
};

/// The pool for a requested worker count (0 = hardware concurrency): null
/// when that resolves to one worker, so single-worker callers run inline and
/// spawn no thread; otherwise a pool of that many workers.
std::unique_ptr<ThreadPool> make_pool(std::size_t requested);

/// Chunk count for a pool-or-inline run: one chunk per worker, and exactly
/// one chunk when `pool` is null.
inline std::size_t chunk_count(const ThreadPool* pool) {
  return pool == nullptr ? 1 : pool->size();
}

/// Splits [0, total) into exactly `chunks` contiguous index ranges — chunk k
/// is [begin_k, end_k) with begin_0 = 0, end_{chunks-1} = total, sizes as
/// even as integer division allows — and runs `body(chunk, begin, end)` for
/// every chunk, including empty ones (so per-chunk result slots stay aligned
/// with chunk indices). With a null pool or a single chunk the body runs
/// inline on the calling thread, in chunk order; otherwise chunks run as one
/// pool batch. Blocks until every chunk completed; rethrows the first
/// chunk's exception (by chunk index).
void parallel_for_chunks(
    ThreadPool* pool, std::size_t total, std::size_t chunks,
    const std::function<void(std::size_t chunk, std::size_t begin,
                             std::size_t end)>& body);

/// The one reduction rule of every chunked computation: the result starts as
/// chunk 0's partial, moved in, and chunks 1..N-1 merge into it in chunk
/// order through `merged.merge_from(std::move(partial))`. A single chunk
/// therefore costs no merge at all. `partials` must not be empty; its
/// elements are left moved-from.
template <typename Partial>
Partial merge_chunks(std::vector<Partial>& partials) {
  Partial merged = std::move(partials.front());
  for (std::size_t i = 1; i < partials.size(); ++i) {
    merged.merge_from(std::move(partials[i]));
  }
  return merged;
}

}  // namespace certchain::par
