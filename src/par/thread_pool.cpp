#include "par/thread_pool.hpp"

#include <exception>
#include <utility>

namespace certchain::par {

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<std::size_t>(hardware);
}

std::unique_ptr<ThreadPool> make_pool(std::size_t requested) {
  const std::size_t threads = resolve_threads(requested);
  if (threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(threads);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = resolve_threads(threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.emplace_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::run_batch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;

  // The batch state lives on this stack frame; run_batch blocks until
  // `pending` hits zero, so the tasks' references stay valid.
  struct Batch {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t pending = 0;
    std::vector<std::exception_ptr> errors;
  };
  Batch batch;
  batch.pending = tasks.size();
  batch.errors.resize(tasks.size());

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      queue_.emplace_back([&batch, i, task = std::move(tasks[i])] {
        try {
          task();
        } catch (...) {
          batch.errors[i] = std::current_exception();
        }
        std::lock_guard<std::mutex> batch_lock(batch.mutex);
        if (--batch.pending == 0) batch.done.notify_all();
      });
    }
  }
  work_available_.notify_all();

  std::unique_lock<std::mutex> batch_lock(batch.mutex);
  batch.done.wait(batch_lock, [&batch] { return batch.pending == 0; });
  for (std::exception_ptr& error : batch.errors) {
    if (error) std::rethrow_exception(error);
  }
}

void parallel_for_chunks(
    ThreadPool* pool, std::size_t total, std::size_t chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (chunks == 0) return;
  const auto chunk_begin = [total, chunks](std::size_t chunk) {
    return chunk * total / chunks;
  };
  if (pool == nullptr || chunks == 1) {
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      body(chunk, chunk_begin(chunk), chunk_begin(chunk + 1));
    }
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(chunks);
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    tasks.emplace_back([&body, chunk, begin = chunk_begin(chunk),
                        end = chunk_begin(chunk + 1)] { body(chunk, begin, end); });
  }
  pool->run_batch(std::move(tasks));
}

}  // namespace certchain::par
