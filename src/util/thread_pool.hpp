// A small fixed-size thread pool with a blocking work queue and a
// parallel_for helper: the campaign runner's per-cell fan-out, the one
// place the library runs work on threads (GA fitness is serial).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace gridsched::util {

/// Several workers of one parallel_for failed. Every worker's what() is
/// preserved (messages(), and all of them joined into what()) so a
/// campaign abort can name every failed cell instead of only the first.
/// A single worker failure rethrows the original exception unchanged —
/// this type only appears for genuinely concurrent failures.
class AggregateError : public std::runtime_error {
 public:
  explicit AggregateError(std::vector<std::string> messages)
      : std::runtime_error(join(messages)), messages_(std::move(messages)) {}

  [[nodiscard]] const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }

 private:
  static std::string join(const std::vector<std::string>& messages) {
    std::string what =
        std::to_string(messages.size()) + " parallel tasks failed:";
    for (const std::string& message : messages) {
      what += "\n  - " + message;
    }
    return what;
  }

  std::vector<std::string> messages_;
};

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task and get a future for its result. Exceptions thrown by
  /// the task are captured in the future.
  template <typename F, typename R = std::invoke_result_t<F>>
  std::future<R> submit(F&& fn) {
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) {
        throw std::runtime_error("ThreadPool::submit on stopped pool");
      }
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Run fn(i) for i in [0, n) across the pool, blocking until all complete.
  /// Each index is its own task, so an idle worker takes the next index
  /// while a slow one is still running. A single failing task rethrows its
  /// exception unchanged; when several fail an AggregateError carrying
  /// every what() is thrown instead (no failure is ever silently dropped).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace gridsched::util
