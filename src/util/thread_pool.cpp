#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace gridsched::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  // Drain every future before reporting: a rethrow mid-drain would leave
  // later tasks running against destroyed caller state. One failure
  // rethrows the original exception (type intact — CancelledError vs
  // plain faults stay distinguishable); several failures aggregate into
  // one AggregateError that preserves every what().
  std::vector<std::exception_ptr> errors;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      errors.push_back(std::current_exception());
    }
  }
  if (errors.size() == 1) std::rethrow_exception(errors.front());
  if (errors.size() > 1) {
    std::vector<std::string> messages;
    messages.reserve(errors.size());
    for (const std::exception_ptr& error : errors) {
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        messages.emplace_back(e.what());
      } catch (...) {
        messages.emplace_back("unknown non-std exception");
      }
    }
    throw AggregateError(std::move(messages));
  }
}

}  // namespace gridsched::util
