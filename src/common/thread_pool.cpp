#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <climits>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/env.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vlacnn {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = default_threads();
  // The calling thread always participates in parallel_for, so a pool on an
  // N-way machine only needs N-1 helpers to saturate it.
  const unsigned helpers = threads > 0 ? threads - 1 : 0;
  // Resolve the obs singletons before any worker exists: workers emit metrics
  // and spans, and touching the singletons here fixes static-destruction
  // order so they outlive the shared pool.
  obs::Registry& reg = obs::Registry::global();
  obs::Tracer::global();
  tasks_submitted_ = &reg.counter("thread_pool.tasks_submitted");
  tasks_executed_ = &reg.counter("thread_pool.tasks_executed");
  busy_us_ = &reg.counter("thread_pool.busy_us");
  queue_depth_ = &reg.gauge("thread_pool.queue_depth");
  reg.gauge("thread_pool.workers").set(helpers);
  obs::log(obs::LogLevel::kDebug, "thread_pool", "started",
           {{"workers", std::to_string(helpers)}});
  workers_.reserve(helpers);
  for (unsigned i = 0; i < helpers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  cv_.notify_one();
  if (obs::metrics_enabled()) {
    tasks_submitted_->add();
    queue_depth_->set(static_cast<std::int64_t>(depth));
  }
}

std::size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    std::size_t depth;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      depth = queue_.size();
    }
    if (obs::metrics_enabled()) {
      queue_depth_->set(static_cast<std::int64_t>(depth));
      const auto t0 = std::chrono::steady_clock::now();
      task();
      busy_us_->add(static_cast<std::uint64_t>(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - t0)
              .count()));
      tasks_executed_->add();
    } else {
      task();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared loop state: indices are claimed exactly once from `next`; `done`
  // counts completed calls. State is shared_ptr-owned because helper tasks
  // claimed from the queue after the loop has drained must still be able to
  // observe `next >= n` and return without touching freed memory (`fn` is only
  // dereferenced for claimed indices, all of which complete before we return).
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t n;
    const std::function<void(std::size_t)>* fn;
    std::mutex m;
    std::condition_variable cv;
    std::exception_ptr err;  // first failure, guarded by m
  };
  auto st = std::make_shared<State>();
  st->n = n;
  st->fn = &fn;

  auto drain = [st] {
    for (;;) {
      const std::size_t i = st->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= st->n) return;
      try {
        (*st->fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(st->m);
        if (!st->err) st->err = std::current_exception();
      }
      if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 == st->n) {
        std::lock_guard<std::mutex> lk(st->m);
        st->cv.notify_all();
      }
    }
  };

  const std::size_t helpers =
      std::min<std::size_t>(workers_.size(), n - 1);
  for (std::size_t i = 0; i < helpers; ++i) submit(drain);
  drain();  // the caller works too; nested calls therefore cannot deadlock

  std::unique_lock<std::mutex> lk(st->m);
  st->cv.wait(lk, [&] { return st->done.load(std::memory_order_acquire) >= n; });
  if (st->err) std::rethrow_exception(st->err);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

unsigned ThreadPool::default_threads() {
  if (const auto n = env_uint("VLACNN_THREADS", 1, UINT_MAX)) {
    return static_cast<unsigned>(*n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace vlacnn
