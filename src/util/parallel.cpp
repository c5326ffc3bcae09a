#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "util/error.hpp"

namespace cnfet::util {

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int resolve_threads(int num_threads, std::int64_t n) {
  const int want = num_threads == 0 ? hardware_threads()
                   : num_threads < 0 ? 1
                                     : num_threads;
  if (n < 1) return 1;
  return static_cast<int>(std::min<std::int64_t>(want, n));
}

ThreadPool::ThreadPool(int num_threads) {
  CNFET_REQUIRE(num_threads >= 0);
  const int count = num_threads == 0 ? hardware_threads() : num_threads;
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::submit(std::function<void()> task) {
  CNFET_REQUIRE(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CNFET_REQUIRE_MSG(!stopping_, "submit() on a shut-down ThreadPool");
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

bool ThreadPool::try_submit(std::function<void()> task) {
  CNFET_REQUIRE(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return false;
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
  return true;
}

bool ThreadPool::try_submit_batch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return true;
  for (const auto& task : tasks) CNFET_REQUIRE(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return false;  // all-or-nothing: no partial enqueue
    for (auto& task : tasks) queue_.push_back(std::move(task));
  }
  // One wake-up for the whole batch. A single task wakes a single
  // worker; a fan-out wakes them all at once instead of N times.
  if (tasks.size() == 1) {
    work_ready_.notify_one();
  } else {
    work_ready_.notify_all();
  }
  return true;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

void ThreadPool::drain() { shutdown(); }

bool ThreadPool::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stopping_;
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      if (queue_.empty() && running_ == 0) all_idle_.notify_all();
    }
  }
}

ThreadPool& shared_pool() {
  // hardware_threads() - 1 helpers: the parallel_for caller is always
  // the extra worker, so total concurrency matches the machine. Static
  // lifetime (not leaked) so the ASan leak checker stays clean and the
  // workers join at exit.
  static ThreadPool pool(std::max(1, hardware_threads() - 1));
  return pool;
}

namespace {

struct IndexedFailure {
  std::int64_t index = 0;
  Diagnostic diagnostic;
};

Diagnostic task_failure(std::int64_t index, const char* what) {
  return Diagnostic{Severity::kError, "parallel",
                    "task " + std::to_string(index) + " failed: " + what};
}

/// Shared state of one parallel_for call. Helpers hold it by shared_ptr
/// so a straggler task that starts after the caller returned (all items
/// already claimed) only touches the atomic counter and exits.
struct ForState {
  std::int64_t n = 0;
  std::int64_t grain = 1;
  const std::function<void(std::int64_t)>* fn = nullptr;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> done{0};
  std::mutex mutex;                      ///< guards failures + wakeup pairing
  std::condition_variable all_done;
  std::vector<IndexedFailure> failures;
};

/// Claims and runs grain-sized spans until the index space is exhausted.
/// Both the caller and every helper run this exact loop — the caller is
/// just another worker, which is what guarantees progress (and therefore
/// deadlock-freedom) even when the shared pool is saturated.
void run_spans(ForState& state) {
  for (;;) {
    const std::int64_t begin = state.next.fetch_add(state.grain);
    if (begin >= state.n) return;
    const std::int64_t end = std::min(state.n, begin + state.grain);
    for (std::int64_t i = begin; i < end; ++i) {
      try {
        (*state.fn)(i);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(state.mutex);
        state.failures.push_back({i, task_failure(i, e.what())});
      } catch (...) {
        std::lock_guard<std::mutex> lock(state.mutex);
        state.failures.push_back({i, task_failure(i, "unknown exception")});
      }
    }
    const std::int64_t finished =
        state.done.fetch_add(end - begin) + (end - begin);
    if (finished == state.n) {
      // Pair the notify with the waiter's predicate check so the final
      // wake-up can't be lost between check and wait.
      std::lock_guard<std::mutex> lock(state.mutex);
      state.all_done.notify_all();
    }
  }
}

}  // namespace

Result<ParallelDone> parallel_for(std::int64_t n,
                                  const std::function<void(std::int64_t)>& fn,
                                  int num_threads, std::int64_t grain) {
  CNFET_REQUIRE(n >= 0);
  CNFET_REQUIRE(grain >= 1);
  if (n == 0) return ParallelDone{0};
  const int threads = resolve_threads(num_threads, n);

  if (threads <= 1) {
    // Mirror the threaded path: every task runs even after a failure, and
    // the lowest-index failure is what gets reported.
    std::optional<Diagnostic> first_failure;
    for (std::int64_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (const std::exception& e) {
        if (!first_failure) first_failure = task_failure(i, e.what());
      } catch (...) {
        if (!first_failure) first_failure = task_failure(i, "unknown exception");
      }
    }
    if (first_failure) return *first_failure;
    return ParallelDone{n};
  }

  auto state = std::make_shared<ForState>();
  state->n = n;
  state->grain = grain;
  state->fn = &fn;

  // Borrow helpers from the shared pool — batched, one lock + one
  // notify. More than one per span, or more than the pool has workers,
  // would only queue closures that find nothing left to claim (and
  // `threads` may come from outside input). If the pool is draining
  // (process exit) the batch is rejected and the caller simply runs
  // everything itself.
  const std::int64_t spans = (n + grain - 1) / grain;
  const int num_helpers = static_cast<int>(
      std::min<std::int64_t>({threads, spans, shared_pool().size() + 1}) - 1);
  std::vector<std::function<void()>> helpers;
  helpers.reserve(static_cast<std::size_t>(num_helpers));
  for (int h = 0; h < num_helpers; ++h) {
    helpers.push_back([state] { run_spans(*state); });
  }
  (void)shared_pool().try_submit_batch(std::move(helpers));

  // The caller is worker N: claim spans until none are left, then wait
  // for the spans other workers claimed to finish.
  run_spans(*state);
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->all_done.wait(lock, [&] { return state->done.load() == n; });
  }

  if (!state->failures.empty()) {
    const auto first = std::min_element(
        state->failures.begin(), state->failures.end(),
        [](const auto& a, const auto& b) { return a.index < b.index; });
    return first->diagnostic;
  }
  return ParallelDone{n};
}

}  // namespace cnfet::util
