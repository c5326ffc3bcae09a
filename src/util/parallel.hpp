// Small concurrency layer for the kit's embarrassingly parallel loops
// (batch compilation, Monte Carlo sharding, characterization, benches).
//
// Design rules, in keeping with the api:: error contract:
//  * deterministic results — parallel_for/parallel_map assign work by
//    index, so outputs land in input order and a run is bit-identical
//    regardless of thread count or scheduling;
//  * no exception crosses a thread boundary — task exceptions are caught
//    at the task edge and surface as one util::Result/Diagnostic (the
//    failure with the lowest index, so even the reported error is
//    schedule-independent);
//  * fixed-size pool — ThreadPool never grows, and its destructor drains
//    the queue and joins every worker, so scopes own their parallelism;
//  * no per-call thread spawn — parallel_for borrows helpers from one
//    process-wide shared_pool() and the CALLING thread participates as a
//    worker, so a call makes progress even when every helper is busy
//    (which also makes nested parallel_for deadlock-free: a waiting
//    caller has already run every item it could claim, and the items it
//    waits on are executing on live threads, never stranded in a queue).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "util/result.hpp"

namespace cnfet::util {

/// Usable hardware parallelism, always >= 1 (hardware_concurrency() may
/// legally return 0 on exotic platforms).
[[nodiscard]] int hardware_threads();

/// Resolves a user-facing thread-count knob: 0 means "one per hardware
/// thread", negative values fall back to 1, and the result is clamped to
/// [1, n] so callers never spawn more workers than there are work items.
[[nodiscard]] int resolve_threads(int num_threads, std::int64_t n);

/// Fixed-size worker pool over a FIFO task queue. Submitted tasks must not
/// throw (parallel_for wraps its tasks; direct users wrap their own) —
/// a throwing task terminates, same as an escaping exception on a plain
/// std::thread. Destruction finishes every queued task, then joins.
class ThreadPool {
 public:
  /// num_threads == 0 means one worker per hardware thread.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Invalid after shutdown()/drain() (contract
  /// violation); callers racing a graceful stop use try_submit instead.
  void submit(std::function<void()> task);

  /// Enqueues unless the pool is draining or shut down, in which case it
  /// returns false and the task is NOT queued. The graceful-stop-safe
  /// submit: the cnfetd request dispatcher rejects late work with a
  /// structured error instead of tripping a contract check.
  [[nodiscard]] bool try_submit(std::function<void()> task);

  /// Enqueues a whole batch under ONE lock acquisition with ONE wake-up
  /// (notify_all for multi-task batches, notify_one for singletons), or
  /// rejects the whole batch if the pool is draining — all-or-nothing,
  /// so no task is silently lost. This is the submit path parallel_for
  /// uses: per-task submit on an N-task fan-out costs N lock round-trips
  /// and N cv signals; one batch costs one of each.
  [[nodiscard]] bool try_submit_batch(std::vector<std::function<void()>> tasks);

  /// Blocks until the queue is empty and every in-flight task finished.
  void wait_idle();

  /// Graceful stop: new work is rejected (submit trips a contract check,
  /// try_submit returns false) but every already-queued task still runs;
  /// returns after the queue is empty and all workers joined. Idempotent,
  /// and what the cnfetd signal handler path calls to finish in-flight
  /// flows before exiting.
  void drain();

  /// Finishes every queued task, joins all workers. Idempotent; the
  /// destructor calls it. (Same completion semantics as drain(); the two
  /// names exist so call sites say whether they are a scope ending or a
  /// deliberate lifecycle transition.)
  void shutdown();

  /// True once drain()/shutdown() has begun: the pool no longer accepts
  /// work, though queued tasks may still be running.
  [[nodiscard]] bool draining() const;

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;   ///< queue non-empty or stopping
  std::condition_variable all_idle_;     ///< queue empty and nothing running
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int running_ = 0;       ///< tasks currently executing
  bool stopping_ = false;
};

/// The process-wide helper pool parallel_for borrows workers from,
/// created on first use with hardware_threads() - 1 workers (minimum 1):
/// the calling thread is always the Nth worker, so a machine's cores are
/// covered without oversubscription, and no parallel_for call ever pays
/// a thread spawn. Function-local static: destroyed (drained + joined)
/// at process exit, after main returns.
[[nodiscard]] ThreadPool& shared_pool();

/// Per-worker persistent scratch slot: one default-constructed T per OS
/// thread, reused across parallel_for items and across calls. This is
/// how hot loops keep warm buffers (solver workspaces, netlist clones,
/// arenas) without sharing: each worker mutates only its own T, and
/// because results are keyed by item index — never by which worker ran
/// the item — determinism is preserved. The slot lives until the thread
/// exits (helpers: shared_pool() shutdown; callers: thread end).
template <typename T>
[[nodiscard]] T& worker_scratch() {
  thread_local T scratch;
  return scratch;
}

/// Success value of parallel_for (Result<T> needs a T even when the
/// product is side effects).
struct ParallelDone {
  std::int64_t tasks = 0;
};

/// Runs fn(0) .. fn(n-1), sharding indices across up to `num_threads`
/// workers (0 = hardware threads; <=1 or n<=1 runs inline). Workers claim
/// `grain` consecutive indices at a time — coarsen it (16-64) when fn is
/// cheap so claims don't contend on the shared counter. Exceptions
/// thrown by fn are captured at the task boundary; every task still gets
/// scheduled, and the failure with the LOWEST index is returned so the
/// outcome does not depend on thread timing. fn must be safe to call
/// concurrently for distinct indices.
///
/// Threading: helper tasks are batch-submitted to shared_pool() and the
/// calling thread participates, so the call never blocks on helper
/// availability and spawns no threads. At most one helper is queued per
/// grain-sized span and per pool worker, whatever `num_threads` asks for.
[[nodiscard]] Result<ParallelDone> parallel_for(
    std::int64_t n, const std::function<void(std::int64_t)>& fn,
    int num_threads = 0, std::int64_t grain = 1);

/// parallel_for that collects fn(i) into a vector with result i at slot i
/// (deterministic ordering regardless of schedule).
template <typename Fn>
[[nodiscard]] auto parallel_map(std::int64_t n, Fn&& fn, int num_threads = 0)
    -> Result<std::vector<decltype(fn(std::int64_t{}))>> {
  using T = decltype(fn(std::int64_t{}));
  std::vector<std::optional<T>> slots(static_cast<std::size_t>(n));
  auto ran = parallel_for(
      n,
      [&](std::int64_t i) { slots[static_cast<std::size_t>(i)] = fn(i); },
      num_threads);
  if (!ran.ok()) return ran.error();
  std::vector<T> out;
  out.reserve(slots.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace cnfet::util
