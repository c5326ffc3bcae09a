// util::parallel (pool lifecycle, determinism, exception capture) and the
// serial-vs-threaded equivalence contracts of run_batch / monte_carlo.
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/batch.hpp"
#include "api/library_cache.hpp"
#include "cnt/analyzer.hpp"
#include "gen/gen.hpp"
#include "layout/cells.hpp"
#include "liberty/library.hpp"
#include "opt/opt.hpp"
#include "sta/timing_graph.hpp"
#include "util/heap_count.hpp"
#include "util/parallel.hpp"

namespace cnfet {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&] { ++ran; });
    }
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 100);
  }
}

TEST(ThreadPool, ShutdownDrainsQueuedTasksAndIsIdempotent) {
  std::atomic<int> ran{0};
  util::ThreadPool pool(2);
  for (int i = 0; i < 32; ++i) {
    pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++ran;
    });
  }
  pool.shutdown();  // must finish all 32, not abandon the queue
  EXPECT_EQ(ran.load(), 32);
  pool.shutdown();  // second call is a no-op (and so is the destructor)
}

TEST(ThreadPool, DrainFinishesQueuedWorkAndRejectsNew) {
  std::atomic<int> ran{0};
  util::ThreadPool pool(2);
  EXPECT_FALSE(pool.draining());
  for (int i = 0; i < 24; ++i) {
    EXPECT_TRUE(pool.try_submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++ran;
    }));
  }
  pool.drain();  // blocks until the 24 queued tasks finish
  EXPECT_EQ(ran.load(), 24);
  EXPECT_TRUE(pool.draining());
  // A drained pool admits nothing — the daemon relies on this to bound
  // shutdown: readers racing stop() get a clean false, never a lost task.
  EXPECT_FALSE(pool.try_submit([&] { ++ran; }));
  EXPECT_EQ(ran.load(), 24);
  pool.drain();  // idempotent
}

TEST(ThreadPool, BatchSubmitRunsEveryTaskExactlyOnce) {
  std::atomic<int> ran{0};
  util::ThreadPool pool(3);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.emplace_back([&] { ++ran; });
  }
  EXPECT_TRUE(pool.try_submit_batch(std::move(tasks)));
  EXPECT_TRUE(pool.try_submit_batch({}));  // empty batch is a no-op success
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, NoTaskLostAcrossDrainWithBatches) {
  // The lifecycle contract batched submission must keep: everything
  // accepted before drain() runs to completion; a batch racing or
  // following drain() is rejected whole (all-or-nothing), never
  // partially enqueued — so accepted + rejected always accounts for
  // every task.
  std::atomic<int> ran{0};
  util::ThreadPool pool(2);
  int accepted = 0;
  for (int b = 0; b < 8; ++b) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.emplace_back([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++ran;
      });
    }
    if (pool.try_submit_batch(std::move(tasks))) accepted += 16;
  }
  pool.drain();
  EXPECT_EQ(ran.load(), accepted);
  EXPECT_EQ(accepted, 128);
  // Post-drain batches are rejected and run nothing.
  std::vector<std::function<void()>> late;
  late.emplace_back([&] { ++ran; });
  late.emplace_back([&] { ++ran; });
  EXPECT_FALSE(pool.try_submit_batch(std::move(late)));
  EXPECT_EQ(ran.load(), accepted);
}

TEST(SharedPool, IsOneProcessWidePoolAndSurvivesUse) {
  util::ThreadPool& a = util::shared_pool();
  util::ThreadPool& b = util::shared_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1);
  // parallel_for rides the shared pool and must leave it reusable.
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> sum{0};
    auto done = util::parallel_for(
        100, [&](std::int64_t i) { sum += static_cast<int>(i); }, 4);
    ASSERT_TRUE(done.ok());
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(WorkerScratch, IsStablePerThreadAcrossCalls) {
  struct Scratch {
    std::vector<int> data;
  };
  // Within one worker (here: the calling thread via the serial path), the
  // scratch object and its grown capacity persist across parallel_for
  // calls — the property the characterization grid's zero-allocation
  // steady state is built on.
  void* first = nullptr;
  std::size_t capacity = 0;
  for (int round = 0; round < 3; ++round) {
    auto done = util::parallel_for(
        1,
        [&](std::int64_t) {
          auto& scratch = util::worker_scratch<Scratch>();
          if (scratch.data.capacity() < 1024) scratch.data.reserve(1024);
          if (first == nullptr) {
            first = &scratch;
            capacity = scratch.data.capacity();
          } else {
            EXPECT_EQ(first, &scratch);
            EXPECT_EQ(capacity, scratch.data.capacity());
          }
        },
        1);
    ASSERT_TRUE(done.ok());
  }
}

TEST(ThreadPool, DestructorJoinsWithoutLosingWork) {
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(3);
    for (int i = 0; i < 48; ++i) {
      pool.submit([&] { ++ran; });
    }
  }  // destructor drains + joins
  EXPECT_EQ(ran.load(), 48);
}

TEST(ParallelFor, SameResultForEveryThreadCount) {
  auto run = [](int num_threads) {
    std::vector<std::int64_t> out(257);
    auto done = util::parallel_for(
        257, [&](std::int64_t i) { out[i] = i * i; }, num_threads);
    EXPECT_TRUE(done.ok());
    EXPECT_EQ(done.value().tasks, 257);
    return out;
  };
  const auto serial = run(1);
  for (const int threads : {2, 4, 8, 0}) {
    EXPECT_EQ(run(threads), serial) << threads << " threads";
  }
}

TEST(ParallelFor, EmptyRangeIsANoop) {
  const auto done = util::parallel_for(0, [](std::int64_t) { FAIL(); }, 4);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done.value().tasks, 0);
}

TEST(ParallelFor, CapturesExceptionsAsLowestIndexDiagnostic) {
  for (const int threads : {1, 4}) {
    std::atomic<int> attempted{0};
    auto done = util::parallel_for(
        64,
        [&](std::int64_t i) {
          ++attempted;
          if (i == 7 || i == 41) {
            throw std::runtime_error("boom at " + std::to_string(i));
          }
        },
        threads);
    ASSERT_FALSE(done.ok()) << threads << " threads";
    EXPECT_EQ(done.error().stage, "parallel");
    EXPECT_NE(done.error().message.find("task 7"), std::string::npos)
        << done.error().message;
    // A failure never cancels the remaining tasks, at any thread count.
    EXPECT_EQ(attempted.load(), 64) << threads << " threads";
  }
}

TEST(ParallelFor, QueuesNoMoreHelpersThanThePoolHasWorkers) {
  if (!util::heap_counting_enabled()) {
    GTEST_SKIP() << "heap-allocation counting is compiled out";
  }
  // A thread count from outside input (a served monte_carlo or batch
  // request) must not turn into one queued closure per requested thread.
  // The shared pool has a fixed size, so no OS thread is started here.
  std::vector<std::int64_t> out(4096);
  const std::function<void(std::int64_t)> fn = [&](std::int64_t i) {
    out[static_cast<std::size_t>(i)] = i;
  };
  const std::uint64_t before = util::heap_allocs_this_thread();
  const auto done = util::parallel_for(4096, fn, 4096, 1);
  const std::uint64_t allocs = util::heap_allocs_this_thread() - before;
  ASSERT_TRUE(done.ok());
  EXPECT_LE(allocs,
            static_cast<std::uint64_t>(util::hardware_threads() + 8));
  EXPECT_EQ(out[4095], 4095);
}

TEST(ParallelMap, OrderingIsDeterministic) {
  auto mapped = util::parallel_map(
      100, [](std::int64_t i) { return 3 * i + 1; }, 4);
  ASSERT_TRUE(mapped.ok());
  const auto& values = mapped.value();
  ASSERT_EQ(values.size(), 100u);
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(values[static_cast<std::size_t>(i)], 3 * i + 1);
  }
}

TEST(ParallelMap, PropagatesTaskFailure) {
  auto mapped = util::parallel_map(
      8,
      [](std::int64_t i) -> int {
        if (i == 2) throw std::runtime_error("bad item");
        return static_cast<int>(i);
      },
      4);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.error().message.find("task 2"), std::string::npos);
}

TEST(ResolveThreads, ClampsToWorkAndHardware) {
  EXPECT_EQ(util::resolve_threads(4, 2), 2);   // never more than items
  EXPECT_EQ(util::resolve_threads(3, 100), 3);
  EXPECT_GE(util::resolve_threads(0, 100), 1);  // 0 = hardware, >= 1
  EXPECT_EQ(util::resolve_threads(5, 0), 1);
  EXPECT_EQ(util::resolve_threads(-3, 10), 1);  // negatives fall back to 1
}

// --- the documented reproducibility contracts ------------------------------

TEST(MonteCarloParallel, BitIdenticalAcrossThreadCounts) {
  // The vulnerable layout gives non-trivial failing_trials, so equality is
  // a real check, not 0 == 0.
  layout::CellBuildOptions vulnerable;
  vulnerable.style = layout::LayoutStyle::kNaiveVulnerable;
  const auto built =
      layout::build_cell(layout::find_cell_spec("NAND2"), vulnerable);
  auto run = [&](int num_threads) {
    return cnt::monte_carlo(built.layout, built.netlist, built.function,
                            cnt::TubeModel{}, 300, 42, num_threads);
  };
  const auto serial = run(1);
  EXPECT_GT(serial.failing_trials, 0);
  for (const int threads : {2, 4, 0}) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.trials, serial.trials) << threads;
    EXPECT_EQ(parallel.failing_trials, serial.failing_trials) << threads;
    EXPECT_EQ(parallel.tubes_sampled, serial.tubes_sampled) << threads;
    EXPECT_EQ(parallel.stray_shorts, serial.stray_shorts) << threads;
    EXPECT_EQ(parallel.stray_chains, serial.stray_chains) << threads;
  }
}

TEST(RunBatchParallel, ReportByteStableVsSerial) {
  const auto jobs = api::family_jobs({layout::Tech::kCnfet65});
  api::BatchOptions serial_options;
  const auto serial = api::run_batch(jobs, serial_options);
  ASSERT_EQ(serial.num_ok(), jobs.size());

  api::BatchOptions threaded_options;
  threaded_options.num_threads = 4;
  const auto threaded = api::run_batch(jobs, threaded_options);

  ASSERT_EQ(threaded.jobs.size(), serial.jobs.size());
  for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
    EXPECT_EQ(threaded.jobs[i].name, serial.jobs[i].name);
    EXPECT_EQ(threaded.jobs[i].ok, serial.jobs[i].ok);
  }
  EXPECT_EQ(threaded.to_string(), serial.to_string());
  EXPECT_EQ(threaded.merged_diagnostics().to_string(),
            serial.merged_diagnostics().to_string());
}

TEST(CharacterizationParallel, TablesBitIdenticalAcrossThreadCounts) {
  // The slew-row-sharded grid with per-worker scratches must produce the
  // same bits as the serial sweep: results are keyed by grid index and
  // every scratch-backed transient rebuilds the identical MNA system.
  liberty::CharacterizeOptions options;
  options.num_threads = 1;
  const auto spec = layout::find_cell_spec("NAND2");
  const auto serial = liberty::characterize_cell(spec, 1.0, options);
  for (const int threads : {2, 8}) {
    options.num_threads = threads;
    const auto parallel = liberty::characterize_cell(spec, 1.0, options);
    ASSERT_EQ(parallel.arcs.size(), serial.arcs.size()) << threads;
    for (std::size_t a = 0; a < serial.arcs.size(); ++a) {
      const auto& slews = serial.arcs[a].delay.slews();
      const auto& loads = serial.arcs[a].delay.loads();
      for (std::size_t si = 0; si < slews.size(); ++si) {
        for (std::size_t li = 0; li < loads.size(); ++li) {
          EXPECT_EQ(parallel.arcs[a].delay.at(si, li),
                    serial.arcs[a].delay.at(si, li))
              << threads << " threads, arc " << a;
          EXPECT_EQ(parallel.arcs[a].out_slew.at(si, li),
                    serial.arcs[a].out_slew.at(si, li))
              << threads << " threads, arc " << a;
          EXPECT_EQ(parallel.arcs[a].energy.at(si, li),
                    serial.arcs[a].energy.at(si, li))
              << threads << " threads, arc " << a;
        }
      }
    }
  }
}

TEST(OptSizingParallel, ResultBitIdenticalAcrossThreadCounts) {
  // The sharded candidate sweep must pick the same winners as the serial
  // in-place sweep: ties break by (arrival, enumeration index) in both.
  const auto library =
      api::LibraryCache::global().get(layout::Tech::kCnfet65).value();
  gen::GenOptions gen_options;
  gen_options.family = gen::Family::kRandomDag;
  gen_options.target_gates = 300;
  gen_options.num_inputs = 16;
  gen_options.seed = 7;
  const auto design = gen::generate(*library, gen_options);

  auto run = [&](int threads) {
    auto netlist = design.netlist;
    sta::TimingGraph graph(netlist);
    opt::OptOptions options;
    options.num_threads = threads;
    options.max_sizing_rounds = 8;
    opt::PassStats stats;
    opt::size_gates(netlist, graph, *library, options,
                    opt::total_area(netlist) * 1.25, &stats);
    std::string cells;
    for (const auto& gate : netlist.gates()) {
      cells += gate.cell->name;
      cells += ",";
    }
    return std::make_tuple(cells, graph.worst_arrival(),
                           stats.gates_resized);
  };
  const auto serial = run(1);
  EXPECT_GT(std::get<2>(serial), 0);  // the sweep actually resized gates
  for (const int threads : {2, 8}) {
    EXPECT_EQ(run(threads), serial) << threads << " threads";
  }
}

TEST(MonteCarloParallel, BitIdenticalAtEightThreads) {
  // 8 > hardware on small CI boxes: oversubscription still shards by
  // trial index, so the tallies cannot depend on the worker layout.
  const auto built = layout::build_cell(layout::find_cell_spec("NAND3"));
  auto run = [&](int num_threads) {
    return cnt::monte_carlo(built.layout, built.netlist, built.function,
                            cnt::TubeModel{}, 400, 42, num_threads);
  };
  const auto serial = run(1);
  const auto wide = run(8);
  EXPECT_EQ(wide.failing_trials, serial.failing_trials);
  EXPECT_EQ(wide.tubes_sampled, serial.tubes_sampled);
  EXPECT_EQ(wide.stray_shorts, serial.stray_shorts);
  EXPECT_EQ(wide.stray_chains, serial.stray_chains);
}

TEST(RunBatchParallel, ReportByteStableAtEightThreads) {
  const auto jobs = api::family_jobs({layout::Tech::kCnfet65});
  const auto serial = api::run_batch(jobs, api::BatchOptions{});
  api::BatchOptions wide_options;
  wide_options.num_threads = 8;
  const auto wide = api::run_batch(jobs, wide_options);
  EXPECT_EQ(wide.to_string(), serial.to_string());
  EXPECT_EQ(wide.merged_diagnostics().to_string(),
            serial.merged_diagnostics().to_string());
}

TEST(RunBatchParallel, FailuresStayIndependentAcrossThreads) {
  std::vector<api::FlowJob> jobs;
  for (const char* cell : {"NAND2", "NO_SUCH_CELL", "INV", "ALSO_BOGUS"}) {
    api::FlowJob job;
    job.name = cell;
    job.cell = cell;
    jobs.push_back(std::move(job));
  }
  for (const int threads : {1, 4}) {
    api::BatchOptions options;
    options.num_threads = threads;
    const auto report = api::run_batch(jobs, options);
    EXPECT_EQ(report.num_ok(), 2u) << threads;
    EXPECT_EQ(report.num_failed(), 2u) << threads;
    EXPECT_TRUE(report.jobs[0].ok);
    EXPECT_FALSE(report.jobs[1].ok);
    EXPECT_TRUE(report.jobs[2].ok);
    EXPECT_FALSE(report.jobs[3].ok);
  }
}

TEST(RunBatchParallel, SerialFailFastSkipsJobsAfterFirstFailure) {
  std::vector<api::FlowJob> jobs;
  for (const char* cell : {"INV", "NO_SUCH_CELL", "NAND2"}) {
    api::FlowJob job;
    job.name = cell;
    job.cell = cell;
    jobs.push_back(std::move(job));
  }
  api::BatchOptions options;
  options.fail_fast = true;
  const auto report = api::run_batch(jobs, options);
  EXPECT_TRUE(report.jobs[0].ok);
  EXPECT_FALSE(report.jobs[1].ok);
  EXPECT_FALSE(report.jobs[2].ok);
  ASSERT_FALSE(report.jobs[2].diagnostics.empty());
  EXPECT_NE(report.jobs[2].diagnostics.items().front().message.find("skipped"),
            std::string::npos);
  // The machine-readable marker: only the never-started job carries the
  // skipped flag — the job that genuinely failed (also at kCreated) does
  // not, so report consumers can tell the two apart without string
  // matching.
  EXPECT_FALSE(report.jobs[0].skipped);
  EXPECT_FALSE(report.jobs[1].skipped);
  EXPECT_TRUE(report.jobs[2].skipped);
  EXPECT_EQ(report.jobs[1].reached, api::Stage::kCreated);
  EXPECT_EQ(report.jobs[2].reached, api::Stage::kCreated);
}

}  // namespace
}  // namespace cnfet
