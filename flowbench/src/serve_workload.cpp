// serve_mix: a cnfetd with kThreads workers and kThreads client
// connections in a closed loop (each sends its next request when the last
// one is answered), replaying a fixed list of Table-1 requests in a seeded
// order: a routed compile of every cell for both technologies and two
// single-threaded Monte Carlo runs per cell. The list is fixed, so quality
// of result and per-kind latency do not depend on the seed; the seed picks
// the order and the Monte Carlo seeds.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "api/batch.hpp"
#include "api/serialize.hpp"
#include "serve/client.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace flowbench {

namespace api = cnfet::api;
namespace serve = cnfet::serve;
using cnfet::layout::Tech;

namespace {

constexpr const char* kTable1[] = {"INV",  "NAND2", "NOR2",  "NAND3", "NOR3",
                                   "AOI22", "OAI22", "AOI21", "OAI21"};
constexpr int kServeTrials = 10000;

struct ServeRequest {
  bool compile = false;
  std::string cell;
  std::uint64_t seed = 0;  ///< Monte Carlo seed
  json::Value wire;        ///< the request envelope sent to the daemon
};

std::vector<ServeRequest> serve_requests(std::uint64_t seed) {
  std::vector<ServeRequest> list;
  std::uint64_t mc_index = 0;
  for (const char* cell : kTable1) {
    for (const Tech tech : {Tech::kCnfet65, Tech::kCmos65}) {
      api::FlowJob job;
      job.cell = cell;
      job.options.tech = tech;
      job.options.route = true;
      ServeRequest r;
      r.compile = true;
      r.cell = cell;
      r.wire = serve::make_request(serve::RequestKind::kCompile);
      r.wire.set("job", api::to_json(job));
      list.push_back(std::move(r));
    }
    for (int rep = 0; rep < 2; ++rep) {
      ServeRequest r;
      r.cell = cell;
      r.seed = mc_seed(seed, 1000 + mc_index++);
      r.wire = serve::make_request(serve::RequestKind::kMonteCarlo);
      r.wire.set("cell", cell);
      r.wire.set("trials", kServeTrials);
      r.wire.set("seed", static_cast<std::int64_t>(r.seed));
      r.wire.set("threads", 1);
      list.push_back(std::move(r));
    }
  }
  cnfet::util::Xoshiro256 rng(mc_seed(seed, 0x5E12E));
  std::shuffle(list.begin(), list.end(), rng);
  return list;
}

/// The bytes a response must reproduce: session and GDS of a compile, the
/// serialized result of a Monte Carlo run; "" for a failed request.
std::string served_bytes(const ServeRequest& request,
                         const json::Value& response) {
  const json::Value* result = response.find("result");
  if (!response.get_bool("ok") || result == nullptr) return {};
  if (request.compile) {
    const json::Value* session = result->find("session");
    const json::Value* gds = result->find("gds_hex");
    if (session == nullptr || gds == nullptr) return {};
    return json::dump(*session) + "\n" + gds->as_string();
  }
  const json::Value* mc = result->find("mc");
  return mc == nullptr ? std::string() : json::dump(*mc);
}

/// Answers `request` in process with the same library calls the server
/// makes, one span per layer; a compile leaves its flow in `flow`.
std::string answer_locally(Context& ctx, const ServeRequest& request,
                           std::optional<api::Flow>& flow) {
  auto& tr = ctx.tracer;
  if (!request.compile) {
    return json::dump(api::to_json(
        traced_monte_carlo(ctx, request.cell, kServeTrials, request.seed)));
  }
  const auto job = api::flow_job_from_json(request.wire.at("job"));
  flow.emplace(api::Flow::from_cell(job.cell, job.options).value());
  if (!run_stages_traced(ctx, *flow)) return {};
  std::string session;
  {
    auto span = tr.span("serialize.save");
    session = json::dump(flow->session_json().value());
  }
  std::string gds;
  {
    auto span = tr.span("gds.write");
    gds = gds_bytes(*flow);
  }
  ctx.counters["serialize.session_bytes"] +=
      static_cast<double>(session.size());
  ctx.counters["gds.bytes"] += static_cast<double>(gds.size());
  ctx.counters["place.hpwl_lambda"] += flow->metrics().hpwl_lambda;
  return session + "\n" + serve::to_hex(gds);
}

/// Checks the daemon's own counters: nothing refused, nothing failed.
void check_stats(Context& ctx, Daemon& daemon) {
  const auto stats =
      daemon.call(serve::make_request(serve::RequestKind::kStats));
  const json::Value* result =
      stats && stats->get_bool("ok") ? stats->find("result") : nullptr;
  ctx.tally.op(result != nullptr, "cnfetd stats");
  if (result == nullptr) return;
  const double rejected = result->get_double("rejected_overload");
  const double errors = result->get_double("requests_error");
  ctx.counters["serve.rejected_overload"] = rejected;
  ctx.counters["serve.requests_error"] = errors;
  ctx.tally.check(rejected == 0.0, "cnfetd refused no request as overloaded");
  ctx.tally.check(errors == 0.0, "cnfetd answered no request with an error");
}

const ServeRequest& first_mc(const std::vector<ServeRequest>& requests) {
  return *std::find_if(requests.begin(), requests.end(),
                       [](const ServeRequest& r) { return !r.compile; });
}

}  // namespace

int run_serve(Context& ctx) {
  EndToEnd e;
  std::unique_ptr<Daemon> daemon;
  e.setup_s = timed_setup(ctx, &daemon);
  const auto requests = serve_requests(ctx.options.seed);
  const std::size_t n = requests.size();

  struct Sample {
    std::size_t index = 0;
    double ms = 0.0;
    bool ok = false;
  };
  std::vector<std::vector<Sample>> samples(kThreads);
  std::mutex first_mutex;
  std::vector<std::string> first(n);  // guarded by first_mutex
  long repeat_mismatches = 0;         // guarded by first_mutex
  std::atomic<std::size_t> cursor{0};
  const auto start = Clock::now();
  const auto client_loop = [&](int t) {
    try {
      auto client = serve::Client::connect(daemon->endpoint());
      if (!client.ok()) {
        samples[t].push_back({});
        return;
      }
      for (;;) {
        const std::size_t k = cursor.fetch_add(1);
        // Stop once every request ran at least once and time is up.
        if (k >= n && seconds_since(start) >= ctx.options.seconds) break;
        const std::size_t index = k % n;
        const auto sent = Clock::now();
        auto response = client.value().call(requests[index].wire, 120000);
        Sample sample{index, ms_since(sent), false};
        std::string bytes;
        if (response.ok()) {
          bytes = served_bytes(requests[index], response.value());
        }
        sample.ok = !bytes.empty();
        samples[t].push_back(sample);
        if (!response.ok()) return;  // the connection is gone
        if (!sample.ok) continue;
        const std::lock_guard<std::mutex> lock(first_mutex);
        if (first[index].empty()) {
          first[index] = std::move(bytes);
        } else if (first[index] != bytes) {
          ++repeat_mismatches;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "flowbench: client %d: %s\n", t, e.what());
      samples[t].push_back({});
    }
  };
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) clients.emplace_back(client_loop, t);
  for (auto& c : clients) c.join();
  e.elapsed_s = seconds_since(start);

  check_stats(ctx, *daemon);
  const auto stopped = daemon->stop();
  ctx.tally.op(stopped.ok(), "cnfetd graceful stop");
  e.peak_rss_mb = stopped.peak_rss_mb;

  for (const auto& per_client : samples) {
    for (const auto& s : per_client) {
      ctx.tally.op(s.ok, "served " + requests[s.index].cell + " request");
      if (!s.ok) continue;
      ++e.operations;
      (requests[s.index].compile ? e.compile_ms : e.mc_ms).push_back(s.ms);
    }
  }
  ctx.tally.check(repeat_mismatches == 0,
                  "repeated requests got byte-identical answers");

  // Served results equal local ones byte for byte; the local flows give
  // the quality of result.
  use_bench_cache(ctx);
  for (std::size_t i = 0; i < n; ++i) {
    std::optional<api::Flow> flow;
    const std::string local = answer_locally(ctx, requests[i], flow);
    ctx.tally.check(!local.empty() && first[i] == local,
                    requests[i].cell + ": served result equals the local one");
    if (!flow) continue;
    const auto m = flow->metrics();
    e.quality.worst_arrival_ps =
        std::max(e.quality.worst_arrival_ps, m.routed_worst_arrival_s * 1e12);
    e.quality.wirelength_lambda += m.total_wirelength;
    // flow.json payload plus the GDS stream (hex on the wire).
    const std::size_t split = local.find('\n');
    e.session_bytes = std::max(
        e.session_bytes,
        static_cast<double>(split + (local.size() - split - 1) / 2));
  }
  check_tracer_prefix(ctx, first_mc(requests).cell, first_mc(requests).seed);
  report_end_to_end(ctx, e);
  return 0;
}

int run_serve_traced(Context& ctx) {
  traced_characterize(ctx);
  use_bench_cache(ctx);
  {
    auto span = ctx.tracer.span("library_cache.load");
    for (const Tech tech : {Tech::kCnfet65, Tech::kCmos65}) {
      ctx.tally.op(api::LibraryCache::global().get(tech).ok(),
                   "library load from the disk tier");
    }
  }
  Daemon daemon(ctx, ctx.cache_dir, 0);
  const bool ready = daemon.wait_ready(120.0);
  ctx.tally.op(ready, "cnfetd start");
  auto client = serve::Client::connect(daemon.endpoint());
  ctx.tally.op(ready && client.ok(), "connect to cnfetd");
  if (!ready || !client.ok()) return 1;

  // One connection, one request at a time: served latency minus the
  // in-process answer to the same request is the serving overhead.
  const auto requests = serve_requests(ctx.options.seed);
  std::vector<double> overhead_ms;
  const auto start = Clock::now();
  for (int pass = 0; pass == 0 || seconds_since(start) < ctx.options.seconds;
       ++pass) {
    for (const auto& request : requests) {
      const auto sent = Clock::now();
      auto response = client.value().call(request.wire, 120000);
      const double served_ms = ms_since(sent);
      const std::string served =
          response.ok() ? served_bytes(request, response.value()) : "";
      std::optional<api::Flow> flow;
      const auto local_start = Clock::now();
      const std::string local = answer_locally(ctx, request, flow);
      overhead_ms.push_back(served_ms - ms_since(local_start));
      ctx.tally.op(!served.empty(), "served " + request.cell + " request");
      ctx.tally.check(!local.empty() && served == local,
                      request.cell + ": served result equals the local one");
      if (flow) replay_signoff(ctx, *flow);
    }
  }
  check_stats(ctx, daemon);
  ctx.tally.op(daemon.stop().ok(), "cnfetd graceful stop");

  ctx.counters["serve.overhead_ms"] = mean(overhead_ms);
  check_tracer_prefix(ctx, first_mc(requests).cell, first_mc(requests).seed);
  report_layers(ctx);
  return 0;
}

}  // namespace flowbench
