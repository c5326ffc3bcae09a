// The cnfetd compile server: wire framing, untrusted-input hardening,
// request dispatch, the byte-identity contract against the local flow
// path, and the graceful-shutdown guarantees.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/serialize.hpp"
#include "gds/gds.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/net.hpp"

namespace cnfet {
namespace {

namespace json = util::json;

// --- util::json hardening (the second line of defense behind WireLimits) ---

TEST(JsonParseLimits, RejectsNestingBeyondTheLimit) {
  json::ParseLimits limits;
  limits.max_depth = 8;
  const std::string ok_doc = "[[[[[[[1]]]]]]]";       // depth 7
  const std::string deep_doc = "[[[[[[[[[1]]]]]]]]]"; // depth 9
  EXPECT_NO_THROW(json::parse(ok_doc, limits));
  try {
    (void)json::parse(deep_doc, limits);
    FAIL() << "depth 9 parsed under max_depth 8";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
  }
}

TEST(JsonParseLimits, RejectsOversizedDocumentsWithTheLimitInTheMessage) {
  json::ParseLimits limits;
  limits.max_bytes = 16;
  EXPECT_NO_THROW(json::parse("{\"a\":1}", limits));
  try {
    (void)json::parse("{\"key\":\"a long enough value\"}", limits);
    FAIL() << "oversized document parsed under max_bytes 16";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("16-byte limit"), std::string::npos) << what;
  }
}

TEST(JsonParseLimits, DefaultsStillParseRealPayloads) {
  // The defaults must not break artifact-sized documents.
  std::string doc = "[";
  for (int i = 0; i < 1000; ++i) doc += (i ? ",1" : "1");
  doc += "]";
  EXPECT_NO_THROW(json::parse(doc));
}

// --- protocol framing ------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripsThroughTheWireFormat) {
  json::Value request = serve::make_request(serve::RequestKind::kCompile, "r1");
  request.set("extra", 42);
  const std::string line = json::dump(request);
  // The writer never emits a raw newline, so '\n' framing is sound.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto parsed = serve::parse_request(line, serve::WireLimits{});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().kind, serve::RequestKind::kCompile);
  EXPECT_EQ(parsed.value().id, "r1");
  EXPECT_EQ(parsed.value().payload.get_int("extra"), 42);
}

TEST(ServeProtocol, ResponsesCarryTheEnvelopeAndDiagnostics) {
  serve::Request request;
  request.kind = serve::RequestKind::kSta;
  request.id = "q7";
  util::Diagnostics diags;
  diags.warning("time", "something to know");
  json::Value ok = serve::ok_response(request, json::Value::object(), diags);
  auto parsed = serve::parse_response(json::dump(ok));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().get_bool("ok"));
  EXPECT_EQ(parsed.value().get_string("kind"), "sta");
  EXPECT_EQ(parsed.value().get_string("id"), "q7");
  const auto round = serve::response_diagnostics(parsed.value());
  ASSERT_EQ(round.items().size(), 1u);
  EXPECT_EQ(round.items()[0].severity, util::Severity::kWarning);
  EXPECT_EQ(round.items()[0].stage, "time");
  EXPECT_EQ(round.items()[0].message, "something to know");

  json::Value err = serve::error_response("compile", "x", "serve", "boom");
  EXPECT_FALSE(err.get_bool("ok"));
  const auto err_diags = serve::response_diagnostics(err);
  ASSERT_EQ(err_diags.items().size(), 1u);
  EXPECT_TRUE(err_diags.has_errors());
}

TEST(ServeProtocol, MalformedEnvelopesAreStructuredFailures) {
  const serve::WireLimits limits;
  EXPECT_FALSE(serve::parse_request("this is not json", limits).ok());
  EXPECT_FALSE(serve::parse_request("[1,2,3]", limits).ok());
  EXPECT_FALSE(serve::parse_request("{\"kind\":\"ping\"}", limits).ok());
  EXPECT_FALSE(
      serve::parse_request("{\"proto_version\":99,\"kind\":\"ping\"}", limits)
          .ok());
  EXPECT_FALSE(
      serve::parse_request("{\"proto_version\":1,\"kind\":\"dance\"}", limits)
          .ok());
  EXPECT_FALSE(
      serve::parse_request("{\"proto_version\":1,\"kind\":17}", limits).ok());
}

TEST(ServeProtocol, HexCodecRoundTripsBinary) {
  std::string bytes;
  for (int i = 0; i < 256; ++i) bytes.push_back(static_cast<char>(i));
  const std::string hex = serve::to_hex(bytes);
  EXPECT_EQ(hex.size(), 512u);
  auto back = serve::from_hex(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), bytes);
  EXPECT_FALSE(serve::from_hex("abc").ok());   // odd length
  EXPECT_FALSE(serve::from_hex("zz").ok());    // bad digit
}

// --- the live server -------------------------------------------------------

class ServeTest : public ::testing::Test {
 protected:
  /// Starts a server on an ephemeral loopback port. No warm list: tests
  /// share the process-global LibraryCache, which the first flow warms.
  int start(serve::ServerOptions options = {}) {
    server_ = std::make_unique<serve::Server>(std::move(options));
    auto port = server_->start();
    EXPECT_TRUE(port.ok()) << (port.ok() ? "" : port.error().to_string());
    return port.value();
  }

  serve::Client client(int port) {
    auto connected = serve::Client::connect("127.0.0.1:" + std::to_string(port));
    EXPECT_TRUE(connected.ok());
    return std::move(connected).value();
  }

  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeTest, PingStatsAndShutdownAnswerInline) {
  const int port = start();
  auto c = client(port);
  EXPECT_TRUE(c.ping());

  auto stats = c.call(serve::make_request(serve::RequestKind::kStats));
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats.value().get_bool("ok"));
  const json::Value& result = stats.value().at("result");
  EXPECT_GE(result.get_int("requests_total"), 1);
  EXPECT_EQ(result.get_int("connections_open"), 1);
  EXPECT_GE(result.get_int("pool_threads"), 1);

  auto bye = c.call(serve::make_request(serve::RequestKind::kShutdown));
  ASSERT_TRUE(bye.ok());
  EXPECT_TRUE(bye.value().get_bool("ok"));
  EXPECT_TRUE(server_->stop_requested());
  server_->stop();
  EXPECT_FALSE(server_->running());
}

TEST_F(ServeTest, GarbageRequestsGetStructuredErrorsAndTheConnectionLives) {
  const int port = start();
  auto connected =
      util::net::connect_tcp("127.0.0.1", static_cast<std::uint16_t>(port));
  ASSERT_TRUE(connected.ok());
  const auto& socket = connected.value();
  util::net::LineReader reader(socket, 1 << 20);
  for (const char* garbage :
       {"not json at all", "{\"proto_version\":1,\"kind\":\"nope\"}",
        "{\"unclosed\":", "[]", "{}"}) {
    ASSERT_TRUE(util::net::send_all(socket, std::string(garbage) + "\n").ok());
    auto line = reader.read_line(10000);
    ASSERT_TRUE(line.ok()) << garbage;
    ASSERT_EQ(line.value().status, util::net::ReadStatus::kLine) << garbage;
    // Transport survives; the server answers ok=false with diagnostics.
    auto response = serve::parse_response(line.value().line);
    ASSERT_TRUE(response.ok()) << garbage;
    EXPECT_FALSE(response.value().get_bool("ok")) << garbage;
    EXPECT_TRUE(serve::response_diagnostics(response.value()).has_errors())
        << garbage;
  }
  // Same connection, still usable.
  const std::string ping =
      json::dump(serve::make_request(serve::RequestKind::kPing)) + "\n";
  ASSERT_TRUE(util::net::send_all(socket, ping).ok());
  auto pong = reader.read_line(10000);
  ASSERT_TRUE(pong.ok());
  ASSERT_EQ(pong.value().status, util::net::ReadStatus::kLine);
  auto pong_response = serve::parse_response(pong.value().line);
  ASSERT_TRUE(pong_response.ok());
  EXPECT_TRUE(pong_response.value().get_bool("ok"));
}

TEST_F(ServeTest, OversizedRequestsAreRejectedWithoutDroppingTheConnection) {
  serve::ServerOptions options;
  options.limits.max_request_bytes = 1024;
  const int port = start(std::move(options));
  auto connected =
      util::net::connect_tcp("127.0.0.1", static_cast<std::uint16_t>(port));
  ASSERT_TRUE(connected.ok());
  const auto& socket = connected.value();
  std::string huge(4096, 'x');
  huge += "\n";
  ASSERT_TRUE(util::net::send_all(socket, huge).ok());
  util::net::LineReader reader(socket, 1 << 20);
  auto line = reader.read_line(10000);
  ASSERT_TRUE(line.ok());
  ASSERT_EQ(line.value().status, util::net::ReadStatus::kLine);
  auto response = serve::parse_response(line.value().line);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().get_bool("ok"));
  const auto diags = serve::response_diagnostics(response.value());
  ASSERT_FALSE(diags.empty());
  EXPECT_NE(diags.items()[0].message.find("1024-byte limit"),
            std::string::npos)
      << diags.to_string();
  // The reader resynchronized on the frame boundary: a well-formed request
  // on the same connection still answers.
  const std::string ping =
      json::dump(serve::make_request(serve::RequestKind::kPing)) + "\n";
  ASSERT_TRUE(util::net::send_all(socket, ping).ok());
  auto pong = reader.read_line(10000);
  ASSERT_TRUE(pong.ok());
  ASSERT_EQ(pong.value().status, util::net::ReadStatus::kLine);
  auto pong_response = serve::parse_response(pong.value().line);
  ASSERT_TRUE(pong_response.ok());
  EXPECT_TRUE(pong_response.value().get_bool("ok"));
}

TEST_F(ServeTest, TruncatedRequestsAnswerAnErrorInsteadOfCrashing) {
  const int port = start();
  auto connected =
      util::net::connect_tcp("127.0.0.1", static_cast<std::uint16_t>(port));
  ASSERT_TRUE(connected.ok());
  auto& socket = connected.value();
  // Half a frame, then half-close: the server must report the truncation,
  // not hang or die.
  ASSERT_TRUE(util::net::send_all(socket, "{\"proto_version\":1,").ok());
  socket.shutdown_write();
  util::net::LineReader reader(socket, 1 << 20);
  auto line = reader.read_line(10000);
  ASSERT_TRUE(line.ok());
  ASSERT_EQ(line.value().status, util::net::ReadStatus::kLine);
  auto response = serve::parse_response(line.value().line);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().get_bool("ok"));
  EXPECT_NE(serve::response_diagnostics(response.value())
                .to_string()
                .find("truncated"),
            std::string::npos);
}

TEST_F(ServeTest, OverloadedServerRejectsFlowsButStillAnswersPing) {
  serve::ServerOptions options;
  options.max_pending = 0;  // every flow request is one-over-the-limit
  const int port = start(std::move(options));
  auto c = client(port);
  json::Value request = serve::make_request(serve::RequestKind::kCompile);
  api::FlowJob job;
  job.cell = "INV";
  request.set("job", api::to_json(job));
  auto response = c.call(std::move(request));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().get_bool("ok"));
  EXPECT_NE(serve::response_diagnostics(response.value())
                .to_string()
                .find("overloaded"),
            std::string::npos);
  EXPECT_TRUE(c.ping());  // admission-exempt
  EXPECT_EQ(server_->stats().rejected_overload, 1);
}

// --- the byte-identity contract -------------------------------------------

/// GDS bytes the way `cnfetc compile` writes them: through Flow::write_gds
/// to a file. The daemon must reproduce these exactly.
std::string direct_gds_bytes(const std::string& cell, layout::Tech tech) {
  api::FlowOptions options;
  options.tech = tech;
  auto flow = api::Flow::from_cell(cell, options);
  EXPECT_TRUE(flow.ok());
  EXPECT_TRUE(flow.value().run(api::Stage::kExported).ok());
  const auto dir = std::filesystem::temp_directory_path() /
                   ("serve_identity_" + cell + std::to_string(int(tech)));
  std::filesystem::create_directories(dir);
  const auto path = (dir / "design.gds").string();
  EXPECT_TRUE(flow.value().write_gds(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::filesystem::remove_all(dir);
  return bytes.str();
}

json::Value compile_request(const std::string& cell, layout::Tech tech) {
  api::FlowJob job;
  job.cell = cell;
  job.options.tech = tech;
  json::Value request = serve::make_request(serve::RequestKind::kCompile);
  request.set("job", api::to_json(job));
  return request;
}

TEST_F(ServeTest, ServedCompileIsByteIdenticalToTheLocalFlowForBothTechs) {
  const int port = start();
  for (const layout::Tech tech :
       {layout::Tech::kCnfet65, layout::Tech::kCmos65}) {
    auto c = client(port);
    auto response = c.call(compile_request("NAND3", tech));
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response.value().get_bool("ok"))
        << serve::response_diagnostics(response.value()).to_string();
    const json::Value& result = response.value().at("result");
    EXPECT_EQ(result.get_string("reached"), "exported");
    auto served = serve::from_hex(result.get_string("gds_hex"));
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(served.value(), direct_gds_bytes("NAND3", tech))
        << "tech " << layout::to_string(tech);

    // Metrics match the local run field-for-field.
    api::FlowOptions options;
    options.tech = tech;
    auto flow = api::Flow::from_cell("NAND3", options);
    ASSERT_TRUE(flow.ok());
    ASSERT_TRUE(flow.value().run(api::Stage::kExported).ok());
    EXPECT_EQ(json::dump(result.at("metrics")),
              json::dump(api::to_json(flow.value().metrics())));
  }
}

TEST_F(ServeTest, GenRequestMatchesTheLocalGeneratorFlow) {
  const int port = start();
  auto c = client(port);
  gen::GenOptions gopt;
  gopt.family = gen::Family::kRandomDag;
  gopt.target_gates = 200;
  gopt.num_inputs = 16;
  gopt.seed = 123;
  // top_name "TOP" (the default, sent explicitly) means "name the top
  // after the design" on every path.
  api::FlowOptions served_options;
  served_options.top_name = "TOP";
  json::Value request = serve::make_request(serve::RequestKind::kGen);
  request.set("gen", api::to_json(gopt));
  request.set("options", api::to_json(served_options));
  request.set("target", "placed");
  auto response = c.call(std::move(request));
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response.value().get_bool("ok"))
      << serve::response_diagnostics(response.value()).to_string();
  const json::Value& result = response.value().at("result");
  EXPECT_EQ(result.get_string("reached"), "placed");

  // The served session is the same flow a local generate + from_netlist
  // produces, metrics and session payload alike.
  auto library = api::LibraryCache::global().get(layout::Tech::kCnfet65);
  ASSERT_TRUE(library.ok());
  auto design = gen::generate(*library.value(), gopt);
  api::FlowOptions options;
  options.library = library.value();
  options.top_name = design.name;
  auto local = api::Flow::from_netlist(std::move(design.netlist), options);
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(local.value().run(api::Stage::kPlaced).ok());
  EXPECT_EQ(json::dump(result.at("metrics")),
            json::dump(api::to_json(local.value().metrics())));
  auto session = local.value().session_json();
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(json::dump(result.at("session")),
            json::dump(session.value()));

  // Flow::from_gen, the constructor both cnfetc gen and the server call,
  // builds that same session.
  auto from_gen = api::Flow::from_gen(gopt, served_options);
  ASSERT_TRUE(from_gen.ok());
  EXPECT_EQ(from_gen.value().name(), design.name);
  ASSERT_TRUE(from_gen.value().run(api::Stage::kPlaced).ok());
  auto gen_session = from_gen.value().session_json();
  ASSERT_TRUE(gen_session.ok());
  EXPECT_EQ(json::dump(gen_session.value()), json::dump(session.value()));

  // Unknown family comes back as a structured error on a live connection.
  json::Value bad = serve::make_request(serve::RequestKind::kGen);
  json::Value bad_gen = api::to_json(gopt);
  bad_gen.set("family", "fft");
  bad.set("gen", std::move(bad_gen));
  auto refused = c.call(std::move(bad));
  ASSERT_TRUE(refused.ok());
  EXPECT_FALSE(refused.value().get_bool("ok"));
}

TEST_F(ServeTest, GenRequestsAboveTheGeneratorBoundAreStructuredErrors) {
  const int port = start();
  auto c = client(port);
  gen::GenOptions rand;
  rand.family = gen::Family::kRandomDag;
  rand.target_gates = 2'000'000'000;
  gen::GenOptions mul;
  mul.family = gen::Family::kArrayMultiplier;
  mul.width = 100'000;
  for (const auto& gopt : {rand, mul}) {
    json::Value request = serve::make_request(serve::RequestKind::kGen);
    request.set("gen", api::to_json(gopt));
    auto response = c.call(std::move(request));
    ASSERT_TRUE(response.ok()) << gen::to_string(gopt.family);
    EXPECT_FALSE(response.value().get_bool("ok"));
    const std::string text =
        serve::response_diagnostics(response.value()).to_string();
    EXPECT_NE(text.find("generator bound"), std::string::npos) << text;
  }
}

TEST_F(ServeTest, MonteCarloTrialsOutOfRangeAreStructuredErrors) {
  const int port = start();
  auto c = client(port);
  for (const int trials : {0, 10'000'001}) {
    json::Value request = serve::make_request(serve::RequestKind::kMonteCarlo);
    request.set("cell", "NAND2");
    request.set("trials", trials);
    auto response = c.call(std::move(request));
    ASSERT_TRUE(response.ok()) << trials;
    EXPECT_FALSE(response.value().get_bool("ok")) << trials;
    const std::string text =
        serve::response_diagnostics(response.value()).to_string();
    EXPECT_NE(text.find("trials must be in [1, 10000000], got " +
                        std::to_string(trials)),
              std::string::npos)
        << text;
    // A contract violation would name a source file and line instead.
    EXPECT_EQ(text.find(".cpp"), std::string::npos) << text;
  }
  // The connection survives and the smallest valid count runs.
  json::Value one = serve::make_request(serve::RequestKind::kMonteCarlo);
  one.set("cell", "NAND2");
  one.set("trials", 1);
  auto ran = c.call(std::move(one));
  ASSERT_TRUE(ran.ok());
  EXPECT_TRUE(ran.value().get_bool("ok"))
      << serve::response_diagnostics(ran.value()).to_string();
}

TEST_F(ServeTest, SessionsRoundTripOverTheWireThroughResume) {
  const int port = start();
  auto c = client(port);
  // Compile to the timed stage only...
  api::FlowJob job;
  job.cell = "AOI21";
  job.target = api::Stage::kTimed;
  json::Value request = serve::make_request(serve::RequestKind::kCompile);
  request.set("job", api::to_json(job));
  auto timed = c.call(std::move(request));
  ASSERT_TRUE(timed.ok());
  ASSERT_TRUE(timed.value().get_bool("ok"));
  const json::Value& timed_result = timed.value().at("result");
  EXPECT_EQ(timed_result.get_string("reached"), "timed");
  ASSERT_NE(timed_result.find("session"), nullptr);
  EXPECT_EQ(timed_result.find("gds_hex"), nullptr);  // nothing exported yet

  // ...then resume that session to exported, all over the wire.
  json::Value resume = serve::make_request(serve::RequestKind::kResume);
  resume.set("session", timed_result.at("session"));
  resume.set("target", "exported");
  auto finished = c.call(std::move(resume));
  ASSERT_TRUE(finished.ok());
  ASSERT_TRUE(finished.value().get_bool("ok"))
      << serve::response_diagnostics(finished.value()).to_string();
  const json::Value& result = finished.value().at("result");
  EXPECT_EQ(result.get_string("reached"), "exported");
  auto served = serve::from_hex(result.get_string("gds_hex"));
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.value(),
            direct_gds_bytes("AOI21", layout::Tech::kCnfet65));
}

TEST_F(ServeTest, ConcurrentClientsAllGetIdenticalCorrectResults) {
  const int port = start();
  const std::vector<std::string> cells = {"INV", "NAND2", "NOR2", "NAND3"};
  std::vector<std::string> served(cells.size());
  std::vector<std::string> errors(cells.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    threads.emplace_back([&, i] {
      auto connected =
          serve::Client::connect("127.0.0.1:" + std::to_string(port));
      if (!connected.ok()) {
        errors[i] = connected.error().to_string();
        return;
      }
      auto response = connected.value().call(
          compile_request(cells[i], layout::Tech::kCnfet65));
      if (!response.ok()) {
        errors[i] = response.error().to_string();
        return;
      }
      if (!response.value().get_bool("ok")) {
        errors[i] =
            serve::response_diagnostics(response.value()).to_string();
        return;
      }
      auto bytes = serve::from_hex(
          response.value().at("result").get_string("gds_hex"));
      if (bytes.ok()) served[i] = std::move(bytes).value();
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_TRUE(errors[i].empty()) << cells[i] << ": " << errors[i];
    EXPECT_EQ(served[i], direct_gds_bytes(cells[i], layout::Tech::kCnfet65))
        << cells[i];
  }
}

TEST_F(ServeTest, ShutdownUnderLoadDrainsEveryAcceptedRequest) {
  serve::ServerOptions options;
  options.num_threads = 2;
  const int port = start(std::move(options));
  constexpr int kClients = 6;
  std::atomic<int> answered{0};
  std::atomic<int> transport_failed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto connected =
          serve::Client::connect("127.0.0.1:" + std::to_string(port));
      if (!connected.ok()) {
        ++transport_failed;
        return;
      }
      const char* cell = (i % 2 == 0) ? "NAND3" : "AOI21";
      auto response = connected.value().call(
          compile_request(cell, layout::Tech::kCnfet65));
      // Every outcome must be orderly: a response (ok or structured
      // error), or a clean transport failure if stop() won the race
      // before the request was read. Crashes/hangs fail the test.
      if (response.ok()) {
        ++answered;
      } else {
        ++transport_failed;
      }
    });
  }
  // Let some requests land, then pull the plug mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server_->stop();
  for (auto& t : threads) t.join();
  EXPECT_EQ(answered.load() + transport_failed.load(), kClients);
  EXPECT_FALSE(server_->running());
  // Accepted-and-read requests were answered, not dropped: the counters
  // must balance (no request vanished between total and ok+error).
  const auto stats = server_->stats();
  EXPECT_EQ(stats.requests_total, stats.requests_ok + stats.requests_error);
  EXPECT_EQ(stats.in_flight, 0);
}

}  // namespace
}  // namespace cnfet
