// The persistent-session contracts: exact JSON round-trips (doubles
// bit-for-bit, NaN/inf refused), the versioned envelope (forward-refusing
// schema, checksum over the payload), Flow::save/resume reproducing the
// identical GDS bytes and metrics from every checkpoint stage on both
// technologies, and the LibraryCache disk tier (NLDM-exact loads >=10x
// faster than serial characterization, corrupt files falling back to
// characterization with a warning).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>

#include "api/serialize.hpp"
#include "gds/gds.hpp"
#include "util/json.hpp"

namespace cnfet {
namespace {

namespace json = util::json;
namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const auto dir = fs::path(::testing::TempDir()) / "cnfet_serialize" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

api::LibraryHandle cnfet_library() {
  return api::LibraryCache::global().get(layout::Tech::kCnfet65).value();
}

// --- util::json -------------------------------------------------------------

TEST(Json, ScalarsAndContainersRoundTrip) {
  json::Value obj = json::Value::object();
  obj.set("null", json::Value());
  obj.set("t", true);
  obj.set("f", false);
  obj.set("int", 42);
  obj.set("neg", -7);
  obj.set("str", "a \"quoted\"\nline\tand \\ slash");
  json::Value arr = json::Value::array();
  for (const double d : {0.1, 1e-300, -2.5e17, 3.14159265358979}) {
    arr.push_back(d);
  }
  obj.set("doubles", std::move(arr));

  const std::string compact = json::dump(obj);
  const json::Value parsed = json::parse(compact);
  EXPECT_EQ(json::dump(parsed), compact);
  // Pretty output parses back to the same compact form.
  EXPECT_EQ(json::dump(json::parse(json::dump(obj, 2))), compact);
  // So does a hand-edited document with whitespace wherever the grammar
  // allows it.
  EXPECT_EQ(json::dump(json::parse(
                " {\n\t\"a\" : [ 1 ,\r\n -2.5e-3 , { } , [ ] ] ,\n"
                "  \"b\":\"x  y\" , \"c\" : null }  \n")),
            "{\"a\":[1,-0.0025000000000000001,{},[]],\"b\":\"x  y\","
            "\"c\":null}");
  EXPECT_TRUE(parsed.at("null").is_null());
  EXPECT_TRUE(parsed.get_bool("t"));
  EXPECT_EQ(parsed.get_int("neg"), -7);
  EXPECT_EQ(parsed.get_string("str"), obj.get_string("str"));
}

TEST(Json, DoublesSurviveBitForBit) {
  // The values NLDM tables actually hold (picoseconds, femtojoules) plus
  // adversarial cases: denormals, epsilon neighbours, huge magnitudes.
  const double cases[] = {5e-12,
                          1.23456789012345e-15,
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          1.0 + std::numeric_limits<double>::epsilon(),
                          -0.0,
                          6.62607015e-34,
                          9.0071992547409915e15};
  for (const double value : cases) {
    const json::Value parsed = json::parse(json::format_number(value));
    const double back = parsed.as_double();
    EXPECT_EQ(std::memcmp(&back, &value, sizeof value), 0)
        << json::format_number(value);
  }
}

TEST(Json, NanAndInfinityAreRefusedAtWriteTime) {
  EXPECT_THROW((void)json::format_number(std::nan("")), util::Error);
  EXPECT_THROW((void)json::format_number(
                   std::numeric_limits<double>::infinity()),
               util::Error);
  json::Value obj = json::Value::object();
  obj.set("bad", std::nan(""));
  EXPECT_THROW((void)json::dump(obj), util::Error);
  // And the api:: boundary converts the throw into a Result.
  const auto written =
      api::write_artifact(obj, "jobs", temp_dir("nan") + "/x.json");
  ASSERT_FALSE(written.ok());
  EXPECT_NE(written.error().message.find("NaN"), std::string::npos);
  // "nan" is not a JSON token either.
  EXPECT_THROW((void)json::parse("nan"), util::Error);
}

TEST(Json, MalformedAndTruncatedInputsThrowWithOffsets) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\"", "{\"a\":}", "\"unterminated", "01", "1.",
        "[1] trailing", "{\"a\":1,}", "tru"}) {
    EXPECT_THROW((void)json::parse(bad), util::Error) << bad;
  }
  try {
    (void)json::parse("[1, 2, ");
    FAIL() << "expected a throw";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  json::Value obj = json::Value::object();
  obj.set("zebra", 1);
  obj.set("alpha", 2);
  obj.set("zebra", 3);  // replacement keeps position
  EXPECT_EQ(json::dump(obj), "{\"zebra\":3,\"alpha\":2}");
}

// --- enum string helpers ----------------------------------------------------

TEST(Serialize, TechFromStringAcceptsAnyCase) {
  EXPECT_EQ(api::tech_from_string("cnfet65").value(), layout::Tech::kCnfet65);
  EXPECT_EQ(api::tech_from_string("CNFET65").value(), layout::Tech::kCnfet65);
  EXPECT_EQ(api::tech_from_string("cmos65").value(), layout::Tech::kCmos65);
  EXPECT_FALSE(api::tech_from_string("finfet7").ok());
}

// --- value-level round trips ------------------------------------------------

TEST(Serialize, DiagnosticsOptionsAndMetricsRoundTrip) {
  util::Diagnostics diags;
  diags.info("map", "fine");
  diags.warning("drc", "narrow\nmultiline");
  diags.error("sta", "bad");
  EXPECT_EQ(
      api::diagnostics_from_json(api::to_json(diags)).to_string(),
      diags.to_string());

  api::FlowOptions options;
  options.tech = layout::Tech::kCmos65;
  options.drive = 2.0;
  options.output_drive = 4.0;
  options.verify = false;
  options.map_cost = flow::MapCost::kDelay;
  options.optimize = true;
  options.target_delay = 17e-12;
  options.max_area_growth = 0.375;
  options.sta.input_slew = 11e-12;
  options.place.scheme = layout::CellScheme::kScheme2;
  options.drc.allow_vertical_gating = true;
  options.drc.deck = layout::DesignRules::cmos65();
  options.top_name = "T";
  const auto options2 =
      api::flow_options_from_json(api::to_json(options));
  EXPECT_EQ(json::dump(api::to_json(options2)),
            json::dump(api::to_json(options)));
  EXPECT_EQ(options2.tech, layout::Tech::kCmos65);
  EXPECT_EQ(options2.map_cost, flow::MapCost::kDelay);
  ASSERT_TRUE(options2.drc.deck.has_value());
  EXPECT_EQ(options2.drc.deck->pun_pdn_gap, 10.0);

  api::FlowMetrics metrics;
  metrics.name = "x";
  metrics.stage = api::Stage::kSignedOff;
  metrics.gates = 9;
  metrics.worst_arrival_s = 2.93e-11;
  metrics.all_immune = true;
  EXPECT_EQ(json::dump(api::to_json(
                api::flow_metrics_from_json(api::to_json(metrics)))),
            json::dump(api::to_json(metrics)));
  // A count read from an outside report.json must not wrap: a negative
  // gds_structures is refused rather than read as ~1.8e19.
  json::Value negative = api::to_json(metrics);
  negative.set("gds_structures", -1);
  EXPECT_THROW((void)api::flow_metrics_from_json(negative), util::Error);
}

TEST(Serialize, GateNetlistRoundTripsAgainstTheLibrary) {
  const auto library = cnfet_library();
  flow::FullAdderOptions sizing;
  sizing.sum_buffer_drive = 9.0;
  sizing.carry_buffer_drive = 7.0;
  const auto adder = flow::build_full_adder(*library, sizing);
  const auto v = api::to_json(adder);
  const auto back = api::gate_netlist_from_json(v, *library);
  EXPECT_EQ(json::dump(api::to_json(back)), json::dump(v));
  ASSERT_EQ(back.gates().size(), adder.gates().size());
  for (std::size_t i = 0; i < adder.gates().size(); ++i) {
    EXPECT_EQ(back.gates()[i].cell, adder.gates()[i].cell);  // same LibCell*
  }
  for (std::uint64_t row = 0; row < 8; ++row) {
    EXPECT_EQ(back.simulate(row), adder.simulate(row)) << row;
  }
}

TEST(Serialize, JobsFileRoundTrips) {
  auto jobs = api::family_jobs({layout::Tech::kCnfet65, layout::Tech::kCmos65});
  // One expression job too, with variables deliberately out of index order
  // (structural Expr serialization must not renumber them).
  api::FlowJob expr_job;
  expr_job.name = "maj";
  expr_job.inputs = {"A", "B", "C"};
  expr_job.outputs.push_back(
      {"f",
       logic::Expr::make_or({logic::Expr::var(2), logic::Expr::var(0)}),
       true});
  expr_job.target = api::Stage::kTimed;
  jobs.push_back(expr_job);

  const auto dir = temp_dir("jobs");
  const auto saved = api::save_jobs(jobs, dir + "/jobs.json");
  ASSERT_TRUE(saved.ok()) << saved.error().message;
  const auto loaded = api::load_jobs(dir + "/jobs.json");
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  ASSERT_EQ(loaded.value().size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(json::dump(api::to_json(loaded.value()[i])),
              json::dump(api::to_json(jobs[i])))
        << jobs[i].name;
  }
  EXPECT_EQ(loaded.value().back().target, api::Stage::kTimed);
}

TEST(Serialize, ReportFileRoundTripsIncludingSkippedFlag) {
  std::vector<api::FlowJob> jobs;
  for (const char* cell : {"INV", "NO_SUCH_CELL", "NAND2"}) {
    api::FlowJob job;
    job.name = cell;
    job.cell = cell;
    job.target = api::Stage::kTimed;
    jobs.push_back(std::move(job));
  }
  api::BatchOptions options;
  options.fail_fast = true;
  const auto report = api::run_batch(jobs, options);
  ASSERT_TRUE(report.jobs[2].skipped);

  const auto dir = temp_dir("report");
  const auto saved = api::save_report(report, dir + "/report.json");
  ASSERT_TRUE(saved.ok()) << saved.error().message;
  const auto loaded = api::load_report(dir + "/report.json");
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(json::dump(api::to_json(loaded.value())),
            json::dump(api::to_json(report)));
  EXPECT_FALSE(loaded.value().jobs[0].skipped);
  EXPECT_TRUE(loaded.value().jobs[2].skipped);
  // The human rendering survives the round trip too.
  EXPECT_EQ(loaded.value().to_string(), report.to_string());
}

// --- the versioned envelope -------------------------------------------------

TEST(Serialize, UnknownSchemaVersionIsRefused) {
  const auto dir = temp_dir("schema");
  const auto path = dir + "/jobs.json";
  for (const int version :
       {api::kSchemaVersion + 1, api::kSchemaVersion - 1}) {
    SCOPED_TRACE(version);
    ASSERT_TRUE(api::save_jobs({}, path).ok());
    json::Value envelope = json::parse(slurp(path));
    envelope.set("schema_version", version);
    spit(path, json::dump(envelope, 2));
    const auto loaded = api::load_jobs(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.error().message.find("schema_version"),
              std::string::npos);
    EXPECT_EQ(loaded.error().message.find("newer") != std::string::npos,
              version > api::kSchemaVersion);
  }
}

TEST(Serialize, ChecksumMismatchIsRefused) {
  const auto dir = temp_dir("checksum");
  const auto path = dir + "/report.json";
  ASSERT_TRUE(api::save_report({}, path).ok());
  json::Value envelope = json::parse(slurp(path));
  json::Value payload = envelope.at("payload");
  payload.set("total_gates", 999);  // edit without refreshing the checksum
  envelope.set("payload", payload);
  spit(path, json::dump(envelope, 2));
  const auto loaded = api::load_report(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().message.find("checksum"), std::string::npos);
}

TEST(Serialize, TruncatedFilesFailCleanly) {
  const auto dir = temp_dir("truncated");
  const auto path = dir + "/jobs.json";
  ASSERT_TRUE(api::save_jobs(api::family_jobs({layout::Tech::kCnfet65}), path)
                  .ok());
  const std::string text = slurp(path);
  spit(path, text.substr(0, text.size() / 2));
  const auto loaded = api::load_jobs(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().message.find("offset"), std::string::npos);
  // Wrong kind is refused too.
  spit(path, text);
  EXPECT_FALSE(api::load_report(path).ok());
  // And a missing file.
  EXPECT_FALSE(api::load_jobs(dir + "/absent.json").ok());
}

// --- the library on disk ----------------------------------------------------

void expect_library_exact(const liberty::Library& a,
                          const liberty::Library& b) {
  ASSERT_EQ(a.cells().size(), b.cells().size());
  for (std::size_t c = 0; c < a.cells().size(); ++c) {
    const auto& ca = a.cells()[c];
    const auto& cb = b.cells()[c];
    EXPECT_EQ(ca.name, cb.name);
    EXPECT_EQ(ca.drive, cb.drive);
    EXPECT_EQ(ca.area_lambda2, cb.area_lambda2);
    EXPECT_EQ(ca.input_cap, cb.input_cap);
    ASSERT_EQ(ca.arcs.size(), cb.arcs.size()) << ca.name;
    for (std::size_t i = 0; i < ca.arcs.size(); ++i) {
      const auto& aa = ca.arcs[i];
      const auto& ab = cb.arcs[i];
      EXPECT_EQ(aa.input, ab.input);
      EXPECT_EQ(aa.out_rising, ab.out_rising);
      const auto expect_table_exact = [&](const liberty::NldmTable& ta,
                                          const liberty::NldmTable& tb) {
        ASSERT_EQ(ta.slews(), tb.slews());
        ASSERT_EQ(ta.loads(), tb.loads());
        for (std::size_t si = 0; si < ta.slews().size(); ++si) {
          for (std::size_t li = 0; li < ta.loads().size(); ++li) {
            // Exact — the disk tier must be indistinguishable from the
            // in-memory characterization, not merely close.
            EXPECT_EQ(ta.at(si, li), tb.at(si, li)) << ca.name;
          }
        }
      };
      expect_table_exact(aa.delay, ab.delay);
      expect_table_exact(aa.out_slew, ab.out_slew);
      expect_table_exact(aa.energy, ab.energy);
    }
  }
}

TEST(LibraryDiskCache, SavedLibraryLoadsNldmExact) {
  const auto library = cnfet_library();
  const auto dir = temp_dir("library");
  const auto path = dir + "/cnfet65.json";
  const auto saved = api::save_library(*library, path);
  ASSERT_TRUE(saved.ok()) << saved.error().message;
  const auto loaded = api::load_library(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  expect_library_exact(*library, *loaded.value());
  // The geometry rebuild restored enough for find()/drives_of and the
  // downstream passes (layout present, truth table intact).
  const auto& nand2 = loaded.value()->find("NAND2_1X");
  EXPECT_GT(nand2.built.layout.core_area_lambda2(), 0.0);
  EXPECT_EQ(loaded.value()->drives_of("INV").size(),
            library->drives_of("INV").size());
}

TEST(LibraryDiskCache, CacheLoadsInsteadOfRecharacterizing) {
  const auto library = cnfet_library();
  const auto dir = temp_dir("cache_hit");
  api::LibraryCache cache;
  cache.set_cache_dir(dir);
  ASSERT_TRUE(
      api::save_library(*library, cache.cache_path(layout::Tech::kCnfet65))
          .ok());
  const auto handle = cache.get(layout::Tech::kCnfet65);
  ASSERT_TRUE(handle.ok());
  expect_library_exact(*library, *handle.value());
  bool loaded_note = false;
  const auto diags = cache.diagnostics();
  for (const auto& d : diags.items()) {
    loaded_note = loaded_note ||
                  (d.severity == util::Severity::kInfo &&
                   d.message.find("loaded") != std::string::npos);
  }
  EXPECT_TRUE(loaded_note) << diags.to_string();
}

TEST(LibraryDiskCache, CorruptFileFallsBackToCharacterizationWithWarning) {
  const auto library = cnfet_library();
  const auto dir = temp_dir("cache_corrupt");
  api::LibraryCache cache;
  cache.set_cache_dir(dir);
  const auto path = cache.cache_path(layout::Tech::kCnfet65);
  ASSERT_TRUE(api::save_library(*library, path).ok());
  // Corrupt the payload without refreshing the checksum: clobber the
  // first cell's drive.
  json::Value envelope = json::parse(slurp(path));
  json::Value payload = envelope.at("payload");
  {
    json::Value cells = payload.at("cells");
    json::Value first = cells.at(std::size_t{0});
    first.set("drive", 123.0);
    json::Value rebuilt = json::Value::array();
    rebuilt.push_back(first);
    for (std::size_t i = 1; i < cells.size(); ++i) {
      rebuilt.push_back(cells.at(i));
    }
    payload.set("cells", std::move(rebuilt));
  }
  envelope.set("payload", payload);
  spit(path, json::dump(envelope, 2));

  const auto handle = cache.get(layout::Tech::kCnfet65);
  ASSERT_TRUE(handle.ok());  // fell back to characterization, no crash
  expect_library_exact(*library, *handle.value());
  bool warned = false;
  const auto diags = cache.diagnostics();
  for (const auto& d : diags.items()) {
    warned = warned || (d.severity == util::Severity::kWarning &&
                        d.message.find("falling back") != std::string::npos);
  }
  EXPECT_TRUE(warned) << diags.to_string();
}

// --- the loader enforces the NLDM kernel's preconditions -----------------

/// `arr` with element `index` replaced by `item`.
json::Value with_item(const json::Value& arr, std::size_t index,
                      json::Value item) {
  json::Value out = json::Value::array();
  for (std::size_t i = 0; i < arr.size(); ++i) {
    out.push_back(i == index ? item : arr.at(i));
  }
  return out;
}

/// `payload` with the named cell's JSON passed through `edit`.
json::Value with_cell(const json::Value& payload, const std::string& name,
                      const std::function<void(json::Value&)>& edit) {
  const auto& cells = payload.at("cells");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells.at(i).get_string("name") != name) continue;
    json::Value cell = cells.at(i);
    edit(cell);
    json::Value out = payload;
    out.set("cells", with_item(cells, i, std::move(cell)));
    return out;
  }
  ADD_FAILURE() << "no cell " << name;
  return payload;
}

/// `cell` with arc `k`'s JSON passed through `edit`.
void edit_arc(json::Value& cell, std::size_t k,
              const std::function<void(json::Value&)>& edit) {
  json::Value arc = cell.at("arcs").at(k);
  edit(arc);
  cell.set("arcs", with_item(cell.at("arcs"), k, std::move(arc)));
}

/// `arc` with one axis of one of its tables replaced.
void set_axis(json::Value& arc, const char* table, const char* axis,
              std::vector<double> values) {
  json::Value t = arc.at(table);
  json::Value grid = json::Value::array();
  for (const double v : values) grid.push_back(v);
  t.set(axis, std::move(grid));
  arc.set(table, std::move(t));
}

/// Writes `payload` as a library artifact with a valid checksum, so the
/// loader gets past the envelope and must judge the content itself.
void write_library_payload(const std::string& path,
                           const json::Value& envelope_template,
                           const json::Value& payload) {
  json::Value envelope = envelope_template;
  envelope.set("payload", payload);
  envelope.set("checksum", json::fnv1a64_hex(json::dump(payload)));
  spit(path, json::dump(envelope, 2));
}

struct LibraryMutation {
  const char* what;
  const char* expected_error;
  std::function<json::Value(const json::Value&)> apply;
};

std::vector<LibraryMutation> library_mutations() {
  const auto cell = [](const char* name,
                       std::function<void(json::Value&)> edit) {
    return [name, edit](const json::Value& payload) {
      return with_cell(payload, name, edit);
    };
  };
  const auto arc = [&](const char* name, std::size_t k,
                       std::function<void(json::Value&)> edit) {
    return cell(name, [k, edit](json::Value& c) { edit_arc(c, k, edit); });
  };
  return {
      {"one table on its own slew grid", "does not share",
       arc("NAND2_1X", 3,
           [](json::Value& a) {
             set_axis(a, "out_slew", "slews", {5e-12, 25e-12, 60e-12});
           })},
      {"one table on its own load grid", "does not share",
       arc("INV_1X", 0,
           [](json::Value& a) {
             set_axis(a, "energy", "loads", {0.5e-15, 2e-15, 6e-15, 15e-15});
           })},
      {"descending load grid", "strictly ascending",
       arc("INV_2X", 1,
           [](json::Value& a) {
             set_axis(a, "delay", "loads", {0.5e-15, 6e-15, 2e-15, 14e-15});
           })},
      {"repeated slew point", "strictly ascending",
       arc("NOR2_1X", 0,
           [](json::Value& a) {
             set_axis(a, "delay", "slews", {5e-12, 20e-12, 20e-12});
           })},
      {"empty slew grid", "grid is empty",
       arc("INV_1X", 1,
           [](json::Value& a) { set_axis(a, "out_slew", "slews", {}); })},
      {"input out of range", "is (input 7, falling)",
       arc("NAND2_1X", 2, [](json::Value& a) { a.set("input", 7); })},
      {"negative input", "is (input -1, falling)",
       arc("INV_1X", 0, [](json::Value& a) { a.set("input", -1); })},
      {"directions swapped", "canonical layout has (input 0, falling)",
       arc("NAND2_1X", 0, [](json::Value& a) { a.set("out_rising", true); })},
      {"pins swapped", "canonical layout has (input 1, falling)",
       arc("NAND2_1X", 2, [](json::Value& a) { a.set("input", 0); })},
      {"arc missing", "timing arcs for",
       cell("NAND3_1X",
            [](json::Value& c) {
              json::Value arcs = json::Value::array();
              for (std::size_t k = 0; k + 1 < c.at("arcs").size(); ++k) {
                arcs.push_back(c.at("arcs").at(k));
              }
              c.set("arcs", std::move(arcs));
            })},
      {"input cap missing", "input caps for",
       cell("AOI22_1X",
            [](json::Value& c) {
              json::Value caps = json::Value::array();
              caps.push_back(c.at("input_cap").at(std::size_t{0}));
              c.set("input_cap", std::move(caps));
            })},
  };
}

TEST(LibraryDiskCache, LoaderRefusesCellsTheKernelCannotEvaluate) {
  const auto library = cnfet_library();
  const auto dir = temp_dir("library_mutations");
  const auto path = dir + "/cnfet65.json";
  ASSERT_TRUE(api::save_library(*library, path).ok());
  const json::Value envelope = json::parse(slurp(path));
  const json::Value& payload = envelope.at("payload");

  // The unmutated payload, rewritten the same way, still loads.
  write_library_payload(path, envelope, payload);
  ASSERT_TRUE(api::load_library(path).ok());

  for (const auto& mutation : library_mutations()) {
    write_library_payload(path, envelope, mutation.apply(payload));
    const auto loaded = api::load_library(path);
    ASSERT_FALSE(loaded.ok()) << mutation.what;
    EXPECT_EQ(loaded.error().severity, util::Severity::kError)
        << mutation.what;
    EXPECT_NE(loaded.error().message.find(mutation.expected_error),
              std::string::npos)
        << mutation.what << ": " << loaded.error().message;
  }
}

TEST(LibraryDiskCache, KernelPreconditionRefusalFallsBackWithWarning) {
  const auto library = cnfet_library();
  const auto dir = temp_dir("cache_bad_layout");
  api::LibraryCache cache;
  cache.set_cache_dir(dir);
  const auto path = cache.cache_path(layout::Tech::kCnfet65);
  ASSERT_TRUE(api::save_library(*library, path).ok());
  const json::Value envelope = json::parse(slurp(path));
  const auto mutations = library_mutations();
  write_library_payload(path, envelope,
                        mutations.front().apply(envelope.at("payload")));

  const auto handle = cache.get(layout::Tech::kCnfet65);
  ASSERT_TRUE(handle.ok());  // fell back to characterization, no crash
  expect_library_exact(*library, *handle.value());
  bool warned = false;
  const auto diags = cache.diagnostics();
  for (const auto& d : diags.items()) {
    warned = warned ||
             (d.severity == util::Severity::kWarning &&
              d.message.find("falling back") != std::string::npos &&
              d.message.find(mutations.front().expected_error) !=
                  std::string::npos);
  }
  EXPECT_TRUE(warned) << diags.to_string();
}

TEST(LibraryDiskCache, DiskLoadBeats10xOverSerialCharacterization) {
  using clock = std::chrono::steady_clock;
  liberty::CharacterizeOptions serial;
  serial.num_threads = 1;
  const auto t0 = clock::now();
  const liberty::Library characterized = liberty::build_library(serial);
  const auto t1 = clock::now();

  const auto dir = temp_dir("speed");
  const auto path = dir + "/lib.json";
  ASSERT_TRUE(api::save_library(characterized, path).ok());
  const auto t2 = clock::now();
  const auto loaded = api::load_library(path);
  const auto t3 = clock::now();
  ASSERT_TRUE(loaded.ok());
  expect_library_exact(characterized, *loaded.value());

  const double characterize_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double load_ms =
      std::chrono::duration<double, std::milli>(t3 - t2).count();
  // The acceptance floor: a disk hit must beat serial characterization by
  // >=10x (measured in-run, so host speed cancels out). In practice it is
  // 2-3 orders of magnitude.
  EXPECT_GE(characterize_ms / load_ms, 10.0)
      << "characterize " << characterize_ms << " ms vs load " << load_ms
      << " ms";
}

// --- Flow::save / Flow::resume ----------------------------------------------

std::string gds_bytes(const api::Flow& flow) {
  std::stringstream out;
  gds::write(flow.exported()->gds, out);
  return out.str();
}

std::string metrics_dump(const api::Flow& flow) {
  return json::dump(api::to_json(flow.metrics()));
}

/// The wire-loaded timing, bit for bit ("" when the flow is not routed).
std::string routed_timing_dump(const api::Flow& flow) {
  return flow.routed() != nullptr
             ? json::dump(api::to_json(flow.routed()->routed_timing))
             : "";
}

api::Flow make_cell_flow(layout::Tech tech, bool route = false) {
  api::FlowOptions options;
  options.tech = tech;
  options.route = route;
  return api::Flow::from_cell("NAND3", options).value();
}

void roundtrip_every_checkpoint(layout::Tech tech, const std::string& label,
                                bool route = false) {
  auto reference = make_cell_flow(tech, route);
  ASSERT_TRUE(reference.run().ok());
  const std::string want_gds = gds_bytes(reference);
  const std::string want_metrics = metrics_dump(reference);
  const std::string want_timing = routed_timing_dump(reference);
  ASSERT_EQ(want_timing.empty(), !route);

  const api::Stage checkpoints[] = {
      api::Stage::kCreated,  api::Stage::kMapped,    api::Stage::kTimed,
      api::Stage::kOptimized, api::Stage::kPlaced,
      api::Stage::kSignedOff, api::Stage::kExported};
  for (const auto checkpoint : checkpoints) {
    SCOPED_TRACE(std::string(label) + " @ " + api::to_string(checkpoint));
    auto flow = make_cell_flow(tech, route);
    ASSERT_TRUE(flow.run(checkpoint).ok());
    const auto dir =
        temp_dir(label + "_" + api::to_string(checkpoint));
    const auto saved = flow.save(dir);
    ASSERT_TRUE(saved.ok()) << saved.error().message;

    auto resumed = api::Flow::resume(dir);
    ASSERT_TRUE(resumed.ok()) << resumed.error().message;
    auto& r = resumed.value();
    // The checkpoint itself reconstructs bit-identically: same stage, same
    // diagnostics, same metrics snapshot.
    EXPECT_EQ(r.stage(), checkpoint);
    EXPECT_EQ(r.diagnostics().to_string(), flow.diagnostics().to_string());
    EXPECT_EQ(metrics_dump(r), metrics_dump(flow));
    EXPECT_EQ(routed_timing_dump(r), routed_timing_dump(flow));
    // And continuing it lands on the uninterrupted run's exact bytes.
    ASSERT_TRUE(r.run().ok());
    EXPECT_EQ(r.diagnostics().to_string(),
              reference.diagnostics().to_string());
    EXPECT_EQ(gds_bytes(r), want_gds);
    EXPECT_EQ(metrics_dump(r), want_metrics);
    EXPECT_EQ(routed_timing_dump(r), want_timing);
  }
}

TEST(FlowSession, CnfetRunResumesByteIdenticalFromEveryStage) {
  roundtrip_every_checkpoint(layout::Tech::kCnfet65, "cnfet");
}

TEST(FlowSession, CmosBaselineResumesByteIdenticalFromEveryStage) {
  roundtrip_every_checkpoint(layout::Tech::kCmos65, "cmos");
}

TEST(FlowSession, RoutedRunResumesByteIdenticalFromEveryStage) {
  roundtrip_every_checkpoint(layout::Tech::kCnfet65, "routed", true);
}

TEST(FlowSession, ResumeRefusesCorruptRouting) {
  // The saved routing is outside input: resume must re-check it rather
  // than write broken metal into design.gds. Each edit below refreshes
  // the checksum, as a hand edit or a writer bug would.
  gen::GenOptions gopt;
  gopt.width = 8;
  api::FlowOptions options;
  options.route = true;
  auto flow = api::Flow::from_gen(gopt, options);
  ASSERT_TRUE(flow.ok()) << flow.error().message;
  ASSERT_TRUE(flow.value().run().ok());
  const auto session = flow.value().session_json();
  ASSERT_TRUE(session.ok());
  const auto resume_edited =
      [&](const std::string& label,
          const std::function<void(route::RoutingResult&)>& edit) {
        json::Value payload = session.value();
        json::Value routed = payload.take("routed");
        auto routing = api::routing_result_from_json(routed.at("routing"));
        edit(routing);
        routed.set("routing", api::to_json(routing));
        payload.set("routed", std::move(routed));
        const auto dir = temp_dir("corrupt_" + label);
        EXPECT_TRUE(api::write_artifact(payload, "flow", dir + "/flow.json")
                        .ok());
        return api::Flow::resume(dir);
      };
  // The untouched routing resumes.
  ASSERT_TRUE(resume_edited("none", [](route::RoutingResult&) {}).ok());

  // The first routed net that has the shapes an edit needs.
  const auto net_with = [](route::RoutingResult& routing, bool vias) {
    for (auto& rn : routing.nets) {
      if (vias ? !rn.vias.empty() : !rn.wires.empty()) return &rn;
    }
    ADD_FAILURE() << "no routed net with " << (vias ? "vias" : "wires");
    return &routing.nets.front();
  };
  const auto refused = [&](const std::string& label,
                           const std::function<void(route::RoutingResult&)>&
                               edit) {
    const auto resumed = resume_edited(label, edit);
    EXPECT_FALSE(resumed.ok()) << label;
    return resumed.ok() ? std::string() : resumed.error().message;
  };

  // (a) One wire moved off its path: its net is open.
  const std::string moved =
      refused("moved_wire", [&](route::RoutingResult& routing) {
        auto& wire = net_with(routing, false)->wires.front();
        wire.a.y += 40000;
        wire.b.y += 40000;
      });
  EXPECT_NE(moved.find("route::verify"), std::string::npos) << moved;
  EXPECT_NE(moved.find("(first: "), std::string::npos) << moved;
  // (b) A deleted via.
  const std::string via =
      refused("deleted_via", [&](route::RoutingResult& routing) {
        auto& vias = net_with(routing, true)->vias;
        vias.erase(vias.begin());
      });
  EXPECT_NE(via.find("route::verify"), std::string::npos) << via;
  // (c) One net's wire copied onto another net.
  const std::string copied =
      refused("copied_wire", [&](route::RoutingResult& routing) {
        auto* from = net_with(routing, false);
        auto* onto = from == &routing.nets.front() ? &routing.nets.back()
                                                   : &routing.nets.front();
        onto->wires.push_back(from->wires.front());
      });
  EXPECT_NE(copied.find("shorted"), std::string::npos) << copied;
  // And a routing that records a failed net.
  const std::string failed =
      refused("failed_net", [](route::RoutingResult& routing) {
        routing.failed_nets = 1;
      });
  EXPECT_NE(failed.find("failed net"), std::string::npos) << failed;
  // And one that names a net the netlist does not have.
  refused("foreign_net", [](route::RoutingResult& routing) {
    routing.nets.back().net = 1 << 30;
  });
}

TEST(FlowSession, OptimizedAdoptedNetlistResumesMidPipeline) {
  // The hardest session: an adopted (no-spec) netlist that the opt::
  // passes then mutate — the saved netlist is the optimized one, and the
  // resumed flow must place/export exactly what the uninterrupted run did.
  const auto library = cnfet_library();
  flow::FullAdderOptions weak;
  weak.nand_drive = 1.0;
  api::FlowOptions options;
  options.library = library;
  options.optimize = true;
  options.max_area_growth = 0.5;

  auto reference =
      api::Flow::from_netlist(flow::build_full_adder(*library, weak), options)
          .value();
  ASSERT_TRUE(reference.run().ok());

  auto flow =
      api::Flow::from_netlist(flow::build_full_adder(*library, weak), options)
          .value();
  ASSERT_TRUE(flow.run(api::Stage::kOptimized).ok());
  ASSERT_TRUE(flow.optimized()->enabled);
  ASSERT_GT(flow.optimized()->stats.edits(), 0);
  const auto dir = temp_dir("optimized_adder");
  ASSERT_TRUE(flow.save(dir).ok());

  auto resumed = api::Flow::resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;
  EXPECT_EQ(resumed.value().stage(), api::Stage::kOptimized);
  ASSERT_TRUE(resumed.value().run().ok());
  EXPECT_EQ(gds_bytes(resumed.value()), gds_bytes(reference));
  EXPECT_EQ(metrics_dump(resumed.value()), metrics_dump(reference));
}

TEST(FlowSession, CustomLibrarySessionIsRefusedNotSilentlyRebound) {
  // A session built against a caller-supplied library (here: an INV-only
  // subset, standing in for any custom grid/style characterization) must
  // refuse to resume from the default cache — rebinding its gates by name
  // to different NLDM tables would silently break the bit-identical
  // continuation guarantee.
  const auto library = cnfet_library();
  std::vector<liberty::LibCell> cells;
  for (const auto& cell : library->cells()) {
    if (liberty::Library::base_name(cell.name) == "INV") {
      cells.push_back(cell);
    }
  }
  const auto custom =
      std::make_shared<const liberty::Library>(liberty::Library(cells));
  api::FlowOptions options;
  options.library = custom;
  auto flow = api::Flow::from_cell("INV", options).value();
  ASSERT_TRUE(flow.run(api::Stage::kTimed).ok());
  const auto dir = temp_dir("custom_library");
  ASSERT_TRUE(flow.save(dir).ok());
  const auto resumed = api::Flow::resume(dir);
  ASSERT_FALSE(resumed.ok());
  EXPECT_NE(resumed.error().message.find("library"), std::string::npos);
}

TEST(Serialize, MonteCarloResultRoundTripsExactly) {
  cnt::MonteCarloResult result;
  result.trials = 100000;
  result.failing_trials = 17;
  result.tubes_sampled = 2400000;
  result.stray_shorts = 12345;
  result.stray_chains = 67890;
  result.shorts_histogram.assign(cnt::MonteCarloResult::kHistogramBuckets, 0);
  result.chains_histogram.assign(cnt::MonteCarloResult::kHistogramBuckets, 0);
  result.shorts_histogram[0] = 99980;
  result.shorts_histogram[3] = 20;
  result.chains_histogram[1] = 50000;
  result.chains_histogram[31] = 50000;  // saturated last bucket

  const json::Value v = api::to_json(result);
  // Through text and back: the served monte_carlo response embeds this
  // object, and the CLI byte-compares served vs local dumps.
  const auto back =
      api::monte_carlo_result_from_json(json::parse(json::dump(v, 2)));
  EXPECT_EQ(back.trials, result.trials);
  EXPECT_EQ(back.failing_trials, result.failing_trials);
  EXPECT_EQ(back.tubes_sampled, result.tubes_sampled);
  EXPECT_EQ(back.stray_shorts, result.stray_shorts);
  EXPECT_EQ(back.stray_chains, result.stray_chains);
  EXPECT_EQ(back.shorts_histogram, result.shorts_histogram);
  EXPECT_EQ(back.chains_histogram, result.chains_histogram);
  EXPECT_DOUBLE_EQ(back.yield(), result.yield());
  EXPECT_EQ(json::dump(api::to_json(back), 2), json::dump(v, 2));
}

TEST(FlowSession, ResumeRefusesMissingAndCorruptSessions) {
  EXPECT_FALSE(api::Flow::resume(temp_dir("empty_session")).ok());

  auto flow = make_cell_flow(layout::Tech::kCnfet65);
  ASSERT_TRUE(flow.run(api::Stage::kTimed).ok());
  const auto dir = temp_dir("corrupt_session");
  ASSERT_TRUE(flow.save(dir).ok());
  const auto path = dir + "/flow.json";
  const std::string text = slurp(path);
  spit(path, text.substr(0, text.size() - text.size() / 3));
  const auto truncated = api::Flow::resume(dir);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().severity, util::Severity::kError);

  // A stage/artifact mismatch (hand-edited file) is refused, not crashed:
  // claim kPlaced while carrying no placed artifact.
  json::Value envelope = json::parse(text);
  json::Value payload = envelope.at("payload");
  payload.set("stage", "placed");
  envelope.set("payload", payload);
  envelope.set("checksum", json::fnv1a64_hex(json::dump(payload)));
  spit(path, json::dump(envelope, 2));
  const auto mismatched = api::Flow::resume(dir);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_NE(mismatched.error().message.find("artifact"), std::string::npos);
}

// Pins whole artifact files, envelope and all, so a change to any
// converter or to the number formatter shows up as a digest change. The
// digests were recorded before the converters moved to shared field lists.
TEST(Serialize, ArtifactBytesMatchParentDigests) {
  const auto dir = temp_dir("digests");
  const auto file_digest = [](const std::string& path) {
    return json::fnv1a64_hex(slurp(path));
  };
  const auto session_digest = [&](api::Flow flow, const std::string& label) {
    EXPECT_TRUE(flow.run().ok()) << label;
    const auto saved = flow.save(dir + "/" + label);
    EXPECT_TRUE(saved.ok()) << label;
    return saved.ok() ? file_digest(saved.value()) : std::string();
  };
  gen::GenOptions rca16;
  rca16.family = gen::Family::kRippleCarryAdder;
  rca16.width = 16;
  api::FlowOptions routed;
  routed.route = true;
  api::FlowOptions optimized;
  optimized.optimize = true;
  EXPECT_EQ(session_digest(make_cell_flow(layout::Tech::kCnfet65), "nand3"),
            "a30b9d4605381351");
  EXPECT_EQ(
      session_digest(api::Flow::from_gen(rca16, routed).value(), "rca16_route"),
      "17287d233ebd0305");
  EXPECT_EQ(session_digest(api::Flow::from_gen(rca16, optimized).value(),
                           "rca16_opt"),
            "d7d55b40e88ab091");

  const auto jobs =
      api::family_jobs({layout::Tech::kCnfet65, layout::Tech::kCmos65});
  ASSERT_TRUE(api::save_jobs(jobs, dir + "/jobs.json").ok());
  EXPECT_EQ(file_digest(dir + "/jobs.json"), "e2a92920d738b425");
  ASSERT_TRUE(
      api::save_report(api::run_batch(jobs), dir + "/report.json").ok());
  EXPECT_EQ(file_digest(dir + "/report.json"), "bd583dfeb4f19cfa");

  ASSERT_TRUE(api::save_library(*cnfet_library(), dir + "/library.json").ok());
  EXPECT_EQ(file_digest(dir + "/library.json"), "fd9bc548d9615c82");
}

}  // namespace
}  // namespace cnfet
