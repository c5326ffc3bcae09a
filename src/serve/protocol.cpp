#include "serve/protocol.hpp"

#include <initializer_list>

#include "api/serialize.hpp"

namespace cnfet::serve {

namespace json = util::json;

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPing:
      return "ping";
    case RequestKind::kStats:
      return "stats";
    case RequestKind::kCompile:
      return "compile";
    case RequestKind::kResume:
      return "resume";
    case RequestKind::kSta:
      return "sta";
    case RequestKind::kMonteCarlo:
      return "monte_carlo";
    case RequestKind::kBatch:
      return "batch";
    case RequestKind::kGen:
      return "gen";
    case RequestKind::kShutdown:
      return "shutdown";
  }
  return "?";
}

util::Result<RequestKind> request_kind_from_string(const std::string& name) {
  for (const RequestKind kind :
       {RequestKind::kPing, RequestKind::kStats, RequestKind::kCompile,
        RequestKind::kResume, RequestKind::kSta, RequestKind::kMonteCarlo,
        RequestKind::kBatch, RequestKind::kGen, RequestKind::kShutdown}) {
    if (name == to_string(kind)) return kind;
  }
  return util::Result<RequestKind>::failure(
      "serve", "unknown request kind \"" + name + "\"");
}

util::Result<Request> parse_request(const std::string& line,
                                    const WireLimits& limits) {
  using R = util::Result<Request>;
  json::Value doc;
  try {
    doc = json::parse(line, limits.parse_limits());
  } catch (const std::exception& e) {
    return R::failure("serve", std::string("malformed request: ") + e.what());
  }
  try {
    if (!doc.is_object()) {
      return R::failure("serve", "request must be a JSON object");
    }
    const json::Value* version = doc.find("proto_version");
    if (version == nullptr) {
      return R::failure("serve", "request is missing proto_version");
    }
    if (version->as_int() != kProtoVersion) {
      return R::failure(
          "serve", "unsupported proto_version " +
                       std::to_string(version->as_int()) +
                       " (this server speaks version " +
                       std::to_string(kProtoVersion) + ")");
    }
    auto kind = request_kind_from_string(doc.get_string("kind"));
    if (!kind.ok()) return kind.error();
    Request request;
    request.kind = kind.value();
    if (const json::Value* id = doc.find("id")) request.id = id->as_string();
    request.payload = std::move(doc);
    return request;
  } catch (const std::exception& e) {
    // Wrong-kind accesses (kind not a string, id not a string, ...).
    return R::failure("serve", std::string("malformed request: ") + e.what());
  }
}

json::Value make_request(RequestKind kind, const std::string& id) {
  json::Value v = json::Value::object();
  v.set("proto_version", kProtoVersion);
  v.set("kind", to_string(kind));
  if (!id.empty()) v.set("id", id);
  return v;
}

namespace {

json::Value response_envelope(const std::string& kind, const std::string& id,
                              bool ok) {
  json::Value v = json::Value::object();
  v.set("proto_version", kProtoVersion);
  v.set("kind", kind);
  if (!id.empty()) v.set("id", id);
  v.set("ok", ok);
  return v;
}

}  // namespace

json::Value ok_response(const Request& request, json::Value result,
                        const util::Diagnostics& diags) {
  json::Value v = response_envelope(to_string(request.kind), request.id, true);
  v.set("result", std::move(result));
  v.set("diagnostics", api::to_json(diags));
  return v;
}

json::Value error_response(const std::string& kind, const std::string& id,
                           const util::Diagnostics& diags) {
  json::Value v = response_envelope(kind, id, false);
  v.set("result", json::Value::object());
  v.set("diagnostics", api::to_json(diags));
  return v;
}

json::Value error_response(const std::string& kind, const std::string& id,
                           const std::string& stage,
                           const std::string& message) {
  util::Diagnostics diags;
  diags.error(stage, message);
  return error_response(kind, id, diags);
}

util::Result<json::Value> parse_response(const std::string& line) {
  using R = util::Result<json::Value>;
  try {
    json::Value doc = json::parse(line);
    if (!doc.is_object()) {
      return R::failure("serve", "response must be a JSON object");
    }
    if (doc.get_int("proto_version") != kProtoVersion) {
      return R::failure("serve",
                        "response has unsupported proto_version " +
                            std::to_string(doc.get_int("proto_version")));
    }
    (void)doc.get_bool("ok");  // envelope check: must exist and be a bool
    return doc;
  } catch (const std::exception& e) {
    return R::failure("serve", std::string("malformed response: ") + e.what());
  }
}

util::Diagnostics response_diagnostics(const json::Value& response) {
  util::Diagnostics diags;
  try {
    const json::Value* arr = response.find("diagnostics");
    if (arr == nullptr || !arr->is_array()) return diags;
    for (const auto& item : arr->items()) {
      const std::string& severity = item.get_string("severity");
      util::Diagnostic d;
      d.severity = severity == "info"      ? util::Severity::kInfo
                   : severity == "warning" ? util::Severity::kWarning
                                           : util::Severity::kError;
      d.stage = item.get_string("stage");
      d.message = item.get_string("message");
      diags.add(std::move(d));
    }
  } catch (const std::exception&) {
    // Display-only: a malformed diagnostics array yields what parsed so far.
  }
  return diags;
}

std::string to_hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

util::Result<std::string> from_hex(const std::string& hex) {
  using R = util::Result<std::string>;
  if (hex.size() % 2 != 0) {
    return R::failure("serve", "hex payload has odd length");
  }
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return R::failure("serve", "invalid hex digit at offset " +
                                     std::to_string(hi < 0 ? i : i + 1));
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

}  // namespace cnfet::serve
