#include "src/serve/protocol.h"

namespace fg::serve {

const char* request_kind_name(RequestKind k) {
  switch (k) {
    case RequestKind::kSubmit: return "submit";
    case RequestKind::kStatus: return "status";
    case RequestKind::kCancel: return "cancel";
    case RequestKind::kStats: return "stats";
    case RequestKind::kDrain: return "drain";
    case RequestKind::kShutdown: return "shutdown";
  }
  return "?";
}

bool parse_request(const std::string& line, Request* out, std::string* err) {
  json::Value v;
  if (!json::parse(line, &v) || !v.is_object()) {
    *err = "malformed request: not a JSON object";
    return false;
  }
  const json::Value* ver = v.get("v");
  if (ver == nullptr || ver->kind != json::Value::Kind::kNumber ||
      ver->is_float || ver->num != kProtocolVersion) {
    *err = "unsupported protocol version (daemon speaks v" +
           std::to_string(kProtocolVersion) + "; send \"v\": " +
           std::to_string(kProtocolVersion) + ")";
    return false;
  }
  const std::string kind = v.get_str("kind");
  Request r;
  if (kind == "submit" || kind == "submit-spec" || kind == "submit-campaign") {
    r.kind = RequestKind::kSubmit;
    const json::Value* spec = v.get("spec");
    if (spec == nullptr || !spec->is_object()) {
      *err = "submit: missing \"spec\" object";
      return false;
    }
    std::string spec_err;
    if (!api::spec_from_json_value(*spec, &r.spec, &spec_err)) {
      *err = "submit: bad spec: " + spec_err;
      return false;
    }
    r.wait = v.get_bool("wait", false);
    r.want_results = v.get_bool("results", false);
    r.with_baseline = v.get_bool("with_baseline", true);
    r.name = v.get_str("name");
  } else if (kind == "status" || kind == "jobs") {
    r.kind = RequestKind::kStatus;
  } else if (kind == "cancel") {
    r.kind = RequestKind::kCancel;
  } else if (kind == "stats") {
    r.kind = RequestKind::kStats;
  } else if (kind == "drain") {
    r.kind = RequestKind::kDrain;
  } else if (kind == "shutdown") {
    r.kind = RequestKind::kShutdown;
  } else if (kind.empty()) {
    *err = "missing request \"kind\"";
    return false;
  } else {
    *err = "unknown request kind \"" + kind + "\"";
    return false;
  }
  if (const json::Value* id = v.get("id");
      id != nullptr && id->kind == json::Value::Kind::kNumber &&
      !id->is_float) {
    r.id = id->num;
    r.has_id = true;
  }
  if (r.kind == RequestKind::kCancel && !r.has_id) {
    *err = "cancel: missing submission \"id\"";
    return false;
  }
  *out = std::move(r);
  return true;
}

namespace {

json::Value request_base(const char* kind) {
  json::Value v = json::Value::object();
  v.set("v", json::Value::of(kProtocolVersion));
  v.set("kind", json::Value::of_str(kind));
  return v;
}

}  // namespace

std::string submit_request(const api::ExperimentSpec& spec, bool wait,
                           bool want_results, bool with_baseline,
                           const std::string& name) {
  json::Value v = request_base("submit");
  json::Value spec_v;
  // spec_to_json_value emits the complete, bit-exact export.
  spec_v = api::spec_to_json_value(spec);
  v.set("spec", std::move(spec_v));
  v.set("wait", json::Value::of_bool(wait));
  v.set("results", json::Value::of_bool(want_results));
  v.set("with_baseline", json::Value::of_bool(with_baseline));
  if (!name.empty()) v.set("name", json::Value::of_str(name));
  return json::dump(v, 0);
}

std::string simple_request(const char* kind) {
  return json::dump(request_base(kind), 0);
}

std::string status_request(u64 id) {
  json::Value v = request_base("status");
  v.set("id", json::Value::of(id));
  return json::dump(v, 0);
}

std::string cancel_request(u64 id) {
  json::Value v = request_base("cancel");
  v.set("id", json::Value::of(id));
  return json::dump(v, 0);
}

std::string error_response(const std::string& msg) {
  json::Value v = json::Value::object();
  v.set("ok", json::Value::of_bool(false));
  v.set("v", json::Value::of(kProtocolVersion));
  v.set("error", json::Value::of_str(msg));
  return json::dump(v, 0);
}

std::string ok_response(json::Value fields) {
  fields.set("ok", json::Value::of_bool(true));
  fields.set("v", json::Value::of(kProtocolVersion));
  return json::dump(fields, 0);
}

bool FrameBuffer::take_line(std::string* line) {
  const size_t nl = buf_.find('\n');
  if (nl == std::string::npos) return false;
  line->assign(buf_, 0, nl);
  buf_.erase(0, nl + 1);
  return true;
}

bool FrameBuffer::over_limit() const {
  return buf_.size() > kMaxFrameBytes && buf_.find('\n') == std::string::npos;
}

}  // namespace fg::serve
