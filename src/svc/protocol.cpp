#include "svc/protocol.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace ecsim::svc {

// ---- framing ---------------------------------------------------------------

namespace {

bool write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (w == 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF mid-frame or before the prefix
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

bool write_frame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  char prefix[4] = {static_cast<char>(len & 0xff),
                    static_cast<char>((len >> 8) & 0xff),
                    static_cast<char>((len >> 16) & 0xff),
                    static_cast<char>((len >> 24) & 0xff)};
  return write_all(fd, prefix, 4) &&
         write_all(fd, payload.data(), payload.size());
}

bool read_frame(int fd, std::string& out) {
  char prefix[4];
  if (!read_all(fd, prefix, 4)) return false;
  const std::uint32_t len =
      static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[0])) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[1])) << 8) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[2]))
       << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[3]))
       << 24);
  if (len > kMaxFrameBytes) return false;
  out.resize(len);
  return len == 0 || read_all(fd, out.data(), len);
}

// ---- scalar helpers --------------------------------------------------------

std::string bits_of(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

bool double_of(const std::string& s, double& v) {
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long bits = std::strtoull(s.c_str(), &end, 16);
  if (end != s.c_str() + s.size()) return false;
  const std::uint64_t b = bits;
  std::memcpy(&v, &b, sizeof v);
  return true;
}

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// ---- Fields ----------------------------------------------------------------

void Fields::set(const std::string& key, std::string value) {
  kv_.emplace_back(key, std::move(value));
}

void Fields::set_u64(const std::string& key, std::uint64_t v) {
  set(key, std::to_string(v));
}

void Fields::set_bits(const std::string& key, double v) {
  set(key, bits_of(v));
}

void Fields::set_list(const std::string& key, const std::vector<double>& vs) {
  std::string out;
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i > 0) out += ',';
    out += hexfloat(vs[i]);
  }
  set(key, std::move(out));
}

const std::string* Fields::get(const std::string& key) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Fields::get_u64(const std::string& key, std::uint64_t& v) const {
  const std::string* s = get(key);
  if (s == nullptr || s->empty()) return false;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(s->c_str(), &end, 10);
  if (end != s->c_str() + s->size()) return false;
  v = parsed;
  return true;
}

bool Fields::get_bits(const std::string& key, double& v) const {
  const std::string* s = get(key);
  return s != nullptr && double_of(*s, v);
}

bool Fields::get_list(const std::string& key, std::vector<double>& vs) const {
  const std::string* s = get(key);
  if (s == nullptr) return false;
  vs.clear();
  if (s->empty()) return true;
  std::size_t at = 0;
  while (at <= s->size()) {
    std::size_t comma = s->find(',', at);
    if (comma == std::string::npos) comma = s->size();
    const std::string tok = s->substr(at, comma - at);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || tok.empty()) return false;
    vs.push_back(v);
    at = comma + 1;
    if (comma == s->size()) break;
  }
  return true;
}

std::string Fields::serialize() const {
  std::string out;
  for (const auto& [k, v] : kv_) {
    out += k;
    out += ' ';
    out += std::to_string(v.size());
    out += '\n';
    out += v;
    out += '\n';
  }
  return out;
}

bool Fields::parse(const std::string& text, Fields& out) {
  Fields f;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t sp = text.find(' ', at);
    if (sp == std::string::npos) return false;
    const std::size_t nl = text.find('\n', sp + 1);
    if (nl == std::string::npos) return false;
    const std::string key = text.substr(at, sp - at);
    char* end = nullptr;
    const std::string len_str = text.substr(sp + 1, nl - sp - 1);
    const unsigned long long len = std::strtoull(len_str.c_str(), &end, 10);
    if (end != len_str.c_str() + len_str.size() || len_str.empty()) {
      return false;
    }
    // Subtraction form: `len` is attacker-controlled, so `nl + 1 + len + 1`
    // can wrap. `nl < text.size()` here, so `avail` cannot underflow; the
    // value needs `len` bytes plus its trailing '\n'.
    const std::size_t avail = text.size() - nl - 1;
    if (len >= avail) return false;
    if (text[nl + 1 + len] != '\n') return false;
    f.kv_.emplace_back(key, text.substr(nl + 1, len));
    at = nl + 1 + len + 1;
  }
  out = std::move(f);
  return true;
}

// ---- verbs -----------------------------------------------------------------

const char* to_string(Verb v) {
  switch (v) {
    case Verb::kSweepTiming: return "sweep_timing";
    case Verb::kSweepArch: return "sweep_arch";
    case Verb::kSweepNetwork: return "sweep_network";
    case Verb::kFaultSweep: return "fault_sweep";
    case Verb::kFaultMc: return "fault_mc";
    case Verb::kVmMc: return "vm_mc";
    case Verb::kPing: return "ping";
    case Verb::kStats: return "stats";
    case Verb::kKillWorker: return "kill_worker";
  }
  return "?";
}

bool parse_verb(const std::string& s, Verb& out) {
  for (Verb v : {Verb::kSweepTiming, Verb::kSweepArch, Verb::kSweepNetwork,
                 Verb::kFaultSweep, Verb::kFaultMc, Verb::kVmMc, Verb::kPing,
                 Verb::kStats, Verb::kKillWorker}) {
    if (s == to_string(v)) {
      out = v;
      return true;
    }
  }
  return false;
}

// ---- Request ---------------------------------------------------------------

Fields Request::to_fields() const {
  Fields f;
  f.set("verb", to_string(verb));
  f.set("backend", backend);
  f.set("ts", hexfloat(ts));
  f.set("t_end", hexfloat(t_end));
  f.set_u64("seed", seed);
  switch (verb) {
    case Verb::kSweepTiming:
    case Verb::kSweepArch:
    case Verb::kSweepNetwork:
    case Verb::kFaultSweep:
      f.set_list("rows", rows);
      f.set_list("cols", cols);
      break;
    case Verb::kFaultMc:
      f.set("loss", hexfloat(loss));
      f.set_u64("trials", trials);
      break;
    case Verb::kVmMc:
      f.set_u64("trials", trials);
      f.set_u64("iterations", iterations);
      f.set("spec_text", spec_text);
      break;
    default:
      break;
  }
  return f;
}

bool Request::from_fields(const Fields& f, Request& out, std::string& err) {
  Request r;
  const std::string* verb_str = f.get("verb");
  if (verb_str == nullptr || !parse_verb(*verb_str, r.verb)) {
    err = "missing or unknown verb";
    return false;
  }
  if (const std::string* b = f.get("backend")) r.backend = *b;
  if (r.backend != "interp" && r.backend != "native") {
    err = "unknown backend '" + r.backend + "'";
    return false;
  }
  const std::string* s = nullptr;
  char* end = nullptr;
  if ((s = f.get("ts")) != nullptr) r.ts = std::strtod(s->c_str(), &end);
  if ((s = f.get("t_end")) != nullptr) r.t_end = std::strtod(s->c_str(), &end);
  if (!(r.ts > 0.0) || !(r.t_end > 0.0)) {
    err = "ts and t_end must be positive";
    return false;
  }
  f.get_u64("seed", r.seed);
  switch (r.verb) {
    case Verb::kSweepTiming:
    case Verb::kSweepArch:
    case Verb::kSweepNetwork:
    case Verb::kFaultSweep:
      if (!f.get_list("rows", r.rows) || !f.get_list("cols", r.cols) ||
          r.rows.empty() || r.cols.empty()) {
        err = "sweep request needs non-empty rows and cols";
        return false;
      }
      if (r.verb == Verb::kSweepNetwork) {
        for (const double c : r.cols) {
          if (c != 0.0 && c != 1.0) {
            err = "sweep_network cols must be scenario codes (0=can 1=tdma)";
            return false;
          }
        }
      }
      break;
    case Verb::kFaultMc:
      if ((s = f.get("loss")) != nullptr) {
        r.loss = std::strtod(s->c_str(), &end);
      }
      if (!f.get_u64("trials", r.trials) || r.trials == 0) {
        err = "fault_mc needs trials > 0";
        return false;
      }
      break;
    case Verb::kVmMc: {
      if (!f.get_u64("trials", r.trials) || r.trials == 0) {
        err = "vm_mc needs trials > 0";
        return false;
      }
      f.get_u64("iterations", r.iterations);
      const std::string* spec = f.get("spec_text");
      if (spec == nullptr || spec->empty()) {
        err = "vm_mc needs spec_text";
        return false;
      }
      r.spec_text = *spec;
      break;
    }
    default:
      break;
  }
  out = std::move(r);
  err.clear();
  return true;
}

std::size_t Request::units() const {
  switch (verb) {
    case Verb::kSweepTiming:
    case Verb::kSweepArch:
    case Verb::kSweepNetwork:
    case Verb::kFaultSweep:
      return rows.size() * cols.size();
    case Verb::kFaultMc:
      return trials;
    case Verb::kVmMc:
      return 1;
    default:
      return 0;
  }
}

// ---- responses -------------------------------------------------------------

void meta_to_fields(const ResponseMeta& m, Fields& f) {
  f.set("status", m.ok ? "ok" : "error");
  if (!m.ok) f.set("error", m.error);
  f.set("model_hash", m.model_hash);
  f.set_u64("cache_hits", m.cache_hits);
  f.set_u64("cache_units", m.cache_units);
  f.set_u64("served_from_cache", m.served_from_cache ? 1 : 0);
  f.set_u64("redispatches", m.redispatches);
}

ResponseMeta meta_from_fields(const Fields& f) {
  ResponseMeta m;
  const std::string* status = f.get("status");
  m.ok = status != nullptr && *status == "ok";
  if (const std::string* e = f.get("error")) m.error = *e;
  if (const std::string* h = f.get("model_hash")) m.model_hash = *h;
  f.get_u64("cache_hits", m.cache_hits);
  f.get_u64("cache_units", m.cache_units);
  std::uint64_t flag = 0;
  f.get_u64("served_from_cache", flag);
  m.served_from_cache = flag != 0;
  f.get_u64("redispatches", m.redispatches);
  return m;
}

// ---- blob lists ------------------------------------------------------------

std::string encode_blob_list(const std::vector<std::string>& blobs) {
  std::string out = std::to_string(blobs.size());
  out += '\n';
  for (const std::string& b : blobs) {
    out += std::to_string(b.size());
    out += '\n';
    out += b;
    out += '\n';
  }
  return out;
}

bool decode_blob_list(const std::string& text,
                      std::vector<std::string>& blobs) {
  blobs.clear();
  std::size_t at = 0;
  const auto read_count = [&](unsigned long long& n) {
    const std::size_t nl = text.find('\n', at);
    if (nl == std::string::npos) return false;
    char* end = nullptr;
    const std::string tok = text.substr(at, nl - at);
    n = std::strtoull(tok.c_str(), &end, 10);
    if (tok.empty() || end != tok.c_str() + tok.size()) return false;
    at = nl + 1;
    return true;
  };
  unsigned long long count = 0;
  if (!read_count(count)) return false;
  // Every entry costs at least 3 bytes ("0\n" + '\n'), so a count beyond
  // the remaining bytes is corrupt; bounding before reserve() keeps a
  // hostile count from throwing length_error or allocating gigabytes.
  if (count > text.size() - at) return false;
  blobs.reserve(static_cast<std::size_t>(count));
  for (unsigned long long i = 0; i < count; ++i) {
    unsigned long long len = 0;
    if (!read_count(len)) return false;
    // Subtraction form avoids wrap-around on a hostile u64 length; the
    // payload needs `len` bytes plus its trailing '\n', and `at <= size`.
    if (len >= text.size() - at) return false;
    if (text[at + len] != '\n') return false;
    blobs.push_back(text.substr(at, len));
    at += static_cast<std::size_t>(len) + 1;
  }
  return at == text.size();
}

// ---- cell codecs -----------------------------------------------------------

namespace {

/// Tokenize a payload on single spaces; every codec below is fixed-layout.
std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> toks;
  std::size_t at = 0;
  while (at <= s.size()) {
    std::size_t sp = s.find(' ', at);
    if (sp == std::string::npos) sp = s.size();
    toks.push_back(s.substr(at, sp - at));
    if (sp == s.size()) break;
    at = sp + 1;
  }
  return toks;
}

bool tok_u64(const std::string& s, std::uint64_t& v) {
  if (s.empty()) return false;
  char* end = nullptr;
  v = std::strtoull(s.c_str(), &end, 10);
  return end == s.c_str() + s.size();
}

void put_summary(std::string& out, const math::Summary& s) {
  out += std::to_string(s.count);
  for (double v : {s.mean, s.stddev, s.min, s.max, s.median, s.p95}) {
    out += ' ';
    out += bits_of(v);
  }
}

bool take_summary(const std::vector<std::string>& toks, std::size_t& i,
                  math::Summary& s) {
  if (i + 7 > toks.size()) return false;
  std::uint64_t count = 0;
  if (!tok_u64(toks[i++], count)) return false;
  s.count = static_cast<std::size_t>(count);
  double* fields[] = {&s.mean, &s.stddev, &s.min, &s.max, &s.median, &s.p95};
  for (double* f : fields) {
    if (!double_of(toks[i++], *f)) return false;
  }
  return true;
}

}  // namespace

std::string encode_cell(const sweep::SweepCell& c) {
  std::string out = "S";
  for (double v : {c.la_frac, c.jitter_frac, c.bus_bandwidth, c.wcet_scale,
                   c.iae, c.ise, c.itae, c.cost, c.overshoot_pct,
                   c.act_latency_mean, c.act_jitter}) {
    out += ' ';
    out += bits_of(v);
  }
  out += c.schedulable ? " 1" : " 0";
  out += c.stable ? " 1" : " 0";
  return out;
}

bool decode_cell(const std::string& s, sweep::SweepCell& c) {
  const std::vector<std::string> toks = split(s);
  if (toks.size() != 14 || toks[0] != "S") return false;
  sweep::SweepCell out;
  double* fields[] = {&out.la_frac,       &out.jitter_frac,
                      &out.bus_bandwidth, &out.wcet_scale,
                      &out.iae,           &out.ise,
                      &out.itae,          &out.cost,
                      &out.overshoot_pct, &out.act_latency_mean,
                      &out.act_jitter};
  for (std::size_t i = 0; i < 11; ++i) {
    if (!double_of(toks[i + 1], *fields[i])) return false;
  }
  out.schedulable = toks[12] == "1";
  out.stable = toks[13] == "1";
  c = out;
  return true;
}

std::string encode_cell(const sweep::FaultCell& c) {
  std::string out = "F";
  for (double v : {c.loss_rate, c.delay, c.iae, c.ise, c.itae, c.cost,
                   c.overshoot_pct}) {
    out += ' ';
    out += bits_of(v);
  }
  out += ' ';
  out += std::to_string(c.fault_seed);
  out += ' ';
  out += std::to_string(c.messages_lost);
  out += ' ';
  out += std::to_string(c.messages_deferred);
  out += c.stable ? " 1" : " 0";
  return out;
}

bool decode_cell(const std::string& s, sweep::FaultCell& c) {
  const std::vector<std::string> toks = split(s);
  if (toks.size() != 12 || toks[0] != "F") return false;
  sweep::FaultCell out;
  double* fields[] = {&out.loss_rate, &out.delay, &out.iae,
                      &out.ise,       &out.itae,  &out.cost,
                      &out.overshoot_pct};
  for (std::size_t i = 0; i < 7; ++i) {
    if (!double_of(toks[i + 1], *fields[i])) return false;
  }
  std::uint64_t u = 0;
  if (!tok_u64(toks[8], out.fault_seed)) return false;
  if (!tok_u64(toks[9], u)) return false;
  out.messages_lost = static_cast<std::size_t>(u);
  if (!tok_u64(toks[10], u)) return false;
  out.messages_deferred = static_cast<std::size_t>(u);
  out.stable = toks[11] == "1";
  c = out;
  return true;
}

std::string encode_cell(const sweep::NetworkCell& c) {
  std::string out = "N";
  for (double v : {c.bus_load, c.scenario, c.act_latency_mean, c.act_jitter,
                   c.nominal_iae, c.nominal_cost, c.retuned_iae,
                   c.retuned_cost, c.stability_margin}) {
    out += ' ';
    out += bits_of(v);
  }
  out += c.schedulable ? " 1" : " 0";
  out += c.stable ? " 1" : " 0";
  return out;
}

bool decode_cell(const std::string& s, sweep::NetworkCell& c) {
  const std::vector<std::string> toks = split(s);
  if (toks.size() != 12 || toks[0] != "N") return false;
  sweep::NetworkCell out;
  double* fields[] = {&out.bus_load,      &out.scenario,
                      &out.act_latency_mean, &out.act_jitter,
                      &out.nominal_iae,   &out.nominal_cost,
                      &out.retuned_iae,   &out.retuned_cost,
                      &out.stability_margin};
  for (std::size_t i = 0; i < 9; ++i) {
    if (!double_of(toks[i + 1], *fields[i])) return false;
  }
  out.schedulable = toks[10] == "1";
  out.stable = toks[11] == "1";
  c = out;
  return true;
}

std::string encode_mc(const sweep::MonteCarloResult& r) {
  std::string out = "M ";
  out += std::to_string(r.trials);
  out += ' ';
  out += std::to_string(r.deadlocks);
  out += ' ';
  put_summary(out, r.makespan);
  out += ' ';
  out += std::to_string(r.io_ops.size());
  for (const sweep::MonteCarloOpStats& op : r.io_ops) {
    out += ' ';
    out += std::to_string(op.op);
    out += op.sensor ? " 1 " : " 0 ";
    out += std::to_string(op.name.size());
    out += ' ';
    out += op.name;  // spec op names contain no spaces (io::parse_spec)
    out += ' ';
    put_summary(out, op.mean_latency);
    out += ' ';
    put_summary(out, op.max_latency);
    out += ' ';
    put_summary(out, op.jitter);
  }
  return out;
}

bool decode_mc(const std::string& s, sweep::MonteCarloResult& r) {
  const std::vector<std::string> toks = split(s);
  std::size_t i = 0;
  if (toks.empty() || toks[i++] != "M") return false;
  sweep::MonteCarloResult out;
  std::uint64_t u = 0;
  if (i >= toks.size() || !tok_u64(toks[i++], u)) return false;
  out.trials = static_cast<std::size_t>(u);
  if (i >= toks.size() || !tok_u64(toks[i++], u)) return false;
  out.deadlocks = static_cast<std::size_t>(u);
  if (!take_summary(toks, i, out.makespan)) return false;
  if (i >= toks.size() || !tok_u64(toks[i++], u)) return false;
  const std::size_t num_ops = static_cast<std::size_t>(u);
  // Each op consumes at least one token, so an op count beyond the
  // remaining tokens is corrupt; check before reserve() so a hostile
  // count cannot throw or allocate unboundedly.
  if (num_ops > toks.size() - i) return false;
  out.io_ops.reserve(num_ops);
  for (std::size_t k = 0; k < num_ops; ++k) {
    sweep::MonteCarloOpStats op;
    if (i + 3 > toks.size() || !tok_u64(toks[i], u)) return false;
    op.op = static_cast<aaa::OpId>(u);
    op.sensor = toks[i + 1] == "1";
    std::uint64_t name_len = 0;
    if (!tok_u64(toks[i + 2], name_len)) return false;
    i += 3;
    if (i >= toks.size() || toks[i].size() != name_len) return false;
    op.name = toks[i++];
    if (!take_summary(toks, i, op.mean_latency) ||
        !take_summary(toks, i, op.max_latency) ||
        !take_summary(toks, i, op.jitter)) {
      return false;
    }
    out.io_ops.push_back(std::move(op));
  }
  if (i != toks.size()) return false;
  r = std::move(out);
  return true;
}

}  // namespace ecsim::svc
