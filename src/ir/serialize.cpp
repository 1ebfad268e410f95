// Canonical text serialization of the IR, its strict parser, the FNV-1a
// hash over the serialized bytes, and a JSON rendering for tooling.
//
// Canonical form rules (the determinism contract):
//  - fixed field order, one logical record per line, single-space separated;
//  - doubles printed as C hexfloats ("%a": exact, locale-free, round-trips
//    bit-for-bit through strtod);
//  - strings double-quoted with \\ \" \n \t escapes;
//  - indices as decimal size_t.
// parse() consumes the token stream (whitespace-insensitive), so
// parse(serialize(m)) == m; and since serialize() is deterministic,
// serialize(parse(text)) == text for canonical inputs.
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace ecsim::ir {

namespace {

// --- writing -----------------------------------------------------------------

void put_real(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  out += buf;
}

void put_size(std::string& out, std::size_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%zu", v);
  out += buf;
}

void put_int(std::string& out, long long v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", v);
  out += buf;
}

void put_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  out += '"';
}

void put_size_list(std::string& out, const char* tag,
                   const std::vector<std::size_t>& v) {
  out += tag;
  out += ' ';
  put_size(out, v.size());
  for (std::size_t x : v) {
    out += ' ';
    put_size(out, x);
  }
  out += '\n';
}

void put_slice_list(std::string& out, const char* tag,
                    const std::vector<SliceIr>& v) {
  out += tag;
  out += ' ';
  put_size(out, v.size());
  for (const SliceIr& s : v) {
    out += ' ';
    put_size(out, s.offset);
    out += ' ';
    put_size(out, s.width);
  }
  out += '\n';
}

void put_portref_list(std::string& out, const char* tag,
                      const std::vector<PortRefIr>& v) {
  out += tag;
  out += ' ';
  put_size(out, v.size());
  for (const PortRefIr& p : v) {
    out += ' ';
    put_size(out, p.block);
    out += ' ';
    put_size(out, p.port);
  }
  out += '\n';
}

void put_attr(std::string& out, const Attr& a) {
  out += "attr ";
  put_string(out, a.key);
  switch (a.kind) {
    case Attr::Kind::kInt:
      out += " int ";
      put_int(out, a.i);
      break;
    case Attr::Kind::kReal:
      out += " real ";
      put_real(out, a.r);
      break;
    case Attr::Kind::kRealVec:
      out += " vec ";
      put_size(out, a.vec.size());
      for (double v : a.vec) {
        out += ' ';
        put_real(out, v);
      }
      break;
    case Attr::Kind::kMatrix:
      out += " matrix ";
      put_size(out, a.rows);
      out += ' ';
      put_size(out, a.cols);
      for (double v : a.vec) {
        out += ' ';
        put_real(out, v);
      }
      break;
    case Attr::Kind::kString:
      out += " str ";
      put_string(out, a.s);
      break;
  }
  out += '\n';
}

// --- tokenizing / reading ----------------------------------------------------

class Reader {
 public:
  explicit Reader(const std::string& text) : text_(text) {}

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

  std::string token() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    if (text_[pos_] == '"') return quoted();
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

  void expect(const char* word) {
    const std::string t = token();
    if (t != word) {
      fail("expected '" + std::string(word) + "', got '" + t + "'");
    }
  }

  std::size_t size() {
    const std::string t = token();
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(t.c_str(), &end, 10);
    if (end == t.c_str() || *end != '\0' || errno != 0) {
      fail("bad index '" + t + "'");
    }
    return static_cast<std::size_t>(v);
  }

  long long integer() {
    const std::string t = token();
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(t.c_str(), &end, 10);
    if (end == t.c_str() || *end != '\0' || errno != 0) {
      fail("bad integer '" + t + "'");
    }
    return v;
  }

  double real() {
    const std::string t = token();
    char* end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    if (end == t.c_str() || *end != '\0') fail("bad real '" + t + "'");
    return v;
  }

  bool flag() {
    const std::size_t v = size();
    if (v > 1) fail("bad flag");
    return v == 1;
  }

  std::string string() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected string");
    return quoted();
  }

  [[noreturn]] void fail(const std::string& why) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    throw std::runtime_error("ir::parse: " + why + " (line " +
                             std::to_string(line) + ")");
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string quoted() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '\\': c = '\\'; break;
          case '"': c = '"'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default: fail("bad escape");
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::vector<std::size_t> read_size_list(Reader& r, const char* tag) {
  r.expect(tag);
  const std::size_t n = r.size();
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = r.size();
  return v;
}

std::vector<SliceIr> read_slice_list(Reader& r, const char* tag) {
  r.expect(tag);
  const std::size_t n = r.size();
  std::vector<SliceIr> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i].offset = r.size();
    v[i].width = r.size();
  }
  return v;
}

std::vector<PortRefIr> read_portref_list(Reader& r, const char* tag) {
  r.expect(tag);
  const std::size_t n = r.size();
  std::vector<PortRefIr> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i].block = r.size();
    v[i].port = r.size();
  }
  return v;
}

Attr read_attr(Reader& r) {
  r.expect("attr");
  Attr a;
  a.key = r.string();
  const std::string kind = r.token();
  if (kind == "int") {
    a.kind = Attr::Kind::kInt;
    a.i = r.integer();
  } else if (kind == "real") {
    a.kind = Attr::Kind::kReal;
    a.r = r.real();
  } else if (kind == "vec") {
    a.kind = Attr::Kind::kRealVec;
    const std::size_t n = r.size();
    a.vec.resize(n);
    for (std::size_t i = 0; i < n; ++i) a.vec[i] = r.real();
  } else if (kind == "matrix") {
    a.kind = Attr::Kind::kMatrix;
    a.rows = r.size();
    a.cols = r.size();
    a.vec.resize(a.rows * a.cols);
    for (std::size_t i = 0; i < a.vec.size(); ++i) a.vec[i] = r.real();
  } else if (kind == "str") {
    a.kind = Attr::Kind::kString;
    a.s = r.string();
  } else {
    r.fail("unknown attr kind '" + kind + "'");
  }
  return a;
}

}  // namespace

std::string serialize(const Model& m) {
  std::string out;
  out.reserve(4096);
  out += "ecsim-ir ";
  put_int(out, m.version);
  out += "\nname ";
  put_string(out, m.name);
  out += "\nblocks ";
  put_size(out, m.blocks.size());
  out += '\n';
  for (std::size_t b = 0; b < m.blocks.size(); ++b) {
    const BlockIr& blk = m.blocks[b];
    out += "block ";
    put_size(out, b);
    out += " kind ";
    put_string(out, blk.kind);
    out += " name ";
    put_string(out, blk.name);
    out += '\n';
    put_size_list(out, "in", blk.in_widths);
    out += "ft ";
    put_size(out, blk.feedthrough.size());
    for (bool f : blk.feedthrough) out += f ? " 1" : " 0";
    out += '\n';
    put_size_list(out, "out", blk.out_widths);
    out += "ev ";
    put_size(out, blk.n_event_in);
    out += ' ';
    put_size(out, blk.n_event_out);
    out += "\nstate ";
    put_size(out, blk.state_size);
    out += "\ntimedep ";
    out += blk.time_dependent ? '1' : '0';
    out += "\nopaque ";
    out += blk.opaque ? '1' : '0';
    out += "\nattrs ";
    put_size(out, blk.attrs.size());
    out += '\n';
    for (const Attr& a : blk.attrs) put_attr(out, a);
  }
  out += "data_wires ";
  put_size(out, m.data_wires.size());
  out += '\n';
  for (const WireIr& w : m.data_wires) {
    out += "w ";
    put_size(out, w.from.block);
    out += ' ';
    put_size(out, w.from.port);
    out += ' ';
    put_size(out, w.to.block);
    out += ' ';
    put_size(out, w.to.port);
    out += '\n';
  }
  out += "event_wires ";
  put_size(out, m.event_wires.size());
  out += '\n';
  for (const WireIr& w : m.event_wires) {
    out += "w ";
    put_size(out, w.from.block);
    out += ' ';
    put_size(out, w.from.port);
    out += ' ';
    put_size(out, w.to.block);
    out += ' ';
    put_size(out, w.to.port);
    out += '\n';
  }
  out += "layout arena ";
  put_size(out, m.layout.arena_size);
  out += " total_state ";
  put_size(out, m.layout.total_state);
  out += '\n';
  put_size_list(out, "out_base", m.layout.out_base);
  put_slice_list(out, "out_slices", m.layout.out_slices);
  put_size_list(out, "in_base", m.layout.in_base);
  put_slice_list(out, "in_slices", m.layout.in_slices);
  put_size_list(out, "state_offset", m.layout.state_offset);
  put_size_list(out, "stateful", m.layout.stateful_blocks);
  put_size_list(out, "eval_order", m.layout.eval_order);
  put_size_list(out, "topo_pos", m.layout.topo_pos);
  put_size_list(out, "cone_base", m.layout.cone_base);
  put_size_list(out, "cone_blocks", m.layout.cone_blocks);
  put_size_list(out, "dynamic_cone", m.layout.dynamic_cone);
  put_size_list(out, "sink_base", m.layout.sink_base);
  put_size_list(out, "sink_ptr", m.layout.sink_ptr);
  put_portref_list(out, "event_sinks", m.layout.event_sinks);
  out += "schedule ";
  out += m.has_schedule ? '1' : '0';
  out += '\n';
  if (m.has_schedule) {
    const ScheduleIr& s = m.schedule;
    out += "period ";
    put_real(out, s.period);
    out += " makespan ";
    put_real(out, s.makespan);
    out += "\nexecutives ";
    put_size(out, s.executives.size());
    out += '\n';
    for (const ExecutiveIr& e : s.executives) {
      out += "executive ";
      put_size(out, e.proc);
      out += ' ';
      put_string(out, e.resource);
      out += " instrs ";
      put_size(out, e.instrs.size());
      out += '\n';
      for (const InstrIr& i : e.instrs) {
        out += "instr ";
        put_size(out, static_cast<std::size_t>(i.kind));
        out += ' ';
        put_size(out, i.op);
        out += ' ';
        put_size(out, i.comm);
        out += ' ';
        put_string(out, i.label);
        out += ' ';
        out += i.release_gated ? '1' : '0';
        out += ' ';
        put_real(out, i.release);
        out += ' ';
        put_real(out, i.wcet);
        out += " branches ";
        put_size(out, i.branch_wcets.size());
        for (double w : i.branch_wcets) {
          out += ' ';
          put_real(out, w);
        }
        out += '\n';
      }
    }
    out += "communicators ";
    put_size(out, s.communicators.size());
    out += '\n';
    for (const CommunicatorIr& c : s.communicators) {
      out += "communicator ";
      put_size(out, c.medium);
      out += ' ';
      put_string(out, c.resource);
      out += " comms ";
      put_size(out, c.comms.size());
      for (std::size_t x : c.comms) {
        out += ' ';
        put_size(out, x);
      }
      out += '\n';
    }
  }
  return out;
}

Model parse(const std::string& text) {
  Reader r(text);
  Model m;
  r.expect("ecsim-ir");
  const long long version = r.integer();
  if (version != kIrVersion) {
    throw std::runtime_error("ir::parse: unsupported IR version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kIrVersion) + ")");
  }
  m.version = static_cast<int>(version);
  r.expect("name");
  m.name = r.string();
  r.expect("blocks");
  m.blocks.resize(r.size());
  for (std::size_t b = 0; b < m.blocks.size(); ++b) {
    BlockIr& blk = m.blocks[b];
    r.expect("block");
    if (r.size() != b) r.fail("block index out of order");
    r.expect("kind");
    blk.kind = r.string();
    r.expect("name");
    blk.name = r.string();
    blk.in_widths = read_size_list(r, "in");
    r.expect("ft");
    blk.feedthrough.resize(r.size());
    for (std::size_t i = 0; i < blk.feedthrough.size(); ++i) {
      blk.feedthrough[i] = r.flag();
    }
    blk.out_widths = read_size_list(r, "out");
    r.expect("ev");
    blk.n_event_in = r.size();
    blk.n_event_out = r.size();
    r.expect("state");
    blk.state_size = r.size();
    r.expect("timedep");
    blk.time_dependent = r.flag();
    r.expect("opaque");
    blk.opaque = r.flag();
    r.expect("attrs");
    const std::size_t n_attrs = r.size();
    blk.attrs.reserve(n_attrs);
    for (std::size_t i = 0; i < n_attrs; ++i) blk.attrs.push_back(read_attr(r));
  }
  r.expect("data_wires");
  m.data_wires.resize(r.size());
  for (WireIr& w : m.data_wires) {
    r.expect("w");
    w.from.block = r.size();
    w.from.port = r.size();
    w.to.block = r.size();
    w.to.port = r.size();
  }
  r.expect("event_wires");
  m.event_wires.resize(r.size());
  for (WireIr& w : m.event_wires) {
    r.expect("w");
    w.from.block = r.size();
    w.from.port = r.size();
    w.to.block = r.size();
    w.to.port = r.size();
  }
  r.expect("layout");
  r.expect("arena");
  m.layout.arena_size = r.size();
  r.expect("total_state");
  m.layout.total_state = r.size();
  m.layout.out_base = read_size_list(r, "out_base");
  m.layout.out_slices = read_slice_list(r, "out_slices");
  m.layout.in_base = read_size_list(r, "in_base");
  m.layout.in_slices = read_slice_list(r, "in_slices");
  m.layout.state_offset = read_size_list(r, "state_offset");
  m.layout.stateful_blocks = read_size_list(r, "stateful");
  m.layout.eval_order = read_size_list(r, "eval_order");
  m.layout.topo_pos = read_size_list(r, "topo_pos");
  m.layout.cone_base = read_size_list(r, "cone_base");
  m.layout.cone_blocks = read_size_list(r, "cone_blocks");
  m.layout.dynamic_cone = read_size_list(r, "dynamic_cone");
  m.layout.sink_base = read_size_list(r, "sink_base");
  m.layout.sink_ptr = read_size_list(r, "sink_ptr");
  m.layout.event_sinks = read_portref_list(r, "event_sinks");
  r.expect("schedule");
  m.has_schedule = r.flag();
  if (m.has_schedule) {
    ScheduleIr& s = m.schedule;
    r.expect("period");
    s.period = r.real();
    r.expect("makespan");
    s.makespan = r.real();
    r.expect("executives");
    s.executives.resize(r.size());
    for (ExecutiveIr& e : s.executives) {
      r.expect("executive");
      e.proc = r.size();
      e.resource = r.string();
      r.expect("instrs");
      e.instrs.resize(r.size());
      for (InstrIr& i : e.instrs) {
        r.expect("instr");
        const std::size_t kind = r.size();
        if (kind > 2) r.fail("bad instr kind");
        i.kind = static_cast<InstrIr::Kind>(kind);
        i.op = r.size();
        i.comm = r.size();
        i.label = r.string();
        i.release_gated = r.flag();
        i.release = r.real();
        i.wcet = r.real();
        r.expect("branches");
        i.branch_wcets.resize(r.size());
        for (double& w : i.branch_wcets) w = r.real();
      }
    }
    r.expect("communicators");
    s.communicators.resize(r.size());
    for (CommunicatorIr& c : s.communicators) {
      r.expect("communicator");
      c.medium = r.size();
      c.resource = r.string();
      r.expect("comms");
      c.comms.resize(r.size());
      for (std::size_t& x : c.comms) x = r.size();
    }
  }
  if (!r.at_end()) r.fail("trailing content after model");
  return m;
}

std::uint64_t hash(const Model& m) {
  const std::string bytes = serialize(m);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

std::string hash_hex(const Model& m) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, hash(m));
  return buf;
}

}  // namespace ecsim::ir
