#include "backend/native_codegen.hpp"

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "backend/native_abi.hpp"
#include "blocks/duration_spec.hpp"

namespace ecsim::backend {

namespace {

using ir::Attr;
using ir::BlockIr;
using ir::SliceIr;

// ---- literal emission ------------------------------------------------------

std::string lit(std::size_t v) { return std::to_string(v); }

std::string cstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

std::string hex64(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, h);
  return buf;
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// ---- attribute access (same contract as blocks::to_model) ------------------

[[noreturn]] void bad(const BlockIr& b, const std::string& why) {
  throw std::invalid_argument("native codegen: block '" + b.name + "' (" +
                              (b.kind.empty() ? "?" : b.kind) + "): " + why);
}

const Attr& need(const BlockIr& b, const char* key, Attr::Kind kind) {
  const Attr* a = b.find(key);
  if (a == nullptr) bad(b, "missing attr '" + std::string(key) + "'");
  if (a->kind != kind) bad(b, "attr '" + std::string(key) + "' has wrong type");
  return *a;
}

double real_of(const BlockIr& b, const char* key) {
  return need(b, key, Attr::Kind::kReal).r;
}

long long int_of(const BlockIr& b, const char* key) {
  return need(b, key, Attr::Kind::kInt).i;
}

const std::vector<double>& vec_of(const BlockIr& b, const char* key) {
  return need(b, key, Attr::Kind::kRealVec).vec;
}

/// A non-negative integer attribute that travels through the (double)
/// parameter table exactly.
std::size_t count_of(const BlockIr& b, const char* key) {
  const long long v = int_of(b, key);
  if (v < 0 || v >= (1LL << 53)) bad(b, "attr '" + std::string(key) + "' out of range");
  return static_cast<std::size_t>(v);
}

// ---- emitter ---------------------------------------------------------------

/// Walks the blocks once, emitting shape-only C++ and, in the same walk, the
/// parameter table: every block-private value becomes a Program member that
/// load() reads from the table, and the value is appended to params_ in
/// that same order. Only what fixes the arena/state layout, the event wiring
/// or the emitted control flow stays a literal in the source.
class Emitter {
 public:
  explicit Emitter(const ir::Model& m) : m_(m), lay_(m.layout) {
    if (lay_.eval_order.size() != m.blocks.size() ||
        lay_.out_base.size() != m.blocks.size() + 1) {
      throw std::invalid_argument(
          "native codegen: IR has no finalized layout (run ir::finalize)");
    }
  }

  NativeSource generate();

 private:
  // Arena slices, folded to literals.
  const SliceIr& out_slice(std::size_t b, std::size_t p) const {
    return lay_.out_slices[lay_.out_base[b] + p];
  }
  const SliceIr& in_slice(std::size_t b, std::size_t p) const {
    return lay_.in_slices[lay_.in_base[b] + p];
  }

  void table(const char* name, const std::vector<std::size_t>& v);

  // ---- parameter members (declared, loaded, appended to the table) --------
  /// `double <name>`: one slot.
  std::string real_param(const std::string& name, double v);
  /// `std::size_t <name>`: one integral slot.
  std::string index_param(const std::string& name, std::size_t v);
  /// `std::array<double, N> <name>`: N slots, N being part of the shape.
  void fixed_param(const std::string& name, const BlockIr& b,
                   const std::vector<double>& v, std::size_t n);
  /// `std::vector<double> <name>`: length-prefixed (length is private).
  void vec_param(const std::string& name, const std::vector<double>& v,
                 std::size_t min_size = 0);
  /// `ma::Matrix <name>`: rows, cols, then the row-major values.
  void matrix_param(const std::string& name, const BlockIr& b,
                    const char* key);
  void push_vec(const std::vector<double>& v);

  void emit_block(std::size_t i);

  // Per-kind emission appends into the bodies (+ members and loads).
  std::string members_;
  std::string load_;
  std::string init_;
  std::string compute_;
  std::string event_;
  std::string deriv_;
  std::string out_;
  std::vector<double> params_;

  const ir::Model& m_;
  const ir::LayoutIr& lay_;
};

void Emitter::table(const char* name, const std::vector<std::size_t>& v) {
  out_ += "  static constexpr std::array<std::size_t, " + lit(v.size()) +
          "> " + name + "{";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out_ += ", ";
    out_ += lit(v[i]);
  }
  out_ += "};\n";
}

std::string Emitter::real_param(const std::string& name, double v) {
  members_ += "  double " + name + " = 0.0;\n";
  load_ += "    " + name + " = rd.real();\n";
  params_.push_back(v);
  return name;
}

std::string Emitter::index_param(const std::string& name, std::size_t v) {
  members_ += "  std::size_t " + name + " = 0;\n";
  load_ += "    " + name + " = rd.index();\n";
  params_.push_back(static_cast<double>(v));
  return name;
}

void Emitter::fixed_param(const std::string& name, const BlockIr& b,
                          const std::vector<double>& v, std::size_t n) {
  if (v.size() != n) bad(b, "'" + name + "' size mismatch");
  members_ += "  std::array<double, " + lit(n) + "> " + name + "{};\n";
  load_ += "    rd.fill(" + name + ");\n";
  params_.insert(params_.end(), v.begin(), v.end());
}

void Emitter::push_vec(const std::vector<double>& v) {
  params_.push_back(static_cast<double>(v.size()));
  params_.insert(params_.end(), v.begin(), v.end());
}

void Emitter::vec_param(const std::string& name, const std::vector<double>& v,
                        std::size_t min_size) {
  members_ += "  std::vector<double> " + name + ";\n";
  load_ += "    rd.vec(" + name +
           (min_size > 0 ? ", " + lit(min_size) : std::string()) + ");\n";
  push_vec(v);
}

void Emitter::matrix_param(const std::string& name, const BlockIr& b,
                           const char* key) {
  const Attr& a = need(b, key, Attr::Kind::kMatrix);
  if (a.vec.size() != a.rows * a.cols) bad(b, "matrix attr size mismatch");
  members_ += "  ma::Matrix " + name + ";\n";
  load_ += "    rd.matrix(" + name + ");\n";
  params_.push_back(static_cast<double>(a.rows));
  params_.push_back(static_cast<double>(a.cols));
  params_.insert(params_.end(), a.vec.begin(), a.vec.end());
}

void Emitter::emit_block(std::size_t i) {
  const BlockIr& b = m_.blocks[i];
  if (b.opaque) {
    bad(b, "opaque (behaviour lives in a user closure); interpreter only");
  }
  const std::string B = lit(i);
  const std::string id = "b" + B + "_";
  const std::string& k = b.kind;

  auto out_off = [&](std::size_t p) { return lit(out_slice(i, p).offset); };
  auto in_off = [&](std::size_t p) { return lit(in_slice(i, p).offset); };
  auto case_open = [&](std::string& body) { body += "      case " + B + ": {\n"; };
  auto case_close = [&](std::string& body) { body += "      } break;\n"; };

  if (k == "Clock") {
    const std::string offset = real_param(id + "offset", real_of(b, "offset"));
    const std::string period = real_param(id + "period", real_of(b, "period"));
    init_ += "    e.schedule_self(" + B + ", 0, " + offset + ");\n";
    case_open(event_);
    event_ += "        e.emit(" + B + ", 0, 0.0);\n";
    event_ += "        e.schedule_self(" + B + ", 0, " + period + ");\n";
    case_close(event_);
    return;
  }
  if (k == "TimetableClock") {
    const std::string period = real_param(id + "period", real_of(b, "period"));
    const std::vector<double>& offs = vec_of(b, "offsets");
    if (offs.empty()) bad(b, "empty timetable");
    vec_param(id + "offsets", offs, 1);
    members_ += "  std::size_t " + id + "next = 0;\n";
    members_ += "  std::size_t " + id + "cycle = 0;\n";
    init_ += "    " + id + "next = 0; " + id + "cycle = 0;\n";
    init_ += "    e.schedule_self(" + B + ", 0, " + id + "offsets.front());\n";
    case_open(event_);
    event_ += "        e.emit(" + B + ", 0, 0.0);\n";
    event_ += "        const double now = static_cast<double>(" + id +
              "cycle) * " + period + " + " + id + "offsets[" + id + "next];\n";
    event_ += "        ++" + id + "next;\n";
    event_ += "        if (" + id + "next == " + id + "offsets.size()) { " +
              id + "next = 0; ++" + id + "cycle; }\n";
    event_ += "        const double target = static_cast<double>(" + id +
              "cycle) * " + period + " + " + id + "offsets[" + id + "next];\n";
    event_ += "        e.schedule_self(" + B + ", 0, target - now);\n";
    case_close(event_);
    return;
  }
  if (k == "Constant") {
    const std::vector<double>& v = vec_of(b, "value");
    fixed_param(id + "value", b, v, v.size());
    case_open(compute_);
    compute_ += "        for (std::size_t j = 0; j < " + lit(v.size()) +
                "; ++j) a[" + out_off(0) + " + j] = " + id + "value[j];\n";
    case_close(compute_);
    return;
  }
  if (k == "Step") {
    const std::string t = real_param(id + "step_time", real_of(b, "step_time"));
    const std::string y0 = real_param(id + "initial", real_of(b, "initial"));
    const std::string y1 = real_param(id + "final", real_of(b, "final"));
    case_open(compute_);
    compute_ += "        a[" + out_off(0) + "] = e.time() < " + t + " ? " + y0 +
                " : " + y1 + ";\n";
    case_close(compute_);
    return;
  }
  if (k == "Sine") {
    const std::string f = real_param(id + "frequency", real_of(b, "frequency"));
    const std::string amp = real_param(id + "amplitude", real_of(b, "amplitude"));
    const std::string ph = real_param(id + "phase", real_of(b, "phase"));
    const std::string bias = real_param(id + "bias", real_of(b, "bias"));
    case_open(compute_);
    compute_ += "        const double w = 2.0 * std::numbers::pi * " + f + ";\n";
    compute_ += "        a[" + out_off(0) + "] = " + amp +
                " * std::sin(w * e.time() + " + ph + ") + " + bias + ";\n";
    case_close(compute_);
    return;
  }
  if (k == "Pulse") {
    const std::string period = real_param(id + "period", real_of(b, "period"));
    const std::string duty = real_param(id + "duty", real_of(b, "duty"));
    const std::string high = real_param(id + "high", real_of(b, "high"));
    const std::string low = real_param(id + "low", real_of(b, "low"));
    case_open(compute_);
    compute_ += "        const double ph = std::fmod(e.time(), " + period + ");\n";
    compute_ += "        a[" + out_off(0) + "] = ph < " + duty + " * " + period +
                " ? " + high + " : " + low + ";\n";
    case_close(compute_);
    return;
  }
  if (k == "NoiseHold") {
    const std::string mean = real_param(id + "mean", real_of(b, "mean"));
    const std::string sd = real_param(id + "stddev", real_of(b, "stddev"));
    init_ += "    a[" + out_off(0) + "] = " + mean + ";\n";
    case_open(event_);
    event_ += "        a[" + out_off(0) + "] = e.rng().normal(" + mean + ", " +
              sd + ");\n";
    event_ += "        e.emit(" + B + ", 0, 0.0);\n";
    case_close(event_);
    return;
  }
  if (k == "Gain") {
    matrix_param(id + "k", b, "k");
    case_open(compute_);
    compute_ += "        ma::multiply_into(std::span<double>(a + " +
                out_off(0) + ", " + lit(out_slice(i, 0).width) + "), " + id +
                "k, std::span<const double>(a + " + in_off(0) + ", " +
                lit(in_slice(i, 0).width) + "));\n";
    case_close(compute_);
    return;
  }
  if (k == "Sum") {
    const std::vector<double>& signs = vec_of(b, "signs");
    fixed_param(id + "signs", b, signs, b.in_widths.size());
    const std::size_t w = out_slice(i, 0).width;
    case_open(compute_);
    compute_ += "        double* y = a + " + out_off(0) + ";\n";
    compute_ += "        for (std::size_t k = 0; k < " + lit(w) +
                "; ++k) y[k] = 0.0;\n";
    for (std::size_t p = 0; p < signs.size(); ++p) {
      compute_ += "        { const double* u = a + " + in_off(p) +
                  "; for (std::size_t k = 0; k < " + lit(w) +
                  "; ++k) y[k] += " + id + "signs[" + lit(p) + "] * u[k]; }\n";
    }
    case_close(compute_);
    return;
  }
  if (k == "Saturation") {
    const std::size_t w = in_slice(i, 0).width;
    const std::string lo = real_param(id + "lo", real_of(b, "lo"));
    const std::string hi = real_param(id + "hi", real_of(b, "hi"));
    case_open(compute_);
    compute_ += "        const double* u = a + " + in_off(0) +
                "; double* y = a + " + out_off(0) + ";\n";
    compute_ += "        for (std::size_t k = 0; k < " + lit(w) +
                "; ++k) y[k] = std::clamp(u[k], " + lo + ", " + hi + ");\n";
    case_close(compute_);
    return;
  }
  if (k == "Quantizer") {
    const std::size_t w = in_slice(i, 0).width;
    const std::string step = real_param(id + "step", real_of(b, "step"));
    case_open(compute_);
    compute_ += "        const double* u = a + " + in_off(0) +
                "; double* y = a + " + out_off(0) + ";\n";
    compute_ += "        for (std::size_t k = 0; k < " + lit(w) +
                "; ++k) y[k] = std::round(u[k] / " + step + ") * " + step +
                ";\n";
    case_close(compute_);
    return;
  }
  if (k == "Mux") {
    case_open(compute_);
    std::size_t off = 0;
    for (std::size_t p = 0; p < b.in_widths.size(); ++p) {
      const std::size_t w = in_slice(i, p).width;
      compute_ += "        { const double* u = a + " + in_off(p) +
                  "; for (std::size_t k = 0; k < " + lit(w) + "; ++k) a[" +
                  lit(out_slice(i, 0).offset + off) + " + k] = u[k]; }\n";
      off += w;
    }
    case_close(compute_);
    return;
  }
  if (k == "Demux") {
    case_open(compute_);
    std::size_t off = 0;
    for (std::size_t p = 0; p < b.out_widths.size(); ++p) {
      const std::size_t w = out_slice(i, p).width;
      compute_ += "        { double* y = a + " + out_off(p) +
                  "; for (std::size_t k = 0; k < " + lit(w) + "; ++k) y[k] = a[" +
                  lit(in_slice(i, 0).offset + off) + " + k]; }\n";
      off += w;
    }
    case_close(compute_);
    return;
  }
  if (k == "Integrator") {
    const std::size_t n = b.state_size;
    const std::string S = lit(lay_.state_offset[i]);
    fixed_param(id + "x0", b, vec_of(b, "x0"), n);
    init_ += "    { double* x = e.state_mut(" + S + ");\n";
    init_ += "      for (std::size_t k = 0; k < " + lit(n) + "; ++k) x[k] = " +
             id + "x0[k];\n";
    init_ += "    }\n    compute(e, " + B + ");\n";
    case_open(compute_);
    compute_ += "        const double* x = e.state(" + S +
                "); double* y = a + " + out_off(0) + ";\n";
    compute_ += "        for (std::size_t k = 0; k < " + lit(n) +
                "; ++k) y[k] = x[k];\n";
    case_close(compute_);
    deriv_ += "      case " + B + ": {\n";
    deriv_ += "        const double* u = a + " + in_off(0) + ";\n";
    deriv_ += "        for (std::size_t k = 0; k < " + lit(n) +
              "; ++k) dx[k] = u[k];\n";
    deriv_ += "      } break;\n";
    return;
  }
  if (k == "StateSpaceCont") {
    matrix_param(id + "a", b, "a");
    matrix_param(id + "b", b, "b");
    matrix_param(id + "c", b, "c");
    matrix_param(id + "d", b, "d");
    const std::size_t n = b.state_size;
    const std::string S = lit(lay_.state_offset[i]);
    fixed_param(id + "x0", b, vec_of(b, "x0"), n);
    init_ += "    { double* x = e.state_mut(" + S + ");\n";
    init_ += "      for (std::size_t k = 0; k < " + lit(n) + "; ++k) x[k] = " +
             id + "x0[k];\n";
    init_ += "    }\n    compute(e, " + B + ");\n";
    case_open(compute_);
    compute_ += "        std::span<double> y(a + " + out_off(0) + ", " +
                lit(out_slice(i, 0).width) + ");\n";
    compute_ += "        ma::multiply_into(y, " + id +
                "c, std::span<const double>(e.state(" + S + "), " + lit(n) +
                "));\n";
    compute_ += "        ma::multiply_add_into(y, " + id +
                "d, std::span<const double>(a + " + in_off(0) + ", " +
                lit(in_slice(i, 0).width) + "));\n";
    case_close(compute_);
    deriv_ += "      case " + B + ": {\n";
    deriv_ += "        std::span<double> d(dx, " + lit(n) + ");\n";
    deriv_ += "        ma::multiply_into(d, " + id +
              "a, std::span<const double>(e.state(" + S + "), " + lit(n) +
              "));\n";
    deriv_ += "        ma::multiply_add_into(d, " + id +
              "b, std::span<const double>(a + " + in_off(0) + ", " +
              lit(in_slice(i, 0).width) + "));\n";
    deriv_ += "      } break;\n";
    return;
  }
  if (k == "StateSpaceDisc") {
    // The discrete state lives outside the arena, so its size is private:
    // matrices and x0 carry their dimensions in the parameter table.
    matrix_param(id + "a", b, "a");
    matrix_param(id + "b", b, "b");
    matrix_param(id + "c", b, "c");
    matrix_param(id + "d", b, "d");
    vec_param(id + "x0", vec_of(b, "x0"));
    members_ += "  std::vector<double> " + id + "x;\n";
    members_ += "  std::vector<double> " + id + "next;\n";
    init_ += "    " + id + "x = " + id + "x0;\n";
    init_ += "    " + id + "next.assign(" + id + "x0.size(), 0.0);\n";
    init_ += "    { double* y = a + " + out_off(0) +
             "; for (std::size_t k = 0; k < " + lit(out_slice(i, 0).width) +
             "; ++k) y[k] = 0.0; }\n";
    case_open(event_);
    event_ += "        std::span<const double> u(a + " + in_off(0) + ", " +
              lit(in_slice(i, 0).width) + ");\n";
    event_ += "        std::span<double> y(a + " + out_off(0) + ", " +
              lit(out_slice(i, 0).width) + ");\n";
    event_ += "        ma::multiply_into(y, " + id + "c, " + id + "x);\n";
    event_ += "        ma::multiply_add_into(y, " + id + "d, u);\n";
    event_ += "        ma::multiply_into(std::span<double>(" + id + "next), " +
              id + "a, " + id + "x);\n";
    event_ += "        ma::multiply_add_into(std::span<double>(" + id +
              "next), " + id + "b, u);\n";
    event_ += "        std::swap(" + id + "x, " + id + "next);\n";
    event_ += "        e.emit(" + B + ", 0, 0.0);\n";
    case_close(event_);
    return;
  }
  if (k == "PidDiscrete") {
    members_ += "  double " + id + "integral = 0.0;\n";
    members_ += "  double " + id + "deriv = 0.0;\n";
    members_ += "  double " + id + "prev = 0.0;\n";
    init_ += "    " + id + "integral = 0.0; " + id + "deriv = 0.0; " + id +
             "prev = 0.0;\n";
    init_ += "    a[" + out_off(0) + "] = 0.0;\n";
    const std::string kp = real_param(id + "kp", real_of(b, "kp")),
                      ki = real_param(id + "ki", real_of(b, "ki")),
                      kd = real_param(id + "kd", real_of(b, "kd")),
                      ts = real_param(id + "ts", real_of(b, "ts")),
                      nn = real_param(id + "n", real_of(b, "n")),
                      umin = real_param(id + "u_min", real_of(b, "u_min")),
                      umax = real_param(id + "u_max", real_of(b, "u_max"));
    case_open(event_);
    event_ += "        const double err = a[" + in_off(0) + "];\n";
    event_ += "        " + id + "deriv = (" + kd + " * " + nn + " * (err - " +
              id + "prev) + " + id + "deriv) / (1.0 + " + nn + " * " + ts +
              ");\n";
    event_ += "        double u = " + kp + " * err + " + id + "integral + " +
              id + "deriv;\n";
    event_ += "        const double uc = std::clamp(u, " + umin + ", " + umax +
              ");\n";
    event_ +=
        "        const bool saturating = (u > uc && err > 0.0) || (u < uc && "
        "err < 0.0);\n";
    event_ += "        if (!saturating) " + id + "integral += " + ki + " * " +
              ts + " * err;\n";
    event_ += "        " + id + "prev = err;\n";
    event_ += "        a[" + out_off(0) + "] = uc;\n";
    event_ += "        e.emit(" + B + ", 0, 0.0);\n";
    case_close(event_);
    return;
  }
  if (k == "UnitDelay") {
    const std::vector<double>& init = vec_of(b, "init");
    const std::size_t w = init.size();
    fixed_param(id + "init", b, init, w);
    members_ += "  std::vector<double> " + id + "stored;\n";
    init_ += "    " + id + "stored.assign(" + id + "init.begin(), " + id +
             "init.end());\n";
    init_ += "    { double* y = a + " + out_off(0) +
             "; for (std::size_t k = 0; k < " + lit(w) + "; ++k) y[k] = " + id +
             "stored[k]; }\n";
    case_open(event_);
    event_ += "        const double* u = a + " + in_off(0) +
              "; double* y = a + " + out_off(0) + ";\n";
    event_ += "        for (std::size_t k = 0; k < " + lit(w) +
              "; ++k) y[k] = " + id + "stored[k];\n";
    event_ += "        " + id + "stored.assign(u, u + " + lit(w) + ");\n";
    event_ += "        e.emit(" + B + ", 0, 0.0);\n";
    case_close(event_);
    return;
  }
  if (k == "EventCounter") {
    members_ += "  std::size_t " + id + "count = 0;\n";
    init_ += "    " + id + "count = 0;\n";
    init_ += "    a[" + out_off(0) + "] = 0.0;\n";
    case_open(event_);
    event_ += "        ++" + id + "count;\n";
    event_ += "        a[" + out_off(0) + "] = static_cast<double>(" + id +
              "count);\n";
    case_close(event_);
    return;
  }
  if (k == "SampleHold") {
    const std::size_t w = in_slice(i, 0).width;
    fixed_param(id + "initial", b, vec_of(b, "initial"), w);
    init_ += "    for (std::size_t k = 0; k < " + lit(w) + "; ++k) a[" +
             out_off(0) + " + k] = " + id + "initial[k];\n";
    case_open(event_);
    event_ += "        const double* u = a + " + in_off(0) +
              "; double* y = a + " + out_off(0) + ";\n";
    event_ += "        for (std::size_t k = 0; k < " + lit(w) +
              "; ++k) y[k] = u[k];\n";
    event_ += "        e.emit(" + B + ", 0, 0.0);\n";
    case_close(event_);
    return;
  }
  if (k == "Probe") {
    // Periodic vs triggered recording is control flow (shape); the period
    // itself is a parameter.
    const double period = real_of(b, "record_period");
    members_ += "  std::size_t " + id + "samples = 0;\n";
    init_ += "    " + id + "samples = 0;\n";
    if (period > 0.0) {
      real_param(id + "period", period);
      init_ += "    e.schedule_self(" + B + ", 0, 0.0);\n";
    }
    case_open(event_);
    event_ += "        e.trace().record_signal(e.time(), " + B +
              ", std::span<const double>(a + " + in_off(0) + ", " +
              lit(in_slice(i, 0).width) + "));\n";
    event_ += "        ++" + id + "samples;\n";
    if (period > 0.0) {
      event_ += "        e.schedule_self(" + B + ", 0, " + id + "period);\n";
    }
    case_close(event_);
    return;
  }
  if (k == "Synchronization") {
    const std::size_t n = b.n_event_in;
    members_ += "  std::array<bool, " + lit(n) + "> " + id + "received{};\n";
    init_ += "    " + id + "received.fill(false);\n";
    case_open(event_);
    event_ += "        " + id + "received[port] = true;\n";
    event_ += "        bool all = true;\n";
    event_ += "        for (bool v : " + id + "received) all = all && v;\n";
    event_ += "        if (all) { e.emit(" + B + ", 0, 0.0); " + id +
              "received.fill(false); }\n";
    case_close(event_);
    return;
  }
  if (k == "EventDelay") {
    members_ += "  double " + id + "busy = 0.0;\n";
    init_ += "    " + id + "busy = 0.0;\n";
    const long long tag = int_of(b, "dist");
    using DK = blocks::DurationSpec::Kind;
    case_open(event_);
    event_ += "        const double now = e.time();\n";
    event_ += "        double start = now;\n";
    event_ += "        if (" + id + "busy > now) start = " + id + "busy;\n";
    if (static_cast<DK>(tag) == DK::kConstant) {
      // Constant samplers consume no RNG and were validated >= 0 at
      // construction: a plain member, no sampler call.
      real_param(id + "d", real_of(b, "value"));
      event_ += "        const double d = " + id + "d;\n";
    } else {
      // Which distribution, and its values, are parameters: the sampler is
      // rebuilt at load through the same validated factories
      // blocks::duration_from_attrs uses (rt::ParamReader::duration).
      members_ += "  bl::DurationSpec " + id + "spec;\n";
      load_ += "    " + id + "spec = rd.duration();\n";
      params_.push_back(static_cast<double>(tag));
      switch (static_cast<DK>(tag)) {
        case DK::kUniform:
          params_.push_back(real_of(b, "bcet"));
          params_.push_back(real_of(b, "wcet"));
          break;
        case DK::kTruncatedNormal:
          params_.push_back(real_of(b, "mean"));
          params_.push_back(real_of(b, "stddev"));
          params_.push_back(real_of(b, "bcet"));
          params_.push_back(real_of(b, "wcet"));
          break;
        case DK::kShiftedUniform:
          params_.push_back(real_of(b, "base"));
          params_.push_back(real_of(b, "jitter"));
          break;
        case DK::kBranches:
          push_vec(vec_of(b, "branch_wcets"));
          params_.push_back(real_of(b, "bcet_fraction"));
          params_.push_back(int_of(b, "random_branch") != 0 ? 1.0 : 0.0);
          break;
        default:
          bad(b, "unregenerable duration distribution (tag " +
                     std::to_string(tag) + ")");
      }
      event_ += "        const double d = bl::sample_duration(" + id +
                "spec, e.rng());\n";
      event_ +=
          "        if (d < 0.0) throw std::runtime_error(\"EventDelay: "
          "sampler returned < 0\");\n";
    }
    event_ += "        " + id + "busy = start + d;\n";
    event_ += "        e.emit(" + B + ", 0, " + id + "busy - now);\n";
    case_close(event_);
    return;
  }
  if (k == "TdmaGate") {
    // Owner slots (slots/owner attrs, omitted at the single-slot default):
    // the grid becomes round = slots*slot offset by owner*slot. Whether an
    // owner offset exists is control flow (shape); round and offset are
    // parameters, folded here to the same doubles the interpreter computes.
    const double slot_v = real_of(b, "slot");
    const long long slots =
        b.find("slots") != nullptr ? int_of(b, "slots") : 1;
    const long long owner =
        b.find("owner") != nullptr ? int_of(b, "owner") : 0;
    const std::string round = real_param(
        id + "round", slots > 1 ? static_cast<double>(slots) * slot_v : slot_v);
    case_open(event_);
    event_ += "        const double now = e.time();\n";
    if (slots > 1) {
      const std::string offset = real_param(
          id + "offset", static_cast<double>(owner) * slot_v);
      event_ += "        const double kq = std::ceil((now - " + offset +
                ") / " + round + " - 1e-9);\n";
      event_ += "        const double boundary = std::max(0.0, kq) * " +
                round + " + " + offset + ";\n";
    } else {
      event_ += "        const double kq = std::ceil(now / " + round +
                " - 1e-9);\n";
      event_ += "        const double boundary = std::max(0.0, kq) * " +
                round + ";\n";
    }
    event_ += "        e.emit(" + B + ", 0, std::max(0.0, boundary - now));\n";
    case_close(event_);
    return;
  }
  if (k == "EventMerge") {
    case_open(event_);
    event_ += "        e.emit(" + B + ", 0, 0.0);\n";
    case_close(event_);
    return;
  }
  if (k == "EventFault") {
    const Attr& e = need(b, "entries", Attr::Kind::kMatrix);
    if (e.cols != 7 || e.vec.size() != e.rows * 7) {
      bad(b, "gate entries must be an n x 7 matrix");
    }
    const auto seed = static_cast<std::uint64_t>(int_of(b, "seed"));
    members_ += "  fa::CommGate " + id + "gate;\n";
    load_ += "    " + id + "gate.seed = rd.u64();\n";
    load_ += "    " + id + "gate.period = rd.real();\n";
    load_ += "    " + id + "gate.comm_index = rd.index();\n";
    load_ += "    " + id + "gate.transfer_duration = rd.real();\n";
    load_ += "    " + id + "gate.entries.resize(rd.index());\n";
    load_ += "    for (fa::CommGateEntry& g : " + id + "gate.entries) {\n";
    load_ += "      g.fault = rd.index();\n";
    load_ += "      g.kind = static_cast<fa::CommGateEntry::Kind>(rd.index(3));\n";
    load_ += "      g.probability = rd.real();\n";
    load_ += "      g.delay = rd.real();\n";
    load_ += "      g.extra_copies = rd.index();\n";
    load_ += "      g.t_start = rd.real();\n";
    load_ += "      g.t_stop = rd.real();\n";
    load_ += "    }\n";
    params_.push_back(static_cast<double>(seed >> 32));
    params_.push_back(static_cast<double>(seed & 0xffffffffULL));
    params_.push_back(real_of(b, "period"));
    params_.push_back(static_cast<double>(count_of(b, "comm_index")));
    params_.push_back(real_of(b, "transfer_duration"));
    params_.push_back(static_cast<double>(e.rows));
    for (std::size_t r = 0; r < e.rows; ++r) {
      const double* row = e.vec.data() + r * 7;
      const int kind_tag = static_cast<int>(row[1]);
      if (kind_tag < 0 || kind_tag > 2) bad(b, "gate entry has unknown kind");
      // Same conversions as blocks::comm_gate_from_attrs.
      params_.push_back(static_cast<double>(static_cast<std::size_t>(row[0])));
      params_.push_back(static_cast<double>(kind_tag));
      params_.push_back(row[2]);
      params_.push_back(row[3]);
      params_.push_back(static_cast<double>(static_cast<std::size_t>(row[4])));
      params_.push_back(row[5]);
      params_.push_back(row[6]);
    }
    members_ += "  std::size_t " + id + "count = 0;\n";
    init_ += "    " + id + "count = 0;\n";
    case_open(event_);
    event_ += "        const fa::CommGateAction act = fa::comm_gate_decide(" +
              id + "gate, " + id + "count++);\n";
    event_ += "        if (!act.drop) e.emit(" + B + ", 0, act.defer);\n";
    case_close(event_);
    return;
  }
  if (k == "EventDivider") {
    const std::size_t divisor = count_of(b, "divisor");
    if (divisor == 0) bad(b, "divisor must be >= 1");
    const std::string div = index_param(id + "divisor", divisor);
    const std::string phase = index_param(id + "phase", count_of(b, "phase"));
    members_ += "  std::size_t " + id + "count = 0;\n";
    init_ += "    " + id + "count = 0;\n";
    case_open(event_);
    event_ += "        if (" + id + "count % " + div + " == " + phase +
              ") e.emit(" + B + ", 0, 0.0);\n";
    event_ += "        ++" + id + "count;\n";
    case_close(event_);
    return;
  }
  bad(b, "unknown kind");
}

NativeSource Emitter::generate() {
  out_.clear();
  out_ +=
      "// Generated by the ecsim native backend (DESIGN.md §3.6). DO NOT "
      "EDIT.\n";
  out_ += "// model: " + cstr(m_.name) + "\n";
  out_ += R"(#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <span>
#include <stdexcept>
#include <vector>

#include "backend/native_abi.hpp"
#include "backend/native_runtime.hpp"
#include "blocks/duration_spec.hpp"
#include "fault/comm_gate.hpp"
#include "mathlib/matrix.hpp"

// Unity-include the order-sensitive runtime kernels so -O3 inlines the event
// queue, trace recording, RNG and integrator straight into the generated
// engine loop — the main throughput win over the interpreter, whose calls to
// the same kernels stay behind a TU boundary. The kernels are compiled from
// the same sources with the same flags, and no FMA contraction is enabled,
// so the arithmetic stays bit-identical to the interpreter's. The runtime
// archive remains on the link line purely as a lazy fallback: every symbol
// defined here shadows its archive member, which is then never pulled in.
#include "blocks/duration_spec.cpp"
#include "fault/comm_gate.cpp"
#include "mathlib/matrix.cpp"
#include "mathlib/rng.cpp"
#include "sim/event_queue.cpp"
#include "sim/integrator.cpp"
#include "sim/trace.cpp"

namespace {

namespace bl = ecsim::blocks;
namespace fa = ecsim::fault;
namespace ma = ecsim::math;
using ecsim::backend::rt::Engine;
using ecsim::backend::rt::ParamReader;

struct Program {
)";
  out_ += "  static constexpr std::size_t kArenaSize = " +
          lit(lay_.arena_size) + ";\n";
  out_ += "  static constexpr std::size_t kTotalState = " +
          lit(lay_.total_state) + ";\n";
  table("kEvalOrder", lay_.eval_order);
  table("kDynamicCone", lay_.dynamic_cone);
  table("kConeBase", lay_.cone_base);
  table("kConeBlocks", lay_.cone_blocks);
  table("kStatefulBlocks", lay_.stateful_blocks);
  table("kStateOffset", lay_.state_offset);
  table("kSinkBase", lay_.sink_base);
  table("kSinkPtr", lay_.sink_ptr);
  {
    std::vector<std::size_t> blocks, ports;
    blocks.reserve(lay_.event_sinks.size());
    ports.reserve(lay_.event_sinks.size());
    for (const ir::PortRefIr& s : lay_.event_sinks) {
      blocks.push_back(s.block);
      ports.push_back(s.port);
    }
    table("kSinkBlock", blocks);
    table("kSinkPort", ports);
  }
  // Block names in block order, for the engine's obs interning (ABI v2):
  // the generated module interns the same strings in the same order the
  // interpreter's init_obs does.
  out_ += "  static constexpr std::array<const char*, " +
          lit(m_.blocks.size()) + "> kBlockNames{";
  for (std::size_t i = 0; i < m_.blocks.size(); ++i) {
    if (i) out_ += ", ";
    out_ += cstr(m_.blocks[i].name);
  }
  out_ += "};\n";
  out_ += "\n";

  for (std::size_t i = 0; i < m_.blocks.size(); ++i) emit_block(i);

  out_ += members_;
  out_ += "\n  void load(ParamReader& rd) {\n";
  out_ += "    (void)rd;\n";
  out_ += load_;
  out_ += "  }\n\n";
  out_ += "  void init(Engine<Program>& e) {\n";
  out_ += "    double* const a = e.arena();\n    (void)a;\n";
  out_ += init_;
  out_ += "  }\n\n";
  out_ += "  void compute(Engine<Program>& e, std::size_t b) {\n";
  out_ += "    double* const a = e.arena();\n    (void)a;\n";
  out_ += "    switch (b) {\n";
  out_ += compute_;
  out_ += "      default: break;\n    }\n  }\n\n";
  out_ += "  void on_event(Engine<Program>& e, std::size_t b, std::size_t "
          "port) {\n";
  out_ += "    double* const a = e.arena();\n    (void)a; (void)port;\n";
  out_ += "    switch (b) {\n";
  out_ += event_;
  out_ += "      default: break;\n    }\n  }\n\n";
  out_ += "  void derivatives(Engine<Program>& e, std::size_t b, double* dx) "
          "{\n";
  out_ += "    double* const a = e.arena();\n    (void)a; (void)dx;\n";
  out_ += "    switch (b) {\n";
  out_ += deriv_;
  out_ += "      default: break;\n    }\n  }\n";
  out_ += "};\n\n}  // namespace\n\n";

  // ---- C ABI ---------------------------------------------------------------
  out_ += "extern \"C\" int ecsim_native_abi() { return " +
          std::to_string(kNativeAbiVersion) + "; }\n\n";
  out_ += R"(extern "C" int ecsim_native_run(
    const ecsim::backend::NativeRunOptions* o, void* trace,
    std::size_t* events_out, char* err, std::size_t errcap) {
  const auto fail = [&](const char* what) {
    if (err != nullptr && errcap > 0) {
      std::strncpy(err, what, errcap - 1);
      err[errcap - 1] = '\0';
    }
    return 1;
  };
  try {
    auto* tr = static_cast<ecsim::sim::Trace*>(trace);
    tr->register_block_names({
)";
  for (const BlockIr& b : m_.blocks) {
    out_ += "        std::string(" + cstr(b.name) + "),\n";
  }
  out_ += R"(    });
    Engine<Program> engine;
    engine.bind_trace(tr);
    engine.run(*o);
    *events_out = engine.events_dispatched();
    return 0;
  } catch (const std::exception& ex) {
    return fail(ex.what());
  } catch (...) {
    return fail("native model: unknown exception");
  }
}
)";
  // The shape hash covers everything above — the whole module but its own
  // hash symbol — so equal hashes mean byte-identical code.
  NativeSource src;
  src.shape_hash = hex64(fnv1a(out_));
  out_ += "\nextern \"C\" const char* ecsim_native_hash() { return " +
          cstr(src.shape_hash) + "; }\n";
  src.text = std::move(out_);
  src.params = std::move(params_);
  return src;
}

}  // namespace

NativeSource generate_native_source(const ir::Model& m) {
  return Emitter(m).generate();
}

}  // namespace ecsim::backend
