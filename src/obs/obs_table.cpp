#include "obs/obs_table.hpp"

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace ecsim::obs {

#ifdef ECSIM_OBS_DISABLED

// The compile-time kill switch turns off both the tracer and the metrics
// side for every engine.
NativeObsTable make_obs_table(Tracer*, MetricsRegistry*) {
  return NativeObsTable{};
}

#else

namespace {

Tracer* as_tracer(void* p) { return static_cast<Tracer*>(p); }

int cb_tracer_enabled(void* t) { return active(as_tracer(t)) ? 1 : 0; }

std::uint32_t cb_intern(void* t, const char* name) {
  return as_tracer(t)->intern(name);
}

std::uint32_t cb_track(void* t, const char* name, int domain) {
  return as_tracer(t)->track(name, static_cast<Domain>(domain));
}

double cb_now_us(void* t) { return as_tracer(t)->now_us(); }

void cb_span(void* t, std::uint32_t name, std::uint32_t track, double t0,
             double t1, std::uint32_t arg_name, double arg) {
  as_tracer(t)->span(name, track, t0, t1, arg_name, arg);
}

void cb_instant(void* t, std::uint32_t name, std::uint32_t track, double ts,
                std::uint32_t arg_name, double arg) {
  as_tracer(t)->instant(name, track, ts, arg_name, arg);
}

MetricsRegistry* as_registry(void* p) {
  return static_cast<MetricsRegistry*>(p);
}

void* cb_counter(void* m, const char* name) {
  return &as_registry(m)->counter(name);
}

void* cb_gauge(void* m, const char* name) {
  return &as_registry(m)->gauge(name);
}

void* cb_histogram(void* m, const char* name) {
  return &as_registry(m)->histogram(name);
}

void cb_counter_add(void* c, std::uint64_t n) {
  static_cast<Counter*>(c)->add(n);
}

void cb_gauge_max(void* g, std::uint64_t v) {
  static_cast<Gauge*>(g)->max_of(static_cast<double>(v));
}

void cb_histogram_observe(void* h, double v) {
  static_cast<Histogram*>(h)->observe(v);
}

}  // namespace

NativeObsTable make_obs_table(Tracer* tracer, MetricsRegistry* metrics) {
  NativeObsTable t;
  if (tracer != nullptr) {
    t.tracer = tracer;
    t.tracer_enabled = &cb_tracer_enabled;
    t.intern = &cb_intern;
    t.track = &cb_track;
    t.now_us = &cb_now_us;
    t.span = &cb_span;
    t.instant = &cb_instant;
  }
  if (metrics != nullptr) {
    t.metrics = metrics;
    t.counter = &cb_counter;
    t.gauge = &cb_gauge;
    t.histogram = &cb_histogram;
    t.counter_add = &cb_counter_add;
    t.gauge_max = &cb_gauge_max;
    t.histogram_observe = &cb_histogram_observe;
  }
  return t;
}

#endif  // ECSIM_OBS_DISABLED

}  // namespace ecsim::obs
