#include "svc/warm_cache.hpp"

#include <stdexcept>

#include "ir/ir.hpp"
#include "par/sweep.hpp"
#include "svc/cache_key.hpp"
#include "svc/protocol.hpp"

namespace ecsim::svc {

WarmCache::WarmCache(obs::MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    hit_ctr_ = &metrics->counter("svc.warm.hits");
    miss_ctr_ = &metrics->counter("svc.warm.misses");
  }
}

const WarmLoop& WarmCache::loop(double ts, double t_end, std::uint64_t seed) {
  std::string key = hexfloat(ts);
  key += '|';
  key += hexfloat(t_end);
  key += '|';
  key += std::to_string(seed);
  if (const WarmLoop* hit = loops_.find(key)) {
    ++hits_;
    if (hit_ctr_ != nullptr) hit_ctr_->add();
    return *hit;
  }
  ++misses_;
  if (miss_ctr_ != nullptr) miss_ctr_->add();
  WarmLoop entry;
  entry.loop = sweep::servo_loop(ts, t_end);
  entry.loop.seed = seed;
  entry.ir_hash = ir::hash_hex(translate::loop_ir(entry.loop));
  return loops_.insert(std::move(key), std::move(entry));
}

WarmSpec prepare_spec(const std::string& spec_text,
                      const aaa::AdequationOptions& opts) {
  WarmSpec out;
  out.spec = io::parse_spec(spec_text);
  if (!out.spec.has_algorithm) {
    throw std::runtime_error("spec has no [algorithm] section");
  }
  if (!out.spec.has_architecture) {
    throw std::runtime_error("spec has no [architecture] section");
  }
  out.sched = aaa::adequate(out.spec.algorithm, out.spec.architecture, opts);
  out.sched.validate(out.spec.algorithm, out.spec.architecture);
  out.code = aaa::generate_executives(out.spec.algorithm,
                                      out.spec.architecture, out.sched);
  out.content_hash = spec_content_hash(spec_text);
  return out;
}

const WarmSpec& WarmCache::spec(const std::string& spec_text,
                                const aaa::AdequationOptions& opts) {
  std::string key = spec_content_hash(spec_text);
  if (const WarmSpec* hit = specs_.find(key)) {
    ++hits_;
    if (hit_ctr_ != nullptr) hit_ctr_->add();
    return *hit;
  }
  ++misses_;
  if (miss_ctr_ != nullptr) miss_ctr_->add();
  return specs_.insert(std::move(key), prepare_spec(spec_text, opts));
}

}  // namespace ecsim::svc
