// Warm model registry of the sweep service (DESIGN.md §3.9): the expensive
// per-request setup — building the servo LoopSpec and hashing its Model IR,
// or parsing an uploaded spec, running the adequation and generating the
// executives — is done once per distinct model and kept hot across requests.
// The native-backend module cache (PR 6) already persists compiled .so
// modules on disk keyed by shape and memoizes dlopen handles per-process,
// so long-lived workers stay warm at that layer for free; this registry adds
// the layers above it. Entries are identity-keyed (parameters / content
// hash) and LRU-bounded at kMaxWarmEntries per kind: keys include the
// client-supplied seed and timings, so an unbounded map would grow without
// limit in the master and every worker over a long-lived daemon's life.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

#include "aaa/adequation.hpp"
#include "aaa/codegen.hpp"
#include "io/spec.hpp"
#include "obs/metrics.hpp"
#include "translate/cosim.hpp"

namespace ecsim::svc {

/// The assembled servo loop of one (ts, t_end, seed) triple and the
/// canonical IR hash of its ideal-clocked model. `loop.backend` is left at
/// the default — callers stamp the request's backend on a copy, which does
/// not change the model IR.
struct WarmLoop {
  translate::LoopSpec loop;
  std::string ir_hash;  // ir::hash_hex(translate::loop_ir(loop))
};

/// One spec taken through parse -> adequation -> codegen, keyed by its
/// content hash ("spec:0x…").
struct WarmSpec {
  io::ParsedSpec spec;
  aaa::Schedule sched{0, 0};
  aaa::GeneratedCode code;
  std::string content_hash;
};

/// The one spec pipeline, behind WarmCache::spec and `ecsim_flow <command>
/// spec.txt`: parse, require both sections, adequate with `opts`, validate,
/// generate the executives. Throws io::SpecParseError / std::runtime_error.
WarmSpec prepare_spec(const std::string& spec_text,
                      const aaa::AdequationOptions& opts = {});

/// Per-kind entry cap. A daemon serves a handful of hot models; 64 keeps
/// every realistic working set resident while bounding a hostile or
/// seed-scanning client to a fixed footprint.
constexpr std::size_t kMaxWarmEntries = 64;

/// Tiny string-keyed LRU map. Eviction happens only inside insert(), so a
/// reference obtained from find()/insert() is valid until the NEXT mutating
/// call on the same map — callers must copy out what they need before
/// touching the cache again.
template <typename V>
class LruMap {
 public:
  explicit LruMap(std::size_t cap) : cap_(cap) {}

  V* find(const std::string& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    items_.splice(items_.begin(), items_, it->second);
    return &it->second->second;
  }

  V& insert(std::string key, V value) {
    if (items_.size() >= cap_) {
      index_.erase(items_.back().first);
      items_.pop_back();
    }
    items_.emplace_front(std::move(key), std::move(value));
    index_.emplace(items_.front().first, items_.begin());
    return items_.front().second;
  }

  std::size_t size() const { return items_.size(); }

 private:
  using Item = std::pair<std::string, V>;
  std::size_t cap_;
  std::list<Item> items_;  // front = most recently used
  std::unordered_map<std::string, typename std::list<Item>::iterator> index_;
};

class WarmCache {
 public:
  explicit WarmCache(obs::MetricsRegistry* metrics = nullptr);

  /// Find-or-build. The returned reference is valid until the next loop()
  /// or spec() call (LRU eviction at kMaxWarmEntries) — copy out what you
  /// need. Throws what loop assembly throws on first build.
  const WarmLoop& loop(double ts, double t_end, std::uint64_t seed);

  /// Find-or-build through prepare_spec (`opts` applies to a first build);
  /// same reference lifetime as loop().
  const WarmSpec& spec(const std::string& spec_text,
                       const aaa::AdequationOptions& opts = {});

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t loop_entries() const { return loops_.size(); }
  std::size_t spec_entries() const { return specs_.size(); }

 private:
  LruMap<WarmLoop> loops_{kMaxWarmEntries};
  LruMap<WarmSpec> specs_{kMaxWarmEntries};
  std::uint64_t hits_ = 0, misses_ = 0;
  obs::Counter* hit_ctr_ = nullptr;
  obs::Counter* miss_ctr_ = nullptr;
};

}  // namespace ecsim::svc
