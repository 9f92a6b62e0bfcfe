// The repository benchmark: four closed-loop workloads over the public tree
// API (see README.md for why each workload exists and what each metric means).
//
// The harness includes only the public tree headers and system headers: no
// workload/, obs/ or util/. Those layers are scheduled for rewrites, and a
// rewrite must not change the measuring tool; CMakeLists.txt enforces the
// rule. Key streams, the Zipf generator and the percentiles are therefore the
// harness's own.
//
// Everything is a template over the tree type so the oracle test can run the
// same harness against a deliberately broken set.
#pragma once

#include <malloc.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/chromatic.hpp"
#include "core/efrb_tree.hpp"

namespace efrb_bench {

using Key = std::uint64_t;
using Value = std::uint64_t;

// The default instantiations: when the library's defaults change (say, to
// pooled allocation), the benchmark measures the new default unedited.
using EfrbTree = efrb::EfrbTreeMap<Key, Value>;
using ChromaticTree = efrb::ChromaticTreeMap<Key, Value>;

inline constexpr int kThreads = 4;
inline constexpr std::size_t kRingOps = std::size_t{1} << 18;  // per thread
inline constexpr double kWarmupSeconds = 2.0;
inline constexpr std::uint64_t kLatencyStride = 16;  // time every 16th op
inline constexpr std::size_t kSampleCap = std::size_t{1} << 18;  // per thread
inline constexpr std::size_t kSpansKept = std::size_t{1} << 16;  // per thread
inline constexpr Key kScanSpan = 1024;  // timeseries scans: last 1024 stamps
inline constexpr auto kShiftPeriod = std::chrono::milliseconds(10);
// Warm-up and window are whole periods: kWorkTicks shift periods of the
// workload, then kDescentTicks of reference descents (see Descent).
inline constexpr int kWorkTicks = 40;
inline constexpr int kDescentTicks = 10;
inline constexpr double kPeriodSeconds = 0.5;
// setup_s is the median of at least kSetupBuilds builds and of as many more
// as fit in kSetupSeconds, so small trees are timed often enough to be steady.
inline constexpr std::size_t kSetupBuilds = 3;
inline constexpr double kSetupSeconds = 1.0;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Op : std::uint8_t { kContains, kGet, kInsert, kErase, kRange };
inline constexpr int kNumOps = 5;

struct Spec {
  const char* name;
  bool chromatic;  // which default tree the workload runs
  int key_bits;    // keys drawn from [0, 2^key_bits); 0 for timeseries
  int live_bits;   // 2^live_bits keys loaded at set-up
  int pct[kNumOps];  // op mix in percent, indexed by Op
  bool zipf;         // scrambled Zipf(0.99) keys instead of uniform
  bool timeseries;   // shared-clock inserts, own-oldest erases
};

inline constexpr Spec kSpecs[] = {
    {"lookup-1m", false, 21, 20, {100, 0, 0, 0, 0}, false, false},
    {"kv-zipf", false, 20, 19, {0, 70, 15, 15, 0}, true, false},
    {"churn-64k", false, 16, 15, {0, 0, 50, 50, 0}, false, false},
    {"timeseries", true, 0, 16, {0, 0, 45, 45, 10}, false, true},
};

inline const Spec* find_spec(std::string_view name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// The value stored with a key; every read checks it.
inline Value value_of(Key k) { return (k * 0x9E3779B97F4A7C15ULL) ^ 0x5bd1e995ULL; }

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
};

/// YCSB's Zipfian generator (Gray et al., "Quickly generating billion-record
/// synthetic databases"): rank 0 is the hottest.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n) {
    for (std::uint64_t i = 1; i <= n; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    half_pow_ = std::pow(0.5, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - (1.0 + half_pow_) / zetan_);
  }

  std::uint64_t operator()(SplitMix64& rng) const {
    const double u = rng.unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + half_pow_) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

 private:
  std::uint64_t n_;
  double zetan_ = 0;
  double half_pow_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

/// A bijection on [0, 2^bits): spreads Zipf ranks over the key space so the
/// hot keys are not neighbours in the tree (odd multiplies and right
/// xor-shifts are each invertible modulo 2^bits).
inline Key scramble(std::uint64_t x, int bits, std::uint64_t salt) {
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  const int half = bits / 2;
  x = (x ^ salt) & mask;
  x = (x * 0x9E3779B97F4A7C15ULL) & mask;
  x ^= x >> half;
  x = (x * 0xBF58476D1CE4E5B9ULL) & mask;
  x ^= x >> half;
  return x;
}

/// The unit of the end-to-end timing metrics: one search of an immutable
/// binary search tree over the workload's initial keys. Its shape is that of
/// a tree built by inserting the keys in random order (a treap with random
/// priorities), like the measured trees' set-up, and each key has a 64-byte
/// node at a random position. A search is thus a descent of about the
/// measured tree's depth over as much scattered memory, with no
/// synchronisation, allocation or reclamation. The workers search it in
/// blocks between blocks of the workload, so its speed follows the host's
/// speed at that moment, and metrics expressed in descents move far less
/// with the host than wall-clock ones (README.md gives the numbers).
class Descent {
 public:
  Descent() = default;

  Descent(std::vector<Key> keys, SplitMix64& rng) {
    std::sort(keys.begin(), keys.end());
    const std::size_t n = keys.size();
    if (n == 0) return;
    std::vector<std::uint32_t> slot(n);  // node of the i-th smallest key
    for (std::size_t i = 0; i < n; ++i) slot[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = n - 1; i > 0; --i) std::swap(slot[i], slot[rng.below(i + 1)]);
    std::vector<std::uint64_t> priority(n);
    for (std::uint64_t& p : priority) p = rng.next();
    nodes_.resize(n);
    // Cartesian tree in key order: `spine` is the right spine built so far.
    std::vector<std::size_t> spine;
    for (std::size_t i = 0; i < n; ++i) {
      Node& node = nodes_[slot[i]];
      node = Node{keys[i], {kNil, kNil}};
      std::size_t popped = n;
      while (!spine.empty() && priority[spine.back()] < priority[i]) {
        popped = spine.back();
        spine.pop_back();
      }
      if (popped != n) node.child[0] = slot[popped];
      if (!spine.empty()) nodes_[slot[spine.back()]].child[1] = slot[i];
      spine.push_back(i);
    }
    root_ = slot[spine.front()];
    span_ = keys.back() + 1;
  }

  bool find(Key k) const {
    for (std::uint32_t c = root_; c != kNil;) {
      const Node& node = nodes_[c];
      if (k == node.key) return true;
      c = node.child[k > node.key];
    }
    return false;
  }

  /// Search keys are drawn uniformly from [0, span()).
  Key span() const { return span_; }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  struct alignas(64) Node {
    Key key;
    std::uint32_t child[2];
  };
  std::vector<Node> nodes_;
  std::uint32_t root_ = kNil;
  Key span_ = 1;
};

inline std::uint64_t encode(Op op, Key k) {
  return (k << 3) | static_cast<std::uint64_t>(op);
}
inline Op op_of(std::uint64_t e) { return static_cast<Op>(e & 7); }
inline Key key_of(std::uint64_t e) { return e >> 3; }

/// Everything a run needs, generated from the seed before any timing.
struct Plan {
  const Spec* spec = nullptr;
  std::vector<Key> initial;  // set-up keys, in insertion order
  std::vector<std::uint64_t> initial_bits;  // membership bitset (lookups)
  std::vector<std::uint64_t> rings[kThreads];  // encoded ops per thread
  Descent descent;  // the reference, over the initial keys
  std::uint64_t descent_seeds[kThreads] = {};  // per-thread search keys
  Key key_mask = 0;     // the key range minus one
  Key clock_start = 0;  // timeseries: first timestamp after the window

  bool initially_present(Key k) const {
    return (initial_bits[k >> 6] >> (k & 63)) & 1;
  }

  /// The key of ring entry `e` under shift epoch `epoch` (see Shared::epoch).
  Key key_at(std::uint64_t e, std::uint64_t epoch) const {
    return (key_of(e) + epoch * 0x9E3779B97F4A7C15ULL) & key_mask;
  }
};

/// Each ring holds exact op counts (shuffled), so inserts and erases balance
/// over every pass and the live key count stays at its initial size.
inline std::vector<Op> shuffled_ops(const Spec& spec, SplitMix64& rng) {
  std::size_t n[kNumOps];
  std::size_t total = 0;
  for (int i = 0; i < kNumOps; ++i) {
    n[i] = kRingOps * static_cast<std::size_t>(spec.pct[i]) / 100;
    total += n[i];
  }
  // Rounding leftovers go to the read op, keeping inserts == erases.
  for (int i : {0, 1, 4}) {
    if (spec.pct[i] > 0) {
      n[i] += kRingOps - total;
      total = kRingOps;
      break;
    }
  }
  n[2] += (kRingOps - total) / 2;
  n[3] += (kRingOps - total) / 2;
  std::vector<Op> ops;
  ops.reserve(kRingOps);
  for (int i = 0; i < kNumOps; ++i) ops.insert(ops.end(), n[i], Op(i));
  for (std::size_t i = ops.size() - 1; i > 0; --i) {
    std::swap(ops[i], ops[rng.below(i + 1)]);
  }
  return ops;
}

inline Plan make_plan(const Spec& spec, std::uint64_t seed) {
  Plan plan;
  plan.spec = &spec;
  SplitMix64 rng{seed * 0xD1B54A32D192ED03ULL + 1};
  if (spec.timeseries) {
    // The window starts full: timestamps 0 .. 2^live_bits - 1, in order.
    const Key live = Key{1} << spec.live_bits;
    for (Key k = 0; k < live; ++k) plan.initial.push_back(k);
    plan.clock_start = live;
  } else {
    // A uniformly random subset of the key range, in random order.
    const std::size_t range = std::size_t{1} << spec.key_bits;
    const std::size_t live = std::size_t{1} << spec.live_bits;
    std::vector<Key> keys(range);
    for (std::size_t i = 0; i < range; ++i) keys[i] = i;
    for (std::size_t i = 0; i < live; ++i) {
      std::swap(keys[i], keys[i + rng.below(range - i)]);
    }
    keys.resize(live);
    plan.initial = std::move(keys);
    plan.key_mask = range - 1;
    plan.initial_bits.assign(range / 64, 0);
    for (Key k : plan.initial) plan.initial_bits[k >> 6] |= std::uint64_t{1} << (k & 63);
  }
  std::optional<Zipf> zipf;
  if (spec.zipf) zipf.emplace(std::uint64_t{1} << spec.key_bits, 0.99);
  const std::uint64_t salt = rng.next();
  for (int t = 0; t < kThreads; ++t) {
    SplitMix64 trng{rng.next()};
    const std::vector<Op> ops = shuffled_ops(spec, trng);
    auto& ring = plan.rings[t];
    ring.reserve(kRingOps);
    for (Op op : ops) {
      Key k = 0;
      if (spec.zipf) {
        k = scramble((*zipf)(trng), spec.key_bits, salt);
      } else if (!spec.timeseries) {
        k = trng.next() >> (64 - spec.key_bits);
      }
      ring.push_back(encode(op, k));
    }
    plan.descent_seeds[t] = rng.next();
  }
  plan.descent = Descent(plan.initial, rng);
  return plan;
}

// ---------------------------------------------------------------------------
// Measurement primitives
// ---------------------------------------------------------------------------

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Bytes the heap has handed out and not taken back, over all arenas.
inline std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

/// Uniform reservoir of latency samples: bounded memory however long the run.
class Reservoir {
 public:
  explicit Reservoir(std::uint64_t seed) : rng_{seed} { buf_.reserve(kSampleCap); }

  void add(std::uint32_t ns) {
    ++seen_;
    if (buf_.size() < kSampleCap) {
      buf_.push_back(ns);
    } else if (const std::uint64_t j = rng_.below(seen_); j < kSampleCap) {
      buf_[j] = ns;
    }
  }
  const std::vector<std::uint32_t>& samples() const { return buf_; }

 private:
  std::vector<std::uint32_t> buf_;
  std::uint64_t seen_ = 0;
  SplitMix64 rng_;
};

/// Nearest-rank percentile of sorted samples.
inline double percentile(const std::vector<std::uint32_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------------------
// Spans (traced runs only)
// ---------------------------------------------------------------------------

enum class SpanName : std::uint8_t {
  kContains, kGet, kInsert, kErase, kRange,  // same order as Op
  kHandle, kFlush, kSetup, kCheck, kWorker,
};
inline constexpr int kNumSpanNames = 10;
inline constexpr const char* kSpanNames[kNumSpanNames] = {
    "contains", "get", "insert", "erase", "range",
    "handle", "flush", "setup", "check", "worker"};

struct Span {
  std::uint64_t id;
  std::uint64_t parent;  // 0: a root span
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t op_index;  // request id, with the thread
  std::uint32_t thread;
  SpanName name;
};

struct SpanTotals {
  std::uint64_t count[kNumSpanNames] = {};
  std::uint64_t ns[kNumSpanNames] = {};

  void add(const SpanTotals& o) {
    for (int i = 0; i < kNumSpanNames; ++i) {
      count[i] += o.count[i];
      ns[i] += o.ns[i];
    }
  }
};

/// One thread's spans: every span is aggregated, the first kSpansKept are
/// kept for the Chrome trace.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t thread) : thread_(thread) {}

  void reserve() { kept_.reserve(kSpansKept); }
  std::uint64_t next_id() { return (std::uint64_t{thread_} + 1) << 40 | ++seq_; }

  void record(SpanName name, std::uint64_t id, std::uint64_t start,
              std::uint64_t end, std::uint64_t parent, std::uint64_t op_index) {
    const auto i = static_cast<int>(name);
    ++totals_.count[i];
    totals_.ns[i] += end - start;
    if (kept_.size() < kSpansKept) {
      kept_.push_back(Span{id, parent, start, end, op_index, thread_, name});
    }
  }

  const SpanTotals& totals() const { return totals_; }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  std::uint32_t thread_;
  std::uint64_t seq_ = 0;
  SpanTotals totals_;
  std::vector<Span> kept_;
};

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

struct Counts {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t updates = 0;
  std::uint64_t update_hits = 0;
  std::uint64_t retried_updates = 0;
  std::uint64_t inserted = 0;
  std::uint64_t erased = 0;
  std::uint64_t scans = 0;
  std::uint64_t scanned_keys = 0;

  void add(const Counts& o) {
    ops += o.ops;
    failed += o.failed;
    updates += o.updates;
    update_hits += o.update_hits;
    retried_updates += o.retried_updates;
    inserted += o.inserted;
    erased += o.erased;
    scans += o.scans;
    scanned_keys += o.scanned_keys;
  }
};

/// A thread's own live timestamps, oldest first (timeseries only).
class KeyFifo {
 public:
  void init(std::size_t capacity_pow2) { buf_.assign(capacity_pow2, 0); }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == buf_.size(); }
  std::size_t size() const { return size_; }
  void push(Key k) { buf_[(head_ + size_++) & (buf_.size() - 1)] = k; }
  void pop() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }
  /// i-th oldest key.
  Key at(std::size_t i) const { return buf_[(head_ + i) & (buf_.size() - 1)]; }

 private:
  std::vector<Key> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

enum : int { kIdle, kWarmup, kMeasure, kStop };

struct Shared {
  alignas(64) std::atomic<int> phase{kIdle};
  // Added to every ring key. The main thread advances it every kShiftPeriod,
  // far less than one pass over a ring takes, so a key's insert/erase
  // sequence does not replay against the state its last replay left behind
  // (which would make most updates fail). It is one value for all threads,
  // so at every moment their Zipf-hot keys are the same keys. It shares
  // phase's cache line: workers read both on every op, and both rarely change.
  std::atomic<std::uint64_t> epoch{0};
  // Set by the main thread for the descent blocks.
  std::atomic<bool> descending{false};
  alignas(64) std::atomic<int> ready{0};
  alignas(64) std::atomic<Key> clock{0};  // timeseries timestamp source
  // Each worker's completed workload ops and descents, read by the main
  // thread at block edges.
  struct alignas(64) Progress {
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> descents{0};
  } progress[kThreads];
};

struct alignas(128) Worker {
  Worker(int tid, const Plan& plan)
      : tid(tid),
        ring(&plan.rings[tid]),
        descent_rng{plan.descent_seeds[tid]},
        descent_samples(plan.descent_seeds[tid] ^ 0xA5A5A5A5ULL),
        samples(plan.rings[tid].front() ^ 0xA5A5A5A5ULL),
        log(static_cast<std::uint32_t>(tid)) {
    if (plan.spec->timeseries) {
      // 8x the initial share: the balanced rings never drift that far.
      fifo.init(std::size_t{8} * plan.initial.size() / kThreads);
      for (std::size_t i = static_cast<std::size_t>(tid); i < plan.initial.size();
           i += kThreads) {
        fifo.push(plan.initial[i]);
      }
      scan_buf.reserve(2 * kScanSpan);
    }
  }

  int tid;
  const std::vector<std::uint64_t>* ring;
  SplitMix64 descent_rng;
  Reservoir descent_samples;
  std::uint64_t descents = 0;
  std::uint64_t descent_hits = 0;  // keeps the searches observable
  KeyFifo fifo;
  std::vector<Key> scan_buf;
  Reservoir samples;
  SpanLog log;
  Counts warmup;
  Counts measured;
  std::string error;  // first exception message, if any

  template <bool kTraced, typename Tree>
  void run(Tree& tree, const Plan& plan, Shared& sh);

 private:
  template <typename Handle>
  bool execute(Handle& h, Op& op, Key k, const Plan& plan, Shared& sh,
               Counts& c, bool timed, std::uint64_t& t0, std::uint64_t& t1);
  bool check_scan(Key lo, Key hi, bool well_formed) const;
  void descend(const Plan& plan, Shared& sh);
};

/// Searches the reference tree until the descent block ends, timing every
/// kLatencyStride-th search of the window.
inline void Worker::descend(const Plan& plan, Shared& sh) {
  const bool measuring = sh.phase.load(std::memory_order_relaxed) == kMeasure;
  while (sh.descending.load(std::memory_order_relaxed)) {
    const Key k = descent_rng.below(plan.descent.span());
    if (measuring && descents % kLatencyStride == 0) {
      const std::uint64_t t0 = now_ns();
      descent_hits += plan.descent.find(k);
      descent_samples.add(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(now_ns() - t0, UINT32_MAX)));
    } else {
      descent_hits += plan.descent.find(k);
    }
    sh.progress[tid].descents.store(++descents, std::memory_order_relaxed);
  }
}

template <bool kTraced, typename Tree>
void Worker::run(Tree& tree, const Plan& plan, Shared& sh) {
  const std::uint64_t worker_span = log.next_id();
  const std::uint64_t t_begin = now_ns();
  using Handle = decltype(tree.handle());
  std::optional<Handle> h;
  try {
    const std::uint64_t t0 = now_ns();
    h.emplace(tree.handle());
    if constexpr (kTraced) {
      log.record(SpanName::kHandle, log.next_id(), t0, now_ns(), worker_span, 0);
    }
  } catch (const std::exception& ex) {
    ++warmup.failed;
    error = ex.what();
  }
  sh.ready.fetch_add(1, std::memory_order_acq_rel);
  if (!h) return;
  while (sh.phase.load(std::memory_order_acquire) == kIdle) {
    std::this_thread::yield();
  }
  const std::vector<std::uint64_t>& r = *ring;
  for (std::uint64_t i = 0;; ++i) {
    sh.progress[tid].ops.store(i, std::memory_order_relaxed);
    if (sh.descending.load(std::memory_order_relaxed)) descend(plan, sh);
    const int phase = sh.phase.load(std::memory_order_relaxed);
    if (phase == kStop) break;
    const bool measuring = phase == kMeasure;
    Counts& c = measuring ? measured : warmup;
    const std::uint64_t e = r[i & (kRingOps - 1)];
    Op op = op_of(e);
    const bool timed = measuring && (kTraced || i % kLatencyStride == 0);
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    ++c.ops;
    try {
      const Key k = plan.key_at(e, sh.epoch.load(std::memory_order_relaxed));
      if (!execute(*h, op, k, plan, sh, c, timed, t0, t1)) {
        ++c.failed;
      }
    } catch (const std::exception& ex) {
      // An operation that throws counts as failed.
      ++c.failed;
      if (error.empty()) error = ex.what();
      continue;
    }
    if (timed) {
      if constexpr (kTraced) {
        log.record(static_cast<SpanName>(op), log.next_id(), t0, t1,
                   worker_span, i);
      } else {
        samples.add(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(t1 - t0, UINT32_MAX)));
      }
    }
  }
  h.reset();  // detach before the quiescence measurements
  if constexpr (kTraced) {
    log.record(SpanName::kWorker, worker_span, t_begin, now_ns(), 0, 0);
  }
}

/// Runs one op and checks its output where the workload makes it checkable.
/// Returns false on a wrong output. Only the tree call lies inside [t0, t1].
template <typename Handle>
bool Worker::execute(Handle& h, Op& op, Key k, const Plan& plan, Shared& sh,
                     Counts& c, bool timed, std::uint64_t& t0,
                     std::uint64_t& t1) {
  auto call = [&](auto&& fn) {
    if (timed) t0 = now_ns();
    auto result = fn();
    if (timed) t1 = now_ns();
    return result;
  };
  const bool ts = plan.spec->timeseries;
  if (ts && op == Op::kErase && fifo.empty()) op = Op::kInsert;
  if (ts && op == Op::kInsert && fifo.full()) op = Op::kErase;
  switch (op) {
    case Op::kContains: {
      const bool present = call([&] { return h.contains(k); });
      // No workload with contains() updates, so the set never changes.
      return present == plan.initially_present(k);
    }
    case Op::kGet: {
      const std::optional<Value> v = call([&] { return h.get(k); });
      return !v || *v == value_of(k);
    }
    case Op::kInsert:
    case Op::kErase: {
      if (ts) k = op == Op::kInsert ? sh.clock.fetch_add(1, std::memory_order_relaxed)
                                    : fifo.at(0);
      const bool hit = call([&] {
        return op == Op::kInsert ? h.insert(k, value_of(k)) : h.erase(k);
      });
      ++c.updates;
      if (h.last_op_retried()) ++c.retried_updates;
      if (hit) {
        ++c.update_hits;
        ++(op == Op::kInsert ? c.inserted : c.erased);
      }
      if (!ts) return true;
      // Fresh timestamps and the thread's own oldest key: both must succeed.
      if (op == Op::kInsert) {
        fifo.push(k);
      } else {
        fifo.pop();
      }
      return hit;
    }
    case Op::kRange: {
      ++c.scans;
      const Key now = sh.clock.load(std::memory_order_relaxed);
      const Key lo = now - kScanSpan;  // the window keeps now >= 2^16
      const Key hi = now - 1;
      scan_buf.clear();
      bool well_formed = true;
      call([&] {
        h.range(lo, hi, [&](const Key& key, const Value& v) {
          if (v != value_of(key) || (!scan_buf.empty() && key <= scan_buf.back())) {
            well_formed = false;
          }
          scan_buf.push_back(key);
        });
        return 0;
      });
      c.scanned_keys += scan_buf.size();
      return check_scan(lo, hi, well_formed);
    }
  }
  return false;
}

/// A scan's keys are ascending, inside [lo, hi], and include every key of
/// this thread's own that lies in the range: only this thread erases them,
/// so each was present for the whole scan.
inline bool Worker::check_scan(Key lo, Key hi, bool well_formed) const {
  if (!well_formed) return false;
  if (!scan_buf.empty() && (scan_buf.front() < lo || scan_buf.back() > hi)) {
    return false;
  }
  std::size_t first = fifo.size();
  while (first > 0 && fifo.at(first - 1) >= lo) --first;
  std::size_t j = 0;
  for (std::size_t i = first; i < fifo.size(); ++i) {
    const Key k = fifo.at(i);
    if (k > hi) break;
    while (j < scan_buf.size() && scan_buf[j] < k) ++j;
    if (j == scan_buf.size() || scan_buf[j] != k) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// One measured phase: set-up, warm-up, window, quiescent checks
// ---------------------------------------------------------------------------

/// What the workers completed over some periods, read at block edges.
struct Blocks {
  std::uint64_t ops = 0;       // workload ops in the workload blocks
  std::uint64_t descents = 0;  // descents in the descent blocks
  double work_s = 0;           // wall time of the workload blocks
  double descent_s = 0;        // wall time of the descent blocks

  double ops_per_s() const { return static_cast<double>(ops) / work_s; }
  double descents_per_s() const { return static_cast<double>(descents) / descent_s; }
};

struct PhaseResult {
  Blocks blocks;  // the window
  // Median time of one timed search of the reference tree: the unit of the
  // latency metrics. Like the ops' latencies, and unlike the rates in
  // `blocks`, it leaves out the time a thread is not running.
  double descent_ns = 0;
  double setup_s = 0;
  double mem_bytes_per_key = 0;
  std::size_t live_keys = 0;
  Counts total;     // set-up, warm-up and window, for attempted/failed
  Counts measured;  // the window only
  std::vector<std::uint32_t> samples;
  std::vector<std::string> errors;
  // Traced phases only.
  SpanTotals spans;
  std::vector<Span> kept_spans;
  efrb::TreeStats stats;  // window delta
  efrb::ReclaimGauges gauges;  // window delta (orphan_depth: after detach)
  std::uint64_t backlog_peak = 0;
  std::optional<efrb::PoolStats> pool;  // window delta; slab_bytes at the end
};

template <typename Tree>
std::unique_ptr<Tree> build_tree(const Plan& plan, Counts& c, double& seconds) {
  const std::uint64_t t0 = now_ns();
  auto tree = std::make_unique<Tree>();
  {
    auto h = tree->handle();
    for (Key k : plan.initial) {
      ++c.ops;
      if (!h.insert(k, value_of(k))) ++c.failed;
    }
  }
  seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return tree;
}

/// Times one more build in a forked child, so that every repetition starts
/// from a fresh heap as a new process does. A build into the freed memory of
/// a destroyed tree is a different build: timeseries builds took 0.24-0.40 s
/// that way, even after malloc_trim(0), against 0.12 s fresh. Call only while
/// the process has a single thread.
template <typename Tree>
double build_in_child(const Plan& plan, Counts& c) {
  struct Message {
    double seconds;
    std::uint64_t ops;
    std::uint64_t failed;
  };
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork() failed");
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    try {
      Counts cc;
      Message msg{};
      build_tree<Tree>(plan, cc, msg.seconds).release();  // freed by _exit
      msg.ops = cc.ops;
      msg.failed = cc.failed;
      code = write(fds[1], &msg, sizeof(msg)) == sizeof(msg) ? 0 : 1;
    } catch (...) {
    }
    _exit(code);
  }
  close(fds[1]);
  Message msg{};
  const bool got = read(fds[0], &msg, sizeof(msg)) == sizeof(msg);
  close(fds[0]);
  int status = 0;
  const bool exited = waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                      WEXITSTATUS(status) == 0;
  if (!got || !exited) throw std::runtime_error("set-up child failed");
  c.ops += msg.ops;
  c.failed += msg.failed;
  return msg.seconds;
}

template <typename Tree>
std::optional<efrb::PoolStats> pool_stats(Tree& tree) {
  if constexpr (requires { tree.allocator().stats(); }) {
    return tree.allocator().stats();
  } else {
    return std::nullopt;
  }
}

/// Runs `periods` periods of kWorkTicks workload ticks and kDescentTicks
/// descent ticks. Every tick advances the shared key shift; every 10th calls
/// `poll` (the traced run's reclaimer backlog).
template <typename Poll>
Blocks run_periods(Shared& sh, int periods, Poll&& poll) {
  const auto sum = [&sh](std::atomic<std::uint64_t> Shared::Progress::*counter) {
    std::uint64_t n = 0;
    for (auto& p : sh.progress) n += (p.*counter).load(std::memory_order_relaxed);
    return n;
  };
  auto next = std::chrono::steady_clock::now();
  int tick = 0;
  const auto ticks = [&](int n) {
    for (int k = 0; k < n; ++k) {
      next += kShiftPeriod;
      std::this_thread::sleep_until(next);
      sh.epoch.fetch_add(1, std::memory_order_relaxed);
      if (++tick % 10 == 0) poll();
    }
  };
  Blocks b;
  for (int p = 0; p < periods; ++p) {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t ops0 = sum(&Shared::Progress::ops);
    ticks(kWorkTicks);
    const std::uint64_t ops1 = sum(&Shared::Progress::ops);
    const std::uint64_t descents0 = sum(&Shared::Progress::descents);
    const std::uint64_t t1 = now_ns();
    sh.descending.store(true, std::memory_order_relaxed);
    ticks(kDescentTicks);
    const std::uint64_t t2 = now_ns();
    const std::uint64_t descents1 = sum(&Shared::Progress::descents);
    sh.descending.store(false, std::memory_order_relaxed);
    b.ops += ops1 - ops0;
    b.descents += descents1 - descents0;
    b.work_s += static_cast<double>(t1 - t0) * 1e-9;
    b.descent_s += static_cast<double>(t2 - t1) * 1e-9;
  }
  return b;
}

/// Ends any descent block, sets the stop flag and joins the workers on every
/// exit path.
struct JoinOnExit {
  Shared& sh;
  std::vector<std::thread>& threads;
  ~JoinOnExit() {
    sh.descending.store(false, std::memory_order_relaxed);
    sh.phase.store(kStop, std::memory_order_release);
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

template <typename Tree, bool kTraced>
PhaseResult run_phase(const Plan& plan, double seconds, bool repeat_setup) {
  PhaseResult res;
  SpanLog main_log(kThreads);
  std::vector<Worker> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) workers.emplace_back(t, plan);
  if constexpr (kTraced) {
    main_log.reserve();
    for (auto& w : workers) w.log.reserve();
  }
  Shared sh;
  sh.clock.store(plan.clock_start, std::memory_order_relaxed);

  // Set-up, repeated in child processes; this process builds only the tree it
  // keeps. The heap baseline is taken after every harness buffer exists.
  std::vector<double> setup_times;
  double setup_total = 0;
  while (repeat_setup &&
         (setup_times.size() + 1 < kSetupBuilds || setup_total < kSetupSeconds)) {
    setup_times.push_back(build_in_child<Tree>(plan, res.total));
    setup_total += setup_times.back();
  }
  const std::size_t heap_base = heap_in_use();
  double secs = 0;
  const std::uint64_t t_setup = now_ns();
  const std::unique_ptr<Tree> tree = build_tree<Tree>(plan, res.total, secs);
  if constexpr (kTraced) {
    main_log.record(SpanName::kSetup, main_log.next_id(), t_setup, now_ns(), 0, 0);
  }
  setup_times.push_back(secs);
  res.setup_s = median(setup_times);

  const auto periods = [](double s) {
    return static_cast<int>(std::lround(s / kPeriodSeconds));
  };
  std::vector<std::thread> threads;
  efrb::TreeStats stats_before;
  efrb::ReclaimGauges gauges_before;
  std::optional<efrb::PoolStats> pool_before;
  {
    JoinOnExit joiner{sh, threads};
    for (auto& w : workers) {
      threads.emplace_back([&w, &tree, &plan, &sh] {
        w.template run<kTraced>(*tree, plan, sh);
      });
    }
    while (sh.ready.load(std::memory_order_acquire) < kThreads) {
      std::this_thread::yield();
    }
    sh.phase.store(kWarmup, std::memory_order_release);
    run_periods(sh, periods(std::min(kWarmupSeconds, seconds / 5)), [] {});

    stats_before = tree->stats();
    gauges_before = tree->reclaimer().gauges();
    pool_before = pool_stats(*tree);
    sh.phase.store(kMeasure, std::memory_order_release);
    res.blocks = run_periods(sh, std::max(1, periods(seconds)), [&] {
      if constexpr (kTraced) {
        res.backlog_peak =
            std::max(res.backlog_peak, tree->reclaimer().gauges().backlog());
      }
    });
    sh.phase.store(kStop, std::memory_order_release);
    res.stats = tree->stats();
    res.gauges = tree->reclaimer().gauges();
    res.pool = pool_stats(*tree);
  }  // workers joined; their handles are detached

  efrb::subtract(res.stats, stats_before);
  res.gauges.retired_total -= gauges_before.retired_total;
  res.gauges.freed_total -= gauges_before.freed_total;
  res.gauges.pins -= gauges_before.pins;
  res.gauges.orphan_depth = tree->reclaimer().gauges().orphan_depth;
  if (res.pool && pool_before) {
    res.pool->recycled -= pool_before->recycled;
    res.pool->cache_refills -= pool_before->cache_refills;
  }

  // Quiescence: one fresh handle drains the reclaimer, then the heap is read.
  {
    const std::uint64_t t0 = now_ns();
    auto h = tree->handle();
    h.flush();
    h.detach();
    if constexpr (kTraced) {
      main_log.record(SpanName::kFlush, main_log.next_id(), t0, now_ns(), 0, 0);
    }
  }
  const std::size_t heap_used = heap_in_use() - heap_base;
  if (res.pool) res.pool->slab_bytes = pool_stats(*tree)->slab_bytes;

  for (auto& w : workers) {
    res.total.add(w.warmup);
    res.total.add(w.measured);
    res.measured.add(w.measured);
    if (!w.error.empty()) res.errors.push_back(w.error);
  }

  // Output checks: structure, and exact key conservation.
  const std::uint64_t t0 = now_ns();
  const auto validation = tree->validate();
  res.live_keys = tree->size();
  if (!validation.ok) {
    ++res.total.failed;
    res.errors.push_back("validate(): " + validation.error);
  }
  const std::uint64_t expected =
      plan.initial.size() + res.total.inserted - res.total.erased;
  if (res.live_keys != expected) {
    const std::uint64_t diff = res.live_keys > expected ? res.live_keys - expected
                                                        : expected - res.live_keys;
    res.total.failed += diff;
    res.errors.push_back("size() = " + std::to_string(res.live_keys) +
                         ", expected " + std::to_string(expected));
  }
  if constexpr (kTraced) {
    main_log.record(SpanName::kCheck, main_log.next_id(), t0, now_ns(), 0, 0);
  }
  res.mem_bytes_per_key = static_cast<double>(heap_used) /
                          static_cast<double>(std::max<std::size_t>(res.live_keys, 1));

  std::vector<std::uint32_t> descent_samples;
  for (auto& w : workers) {
    const auto& s = w.samples.samples();
    res.samples.insert(res.samples.end(), s.begin(), s.end());
    const auto& d = w.descent_samples.samples();
    descent_samples.insert(descent_samples.end(), d.begin(), d.end());
  }
  std::sort(res.samples.begin(), res.samples.end());
  std::sort(descent_samples.begin(), descent_samples.end());
  res.descent_ns = percentile(descent_samples, 0.50);
  if constexpr (kTraced) {
    res.spans.add(main_log.totals());
    res.kept_spans = main_log.kept();
    for (auto& w : workers) {
      res.spans.add(w.log.totals());
      res.kept_spans.insert(res.kept_spans.end(), w.log.kept().begin(),
                            w.log.kept().end());
    }
  }
  return res;
}

/// The traced tree: the default tree with its Traits rebound to count
/// TreeStats. Should the member ever stop counting, the counts read zero and
/// are reported as absent.
template <typename Tree>
struct Counting;

template <template <typename, typename, typename, typename, typename> class Map,
          typename K, typename V, typename C, typename R, typename T>
struct Counting<Map<K, V, C, R, T>> {
  struct Traits : T {
    static constexpr bool kCountStats = true;
  };
  using type = Map<K, V, C, R, Traits>;
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* absent = nullptr;  // why the configuration lacks it
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> info;  // printed for readers, not in the result line
  std::vector<std::string> errors;
  std::size_t latency_samples = 0;
};

inline void absorb(Outcome& out, const PhaseResult& r) {
  out.attempted += r.total.ops;
  out.failed += r.total.failed;
  out.errors.insert(out.errors.end(), r.errors.begin(), r.errors.end());
}

/// The end-to-end metrics of an untraced phase. Throughput and latency are
/// in reference descents (see Descent); their values in wall time go to the
/// info lines.
inline Outcome end_to_end(const PhaseResult& r) {
  Outcome out;
  absorb(out, r);
  out.latency_samples = r.samples.size();
  const Blocks& b = r.blocks;
  const double p50 = percentile(r.samples, 0.50);
  const double p99 = percentile(r.samples, 0.99);
  out.metrics = {
      {"ops_per_descent", b.ops_per_s() / b.descents_per_s(), "op/descent"},
      {"latency_p50_descents", p50 / r.descent_ns, "descents"},
      {"latency_p99_descents", p99 / r.descent_ns, "descents"},
      {"mem_bytes_per_key", r.mem_bytes_per_key, "B/key"},
      {"setup_s", r.setup_s, "s"},
  };
  out.info = {
      {"throughput_mops", b.ops_per_s() / 1e6, "Mops/s"},
      {"latency_p50_ns", p50, "ns"},
      {"latency_p99_ns", p99, "ns"},
      {"descents_per_s", b.descents_per_s(), "1/s"},
      {"descent_ns", r.descent_ns, "ns"},
  };
  return out;
}

inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// The per-layer metrics: `plain` is the untraced phase run just before the
/// traced phase `r`, for the tracing overhead.
inline Outcome per_layer(const Spec& spec, const PhaseResult& plain,
                         const PhaseResult& r) {
  Outcome out;
  absorb(out, plain);
  absorb(out, r);
  const Counts& m = r.measured;
  const SpanTotals& sp = r.spans;
  const efrb::TreeStats& st = r.stats;
  const auto n = [](SpanName s) { return static_cast<int>(s); };
  const double updates = static_cast<double>(m.updates);
  const double kupdates = updates / 1000;
  const double update_ns =
      static_cast<double>(sp.ns[n(SpanName::kInsert)] + sp.ns[n(SpanName::kErase)]);
  const double read_count = static_cast<double>(sp.count[n(SpanName::kContains)] +
                                                sp.count[n(SpanName::kGet)]);
  const double read_ns =
      static_cast<double>(sp.ns[n(SpanName::kContains)] + sp.ns[n(SpanName::kGet)]);
  double op_ns = 0;
  for (int i = 0; i < kNumOps; ++i) op_ns += static_cast<double>(sp.ns[i]);

  const bool counted = st.depth_samples > 0;
  const char* no_updates = m.updates == 0 ? "workload issues no updates" : nullptr;
  const char* not_counted =
      counted ? nullptr : "TreeStats read zero: kCountStats no longer counts";
  const auto first = [](std::initializer_list<const char*> reasons) -> const char* {
    for (const char* r : reasons) {
      if (r != nullptr) return r;
    }
    return nullptr;
  };

  const auto step = [&](efrb::CasStep s) { return static_cast<std::size_t>(s); };
  std::uint64_t cas_attempts = 0;
  std::uint64_t cas_failures = 0;
  for (std::size_t i = 0; i <= step(efrb::CasStep::kBacktrack); ++i) {
    cas_attempts += st.cas_attempts[i];
    cas_failures += st.cas_failures[i];
  }
  const auto ok = [&](efrb::CasStep s) {
    return static_cast<double>(st.cas_attempts[step(s)] - st.cas_failures[step(s)]);
  };
  const double flag_attempts = static_cast<double>(
      st.cas_attempts[step(efrb::CasStep::kIFlag)] +
      st.cas_attempts[step(efrb::CasStep::kDFlag)]);
  // A dflag undone by a backtrack did no useful work.
  const double useful_flags = ok(efrb::CasStep::kIFlag) +
                              ok(efrb::CasStep::kDFlag) -
                              ok(efrb::CasStep::kBacktrack);

  const char* not_efrb = spec.chromatic ? "workload runs the chromatic tree" : nullptr;
  const char* not_chromatic = spec.chromatic ? nullptr : "workload runs the EFRB tree";
  const char* no_reads = read_count == 0 ? "workload issues no reads" : nullptr;
  const char* no_scans = m.scans == 0 ? "workload issues no scans" : nullptr;
  const char* no_pool = r.pool ? nullptr : "HeapAllocator keeps no pool statistics";
  const efrb::PoolStats pool = r.pool.value_or(efrb::PoolStats{});
  const efrb::ReclaimGauges& g = r.gauges;
  const double live = static_cast<double>(std::max<std::size_t>(r.live_keys, 1));
  const auto ops_per_descent = [](const Blocks& b) {
    return ratio(b.ops_per_s(), b.descents_per_s());
  };

  out.metrics = {
      {"core.get_ns_mean", ratio(read_ns, read_count), "ns", first({not_efrb, no_reads})},
      {"core.depth_avg", st.depth_avg(), "levels", first({not_efrb, not_counted})},
      {"core.update_ns_mean", ratio(update_ns, updates), "ns", first({not_efrb, no_updates})},
      {"core.cas_fail_ratio", ratio(cas_failures, cas_attempts), "ratio",
       first({not_efrb, no_updates, not_counted})},
      {"core.helps_per_kupdate", ratio(st.helps, kupdates), "1/kupdate",
       first({not_efrb, no_updates, not_counted})},
      {"core.retried_update_frac", ratio(m.retried_updates, updates), "ratio",
       first({not_efrb, no_updates})},
      {"core.flag_success_ratio", ratio(useful_flags, flag_attempts), "ratio",
       first({not_efrb, no_updates, not_counted})},
      {"chromatic.update_ns_mean", ratio(update_ns, updates), "ns", not_chromatic},
      {"chromatic.depth_avg", st.depth_avg(), "levels", first({not_chromatic, not_counted})},
      {"chromatic.rotations_per_kupdate", ratio(st.rotations, kupdates), "1/kupdate",
       first({not_chromatic, not_counted})},
      {"chromatic.scx_fail_ratio",
       ratio(st.cas_failures[step(efrb::CasStep::kFreeze)],
             st.cas_attempts[step(efrb::CasStep::kFreeze)]),
       "ratio", first({not_chromatic, not_counted})},
      {"chromatic.retried_update_frac", ratio(m.retried_updates, updates), "ratio",
       not_chromatic},
      {"chromatic.cleanup_abandoned", static_cast<double>(st.cleanup_abandoned), "count",
       first({not_chromatic, not_counted})},
      {"ordered.scan_ns_per_key",
       ratio(sp.ns[n(SpanName::kRange)], m.scanned_keys), "ns/key", no_scans},
      {"ordered.keys_per_scan", ratio(m.scanned_keys, m.scans), "keys", no_scans},
      {"alloc.slab_bytes_per_key", pool.slab_bytes / live, "B/key", no_pool},
      {"alloc.recycled_per_kupdate", ratio(pool.recycled, kupdates), "1/kupdate",
       first({no_pool, no_updates})},
      {"alloc.cache_refills_per_kupdate", ratio(pool.cache_refills, kupdates),
       "1/kupdate", first({no_pool, no_updates})},
      {"reclaim.pins_per_op", ratio(g.pins, m.ops), "1/op"},
      {"reclaim.retired_per_kupdate", ratio(g.retired_total, kupdates), "1/kupdate",
       no_updates},
      {"reclaim.freed_per_retired", ratio(g.freed_total, g.retired_total), "ratio",
       g.retired_total == 0 ? "nothing was retired" : nullptr},
      {"reclaim.backlog_peak_per_key", r.backlog_peak / live, "1/key"},
      {"reclaim.orphan_depth_after_detach", static_cast<double>(g.orphan_depth), "count"},
      {"workload.harness_ns_per_op",
       ratio(r.blocks.work_s * 1e9 * kThreads - op_ns, m.ops), "ns"},
      {"workload.update_hit_ratio", ratio(m.update_hits, updates), "ratio", no_updates},
      {"workload.trace_overhead_frac",
       1 - ratio(ops_per_descent(r.blocks), ops_per_descent(plain.blocks)), "ratio"},
  };
  // An absent metric is reported as zero in the result line.
  for (Metric& metric : out.metrics) {
    if (metric.absent != nullptr) metric.value = 0;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Provenance and output
// ---------------------------------------------------------------------------

inline std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

inline int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

inline std::string json_escape(std::string_view s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

#ifndef EFRB_BENCH_BUILD_TYPE
#define EFRB_BENCH_BUILD_TYPE "unknown"
#endif

inline std::string provenance_json(const Spec& spec, std::uint64_t seed,
                                   double seconds, bool traced) {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  const int nproc = online_cpus();
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"traced\": %s, "
      "\"threads\": %d, \"nproc\": %d, \"oversubscribed\": %s, "
      "\"cpu_model\": \"%s\", \"l3_bytes\": %ld, \"build_type\": \"%s\", "
      "\"optimized\": %s}",
      spec.name, static_cast<unsigned long long>(seed), seconds,
      traced ? "true" : "false", kThreads, nproc,
      nproc < kThreads ? "true" : "false", json_escape(cpu_model()).c_str(), l3,
      EFRB_BENCH_BUILD_TYPE, optimized ? "true" : "false");
  return buf;
}

/// Human-readable metric lines, then the result as the last line of stdout.
/// Returns the exit code: nonzero iff any operation or check failed.
inline int report(const Outcome& out) {
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "efrb_bench: check failed: %s\n", e.c_str());
  }
  if (out.latency_samples > 0) {
    std::printf("latency_samples %zu\n", out.latency_samples);
  }
  for (const Metric& m : out.info) {
    std::printf("info %s %.10g %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const Metric& m : out.metrics) {
    if (m.absent != nullptr) {
      std::printf("metric %s absent (%s)\n", m.name.c_str(), m.absent);
    } else {
      std::printf("metric %s %.10g %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
  std::string line = "{\"correct\": ";
  line += out.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", out.metrics[i].value);
    if (i > 0) line += ", ";
    line += "\"" + out.metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + out.metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}

/// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
inline bool write_chrome_trace(const std::filesystem::path& path,
                               const std::vector<Span>& spans,
                               const std::string& provenance) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t origin = UINT64_MAX;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"otherData\": %s,\n\"traceEvents\": [\n", provenance.c_str());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"thread\": %u, \"op\": %llu}}\n",
                 i == 0 ? "" : ",", kSpanNames[static_cast<int>(s.name)], s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread,
                 static_cast<unsigned long long>(s.op_index));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace efrb_bench
