#pragma once
/// \file
/// Mergeable metrics registry: named counters, gauges, and fixed-bucket
/// log-linear histograms. Instances are single-threaded; an engine folds
/// every replication's updates into a registry of its own in replication
/// order and merges that into the sink once, so dumped metrics are
/// thread-count-independent.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace lbsim::obs {

/// Monotonic event count. Merge = sum.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void merge(const Counter& other) noexcept { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time double with high-water merge discipline: merge keeps the
/// max, which is the only order-independent fold for per-worker peaks (queue
/// depth high-water marks) and is harmless for set-once driver gauges
/// (reps/s) that exist in a single registry.
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void max_of(double v) noexcept {
    if (v > value_) value_ = v;
  }
  [[nodiscard]] double value() const noexcept { return value_; }
  void merge(const Gauge& other) noexcept { max_of(other.value_); }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket log-linear histogram (HDR-style): each power-of-two octave
/// is split into kSubBuckets linear sub-buckets, so relative resolution is
/// bounded (~12.5%) across the whole range with a fixed memory footprint.
/// Values at or below zero land in a dedicated bucket; values outside
/// [2^kMinExp, 2^kMaxExp) clamp to the first/last octave. Merge is
/// element-wise bucket addition plus sum/count/min/max combination; it
/// commutes except in the rounding of the floating-point sum.
class Histogram {
 public:
  static constexpr int kMinExp = -20;  ///< smallest octave: [2^-20, 2^-19)
  static constexpr int kMaxExp = 44;   ///< one past the largest octave
  static constexpr std::size_t kSubBuckets = 8;
  /// Bucket 0 holds v <= 0; buckets 1.. hold the log-linear grid.
  static constexpr std::size_t kBucketCount =
      1 + static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;

  void observe(double v) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept { return buckets_[i]; }

  /// Inclusive lower edge of bucket `i` (0 for the v<=0 bucket).
  [[nodiscard]] static double bucket_lower(std::size_t i) noexcept;

  /// Index of the bucket `v` falls into.
  [[nodiscard]] static std::size_t bucket_index(double v) noexcept;

  void merge(const Histogram& other) noexcept;

 private:
  std::uint64_t buckets_[kBucketCount] = {};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Name-keyed collection of the three instrument types. Lookup is by string
/// (std::map keeps JSON emission sorted and deterministic); hot paths fetch
/// the instrument reference once and retain it.
class Registry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name) { return counters_[name]; }
  [[nodiscard]] Gauge& gauge(const std::string& name) { return gauges_[name]; }
  [[nodiscard]] Histogram& histogram(const std::string& name) { return histograms_[name]; }

  [[nodiscard]] const std::map<std::string, Counter>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const noexcept {
    return histograms_;
  }

  /// Folds `other` into this registry (see class comment for the discipline).
  void merge(const Registry& other);

  /// Emits the metrics object `{"counters":{...},"gauges":{...},
  /// "histograms":{...}}` at the given indentation depth (spaces).
  void write_json(std::ostream& os, int indent = 0) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace lbsim::obs
