#pragma once
/// \file
/// Deterministic, stream-splittable random number generation.
///
/// We implement xoshiro256++ seeded through splitmix64 rather than relying on
/// std::mt19937_64 + std::*_distribution, because (a) the standard distributions are
/// implementation-defined (results would differ across libstdc++/libc++ and break
/// golden tests) and (b) Monte-Carlo replications need cheap independent streams.
/// `RngStream(seed, stream)` yields streams that are independent for distinct
/// (seed, stream) pairs; replication r of experiment e uses stream id (e, r).
///
/// Seeding cost: a stream costs one splitmix64 seed of the 256-bit state plus
/// J^(stream mod 8), where J is Xoshiro256pp::long_jump(). J is linear over
/// GF(2), so J, J^2 and J^4 are kept as nibble tables (32 KiB each, 96 KiB in
/// all) and the jump is at most three passes of 64 table lookups instead of
/// up to 7 x 256 generator steps. The tables are built from long_jump()
/// itself on first use, behind a thread-safe function-local static.

#include <array>
#include <cstdint>
#include <limits>

namespace lbsim::stoch {

/// splitmix64 step; used for seeding and for hashing stream ids.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256++ engine (public-domain algorithm by Blackman & Vigna).
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;
  /// The raw 256-bit state, word 0 first.
  using State = std::array<std::uint64_t, 4>;

  /// Seeds the 256-bit state from `seed` via splitmix64 (never all-zero).
  explicit Xoshiro256pp(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;
  /// Starts from a raw state; the all-zero state is a fixed point.
  explicit Xoshiro256pp(const State& state) noexcept : s_(state) {}

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept;

  /// Equivalent to 2^192 calls of operator(); used to derive parallel streams.
  void long_jump() noexcept;

  /// Equivalent to `count` calls of long_jump(), for count < 8, in at most
  /// three passes over the precomputed jump tables.
  void long_jumps(unsigned count);

  [[nodiscard]] const State& state() const noexcept { return s_; }

 private:
  State s_;
};

/// A named random stream: engine plus convenience variate generators.
/// Distinct (seed, stream) pairs produce statistically independent sequences.
///
/// A stream may be switched into *antithetic* mode: every uniform01-derived
/// variate U is replaced by its mirror 1 - U, so a run driven by the mirrored
/// stream is the antithetic twin of the run driven by the plain stream (same
/// seed/stream id, same number of draws). Raw-bit draws (next_u64,
/// uniform_index) are NOT mirrored — there is no meaningful reflection of a
/// discrete index — so policies drawing indices see identical choices in both
/// twins, which keeps the pair coupling tight.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed, std::uint64_t stream = 0) noexcept;

  /// Switches uniform01-derived variates to mirrored (1 - U) draws. The
  /// underlying bit sequence is unchanged, so plain and antithetic streams
  /// stay in lockstep draw-for-draw.
  void set_antithetic(bool on) noexcept { antithetic_ = on; }
  [[nodiscard]] bool antithetic() const noexcept { return antithetic_; }

  /// Uniform double in [0, 1) with 53 random bits (mirrored to 1 - U in
  /// antithetic mode, nudged to stay inside [0, 1)).
  [[nodiscard]] double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Exponential variate with the given rate (mean 1/rate); rate must be > 0.
  [[nodiscard]] double exponential(double rate);

  /// Uniform integer in [0, bound) via rejection-free Lemire reduction; bound >= 1.
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t bound);

  /// Raw 64 random bits.
  [[nodiscard]] std::uint64_t next_u64() noexcept { return engine_(); }

  [[nodiscard]] Xoshiro256pp& engine() noexcept { return engine_; }

 private:
  Xoshiro256pp engine_;
  bool antithetic_ = false;
};

}  // namespace lbsim::stoch
