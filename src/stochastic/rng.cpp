#include "stochastic/rng.hpp"

#include <cmath>

#include "util/error.hpp"

namespace lbsim::stoch {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

using State = Xoshiro256pp::State;

/// J^(2^p) for p = 0, 1, 2, where J is long_jump() as a GF(2)-linear map on the
/// 256-bit state. Entry [p][pos][v] is the image of the state whose only set
/// bits are the nibble v at nibble position pos (bits 4*pos .. 4*pos+3, word 0
/// first), so by linearity a jump is the XOR of 64 entries, one per nibble.
class JumpTables {
 public:
  static constexpr unsigned kLevels = 3;  // J, J^2, J^4: every count < 8

  JumpTables() noexcept {
    // Level 0 comes from long_jump() itself, one single-bit state per bit.
    for (unsigned bit = 0; bit < 256; ++bit) {
      State basis{};
      basis[bit / 64] = std::uint64_t{1} << (bit % 64);
      Xoshiro256pp engine(basis);
      engine.long_jump();
      single_bit(0, bit) = engine.state();
    }
    fill_composites(0);
    // Level p + 1 squares level p: J^(2^(p+1)) e = J^(2^p)(J^(2^p) e).
    for (unsigned p = 0; p + 1 < kLevels; ++p) {
      for (unsigned bit = 0; bit < 256; ++bit) {
        State image = single_bit(p, bit);
        apply(p, image);
        single_bit(p + 1, bit) = image;
      }
      fill_composites(p + 1);
    }
  }

  /// s <- J^(2^p) s.
  void apply(unsigned p, State& s) const noexcept {
    State out{};
    for (unsigned w = 0; w < 4; ++w) {
      std::uint64_t word = s[w];
      for (unsigned k = 0; k < 16; ++k, word >>= 4) {
        const State& entry = table_[p][16 * w + k][word & 0xF];
        for (unsigned i = 0; i < 4; ++i) out[i] ^= entry[i];
      }
    }
    s = out;
  }

 private:
  State& single_bit(unsigned p, unsigned bit) noexcept {
    return table_[p][bit / 4][1u << (bit % 4)];
  }

  /// Fills every multi-bit nibble of level p from its single-bit entries.
  void fill_composites(unsigned p) noexcept {
    for (auto& row : table_[p]) {
      for (unsigned v = 3; v < 16; ++v) {
        const unsigned low = v & (~v + 1);
        if (low == v) continue;
        for (unsigned i = 0; i < 4; ++i) row[v][i] = row[low][i] ^ row[v ^ low][i];
      }
    }
  }

  State table_[kLevels][64][16];  // 3 x 32 KiB
};

const JumpTables& jump_tables() noexcept {
  static const JumpTables tables;
  return tables;
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Xoshiro256pp::Xoshiro256pp(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // All-zero state is a fixed point of xoshiro; splitmix cannot produce four zero
  // outputs from any seed, but keep the guard explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x1ULL;
}

Xoshiro256pp::result_type Xoshiro256pp::operator()() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Xoshiro256pp::long_jump() noexcept {
  static constexpr std::uint64_t kJump[] = {0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL,
                                            0x77710069854ee241ULL, 0x39109bb02acbe635ULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (const std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (word & (1ULL << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      (*this)();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

void Xoshiro256pp::long_jumps(unsigned count) {
  LBSIM_REQUIRE(count < 8, "long_jumps covers counts below 8, got " << count);
  if (count == 0) return;
  const JumpTables& tables = jump_tables();
  for (unsigned p = 0; p < JumpTables::kLevels; ++p) {
    if ((count >> p) & 1u) tables.apply(p, s_);
  }
}

RngStream::RngStream(std::uint64_t seed, std::uint64_t stream) noexcept
    // Mix the stream id through splitmix so that (seed, 0) and (seed, 1) start in
    // unrelated regions of the state space even before the long jumps.
    : engine_([&] {
        std::uint64_t sm = stream + 0x632be59bd9b4e019ULL;
        return Xoshiro256pp(seed ^ splitmix64(sm));
      }()) {
  engine_.long_jumps(static_cast<unsigned>(stream % 8));  // extra decorrelation
}

double RngStream::uniform01() noexcept {
  const double u = static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  if (!antithetic_) return u;
  // Mirror into (0, 1]; fold the single point 1.0 (from u = 0) back below 1
  // so the contract "in [0, 1)" holds for both modes.
  const double mirrored = 1.0 - u;
  return mirrored < 1.0 ? mirrored : 1.0 - 0x1.0p-53;
}

double RngStream::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

double RngStream::exponential(double rate) {
  LBSIM_REQUIRE(rate > 0.0, "exponential rate must be positive, got " << rate);
  // Inverse CDF on (0,1]: -log(1-U) avoids log(0) because uniform01() < 1.
  return -std::log1p(-uniform01()) / rate;
}

std::uint64_t RngStream::uniform_index(std::uint64_t bound) {
  LBSIM_REQUIRE(bound >= 1, "uniform_index bound must be >= 1");
  // Lemire multiply-shift with rejection for exact uniformity.
  const std::uint64_t threshold = (0ULL - bound) % bound;
  while (true) {
    const std::uint64_t x = engine_();
    const __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
    if (static_cast<std::uint64_t>(m) >= threshold) return static_cast<std::uint64_t>(m >> 64);
  }
}

}  // namespace lbsim::stoch
