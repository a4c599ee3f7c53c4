// Differential tests for the vectorized PHY kernels: every optimized path
// (SoA/SIMD FFT, table CRC, flattened and AVX2 turbo SISO, unrolled demapper,
// table-walk dematcher, cached descrambler) is checked against the retained
// reference implementation. The turbo and FFT checks demand EXACT equality —
// the optimized kernels are written to round identically to the references
// (mul/add SIMD schedule, preserved association order), so any drift is a
// bug, not tolerance noise.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <thread>

#include "common/rng.hpp"
#include "phy/crc.hpp"
#include "phy/fft.hpp"
#include "phy/ofdm.hpp"
#include "phy/rate_match.hpp"
#include "phy/scrambler.hpp"
#include "phy/turbo.hpp"
#include "phy/turbo_kernels.hpp"
#include "phy/workspace.hpp"

namespace rtopex::phy {
namespace {

IqVector random_iq(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  IqVector v(n);
  for (auto& x : v)
    x = {static_cast<float>(rng.normal()), static_cast<float>(rng.normal())};
  return v;
}

BitVector random_bits(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  BitVector bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next() & 1);
  return bits;
}

LlrVector noisy_llrs(const BitVector& bits, double snr_db, Rng& rng) {
  const double sigma = std::sqrt(0.5 / std::pow(10.0, snr_db / 10.0));
  LlrVector llrs(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const double x = bits[i] ? -1.0 : 1.0;
    const double y = x + rng.normal(0.0, sigma);
    llrs[i] = static_cast<float>(2.0 * y / (sigma * sigma));
  }
  return llrs;
}

void expect_bit_identical(std::span<const Complex> got,
                          std::span<const Complex> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].real(), want[i].real()) << "re at " << i;
    EXPECT_EQ(got[i].imag(), want[i].imag()) << "im at " << i;
  }
}

// --- FFT -------------------------------------------------------------------

class FftKernelDifferentialTest : public ::testing::TestWithParam<std::size_t> {
};

// The SoA path (optionally SIMD) must round identically to the retained
// interleaved scalar transform: same tables, same schedule, mul/add only.
TEST_P(FftKernelDifferentialTest, ForwardSoaBitIdenticalToScalarTransform) {
  const std::size_t n = GetParam();
  const FftPlan plan(n);
  const IqVector input = random_iq(n, 7000 + n);

  IqVector scalar = input;
  plan.transform(scalar, /*invert=*/false);

  std::vector<float> re(n), im(n);
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = input[i].real();
    im[i] = input[i].imag();
  }
  plan.forward_soa(re, im);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(re[i], scalar[i].real()) << "re at " << i;
    EXPECT_EQ(im[i], scalar[i].imag()) << "im at " << i;
  }

  IqVector interleaved = input;
  plan.forward(interleaved);
  expect_bit_identical(interleaved, scalar);
}

TEST_P(FftKernelDifferentialTest, InverseSoaBitIdenticalToScalarTransform) {
  const std::size_t n = GetParam();
  const FftPlan plan(n);
  const IqVector input = random_iq(n, 8000 + n);

  IqVector scalar = input;
  plan.transform(scalar, /*invert=*/true);

  std::vector<float> re(n), im(n);
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = input[i].real();
    im[i] = input[i].imag();
  }
  plan.inverse_soa(re, im);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(re[i], scalar[i].real()) << "re at " << i;
    EXPECT_EQ(im[i], scalar[i].imag()) << "im at " << i;
  }

  IqVector interleaved = input;
  plan.inverse(interleaved);
  expect_bit_identical(interleaved, scalar);
}

TEST_P(FftKernelDifferentialTest, ForwardSoaMatchesReferenceDft) {
  const std::size_t n = GetParam();
  const FftPlan plan(n);
  IqVector data = random_iq(n, 9000 + n);
  const IqVector expected = reference_dft(data, false);
  plan.forward(data);
  double max_err = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    max_err = std::max(max_err,
                       static_cast<double>(std::abs(data[i] - expected[i])));
  EXPECT_LT(max_err, 1e-2 * std::sqrt(static_cast<double>(n)));
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftKernelDifferentialTest,
                         ::testing::Values(2u, 4u, 8u, 16u, 64u, 512u, 1024u,
                                           2048u));

// A shared immutable plan must be usable from many threads on distinct
// buffers; every thread must see the single-thread result bit for bit.
// (Runs under the TSan CI preset via the Differential filter.)
TEST(FftConcurrencyDifferentialTest, SharedPlanThreadsMatchSingleThread) {
  const std::size_t n = 1024;
  const FftPlan plan(n);
  constexpr unsigned kThreads = 4;
  constexpr unsigned kReps = 16;

  std::vector<IqVector> inputs(kThreads);
  std::vector<IqVector> expected(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    inputs[t] = random_iq(n, 100 + t);
    expected[t] = inputs[t];
    plan.forward(expected[t]);
  }

  std::vector<IqVector> got(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (unsigned rep = 0; rep < kReps; ++rep) {
        got[t] = inputs[t];
        plan.forward(got[t]);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (unsigned t = 0; t < kThreads; ++t)
    expect_bit_identical(got[t], expected[t]);
}

// --- CRC -------------------------------------------------------------------

TEST(CrcKernelDifferentialTest, TableMatchesBitwiseReferenceAllLengths) {
  // Every length 0..130 covers all bits.size() % 8 phases of the leading
  // bitwise fold, plus multi-byte table walks.
  for (std::size_t len = 0; len <= 130; ++len) {
    const BitVector bits = random_bits(len, 3000 + len);
    EXPECT_EQ(crc24a(bits), crc24a_reference(bits)) << "24A len " << len;
    EXPECT_EQ(crc24b(bits), crc24b_reference(bits)) << "24B len " << len;
  }
}

TEST(CrcKernelDifferentialTest, TableMatchesBitwiseReferenceCorners) {
  for (const std::size_t len : {1u, 7u, 8u, 9u, 23u, 24u, 25u, 6144u, 6145u}) {
    const BitVector zeros(len, 0);
    const BitVector ones(len, 1);
    EXPECT_EQ(crc24a(zeros), crc24a_reference(zeros)) << "zeros len " << len;
    EXPECT_EQ(crc24a(ones), crc24a_reference(ones)) << "ones len " << len;
    EXPECT_EQ(crc24b(zeros), crc24b_reference(zeros)) << "zeros len " << len;
    EXPECT_EQ(crc24b(ones), crc24b_reference(ones)) << "ones len " << len;
    // Single set bit at each end: catches reflected/shifted table bugs.
    BitVector lead(len, 0), trail(len, 0);
    lead.front() = 1;
    trail.back() = 1;
    EXPECT_EQ(crc24a(lead), crc24a_reference(lead)) << "lead len " << len;
    EXPECT_EQ(crc24a(trail), crc24a_reference(trail)) << "trail len " << len;
  }
  const BitVector empty;
  EXPECT_EQ(crc24a(empty), crc24a_reference(empty));
  EXPECT_EQ(crc24b(empty), crc24b_reference(empty));
}

// --- Turbo -----------------------------------------------------------------

struct TurboCase {
  std::size_t k;
  double snr_db;
  std::uint64_t seed;
};

// The flattened SISO must reproduce the reference decoder EXACTLY: same hard
// decisions, same iteration count, same early-termination flag — across
// block sizes, noise levels (including undecodable), CRC-gated and free
// running. The workspace is shared across all cases (large K before small)
// to prove stale grow-only buffers never leak into a decode.
TEST(TurboKernelDifferentialTest, DecodeIntoMatchesReferenceExactly) {
  const TurboCase cases[] = {
      {6144, 2.0, 1}, {6144, -1.0, 2}, {1024, 6.0, 3},  {1024, -2.5, 4},
      {512, 0.0, 5},  {104, 4.0, 6},   {104, -4.0, 7},  {40, 8.0, 8},
      {40, -6.0, 9},  {2048, -2.0, 10},
  };
  DecodeWorkspace ws;
  for (const auto& c : cases) {
    const QppInterleaver qpp(c.k);
    const TurboEncoder enc(qpp);
    const TurboDecoder dec(qpp, 6);
    Rng rng(c.seed);
    BitVector payload = random_bits(c.k - 24, c.seed * 31);
    attach_crc24(payload, CrcKind::kB);
    const auto cw = enc.encode(payload);
    const LlrVector sys = noisy_llrs(cw.systematic, c.snr_db, rng);
    const LlrVector p1 = noisy_llrs(cw.parity1, c.snr_db, rng);
    const LlrVector p2 = noisy_llrs(cw.parity2, c.snr_db, rng);
    const auto crc = [](std::span<const std::uint8_t> b) {
      return check_crc24(b, CrcKind::kB);
    };

    const auto ref = dec.decode_reference(sys, p1, p2, crc);
    dec.decode_into(sys, p1, p2, ws, crc);
    ASSERT_GE(ws.bits.size(), c.k);
    EXPECT_TRUE(std::equal(ref.bits.begin(), ref.bits.end(), ws.bits.begin()))
        << "K=" << c.k << " snr=" << c.snr_db;
    EXPECT_EQ(ws.iterations, ref.iterations) << "K=" << c.k;
    EXPECT_EQ(ws.early_terminated, ref.early_terminated) << "K=" << c.k;

    const auto opt = dec.decode(sys, p1, p2, crc);
    EXPECT_EQ(opt.bits, ref.bits) << "K=" << c.k;
    EXPECT_EQ(opt.iterations, ref.iterations) << "K=" << c.k;
    EXPECT_EQ(opt.early_terminated, ref.early_terminated) << "K=" << c.k;
  }
}

TEST(TurboKernelDifferentialTest, FreeRunningAndCappedMatchReference) {
  const QppInterleaver qpp(512);
  const TurboEncoder enc(qpp);
  const TurboDecoder dec(qpp, 8);
  Rng rng(77);
  const BitVector bits = random_bits(512, 78);
  const auto cw = enc.encode(bits);
  const LlrVector sys = noisy_llrs(cw.systematic, -2.0, rng);
  const LlrVector p1 = noisy_llrs(cw.parity1, -2.0, rng);
  const LlrVector p2 = noisy_llrs(cw.parity2, -2.0, rng);

  // No CRC callback: runs to Lm; iteration override: degraded-mode cap.
  for (const unsigned cap : {0u, 1u, 3u}) {
    const auto ref = dec.decode_reference(sys, p1, p2, {}, cap);
    const auto opt = dec.decode(sys, p1, p2, {}, cap);
    EXPECT_EQ(opt.bits, ref.bits) << "cap=" << cap;
    EXPECT_EQ(opt.iterations, ref.iterations) << "cap=" << cap;
    EXPECT_EQ(opt.early_terminated, ref.early_terminated) << "cap=" << cap;
  }
}

// --- SISO kernels: flat vs dispatched, LLR for LLR ------------------------
//
// The tests above compare hard decisions; these compare the a-posteriori
// LLRs themselves, bit for bit (memcmp, so -0 vs +0 and NaN payloads count
// as differences). In builds with RTOPEX_SIMD on an AVX2 target the
// dispatched kernel is the AVX2 one; elsewhere it is the flat kernel and
// the comparison holds trivially.

enum class SisoInput { kNoisy, kZeros, kTies, kLarge };

/// One SISO input stream of n trellis steps. kZeros mixes exact +0 and -0
/// into noise; kTies draws from five values so metrics tie constantly and
/// sys == par (g1 == +0) is common; kLarge is +-1e4.
std::vector<float> siso_stream(std::size_t n, SisoInput kind,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) {
    switch (kind) {
      case SisoInput::kNoisy:
        x = static_cast<float>(rng.normal(0.0, 3.0));
        break;
      case SisoInput::kZeros: {
        const std::uint64_t r = rng.uniform_int(3);
        x = r == 0 ? 0.0f
                   : r == 1 ? -0.0f : static_cast<float>(rng.normal(0.0, 2.0));
        break;
      }
      case SisoInput::kTies:
        x = 0.5f * static_cast<float>(static_cast<int>(rng.uniform_int(5)) - 2);
        break;
      case SisoInput::kLarge:
        x = (rng.next() & 1) ? 1e4f : -1e4f;
        break;
    }
  }
  return v;
}

constexpr SisoInput kSisoInputs[] = {SisoInput::kNoisy, SisoInput::kZeros,
                                     SisoInput::kTies, SisoInput::kLarge};

/// Every LTE block size, largest first (so later, smaller decodes run on
/// grown workspaces holding stale data), then small sizes of both K+3
/// parities: every valid K is a multiple of 8, so K+3 is always odd there,
/// and the crossed schedule splits even step counts differently.
std::vector<std::size_t> siso_block_sizes() {
  std::vector<std::size_t> sizes(QppInterleaver::valid_block_sizes().rbegin(),
                                 QppInterleaver::valid_block_sizes().rend());
  for (std::size_t k = 1; k <= 17; ++k) sizes.push_back(k);
  sizes.push_back(6143);
  sizes.push_back(6142);
  return sizes;
}

::testing::AssertionResult llrs_identical(const float* got, const float* want,
                                          std::size_t n) {
  if (std::memcmp(got, want, n * sizeof(float)) == 0)
    return ::testing::AssertionSuccess();
  std::size_t i = 0;
  while (std::memcmp(got + i, want + i, sizeof(float)) == 0) ++i;
  return ::testing::AssertionFailure()
         << "first difference at " << i << " of " << n << ": " << got[i]
         << " vs " << want[i];
}

constexpr float kUnwritten = std::numeric_limits<float>::quiet_NaN();

TEST(SisoKernelDifferentialTest, BlockKernelMatchesFlatBitForBit) {
  DecodeWorkspace ws_flat, ws;
  std::uint64_t seed = 1;
  for (const std::size_t k : siso_block_sizes()) {
    for (const SisoInput kind : kSisoInputs) {
      const auto sys = siso_stream(k + 3, kind, seed++);
      const auto par = siso_stream(k + 3, kind, seed++);
      std::vector<float> want(k, kUnwritten), got(k, kUnwritten);
      detail::siso_decode_flat(sys.data(), par.data(), k, ws_flat,
                               want.data());
      detail::siso_decode_block(sys.data(), par.data(), k, ws, got.data());
      ASSERT_TRUE(llrs_identical(got.data(), want.data(), k))
          << "K=" << k << " input=" << static_cast<int>(kind);
    }
  }
}

// Whole decodes at every eighth LTE block size (and the largest),
// free-running and capped at 1 and 3 iterations: decode_into, running the
// dispatched per-block kernel, must reproduce the reference decoder's bits
// and iteration counts. The reference is slow enough to dominate sanitizer
// runs, so the sizes in between are left to the LLR memcmp above.
TEST(SisoKernelDifferentialTest, DecodersMatchAcrossBlockSizesAndCaps) {
  const auto& sizes = QppInterleaver::valid_block_sizes();
  DecodeWorkspace ws;
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    if (si % 8 != 0 && si + 1 != sizes.size()) continue;
    const std::size_t k = sizes[si];
    const QppInterleaver qpp(k);
    const TurboEncoder enc(qpp);
    const TurboDecoder dec(qpp, 4);
    Rng rng(3000 + 2 * k);
    const auto cw = enc.encode(random_bits(k, 5000 + 2 * k));
    const LlrVector sys = noisy_llrs(cw.systematic, -1.0, rng);
    const LlrVector p1 = noisy_llrs(cw.parity1, -1.0, rng);
    const LlrVector p2 = noisy_llrs(cw.parity2, -1.0, rng);
    for (const unsigned cap : {0u, 1u, 3u}) {
      dec.decode_into(sys, p1, p2, ws, {}, cap);
      const BitVector bits(ws.bits.begin(),
                           ws.bits.begin() + static_cast<std::ptrdiff_t>(k));
      const auto ref = dec.decode_reference(sys, p1, p2, {}, cap);
      ASSERT_EQ(bits, ref.bits) << "K=" << k << " cap=" << cap;
      ASSERT_EQ(ws.iterations, ref.iterations) << "K=" << k << " cap=" << cap;
    }
  }
}

// --- Demapper --------------------------------------------------------------

TEST(DemodKernelDifferentialTest, UnrolledMatchesReferenceExactly) {
  for (const unsigned order : {2u, 4u, 6u}) {
    const std::size_t n = 600;
    const IqVector symbols = random_iq(n, 4000 + order);
    Rng rng(4100 + order);
    std::vector<float> noise(n);
    for (auto& v : noise)
      v = static_cast<float>(std::abs(rng.normal(0.05, 0.02)));
    noise[0] = 0.0f;    // hits the 1e-9 clamp in both paths.
    noise[1] = 1e-12f;  // below the clamp.

    const LlrVector ref = demodulate_reference(symbols, noise, order);
    const LlrVector opt = demodulate(symbols, noise, order);
    ASSERT_EQ(opt.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(opt[i], ref[i]) << "order " << order << " llr " << i;

    LlrVector into(n * order);
    demodulate_into(symbols, noise, order, into);
    EXPECT_EQ(into, ref) << "order " << order;
  }
}

// The vectorized demapper processes a fixed block of symbols per pass and
// hands the ragged tail to the scalar kernel; every (order, length) pair
// must match the axis-decomposed reference bit for bit. Lengths cover all
// tail residues of both the AVX2 (8-symbol) and NEON (4-symbol) blocks,
// plus the pure-tail lengths below one block.
TEST(DemodKernelDifferentialTest, SimdBlocksAndRaggedTailsMatchReference) {
  const std::size_t lengths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 15, 16, 17,
                                 31, 32, 33, 100, 601};
  for (const unsigned order : {2u, 4u, 6u}) {
    for (const std::size_t n : lengths) {
      const IqVector symbols = random_iq(n, 4300 + 100 * order + n);
      Rng rng(4400 + n);
      std::vector<float> noise(n);
      for (auto& v : noise)
        v = static_cast<float>(std::abs(rng.normal(0.05, 0.02)));
      if (n > 2) noise[2] = 0.0f;  // clamp path inside a SIMD block.

      const LlrVector ref = demodulate_reference(symbols, noise, order);
      LlrVector into(n * order);
      demodulate_into(symbols, noise, order, into);
      ASSERT_EQ(into.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(into[i], ref[i])
            << "order " << order << " n " << n << " llr " << i;
    }
  }
}

// --- Rate dematcher --------------------------------------------------------

TEST(RateMatchKernelDifferentialTest, DematchIntoMatchesDematchExactly) {
  const std::size_t k = 512;
  const RateMatcher rm(k);
  const std::size_t kd = k + 4;
  // Below capacity (puncturing), exactly one wrap, and heavy repetition.
  const std::size_t e_values[] = {kd, 2 * kd, rm.buffer_size() + 17,
                                  3 * rm.buffer_size() + 5};
  for (const std::size_t e : e_values) {
    for (unsigned rv = 0; rv < 4; ++rv) {
      Rng rng(5000 + e + rv);
      LlrVector llrs(e);
      for (auto& v : llrs) v = static_cast<float>(rng.normal());

      const auto ref = rm.dematch(llrs, rv);
      LlrVector sys(kd, 99.0f), p1(kd, 99.0f), p2(kd, 99.0f);  // stale fill.
      rm.dematch_into(llrs, rv, sys, p1, p2);
      EXPECT_EQ(sys, ref.systematic) << "e=" << e << " rv=" << rv;
      EXPECT_EQ(p1, ref.parity1) << "e=" << e << " rv=" << rv;
      EXPECT_EQ(p2, ref.parity2) << "e=" << e << " rv=" << rv;
    }
  }
}

// --- Descrambler -----------------------------------------------------------

TEST(ScramblerKernelDifferentialTest, CachedMatchesUncachedAcrossKeyChanges) {
  DecodeWorkspace ws;
  const std::uint32_t init_a = scrambling_init(0x003D, 1, 0);
  const std::uint32_t init_b = scrambling_init(0x003D, 2, 0);
  // The adversarial order for a (c_init, length)-keyed grow-only cache:
  // long B, then shorter A (buffer longer than A's generated prefix), then
  // longer A again (must regenerate, not serve B's stale tail).
  const struct {
    std::uint32_t c_init;
    std::size_t len;
  } steps[] = {{init_b, 300}, {init_a, 200}, {init_a, 300},
               {init_a, 120}, {init_b, 300}, {init_a, 301}};
  for (const auto& step : steps) {
    Rng rng(6000 + step.len);
    LlrVector llrs(step.len);
    for (auto& v : llrs) v = static_cast<float>(rng.normal());
    LlrVector expected = llrs;
    descramble_llrs(expected, step.c_init);
    descramble_llrs_cached(llrs, step.c_init, ws);
    EXPECT_EQ(llrs, expected) << "c_init=" << step.c_init
                              << " len=" << step.len;
  }
}

// Bounded-memory regression: hammer the cache with far more distinct
// c_init values than it has slots. Retained bytes must stay capped at
// kEntries sequences of the longest requested length — the pre-LRU
// grow-only map would retain one sequence per distinct key and fail this.
TEST(ScramblerKernelDifferentialTest, CacheMemoryStaysBoundedUnderManyKeys) {
  DecodeWorkspace ws;
  const std::size_t len = 256;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const std::uint32_t c_init = scrambling_init(
        static_cast<std::uint16_t>(i & 0xffff), i % 10,
        static_cast<std::uint16_t>(i / 10));
    Rng rng(7000 + i);
    LlrVector llrs(len);
    for (auto& v : llrs) v = static_cast<float>(rng.normal());
    LlrVector expected = llrs;
    descramble_llrs(expected, c_init);
    descramble_llrs_cached(llrs, c_init, ws);
    ASSERT_EQ(llrs, expected) << "c_init=" << c_init;
  }
  EXPECT_LE(ws.scramble.retained_bytes(),
            ScrambleCache::kEntries * 2 * len);

  // A worker's steady state — one basestation's 10-value rotation — stays
  // fully resident: after one warm lap, every further lap hits (clock
  // advances exactly once per call, never regenerates).
  std::array<std::uint32_t, 10> rotation;
  for (std::uint32_t s = 0; s < 10; ++s)
    rotation[s] = scrambling_init(0x003D, s, 7);
  LlrVector llrs(len, 1.0f);
  for (const std::uint32_t c : rotation)
    descramble_llrs_cached(llrs, c, ws);  // warm lap
  const std::size_t retained = ws.scramble.retained_bytes();
  for (unsigned lap = 0; lap < 3; ++lap)
    for (const std::uint32_t c : rotation)
      descramble_llrs_cached(llrs, c, ws);
  EXPECT_EQ(ws.scramble.retained_bytes(), retained);
}

// --- OFDM ------------------------------------------------------------------

TEST(OfdmKernelDifferentialTest, DemodulateIntoMatchesPlainExactly) {
  const FftPlan plan(2048);
  const std::size_t nsc = 600, cp = 144;
  const IqVector time = random_iq(2048 + cp, 42);
  const IqVector ref = ofdm_demodulate(plan, time, cp, nsc);

  DecodeWorkspace ws;
  IqVector out(nsc);
  ofdm_demodulate_into(plan, time, cp, out, ws);
  expect_bit_identical(out, ref);
}

}  // namespace
}  // namespace rtopex::phy
