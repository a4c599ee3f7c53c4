#include "phy/turbo.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <limits>
#include <stdexcept>

#include "phy/turbo_kernels.hpp"

#if defined(RTOPEX_SIMD) && defined(__AVX2__)
#include <immintrin.h>
#endif

namespace rtopex::phy {
namespace {

constexpr int kNumStates = 8;
constexpr float kNegInf = -1e30f;

// RSC state: (s0, s1, s2) = last three feedback values, s0 most recent,
// packed as s0 | s1<<1 | s2<<2.
//
// Feedback  a_t = u_t ^ s1 ^ s2          (g0 = 1 + D^2 + D^3)
// Parity    z_t = a_t ^ s0 ^ s2          (g1 = 1 + D + D^3)
// Next      (a_t, s0, s1)

struct Transition {
  std::uint8_t next;    // next state
  std::uint8_t parity;  // z for this (state, input)
};

struct Trellis {
  // [state][input] -> transition
  std::array<std::array<Transition, 2>, kNumStates> step{};
  // Termination input per state (drives the feedback to zero).
  std::array<std::uint8_t, kNumStates> term_input{};

  Trellis() {
    for (int s = 0; s < kNumStates; ++s) {
      const int s0 = s & 1;
      const int s1 = (s >> 1) & 1;
      const int s2 = (s >> 2) & 1;
      for (int u = 0; u < 2; ++u) {
        const int a = u ^ s1 ^ s2;
        const int z = a ^ s0 ^ s2;
        const int next = a | (s0 << 1) | (s1 << 2);
        step[s][u] = {static_cast<std::uint8_t>(next),
                      static_cast<std::uint8_t>(z)};
      }
      term_input[s] = static_cast<std::uint8_t>(s1 ^ s2);
    }
  }
};

const Trellis& trellis() {
  static const Trellis t;
  return t;
}

// One RSC encoder pass. Returns parity bits; appends the 3 termination
// (input, parity) pairs to tail_sys/tail_par and leaves the register at 0.
BitVector rsc_encode(std::span<const std::uint8_t> bits, BitVector& tail_sys,
                     BitVector& tail_par) {
  const Trellis& t = trellis();
  BitVector parity(bits.size());
  int state = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const auto& tr = t.step[state][bits[i] & 1];
    parity[i] = tr.parity;
    state = tr.next;
  }
  for (int i = 0; i < 3; ++i) {
    const std::uint8_t u = t.term_input[state];
    const auto& tr = t.step[state][u];
    tail_sys.push_back(u);
    tail_par.push_back(tr.parity);
    state = tr.next;
  }
  return parity;
}

// Max-log-MAP (BCJR) over one constituent code.
//
// Inputs are in the "metric" domain: llr(bit) = log P(0) - log P(1); a
// hypothesized bit b contributes 0.5 * sign(b) * llr with sign(0) = +1,
// sign(1) = -1. `sys_in` already contains channel-plus-apriori information
// for the K data positions and channel tail information for the last 3.
// Returns the a-posteriori LLR for the K data bits (not the tails).
//
// The trellis starts in state 0 and, thanks to termination, ends in state 0
// after K + 3 steps.
LlrVector siso_decode(std::span<const float> sys_in,
                      std::span<const float> par_in, std::size_t k) {
  const Trellis& t = trellis();
  const std::size_t steps = k + 3;
  if (sys_in.size() != steps || par_in.size() != steps)
    throw std::invalid_argument("siso_decode: bad input length");

  // Branch metric for (state s, input u) at step i.
  auto gamma = [&](std::size_t i, int s, int u) {
    const float bu = u == 0 ? 0.5f : -0.5f;
    const int z = t.step[s][u].parity;
    const float bz = z == 0 ? 0.5f : -0.5f;
    return bu * sys_in[i] + bz * par_in[i];
  };

  // The forward/backward metric arrays are large (8 floats per trellis
  // step); decoding is a hot path run concurrently from many cores, so the
  // scratch is recycled per thread instead of reallocated per call.
  thread_local std::vector<std::array<float, kNumStates>> alpha;
  thread_local std::vector<std::array<float, kNumStates>> beta_all;
  if (alpha.size() < steps + 1) {
    alpha.resize(steps + 1);
    beta_all.resize(steps + 1);
  }
  alpha[0].fill(kNegInf);
  alpha[0][0] = 0.0f;
  for (std::size_t i = 0; i < steps; ++i) {
    alpha[i + 1].fill(kNegInf);
    for (int s = 0; s < kNumStates; ++s) {
      if (alpha[i][s] <= kNegInf) continue;
      for (int u = 0; u < 2; ++u) {
        const int ns = t.step[s][u].next;
        const float m = alpha[i][s] + gamma(i, s, u);
        alpha[i + 1][ns] = std::max(alpha[i + 1][ns], m);
      }
    }
  }

  std::array<float, kNumStates> beta;
  beta.fill(kNegInf);
  beta[0] = 0.0f;  // terminated trellis
  beta_all[steps] = beta;
  for (std::size_t i = steps; i-- > 0;) {
    std::array<float, kNumStates> prev;
    prev.fill(kNegInf);
    for (int s = 0; s < kNumStates; ++s) {
      for (int u = 0; u < 2; ++u) {
        const int ns = t.step[s][u].next;
        if (beta_all[i + 1][ns] <= kNegInf) continue;
        const float m = beta_all[i + 1][ns] + gamma(i, s, u);
        prev[s] = std::max(prev[s], m);
      }
    }
    beta_all[i] = prev;
  }

  LlrVector out(k);
  for (std::size_t i = 0; i < k; ++i) {
    float m0 = kNegInf;
    float m1 = kNegInf;
    for (int s = 0; s < kNumStates; ++s) {
      if (alpha[i][s] <= kNegInf) continue;
      for (int u = 0; u < 2; ++u) {
        const int ns = t.step[s][u].next;
        const float m = alpha[i][s] + gamma(i, s, u) + beta_all[i + 1][ns];
        if (u == 0)
          m0 = std::max(m0, m);
        else
          m1 = std::max(m1, m);
      }
    }
    out[i] = m0 - m1;
  }
  return out;
}

}  // namespace

namespace detail {

// Flattened max-log-MAP over the same trellis, bit-identical to siso_decode:
//
//  * The four distinct branch metrics per step — gamma(u, z) =
//    (±0.5)·sys + (±0.5)·par — are precomputed into ws.gamma as
//    {a+b, a-b, b-a, -(a+b)} with a = 0.5f·sys, b = 0.5f·par. Each equals
//    the reference's bu·sys + bz·par exactly: multiplying by -0.5f instead
//    of 0.5f only flips the sign bit, IEEE negation is exact, and rounding
//    is symmetric.
//  * The 8-state transition structure is unrolled at compile time from the
//    generators (g0 = 1 + D^2 + D^3, g1 = 1 + D + D^3), removing the
//    per-branch table walk and the reachability branches. Unreachable
//    states are handled arithmetically: their metric is exactly kNegInf,
//    and kNegInf + gamma == kNegInf in float (the ulp at 1e30 dwarfs any
//    branch metric), so the branchless max yields the same floats the
//    guarded reference produces.
//  * Forward metrics go to ws.alpha (8 per step); backward metrics never
//    materialize — beta lives in 8 registers and the LLR extraction is
//    fused into the backward sweep.
//
// Association orders match the reference exactly: alpha-then-gamma,
// beta-then-gamma, (alpha + gamma) + beta.
void siso_decode_flat(const float* sys_in, const float* par_in, std::size_t k,
                      DecodeWorkspace& ws, float* app_out) {
  const std::size_t steps = k + 3;

  grow_buffer(ws.gamma, 4 * steps);
  grow_buffer(ws.alpha, 8 * (steps + 1));
  float* g = ws.gamma.data();
  float* alpha = ws.alpha.data();

  // Branch metrics, indexed (u << 1) | z.
  for (std::size_t i = 0; i < steps; ++i) {
    const float a = 0.5f * sys_in[i];
    const float b = 0.5f * par_in[i];
    g[4 * i + 0] = a + b;     // u=0, z=0
    g[4 * i + 1] = a - b;     // u=0, z=1
    g[4 * i + 2] = b - a;     // u=1, z=0
    g[4 * i + 3] = -(a + b);  // u=1, z=1
  }

  // Forward pass. Transition map (state s, input u) -> (next, z):
  //   s0: u0->(0,0) u1->(1,1)    s4: u0->(1,0) u1->(0,1)
  //   s1: u0->(2,1) u1->(3,0)    s5: u0->(3,1) u1->(2,0)
  //   s2: u0->(5,1) u1->(4,0)    s6: u0->(4,1) u1->(5,0)
  //   s3: u0->(7,0) u1->(6,1)    s7: u0->(6,0) u1->(7,1)
  alpha[0] = 0.0f;
  for (int s = 1; s < kNumStates; ++s) alpha[s] = kNegInf;
  for (std::size_t i = 0; i < steps; ++i) {
    const float* a = alpha + 8 * i;
    float* n = alpha + 8 * (i + 1);
    const float g0 = g[4 * i + 0];
    const float g1 = g[4 * i + 1];
    const float g2 = g[4 * i + 2];
    const float g3 = g[4 * i + 3];
    n[0] = std::max(a[0] + g0, a[4] + g3);
    n[1] = std::max(a[0] + g3, a[4] + g0);
    n[2] = std::max(a[1] + g1, a[5] + g2);
    n[3] = std::max(a[1] + g2, a[5] + g1);
    n[4] = std::max(a[2] + g2, a[6] + g1);
    n[5] = std::max(a[2] + g1, a[6] + g2);
    n[6] = std::max(a[3] + g3, a[7] + g0);
    n[7] = std::max(a[3] + g0, a[7] + g3);
  }

  // Backward sweep with fused LLR extraction. beta starts terminated (state
  // 0) at `steps`, walks the three tail steps, then emits app_out[i] from
  // (alpha[i], gamma[i], beta[i+1]) before retiring step i.
  float b0 = 0.0f, b1 = kNegInf, b2 = kNegInf, b3 = kNegInf;
  float b4 = kNegInf, b5 = kNegInf, b6 = kNegInf, b7 = kNegInf;
  auto beta_step = [&](std::size_t i) {
    const float g0 = g[4 * i + 0];
    const float g1 = g[4 * i + 1];
    const float g2 = g[4 * i + 2];
    const float g3 = g[4 * i + 3];
    const float p0 = std::max(b0 + g0, b1 + g3);
    const float p1 = std::max(b2 + g1, b3 + g2);
    const float p2 = std::max(b5 + g1, b4 + g2);
    const float p3 = std::max(b7 + g0, b6 + g3);
    const float p4 = std::max(b1 + g0, b0 + g3);
    const float p5 = std::max(b3 + g1, b2 + g2);
    const float p6 = std::max(b4 + g1, b5 + g2);
    const float p7 = std::max(b6 + g0, b7 + g3);
    b0 = p0; b1 = p1; b2 = p2; b3 = p3;
    b4 = p4; b5 = p5; b6 = p6; b7 = p7;
  };
  for (std::size_t i = steps; i-- > k;) beta_step(i);
  for (std::size_t i = k; i-- > 0;) {
    const float* a = alpha + 8 * i;
    const float g0 = g[4 * i + 0];
    const float g1 = g[4 * i + 1];
    const float g2 = g[4 * i + 2];
    const float g3 = g[4 * i + 3];
    float m0 = (a[0] + g0) + b0;
    m0 = std::max(m0, (a[1] + g1) + b2);
    m0 = std::max(m0, (a[2] + g1) + b5);
    m0 = std::max(m0, (a[3] + g0) + b7);
    m0 = std::max(m0, (a[4] + g0) + b1);
    m0 = std::max(m0, (a[5] + g1) + b3);
    m0 = std::max(m0, (a[6] + g1) + b4);
    m0 = std::max(m0, (a[7] + g0) + b6);
    float m1 = (a[0] + g3) + b1;
    m1 = std::max(m1, (a[1] + g2) + b3);
    m1 = std::max(m1, (a[2] + g2) + b4);
    m1 = std::max(m1, (a[3] + g3) + b6);
    m1 = std::max(m1, (a[4] + g3) + b0);
    m1 = std::max(m1, (a[5] + g2) + b2);
    m1 = std::max(m1, (a[6] + g2) + b5);
    m1 = std::max(m1, (a[7] + g3) + b7);
    app_out[i] = m0 - m1;
    beta_step(i);
  }
}

#if defined(RTOPEX_SIMD) && defined(__AVX2__)
namespace {

// std::max(x, y) returns x unless x < y, while _mm256_max_ps(a, b) returns
// a only when a > b: passing the operands swapped keeps the scalar kernels'
// tie (and NaN) order lane for lane.
inline __m256 max_as_std(__m256 x, __m256 y) { return _mm256_max_ps(y, x); }

// The step's (g0, g1) branch-metric pair in lanes 0 and 1; the upper lanes
// are left undefined, and every permutation below reads lanes 0..1 only.
inline __m256 load_gamma_pair(const float* g) {
  return _mm256_castps128_ps256(_mm_castsi128_ps(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(g))));
}

// max over the lanes of m0 minus max over the lanes of m1. The flat kernel
// folds the same 8 candidates left to right; a tree folds them to the same
// float because, for finite inputs, no candidate is NaN or -0 (see
// siso_decode_avx2), and floats that compare equal are then bit-identical.
inline float lane_max_difference(__m256 m0, __m256 m1) {
  __m256 r = _mm256_max_ps(_mm256_permute2f128_ps(m0, m1, 0x20),
                           _mm256_permute2f128_ps(m0, m1, 0x31));
  r = _mm256_max_ps(r, _mm256_permute_ps(r, _MM_SHUFFLE(1, 0, 3, 2)));
  r = _mm256_max_ps(r, _mm256_permute_ps(r, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtss_f32(_mm_sub_ss(_mm256_castps256_ps128(r),
                                  _mm256_extractf128_ps(r, 1)));
}

// State-parallel max-log-MAP: one ymm holds all 8 state metrics of a step.
// Bit-identical to siso_decode_flat, for three reasons:
//
//  * Two gamma values per step instead of four. g3 = -(a+b) is exactly
//    -g0, and x + g3 == x - g0 bit for bit (IEEE subtraction adds the
//    negation). g2 = b-a equals -(a-b) except in the sign of a zero result
//    (a == b gives +0 for both), so x + g2 and x - g1 can differ only when
//    x is -0. No metric ever is: the recursions start from +0 and kNegInf,
//    and a sum is -0 only when both addends are, so by induction every
//    alpha, beta and LLR candidate is a float other than -0.
//  * Each next-state vector is max(perm(v, src0) + G, perm(v, src1) - G)
//    with the flat kernel's operands in the flat kernel's order, and
//    max_as_std keeps std::max's operand order.
//  * The recursions are crossed: alpha runs forward from step 0 while beta
//    runs backward from step K+3, interleaved, until they meet at `mid`.
//    Then alpha emits the LLRs of [mid, K) from beta's kept successor
//    gathers, and beta emits those of [0, mid) from alpha's kept rows. Two
//    independent dependency chains share the core instead of one chain
//    waiting on its own permute-add-max latency. Every LLR still combines
//    (alpha[i] + gamma) + beta[i+1], the flat association order.
//
// Scratch: ws.gamma (2 per step), ws.alpha (alpha[0, mid), 8 per step) and
// ws.beta_perm (the input-0 and input-1 successor gathers of beta[i+1] for
// i in [mid, K+3), 16 per step), all grow-only.
void siso_decode_avx2(const float* sys_in, const float* par_in, std::size_t k,
                      DecodeWorkspace& ws, float* app_out) {
  const std::size_t steps = k + 3;
  const std::size_t mid = std::min(steps / 2, k);
  grow_buffer(ws.gamma, 2 * steps);
  grow_buffer(ws.alpha, 8 * mid);
  grow_buffer(ws.beta_perm, 16 * (steps - mid));
  float* g = ws.gamma.data();
  float* alpha_rows = ws.alpha.data();
  float* beta_rows = ws.beta_perm.data();

  // (g0, g1) = (a + b, a - b) per step, pair-interleaved.
  const __m256 half = _mm256_set1_ps(0.5f);
  std::size_t i = 0;
  for (; i + 8 <= steps; i += 8) {
    const __m256 a = _mm256_mul_ps(half, _mm256_loadu_ps(sys_in + i));
    const __m256 b = _mm256_mul_ps(half, _mm256_loadu_ps(par_in + i));
    const __m256 g0 = _mm256_add_ps(a, b);
    const __m256 g1 = _mm256_sub_ps(a, b);
    const __m256 lo = _mm256_unpacklo_ps(g0, g1);  // steps 0 1 | 4 5
    const __m256 hi = _mm256_unpackhi_ps(g0, g1);  // steps 2 3 | 6 7
    _mm256_storeu_ps(g + 2 * i, _mm256_permute2f128_ps(lo, hi, 0x20));
    _mm256_storeu_ps(g + 2 * i + 8, _mm256_permute2f128_ps(lo, hi, 0x31));
  }
  for (; i < steps; ++i) {
    const float a = 0.5f * sys_in[i];
    const float b = 0.5f * par_in[i];
    g[2 * i] = a + b;
    g[2 * i + 1] = a - b;
  }

  // Permutation tables of the transition map in siso_decode_flat. Forward:
  // next state s is reached from alpha_src0[s] (branch metric +G[s]) and
  // from alpha_src1[s] (-G[s]), where G = {g0, -g0, g1, -g1, -g1, g1, -g0,
  // g0}. Backward: state s reaches beta_src0[s] on input 0 (+H[s]) and
  // beta_src1[s] on input 1 (-H[s]), where H = {g0, g1, g1, g0, g0, g1, g1,
  // g0}; the LLR pairs the same gathers of beta[i+1] with alpha[i] +- H.
  const __m256i alpha_src0 = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
  const __m256i alpha_src1 = _mm256_setr_epi32(4, 4, 5, 5, 6, 6, 7, 7);
  const __m256i alpha_gamma = _mm256_setr_epi32(0, 0, 1, 1, 1, 1, 0, 0);
  const __m256 alpha_sign = _mm256_castsi256_ps(_mm256_setr_epi32(
      0, INT_MIN, 0, INT_MIN, INT_MIN, 0, INT_MIN, 0));
  const __m256i beta_src0 = _mm256_setr_epi32(0, 2, 5, 7, 1, 3, 4, 6);
  const __m256i beta_src1 = _mm256_setr_epi32(1, 3, 4, 6, 0, 2, 5, 7);
  const __m256i beta_gamma = _mm256_setr_epi32(0, 1, 1, 0, 0, 1, 1, 0);

  const auto alpha_next = [&](__m256 a, std::size_t step) {
    const __m256 ga = _mm256_xor_ps(
        _mm256_permutevar8x32_ps(load_gamma_pair(g + 2 * step), alpha_gamma),
        alpha_sign);
    return max_as_std(
        _mm256_add_ps(_mm256_permutevar8x32_ps(a, alpha_src0), ga),
        _mm256_sub_ps(_mm256_permutevar8x32_ps(a, alpha_src1), ga));
  };
  const auto beta_gamma_at = [&](std::size_t step) {
    return _mm256_permutevar8x32_ps(load_gamma_pair(g + 2 * step), beta_gamma);
  };
  const auto emit = [&](std::size_t step, __m256 a, __m256 gb, __m256 p0,
                        __m256 p1) {
    app_out[step] = lane_max_difference(
        _mm256_add_ps(_mm256_add_ps(a, gb), p0),
        _mm256_add_ps(_mm256_sub_ps(a, gb), p1));
  };

  const __m256 start = _mm256_setr_ps(0.0f, kNegInf, kNegInf, kNegInf,
                                      kNegInf, kNegInf, kNegInf, kNegInf);
  __m256 alpha = start;  // alpha[ia]
  __m256 beta = start;   // beta[ib]

  // Phase 1: alpha keeps its rows, beta keeps its successor gathers.
  const auto beta_keep = [&](__m256 b, std::size_t step) {
    const __m256 gb = beta_gamma_at(step);
    const __m256 p0 = _mm256_permutevar8x32_ps(b, beta_src0);
    const __m256 p1 = _mm256_permutevar8x32_ps(b, beta_src1);
    float* row = beta_rows + 16 * (step - mid);
    _mm256_storeu_ps(row, p0);
    _mm256_storeu_ps(row + 8, p1);
    return max_as_std(_mm256_add_ps(p0, gb), _mm256_sub_ps(p1, gb));
  };
  std::size_t ib = steps;
  for (std::size_t ia = 0; ia < mid; ++ia) {
    _mm256_storeu_ps(alpha_rows + 8 * ia, alpha);
    alpha = alpha_next(alpha, ia);
    beta = beta_keep(beta, --ib);
  }
  while (ib > mid) beta = beta_keep(beta, --ib);

  // Phase 2: each side finishes the other's half and emits its LLRs.
  const auto alpha_emit = [&](__m256 a, std::size_t step) {
    const float* row = beta_rows + 16 * (step - mid);
    emit(step, a, beta_gamma_at(step), _mm256_loadu_ps(row),
         _mm256_loadu_ps(row + 8));
    return alpha_next(a, step);
  };
  const auto beta_emit = [&](__m256 b, std::size_t step) {
    const __m256 gb = beta_gamma_at(step);
    const __m256 p0 = _mm256_permutevar8x32_ps(b, beta_src0);
    const __m256 p1 = _mm256_permutevar8x32_ps(b, beta_src1);
    emit(step, _mm256_loadu_ps(alpha_rows + 8 * step), gb, p0, p1);
    return max_as_std(_mm256_add_ps(p0, gb), _mm256_sub_ps(p1, gb));
  };
  std::size_t ia = mid;
  for (; ia < k && ib > 0; ++ia) {
    alpha = alpha_emit(alpha, ia);
    beta = beta_emit(beta, --ib);
  }
  for (; ia < k; ++ia) alpha = alpha_emit(alpha, ia);
  while (ib > 0) beta = beta_emit(beta, --ib);
}

}  // namespace
#endif  // RTOPEX_SIMD && __AVX2__

void siso_decode_block(const float* sys_in, const float* par_in,
                       std::size_t k, DecodeWorkspace& ws, float* app_out) {
#if defined(RTOPEX_SIMD) && defined(__AVX2__)
  siso_decode_avx2(sys_in, par_in, k, ws, app_out);
#else
  siso_decode_flat(sys_in, par_in, k, ws, app_out);
#endif
}

bool siso_simd_kernels() {
#if defined(RTOPEX_SIMD) && defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

}  // namespace detail

TurboCodeword TurboEncoder::encode(std::span<const std::uint8_t> bits) const {
  const std::size_t k = interleaver_.size();
  if (bits.size() != k)
    throw std::invalid_argument("TurboEncoder: input size != K");

  BitVector input(bits.begin(), bits.end());
  BitVector tail_sys1, tail_par1, tail_sys2, tail_par2;
  BitVector parity1 = rsc_encode(input, tail_sys1, tail_par1);

  BitVector interleaved(k);
  for (std::size_t i = 0; i < k; ++i) interleaved[i] = input[interleaver_.map(i)];
  BitVector parity2 = rsc_encode(interleaved, tail_sys2, tail_par2);

  // Tail packing (4 extra entries per stream, 12 tail bits total):
  //   systematic: x_K  x_K+1  x_K+2  x'_K
  //   parity1:    z_K  z_K+1  z_K+2  z'_K
  //   parity2:    x'_K+1  x'_K+2  z'_K+1  z'_K+2
  TurboCodeword cw;
  cw.systematic = std::move(input);
  cw.systematic.insert(cw.systematic.end(),
                       {tail_sys1[0], tail_sys1[1], tail_sys1[2], tail_sys2[0]});
  cw.parity1 = std::move(parity1);
  cw.parity1.insert(cw.parity1.end(),
                    {tail_par1[0], tail_par1[1], tail_par1[2], tail_par2[0]});
  cw.parity2 = std::move(parity2);
  cw.parity2.insert(cw.parity2.end(),
                    {tail_sys2[1], tail_sys2[2], tail_par2[1], tail_par2[2]});
  return cw;
}

TurboDecodeResult TurboDecoder::decode(
    std::span<const float> systematic, std::span<const float> parity1,
    std::span<const float> parity2,
    const std::function<bool(std::span<const std::uint8_t>)>& crc_check,
    unsigned max_iterations_override) const {
  // Value-semantics convenience wrapper; the hot path calls decode_into with
  // the caller's workspace directly.
  thread_local DecodeWorkspace ws;
  decode_into(systematic, parity1, parity2, ws, crc_check,
              max_iterations_override);
  TurboDecodeResult result;
  result.bits.assign(ws.bits.begin(),
                     ws.bits.begin() +
                         static_cast<std::ptrdiff_t>(interleaver_.size()));
  result.iterations = ws.iterations;
  result.early_terminated = ws.early_terminated;
  return result;
}

void TurboDecoder::decode_into(
    std::span<const float> systematic, std::span<const float> parity1,
    std::span<const float> parity2, DecodeWorkspace& ws,
    const std::function<bool(std::span<const std::uint8_t>)>& crc_check,
    unsigned max_iterations_override) const {
  const std::size_t k = interleaver_.size();
  if (systematic.size() != k + 4 || parity1.size() != k + 4 ||
      parity2.size() != k + 4)
    throw std::invalid_argument("TurboDecoder: bad stream length");

  grow_buffer(ws.sys1, k + 3);
  grow_buffer(ws.par1, k + 3);
  grow_buffer(ws.sys2, k + 3);
  grow_buffer(ws.par2, k + 3);
  grow_buffer(ws.extrinsic1, k);
  grow_buffer(ws.extrinsic2, k);
  grow_buffer(ws.app, k);
  grow_buffer(ws.bits, k);
  float* sys1 = ws.sys1.data();
  float* par1 = ws.par1.data();
  float* sys2 = ws.sys2.data();
  float* par2 = ws.par2.data();
  float* extrinsic1 = ws.extrinsic1.data();
  float* extrinsic2 = ws.extrinsic2.data();
  float* app = ws.app.data();
  std::uint8_t* bits = ws.bits.data();

  // Tail unpacking identical to decode_reference (see encoder packing).
  for (std::size_t i = 0; i < k; ++i) par1[i] = parity1[i];
  for (std::size_t i = 0; i < 3; ++i) {
    sys1[k + i] = systematic[k + i];
    par1[k + i] = parity1[k + i];
  }
  for (std::size_t i = 0; i < k; ++i) par2[i] = parity2[i];
  sys2[k] = systematic[k + 3];
  sys2[k + 1] = parity2[k];
  sys2[k + 2] = parity2[k + 1];
  par2[k] = parity1[k + 3];
  par2[k + 1] = parity2[k + 2];
  par2[k + 2] = parity2[k + 3];

  for (std::size_t i = 0; i < k; ++i) extrinsic2[i] = 0.0f;
  for (std::size_t i = 0; i < k; ++i) bits[i] = 0;
  ws.iterations = 0;
  ws.early_terminated = false;

  const std::size_t* fwd = interleaver_.forward_map().data();
  const unsigned lm = max_iterations_override == 0
                          ? max_iterations_
                          : std::min(max_iterations_, max_iterations_override);
  for (unsigned iter = 1; iter <= lm; ++iter) {
    // --- SISO 1 ---
    for (std::size_t i = 0; i < k; ++i)
      sys1[i] = systematic[i] + extrinsic2[i];
    detail::siso_decode_block(sys1, par1, k, ws, app);
    for (std::size_t i = 0; i < k; ++i) extrinsic1[i] = app[i] - sys1[i];

    // --- SISO 2 (interleaved domain, gathered via the precomputed map) ---
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t src = fwd[i];
      sys2[i] = systematic[src] + extrinsic1[src];
    }
    detail::siso_decode_block(sys2, par2, k, ws, app);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t src = fwd[i];
      extrinsic2[src] = app[i] - sys2[i];
      bits[src] = app[i] < 0.0f ? 1 : 0;
    }
    ws.iterations = iter;

    if (crc_check && crc_check(std::span<const std::uint8_t>(bits, k))) {
      ws.early_terminated = true;
      break;
    }
  }
}

TurboDecodeResult TurboDecoder::decode_reference(
    std::span<const float> systematic, std::span<const float> parity1,
    std::span<const float> parity2,
    const std::function<bool(std::span<const std::uint8_t>)>& crc_check,
    unsigned max_iterations_override) const {
  const std::size_t k = interleaver_.size();
  if (systematic.size() != k + 4 || parity1.size() != k + 4 ||
      parity2.size() != k + 4)
    throw std::invalid_argument("TurboDecoder: bad stream length");

  // Unpack tails (see encoder packing).
  // Decoder 1 operates on [sys(K), x_K..x_K+2] and [par1(K), z_K..z_K+2].
  LlrVector sys1(k + 3), par1(k + 3);
  for (std::size_t i = 0; i < k; ++i) {
    sys1[i] = systematic[i];
    par1[i] = parity1[i];
  }
  for (std::size_t i = 0; i < 3; ++i) {
    sys1[k + i] = systematic[k + i];
    par1[k + i] = parity1[k + i];
  }
  // Decoder 2 operates on interleaved systematic plus its own tails:
  // x'_K = systematic[k+3], x'_K+1/2 = parity2[k], parity2[k+1];
  // z'_K = parity1[k+3], z'_K+1/2 = parity2[k+2], parity2[k+3].
  LlrVector sys2(k + 3), par2(k + 3);
  for (std::size_t i = 0; i < k; ++i) par2[i] = parity2[i];
  sys2[k] = systematic[k + 3];
  sys2[k + 1] = parity2[k];
  sys2[k + 2] = parity2[k + 1];
  par2[k] = parity1[k + 3];
  par2[k + 1] = parity2[k + 2];
  par2[k + 2] = parity2[k + 3];

  LlrVector extrinsic2(k, 0.0f);  // from decoder 2, deinterleaved
  TurboDecodeResult result;
  result.bits.assign(k, 0);

  const unsigned lm = max_iterations_override == 0
                          ? max_iterations_
                          : std::min(max_iterations_, max_iterations_override);
  for (unsigned iter = 1; iter <= lm; ++iter) {
    // --- SISO 1 ---
    for (std::size_t i = 0; i < k; ++i)
      sys1[i] = systematic[i] + extrinsic2[i];
    const LlrVector app1 = siso_decode(sys1, par1, k);
    LlrVector extrinsic1(k);
    for (std::size_t i = 0; i < k; ++i)
      extrinsic1[i] = app1[i] - sys1[i];

    // --- SISO 2 (interleaved domain) ---
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t src = interleaver_.map(i);
      sys2[i] = systematic[src] + extrinsic1[src];
    }
    const LlrVector app2 = siso_decode(sys2, par2, k);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t src = interleaver_.map(i);
      extrinsic2[src] = app2[i] - sys2[i];
    }

    // Hard decision from decoder 2's a-posteriori, deinterleaved.
    for (std::size_t i = 0; i < k; ++i)
      result.bits[interleaver_.map(i)] = app2[i] < 0.0f ? 1 : 0;
    result.iterations = iter;

    if (crc_check && crc_check(result.bits)) {
      result.early_terminated = true;
      break;
    }
  }
  return result;
}

}  // namespace rtopex::phy
