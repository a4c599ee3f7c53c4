// Internal header: the max-log-MAP SISO kernels behind TurboDecoder.
//
// Not part of the public PHY API. It exists so the kernel differential
// tests (tests/phy/test_kernels.cpp) and the SISO micro-benchmarks
// (bench/micro_phy.cpp) can call each kernel directly and compare the
// a-posteriori LLRs bit for bit, instead of only the hard decisions the
// public decoder exposes.
//
// Every kernel decodes one constituent code of block size k: `sys_in` and
// `par_in` hold k + 3 trellis steps (data plus termination), `app_out`
// receives k a-posteriori LLRs. All scratch comes from grow-only
// DecodeWorkspace fields.
#pragma once

#include <cstddef>

#include "phy/workspace.hpp"

namespace rtopex::phy::detail {

/// The scalar kernel: the only path in scalar and NEON builds, and the
/// oracle the SIMD kernel is tested against.
void siso_decode_flat(const float* sys_in, const float* par_in, std::size_t k,
                      DecodeWorkspace& ws, float* app_out);

/// The kernel TurboDecoder::decode_into runs: the AVX2 kernel when the PHY
/// is built with RTOPEX_SIMD for an AVX2 target, the flat kernel otherwise.
/// Its LLRs are bit-identical to the flat one's.
void siso_decode_block(const float* sys_in, const float* par_in,
                       std::size_t k, DecodeWorkspace& ws, float* app_out);

/// True when siso_decode_block is the AVX2 kernel.
bool siso_simd_kernels();

}  // namespace rtopex::phy::detail
