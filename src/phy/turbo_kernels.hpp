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
// receives k a-posteriori LLRs. The *_batch kernels take lane-major rows
// of kTurboBatchLanes floats per step ([step][lane]) and write app_out the
// same way. All scratch comes from grow-only DecodeWorkspace fields.
#pragma once

#include <cstddef>

#include "phy/workspace.hpp"

namespace rtopex::phy::detail {

/// The scalar kernels: the only path in scalar and NEON builds, and the
/// oracle the SIMD kernels are tested against.
void siso_decode_flat(const float* sys_in, const float* par_in, std::size_t k,
                      DecodeWorkspace& ws, float* app_out);
void siso_decode_flat_batch(const float* sys_in, const float* par_in,
                            std::size_t k, DecodeWorkspace& ws,
                            float* app_out);

/// The kernels TurboDecoder::decode_into / decode_batch_into run: the AVX2
/// kernels when the PHY is built with RTOPEX_SIMD for an AVX2 target, the
/// flat kernels otherwise. Their LLRs are bit-identical to the flat ones.
void siso_decode_block(const float* sys_in, const float* par_in,
                       std::size_t k, DecodeWorkspace& ws, float* app_out);
void siso_decode_batch(const float* sys_in, const float* par_in,
                       std::size_t k, DecodeWorkspace& ws, float* app_out);

/// True when siso_decode_block / siso_decode_batch are the AVX2 kernels.
bool siso_simd_kernels();

}  // namespace rtopex::phy::detail
