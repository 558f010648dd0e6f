// AVX2 kernel variants. This TU is compiled with
//   -mavx2 -mno-fma -ffp-contract=off
// (see src/stats/CMakeLists.txt): AVX2 enables the 4-lane doubles used
// here, while FMA stays disabled so GCC can never contract a mul+add
// pair into a fused multiply-add — contraction changes rounding and
// would break the bitwise-equality contract with the scalar kernel.
//
// Bitwise contract: SIMD lanes map to replicates, never to patients.
// Each replicate keeps a single accumulator chain that sums patients in
// ascending order, exactly like the scalar kernel; elementwise IEEE
// mul/add/sub/div round identically in scalar and vector form.
#include "stats/kernels/kernels_internal.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace ss::stats::kernels::internal {
namespace {

void BatchedMacAvx2(const double* u, std::size_t n, const double* zblock,
                    std::size_t count, double* out) {
  std::size_t r = 0;
  // Sixteen replicates per pass: four independent 4-lane accumulator
  // chains hide the FP add latency a single chain serializes on. The
  // patient-major Z layout makes every z load a contiguous 4-lane
  // vector of replicate multipliers — one broadcast of u[i] plus four
  // load/mul/add triples per patient, no shuffles on the hot path.
  for (; r + 16 <= count; r += 16) {
    __m256d acc[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                      _mm256_setzero_pd(), _mm256_setzero_pd()};
    const double* z = zblock + r;
    for (std::size_t i = 0; i < n; ++i, z += count) {
      const __m256d ui = _mm256_broadcast_sd(u + i);
      for (int g = 0; g < 4; ++g) {
        const __m256d lanes = _mm256_loadu_pd(z + 4 * g);
        acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(lanes, ui));
      }
    }
    for (int g = 0; g < 4; ++g) _mm256_storeu_pd(out + r + 4 * g, acc[g]);
  }
  // Four-replicate blocks, then the scalar tail (same order as scalar).
  for (; r + 4 <= count; r += 4) {
    __m256d acc = _mm256_setzero_pd();
    const double* z = zblock + r;
    for (std::size_t i = 0; i < n; ++i, z += count) {
      acc = _mm256_add_pd(
          acc, _mm256_mul_pd(_mm256_loadu_pd(z), _mm256_broadcast_sd(u + i)));
    }
    _mm256_storeu_pd(out + r, acc);
  }
  for (; r < count; ++r) {
    const double* z = zblock + r;
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i, z += count) acc += z[0] * u[i];
    out[r] = acc;
  }
}

void CoxScanAvx2(const std::uint8_t* event, const std::uint8_t* genotypes,
                 const double* prefix, const std::uint32_t* prefix_end,
                 std::size_t n, double* out) {
  const __m128i zero = _mm_setzero_si128();
  std::size_t i = 0;
  // Four patients per pass. The risk-set sums come from a gather over
  // the prefix array; censored lanes are computed anyway (prefix_end is
  // always >= 1, so the divide is safe) and masked to +0.0 afterwards,
  // matching the scalar kernel's zero-filled output.
  for (; i + 4 <= n; i += 4) {
    const __m128i pe =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(prefix_end + i));
    // Masked gather with an explicit all-ones mask: same instruction as
    // the plain form, but avoids the _mm256_undefined_pd() source that
    // trips GCC 12's -Wmaybe-uninitialized under -Werror.
    const __m256d a = _mm256_mask_i32gather_pd(
        _mm256_setzero_pd(), prefix, pe,
        _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
    const __m256d b = _mm256_cvtepi32_pd(pe);
    std::uint32_t gword;
    std::memcpy(&gword, genotypes + i, sizeof(gword));
    const __m256d g = _mm256_cvtepi32_pd(
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(gword))));
    std::uint32_t eword;
    std::memcpy(&eword, event + i, sizeof(eword));
    const __m128i e32 =
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(eword)));
    const __m256d censored =
        _mm256_castsi256_pd(_mm256_cvtepi32_epi64(_mm_cmpeq_epi32(e32, zero)));
    const __m256d contrib = _mm256_sub_pd(g, _mm256_div_pd(a, b));
    _mm256_storeu_pd(out + i, _mm256_andnot_pd(censored, contrib));
  }
  if (i < n) CoxScanScalar(event + i, genotypes + i, prefix, prefix_end + i,
                           n - i, out + i);
}

void SkatFoldAvx2(const double* scores, std::size_t count, double weight_sq,
                  double* acc) {
  const __m256d w = _mm256_set1_pd(weight_sq);
  std::size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const __m256d s = _mm256_loadu_pd(scores + r);
    const __m256d term = _mm256_mul_pd(w, _mm256_mul_pd(s, s));
    _mm256_storeu_pd(acc + r, _mm256_add_pd(_mm256_loadu_pd(acc + r), term));
  }
  if (r < count) SkatFoldScalar(scores + r, count - r, weight_sq, acc + r);
}

void SkatBurdenFoldAvx2(const double* scores, std::size_t count, double weight,
                        double weight_sq, double* skat, double* burden) {
  const __m256d w = _mm256_set1_pd(weight);
  const __m256d wsq = _mm256_set1_pd(weight_sq);
  std::size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const __m256d s = _mm256_loadu_pd(scores + r);
    _mm256_storeu_pd(
        skat + r, _mm256_add_pd(_mm256_loadu_pd(skat + r),
                                _mm256_mul_pd(wsq, _mm256_mul_pd(s, s))));
    _mm256_storeu_pd(burden + r, _mm256_add_pd(_mm256_loadu_pd(burden + r),
                                               _mm256_mul_pd(w, s)));
  }
  if (r < count) {
    SkatBurdenFoldScalar(scores + r, count - r, weight, weight_sq, skat + r,
                         burden + r);
  }
}

/// out[0 .. 4·kVectors) += the `m` rows at `offsets`, kVectors
/// independent 4-lane chains.
template <int kVectors>
void AddRowsAvx2(const double* scaled, const std::size_t* offsets,
                 std::size_t m, double* out) {
  __m256d acc[kVectors];
  for (int g = 0; g < kVectors; ++g) acc[g] = _mm256_loadu_pd(out + 4 * g);
  for (std::size_t k = 0; k < m; ++k) {
    const double* row = scaled + offsets[k];
    for (int g = 0; g < kVectors; ++g) {
      acc[g] = _mm256_add_pd(acc[g], _mm256_loadu_pd(row + 4 * g));
    }
  }
  for (int g = 0; g < kVectors; ++g) _mm256_storeu_pd(out + 4 * g, acc[g]);
}

void GenotypeMacAvx2(const std::uint8_t* dosages, std::size_t n,
                     const double* scaled, std::size_t count, double* out) {
  std::fill(out, out + count, 0.0);
  std::size_t offsets[kGenotypeChunk];
  for (std::size_t begin = 0; begin < n; begin += kGenotypeChunk) {
    const std::size_t m = GenotypeRowOffsets(
        dosages, begin, std::min(n, begin + kGenotypeChunk), n, count,
        offsets);
    std::size_t r = 0;
    // 32 replicates (eight chains) per pass over the offsets, then 16 and
    // 4, then the scalar tail.
    for (; r + 32 <= count; r += 32) {
      AddRowsAvx2<8>(scaled + r, offsets, m, out + r);
    }
    for (; r + 16 <= count; r += 16) {
      AddRowsAvx2<4>(scaled + r, offsets, m, out + r);
    }
    for (; r + 4 <= count; r += 4) {
      AddRowsAvx2<1>(scaled + r, offsets, m, out + r);
    }
    AddRowsScalar(scaled + r, offsets, m, count - r, out + r);
  }
}

}  // namespace

const KernelTable kAvx2Table = {
    &BatchedMacAvx2,
    &CoxScanAvx2,
    &SkatFoldAvx2,
    &SkatBurdenFoldAvx2,
    &GenotypeMacAvx2,
};

}  // namespace ss::stats::kernels::internal

#else  // !defined(__AVX2__)

namespace ss::stats::kernels::internal {

const KernelTable kAvx2Table = kScalarTable;

}  // namespace ss::stats::kernels::internal

#endif
