// Shared between the per-ISA kernel translation units. The scalar
// reference kernels live here so the SSE2/AVX2 TUs can fall back to
// them (for loop remainders, and wholesale when built for a target
// without the instruction set).
#pragma once

#include <cstddef>
#include <cstdint>

#include "stats/kernels/kernels.hpp"

namespace ss::stats::kernels::internal {

// Scalar reference kernels. These define the bitwise contract every
// SIMD variant must reproduce exactly.
void BatchedMacScalar(const double* u, std::size_t n, const double* zblock,
                      std::size_t count, double* out);
void CoxScanScalar(const std::uint8_t* event, const std::uint8_t* genotypes,
                   const double* prefix, const std::uint32_t* prefix_end,
                   std::size_t n, double* out);
void SkatFoldScalar(const double* scores, std::size_t count, double weight_sq,
                    double* acc);
void SkatBurdenFoldScalar(const double* scores, std::size_t count,
                          double weight, double weight_sq, double* skat,
                          double* burden);

void GenotypeMacScalar(const std::uint8_t* dosages, std::size_t n,
                       const double* scaled, std::size_t count, double* out);

// The genotype MAC walks the patients in chunks: the nonzero dosages of a
// chunk become row offsets into `scaled` (branch-free), then every lane
// block adds those rows onto its running sums in `out`. Storing a sum to
// `out` between chunks and reloading it is exact, so each lane still adds
// its rows in ascending patient order at every level.
inline constexpr std::size_t kGenotypeChunk = 256;

/// Offsets of the rows the nonzero dosages in [begin, end) select, in
/// ascending patient order; returns how many were written.
inline std::size_t GenotypeRowOffsets(const std::uint8_t* dosages,
                                      std::size_t begin, std::size_t end,
                                      std::size_t n, std::size_t count,
                                      std::size_t* offsets) {
  const std::size_t block = n * count;
  std::size_t m = 0;
  for (std::size_t l = begin; l < end; ++l) {
    const std::uint8_t d = dosages[l];
    offsets[m] = (d == 2 ? block : 0) + l * count;
    m += d != 0 ? 1 : 0;
  }
  return m;
}

/// out[r] += the `m` rows at `offsets`, one lane at a time (loop tails).
inline void AddRowsScalar(const double* scaled, const std::size_t* offsets,
                          std::size_t m, std::size_t lanes, double* out) {
  for (std::size_t r = 0; r < lanes; ++r) {
    double acc = out[r];
    for (std::size_t k = 0; k < m; ++k) acc += scaled[offsets[k] + r];
    out[r] = acc;
  }
}

// Defined in kernels.cpp / kernels_sse2.cpp / kernels_avx2.cpp. The
// SIMD tables degrade to scalar entries when their TU is compiled for a
// target without the instruction set (non-x86 builds).
extern const KernelTable kScalarTable;
extern const KernelTable kSse2Table;
extern const KernelTable kAvx2Table;

}  // namespace ss::stats::kernels::internal
