// Runtime-dispatched compute kernels for the resampling hot paths.
//
// The loops that dominate resampling wall-clock — the factored Monte
// Carlo genotype sum, the batched multiply-accumulate over contributions,
// the Cox score contribution scan, and the per-set SKAT weighted folds —
// are routed through a function-pointer
// table selected once per process from the best instruction set the CPU
// supports (scalar / SSE2 / AVX2). Every SIMD variant preserves the
// scalar kernel's per-element accumulation order bit for bit: lanes map
// to *replicates*, never to patients, so each replicate's accumulator
// still sums patients in ascending order and `resampling.result_hash`
// is invariant to the dispatch level (see docs/KERNELS.md).
//
// The level can be forced with the SS_KERNEL environment variable
// (scalar|sse2|avx2) or programmatically via SetDispatchLevel (the CLI
// and benches expose this as `kernel=`). Requests above what the CPU
// supports clamp down with a warning rather than fault.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "support/status.hpp"

namespace ss::stats::kernels {

/// Instruction-set tiers, ordered. Numeric values are stable: they are
/// exported through the `kernel.dispatch` counter and run-metrics JSON.
enum class DispatchLevel : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Stable lowercase name ("scalar", "sse2", "avx2").
const char* DispatchLevelName(DispatchLevel level);

/// Parses a name as accepted by SS_KERNEL / `kernel=`.
Result<DispatchLevel> ParseDispatchLevel(const std::string& name);

/// Best level this CPU can execute.
DispatchLevel BestSupportedLevel();

/// The level in effect. Initialized lazily on first use: SS_KERNEL if
/// set (clamped to supported), else BestSupportedLevel().
DispatchLevel ActiveDispatchLevel();

/// Forces the dispatch level, clamping to BestSupportedLevel() with a
/// warning if the request is not executable here. Returns the level
/// actually installed. Not intended for use while kernels are running
/// on other threads; the CLI/benches call it during startup only.
DispatchLevel SetDispatchLevel(DispatchLevel level);

/// One entry per routed hot loop. All variants of a kernel are bitwise
/// equivalent; only their instruction mix differs.
struct KernelTable {
  /// out[r] = sum_i u[i] * zblock[i*count + r], summed in ascending i per
  /// replicate. `zblock` is patient-major (MonteCarloZBlock layout):
  /// patient i's `count` replicate multipliers are contiguous, so vector
  /// variants load replicate lanes directly — no transpose, no strided
  /// or gathered reads on the hot path.
  using BatchedMacFn = void (*)(const double* u, std::size_t n,
                                const double* zblock, std::size_t count,
                                double* out);
  /// Cox score contribution scan: for each patient i (sorted-time order
  /// arrays as produced by RiskSetIndex),
  ///   out[i] = event[i] ? genotypes[i] - prefix[prefix_end[i]] /
  ///                       double(prefix_end[i])
  ///          : +0.0
  /// `prefix` has n + 1 entries; prefix_end[i] >= 1 for every i.
  using CoxScanFn = void (*)(const std::uint8_t* event,
                             const std::uint8_t* genotypes,
                             const double* prefix,
                             const std::uint32_t* prefix_end, std::size_t n,
                             double* out);
  /// acc[r] += weight_sq * (scores[r] * scores[r]).
  using SkatFoldFn = void (*)(const double* scores, std::size_t count,
                              double weight_sq, double* acc);
  /// skat[r] += weight_sq * (scores[r] * scores[r]);
  /// burden[r] += weight * scores[r].
  using SkatBurdenFoldFn = void (*)(const double* scores, std::size_t count,
                                    double weight, double weight_sq,
                                    double* skat, double* burden);

  /// Factored Monte Carlo scores of one SNP:
  ///   out[r] = sum over l with dosages[l] != 0 of
  ///            scaled[(dosages[l] - 1)*n*count + l*count + r],
  /// summed in ascending l per replicate. `scaled` stacks two
  /// patient-major n×count blocks, the residual weights W and 2·W, so a
  /// row is prescaled by the dosage that selects it and the loop only
  /// adds; zero dosages are skipped. Dosages must be 0, 1 or 2.
  using GenotypeMacFn = void (*)(const std::uint8_t* dosages, std::size_t n,
                                 const double* scaled, std::size_t count,
                                 double* out);

  BatchedMacFn batched_mac = nullptr;
  CoxScanFn cox_scan = nullptr;
  SkatFoldFn skat_fold = nullptr;
  SkatBurdenFoldFn skat_burden_fold = nullptr;
  GenotypeMacFn genotype_mac = nullptr;
};

/// The table for the active dispatch level.
const KernelTable& ActiveKernels();

/// The table for a specific level (differential tests compare these).
/// Levels above BestSupportedLevel() must not be executed.
const KernelTable& KernelsFor(DispatchLevel level);

}  // namespace ss::stats::kernels
