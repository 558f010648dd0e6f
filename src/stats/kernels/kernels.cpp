#include "stats/kernels/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "stats/kernels/kernels_internal.hpp"
#include "support/log.hpp"

namespace ss::stats::kernels {
namespace internal {

void BatchedMacScalar(const double* u, std::size_t n, const double* zblock,
                      std::size_t count, double* out) {
  std::size_t r = 0;
  // Four replicates per pass: each contribution is loaded once and feeds
  // four independent accumulators, which also hides the FP add latency
  // the single-accumulator dot product serializes on. The patient-major
  // Z layout puts the four replicates' multipliers for patient i in the
  // four adjacent slots at zblock[i*count + r].
  for (; r + 4 <= count; r += 4) {
    double acc0 = 0.0;
    double acc1 = 0.0;
    double acc2 = 0.0;
    double acc3 = 0.0;
    const double* z = zblock + r;
    for (std::size_t i = 0; i < n; ++i, z += count) {
      const double ui = u[i];
      acc0 += z[0] * ui;
      acc1 += z[1] * ui;
      acc2 += z[2] * ui;
      acc3 += z[3] * ui;
    }
    out[r + 0] = acc0;
    out[r + 1] = acc1;
    out[r + 2] = acc2;
    out[r + 3] = acc3;
  }
  for (; r < count; ++r) {
    const double* z = zblock + r;
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i, z += count) acc += z[0] * u[i];
    out[r] = acc;
  }
}

void CoxScanScalar(const std::uint8_t* event, const std::uint8_t* genotypes,
                   const double* prefix, const std::uint32_t* prefix_end,
                   std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (event[i] == 0) {
      out[i] = 0.0;  // censored patients contribute 0
      continue;
    }
    const double a = prefix[prefix_end[i]];
    const double b = static_cast<double>(prefix_end[i]);
    out[i] = static_cast<double>(genotypes[i]) - a / b;
  }
}

void SkatFoldScalar(const double* scores, std::size_t count, double weight_sq,
                    double* acc) {
  for (std::size_t r = 0; r < count; ++r) {
    const double squared = scores[r] * scores[r];
    acc[r] += weight_sq * squared;
  }
}

void SkatBurdenFoldScalar(const double* scores, std::size_t count,
                          double weight, double weight_sq, double* skat,
                          double* burden) {
  for (std::size_t r = 0; r < count; ++r) {
    const double s = scores[r];
    skat[r] += weight_sq * (s * s);
    burden[r] += weight * s;
  }
}

void GenotypeMacScalar(const std::uint8_t* dosages, std::size_t n,
                       const double* scaled, std::size_t count, double* out) {
  std::fill(out, out + count, 0.0);
  std::size_t offsets[kGenotypeChunk];
  for (std::size_t begin = 0; begin < n; begin += kGenotypeChunk) {
    const std::size_t m = GenotypeRowOffsets(
        dosages, begin, std::min(n, begin + kGenotypeChunk), n, count,
        offsets);
    std::size_t r = 0;
    // Four replicates per pass: each row offset feeds four accumulators.
    for (; r + 4 <= count; r += 4) {
      double acc0 = out[r + 0];
      double acc1 = out[r + 1];
      double acc2 = out[r + 2];
      double acc3 = out[r + 3];
      for (std::size_t k = 0; k < m; ++k) {
        const double* row = scaled + offsets[k] + r;
        acc0 += row[0];
        acc1 += row[1];
        acc2 += row[2];
        acc3 += row[3];
      }
      out[r + 0] = acc0;
      out[r + 1] = acc1;
      out[r + 2] = acc2;
      out[r + 3] = acc3;
    }
    AddRowsScalar(scaled + r, offsets, m, count - r, out + r);
  }
}

const KernelTable kScalarTable = {
    &BatchedMacScalar,
    &CoxScanScalar,
    &SkatFoldScalar,
    &SkatBurdenFoldScalar,
    &GenotypeMacScalar,
};

}  // namespace internal

namespace {

// -1 = not yet initialized; otherwise a DispatchLevel value.
std::atomic<int> g_level{-1};

DispatchLevel ClampToSupported(DispatchLevel level, const char* origin) {
  const DispatchLevel best = BestSupportedLevel();
  if (static_cast<int>(level) <= static_cast<int>(best)) return level;
  SS_LOG(kWarn, "kernels") << origin << " requested "
                           << DispatchLevelName(level)
                           << " but this CPU supports at most "
                           << DispatchLevelName(best) << "; clamping";
  return best;
}

DispatchLevel InitialLevel() {
  const char* env = std::getenv("SS_KERNEL");
  if (env != nullptr && env[0] != '\0') {
    Result<DispatchLevel> parsed = ParseDispatchLevel(env);
    if (parsed.ok()) return ClampToSupported(parsed.value(), "SS_KERNEL");
    SS_LOG(kWarn, "kernels")
        << "ignoring unrecognized SS_KERNEL value '" << env
        << "' (expected scalar|sse2|avx2); using best supported level";
  }
  return BestSupportedLevel();
}

}  // namespace

const char* DispatchLevelName(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return "scalar";
    case DispatchLevel::kSse2:
      return "sse2";
    case DispatchLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Result<DispatchLevel> ParseDispatchLevel(const std::string& name) {
  if (name == "scalar") return DispatchLevel::kScalar;
  if (name == "sse2") return DispatchLevel::kSse2;
  if (name == "avx2") return DispatchLevel::kAvx2;
  return Status::InvalidArgument("unknown kernel dispatch level '" + name +
                                 "' (expected scalar|sse2|avx2)");
}

DispatchLevel BestSupportedLevel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return DispatchLevel::kAvx2;
  if (__builtin_cpu_supports("sse2")) return DispatchLevel::kSse2;
#endif
  return DispatchLevel::kScalar;
}

DispatchLevel ActiveDispatchLevel() {
  int level = g_level.load(std::memory_order_acquire);
  if (level < 0) {
    level = static_cast<int>(InitialLevel());
    int expected = -1;
    // First initializer wins; a concurrent SetDispatchLevel also wins.
    if (!g_level.compare_exchange_strong(expected, level,
                                         std::memory_order_acq_rel)) {
      level = expected;
    }
  }
  return static_cast<DispatchLevel>(level);
}

DispatchLevel SetDispatchLevel(DispatchLevel level) {
  const DispatchLevel actual = ClampToSupported(level, "SetDispatchLevel");
  g_level.store(static_cast<int>(actual), std::memory_order_release);
  return actual;
}

const KernelTable& ActiveKernels() { return KernelsFor(ActiveDispatchLevel()); }

const KernelTable& KernelsFor(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return internal::kScalarTable;
    case DispatchLevel::kSse2:
      return internal::kSse2Table;
    case DispatchLevel::kAvx2:
      return internal::kAvx2Table;
  }
  return internal::kScalarTable;
}

}  // namespace ss::stats::kernels
