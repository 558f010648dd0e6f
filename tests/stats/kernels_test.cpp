// Differential battery for the runtime-dispatched SIMD kernels: every
// dispatch level this CPU can execute must produce output bitwise equal
// to the scalar reference kernel, on random inputs across awkward sizes
// (vector-width multiples, remainders, tiny cases).
#include "stats/kernels/kernels.hpp"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stats/cox_score.hpp"
#include "stats/resampling.hpp"
#include "stats/survival.hpp"
#include "support/rng.hpp"

namespace ss::stats {
namespace {

using kernels::DispatchLevel;

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Forces a dispatch level for one test, restoring the previous level on
/// scope exit (the level is process-global).
class ScopedDispatchLevel {
 public:
  explicit ScopedDispatchLevel(DispatchLevel level)
      : saved_(kernels::ActiveDispatchLevel()) {
    kernels::SetDispatchLevel(level);
  }
  ~ScopedDispatchLevel() { kernels::SetDispatchLevel(saved_); }

 private:
  DispatchLevel saved_;
};

std::vector<DispatchLevel> ExecutableLevels() {
  std::vector<DispatchLevel> levels;
  const int best = static_cast<int>(kernels::BestSupportedLevel());
  for (int level = 0; level <= best; ++level) {
    levels.push_back(static_cast<DispatchLevel>(level));
  }
  return levels;
}

std::vector<double> RandomDoubles(Rng& rng, std::size_t count) {
  std::vector<double> values(count);
  for (double& v : values) v = rng.NextDouble() * 8.0 - 4.0;
  return values;
}

TEST(KernelDispatchTest, ParseAndNameRoundTrip) {
  for (const char* name : {"scalar", "sse2", "avx2"}) {
    Result<DispatchLevel> level = kernels::ParseDispatchLevel(name);
    ASSERT_TRUE(level.ok()) << name;
    EXPECT_STREQ(kernels::DispatchLevelName(level.value()), name);
  }
  EXPECT_FALSE(kernels::ParseDispatchLevel("avx512").ok());
  EXPECT_FALSE(kernels::ParseDispatchLevel("").ok());
}

TEST(KernelDispatchTest, SetClampsToSupportedAndSticks) {
  const DispatchLevel saved = kernels::ActiveDispatchLevel();
  const DispatchLevel installed =
      kernels::SetDispatchLevel(DispatchLevel::kAvx2);
  EXPECT_LE(static_cast<int>(installed),
            static_cast<int>(kernels::BestSupportedLevel()));
  EXPECT_EQ(kernels::ActiveDispatchLevel(), installed);
  EXPECT_EQ(kernels::SetDispatchLevel(DispatchLevel::kScalar),
            DispatchLevel::kScalar);
  EXPECT_EQ(kernels::ActiveDispatchLevel(), DispatchLevel::kScalar);
  kernels::SetDispatchLevel(saved);
}

TEST(KernelDispatchTest, ActiveLevelDefaultsToSupported) {
  EXPECT_LE(static_cast<int>(kernels::ActiveDispatchLevel()),
            static_cast<int>(kernels::BestSupportedLevel()));
}

TEST(KernelDifferentialTest, BatchedMacBitwiseEqualAcrossLevels) {
  const kernels::KernelTable& scalar =
      kernels::KernelsFor(DispatchLevel::kScalar);
  Rng rng(20160801);
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u, 33u, 67u}) {
    for (std::size_t count : {1u, 2u, 3u, 4u, 5u, 8u, 15u, 16u, 17u, 37u}) {
      const std::vector<double> u = RandomDoubles(rng, n);
      const std::vector<double> zblock = RandomDoubles(rng, n * count);
      std::vector<double> expected(count);
      scalar.batched_mac(u.data(), n, zblock.data(), count, expected.data());
      for (DispatchLevel level : ExecutableLevels()) {
        std::vector<double> got(count, -1.0);
        kernels::KernelsFor(level).batched_mac(u.data(), n, zblock.data(),
                                               count, got.data());
        for (std::size_t r = 0; r < count; ++r) {
          ASSERT_EQ(Bits(got[r]), Bits(expected[r]))
              << "level=" << kernels::DispatchLevelName(level) << " n=" << n
              << " count=" << count << " r=" << r;
        }
      }
    }
  }
}

TEST(KernelDifferentialTest, GenotypeMacBitwiseEqualAcrossLevels) {
  // Every level against the definition: each lane adds the dosage-selected
  // row of [W ; 2W] for the nonzero dosages, in ascending patient order.
  // n crosses the 256-patient compaction chunk; counts cover every lane
  // block and tail.
  Rng rng(20160806);
  for (std::size_t n : {1u, 2u, 5u, 64u, 255u, 256u, 257u, 600u}) {
    for (std::size_t count :
         {1u, 2u, 3u, 4u, 5u, 15u, 16u, 17u, 31u, 32u, 33u, 37u, 64u}) {
      std::vector<std::uint8_t> dosages(n);
      for (std::uint8_t& d : dosages) {
        d = static_cast<std::uint8_t>(rng.NextBounded(3));
      }
      std::vector<double> scaled = RandomDoubles(rng, n * count);
      scaled.resize(2 * n * count);
      for (std::size_t k = 0; k < n * count; ++k) {
        scaled[n * count + k] = 2.0 * scaled[k];
      }
      std::vector<double> expected(count, 0.0);
      for (std::size_t l = 0; l < n; ++l) {
        if (dosages[l] == 0) continue;
        const double* row = scaled.data() + (dosages[l] - 1) * n * count +
                            l * count;
        for (std::size_t r = 0; r < count; ++r) expected[r] += row[r];
      }
      for (DispatchLevel level : ExecutableLevels()) {
        std::vector<double> got(count, -1.0);
        kernels::KernelsFor(level).genotype_mac(dosages.data(), n,
                                                scaled.data(), count,
                                                got.data());
        for (std::size_t r = 0; r < count; ++r) {
          ASSERT_EQ(Bits(got[r]), Bits(expected[r]))
              << "level=" << kernels::DispatchLevelName(level) << " n=" << n
              << " count=" << count << " r=" << r;
        }
      }
    }
  }
}

TEST(KernelDifferentialTest, CoxScanBitwiseEqualAcrossLevels) {
  const kernels::KernelTable& scalar =
      kernels::KernelsFor(DispatchLevel::kScalar);
  Rng rng(20160802);
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 16u, 31u, 64u, 129u}) {
    std::vector<std::uint8_t> event(n);
    std::vector<std::uint8_t> genotypes(n);
    std::vector<std::uint32_t> prefix_end(n);
    std::vector<double> prefix(n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      event[i] = static_cast<std::uint8_t>(rng.NextBounded(2));
      genotypes[i] = static_cast<std::uint8_t>(rng.NextBounded(3));
      prefix_end[i] = static_cast<std::uint32_t>(1 + rng.NextBounded(n));
    }
    for (std::size_t k = 0; k < n; ++k) {
      prefix[k + 1] = prefix[k] + static_cast<double>(rng.NextBounded(3));
    }
    std::vector<double> expected(n);
    scalar.cox_scan(event.data(), genotypes.data(), prefix.data(),
                    prefix_end.data(), n, expected.data());
    for (DispatchLevel level : ExecutableLevels()) {
      std::vector<double> got(n, -1.0);
      kernels::KernelsFor(level).cox_scan(event.data(), genotypes.data(),
                                          prefix.data(), prefix_end.data(), n,
                                          got.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(got[i]), Bits(expected[i]))
            << "level=" << kernels::DispatchLevelName(level) << " n=" << n
            << " i=" << i;
      }
    }
  }
}

TEST(KernelDifferentialTest, SkatFoldsBitwiseEqualAcrossLevels) {
  const kernels::KernelTable& scalar =
      kernels::KernelsFor(DispatchLevel::kScalar);
  Rng rng(20160803);
  for (std::size_t count : {1u, 2u, 3u, 4u, 5u, 8u, 15u, 16u, 17u, 64u}) {
    const std::vector<double> scores = RandomDoubles(rng, count);
    const std::vector<double> seed_acc = RandomDoubles(rng, count);
    const double w = 0.25 + rng.NextDouble();
    std::vector<double> expected_acc = seed_acc;
    scalar.skat_fold(scores.data(), count, w * w, expected_acc.data());
    std::vector<double> expected_skat = seed_acc;
    std::vector<double> expected_burden = seed_acc;
    scalar.skat_burden_fold(scores.data(), count, w, w * w,
                            expected_skat.data(), expected_burden.data());
    for (DispatchLevel level : ExecutableLevels()) {
      const kernels::KernelTable& table = kernels::KernelsFor(level);
      std::vector<double> acc = seed_acc;
      table.skat_fold(scores.data(), count, w * w, acc.data());
      std::vector<double> skat = seed_acc;
      std::vector<double> burden = seed_acc;
      table.skat_burden_fold(scores.data(), count, w, w * w, skat.data(),
                             burden.data());
      for (std::size_t r = 0; r < count; ++r) {
        ASSERT_EQ(Bits(acc[r]), Bits(expected_acc[r]))
            << "level=" << kernels::DispatchLevelName(level) << " r=" << r;
        ASSERT_EQ(Bits(skat[r]), Bits(expected_skat[r]))
            << "level=" << kernels::DispatchLevelName(level) << " r=" << r;
        ASSERT_EQ(Bits(burden[r]), Bits(expected_burden[r]))
            << "level=" << kernels::DispatchLevelName(level) << " r=" << r;
      }
    }
  }
}

TEST(KernelDifferentialTest, RoutedBatchedScoresMatchPerReplicateOracle) {
  // The public entry point, under every level: each batched score must be
  // bitwise equal to the serial one-replicate MAC.
  Rng rng(20160804);
  const std::size_t n = 61;
  const std::size_t count = 23;
  const std::vector<double> contributions = RandomDoubles(rng, n);
  const std::vector<double> zblock = RandomDoubles(rng, n * count);
  for (DispatchLevel level : ExecutableLevels()) {
    ScopedDispatchLevel guard(level);
    std::vector<double> scores;
    BatchedReplicateScores(contributions, zblock.data(), count, &scores);
    ASSERT_EQ(scores.size(), count);
    for (std::size_t r = 0; r < count; ++r) {
      // Patient-major extraction of replicate r's multipliers.
      std::vector<double> row(n);
      for (std::size_t i = 0; i < n; ++i) row[i] = zblock[i * count + r];
      ASSERT_EQ(Bits(scores[r]), Bits(MonteCarloReplicateScore(contributions, row)))
          << "level=" << kernels::DispatchLevelName(level) << " r=" << r;
    }
  }
}

TEST(KernelDifferentialTest, CoxContributionsMatchNaiveUnderEveryLevel) {
  // End-to-end through the real survival API: the routed scan must agree
  // with the O(n²) oracle at every dispatch level.
  Rng rng(20160805);
  const std::size_t n = 83;
  SurvivalData data;
  std::vector<std::uint8_t> genotypes(n);
  for (std::size_t i = 0; i < n; ++i) {
    data.time.push_back(1.0 + rng.NextDouble() * 9.0);
    data.event.push_back(static_cast<std::uint8_t>(rng.NextBounded(2)));
    genotypes[i] = static_cast<std::uint8_t>(rng.NextBounded(3));
  }
  const RiskSetIndex index(data);
  const std::vector<double> naive = CoxScoreContributionsNaive(data, genotypes);
  for (DispatchLevel level : ExecutableLevels()) {
    ScopedDispatchLevel guard(level);
    const std::vector<double> fast =
        CoxScoreContributions(data, index, genotypes);
    ASSERT_EQ(fast.size(), naive.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(fast[i], naive[i], 1e-12)
          << "level=" << kernels::DispatchLevelName(level) << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace ss::stats
