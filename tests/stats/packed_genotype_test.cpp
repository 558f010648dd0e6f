// Unit tests for the 2-bit packed genotype block: lossless roundtrip,
// raw-byte fallback for out-of-range dosages, popcount allele counts, and
// the payload-size contract the cache byte accounting relies on.
#include "stats/kernels/packed_genotype.hpp"

#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace ss::stats {
namespace {

std::vector<std::uint8_t> RandomDosages(Rng& rng, std::size_t n,
                                        std::uint32_t bound) {
  std::vector<std::uint8_t> dosages(n);
  for (auto& d : dosages) d = static_cast<std::uint8_t>(rng.NextBounded(bound));
  return dosages;
}

TEST(PackedGenotypeTest, RoundTripsSmallDosagesPacked) {
  Rng rng(77001);
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 63u, 64u, 70u}) {
    const std::vector<std::uint8_t> dosages = RandomDosages(rng, n, 4);
    const PackedGenotypeBlock block = PackedGenotypeBlock::Pack(dosages);
    EXPECT_TRUE(block.packed()) << "n=" << n;
    EXPECT_EQ(block.size(), n);
    EXPECT_EQ(block.payload().size(), (n + 3) / 4) << "n=" << n;
    EXPECT_EQ(block.Unpack(), dosages) << "n=" << n;
  }
}

TEST(PackedGenotypeTest, FallsBackToRawBytesForLargeDosages) {
  std::vector<std::uint8_t> dosages = {0, 1, 2, 200, 3, 0};
  const PackedGenotypeBlock block = PackedGenotypeBlock::Pack(dosages);
  EXPECT_FALSE(block.packed());
  EXPECT_EQ(block.payload().size(), dosages.size());
  EXPECT_EQ(block.Unpack(), dosages);
}

TEST(PackedGenotypeTest, UnpackIntoReusesBuffer) {
  const std::vector<std::uint8_t> dosages = {2, 0, 1, 3, 3, 1, 0};
  const PackedGenotypeBlock block = PackedGenotypeBlock::Pack(dosages);
  std::vector<std::uint8_t> out(128, 0xff);
  block.UnpackInto(&out);
  EXPECT_EQ(out, dosages);
}

TEST(PackedGenotypeTest, AlleleCountMatchesDirectSum) {
  Rng rng(77002);
  for (std::size_t n : {0u, 1u, 3u, 4u, 7u, 8u, 31u, 32u, 33u, 129u}) {
    const std::vector<std::uint8_t> dosages = RandomDosages(rng, n, 4);
    const PackedGenotypeBlock block = PackedGenotypeBlock::Pack(dosages);
    const std::uint64_t expected =
        std::accumulate(dosages.begin(), dosages.end(), std::uint64_t{0});
    EXPECT_EQ(block.AlleleCount(), expected) << "n=" << n;
  }
  // Fallback path sums raw bytes.
  const std::vector<std::uint8_t> raw = {200, 1, 0, 5};
  EXPECT_EQ(PackedGenotypeBlock::Pack(raw).AlleleCount(), 206u);
}

TEST(PackedGenotypeTest, FromPayloadReconstructsEqualBlock) {
  const std::vector<std::uint8_t> dosages = {1, 2, 0, 3, 2, 2, 1, 0, 3};
  const PackedGenotypeBlock block = PackedGenotypeBlock::Pack(dosages);
  const PackedGenotypeBlock rebuilt = PackedGenotypeBlock::FromPayload(
      block.size(), block.packed(), block.payload());
  EXPECT_EQ(rebuilt, block);
  EXPECT_EQ(rebuilt.Unpack(), dosages);
}

TEST(PackedGenotypeTest, PackedPayloadIsQuarterOfUnpacked) {
  Rng rng(77003);
  const std::size_t n = 1000;
  const std::vector<std::uint8_t> dosages = RandomDosages(rng, n, 3);
  const PackedGenotypeBlock block = PackedGenotypeBlock::Pack(dosages);
  EXPECT_EQ(block.payload().size(), 250u);
}

}  // namespace
}  // namespace ss::stats
