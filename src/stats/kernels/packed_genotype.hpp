// 2-bit packed genotype storage, PLINK-.bed style: four dosages per
// byte, so a cached genotype partition costs ~4x fewer bytes
// under `cache_budget=`. Dosage codes 0..3 are stored directly in two
// bits (our simulated dosages are 0/1/2); a block containing any dosage
// above 3 falls back to raw byte storage so packing is always lossless.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ss::stats {

class PackedGenotypeBlock {
 public:
  PackedGenotypeBlock() = default;

  /// Packs a dosage vector. Lossless for any input: dosages that do not
  /// fit in two bits switch the whole block to raw byte storage.
  static PackedGenotypeBlock Pack(const std::vector<std::uint8_t>& dosages);

  /// Reassembles a block from its codec fields (see
  /// `core::Codec<PackedSnpRecord>`). `payload` must be the right size
  /// for (`size`, `packed`); violations surface in the codec's checks.
  static PackedGenotypeBlock FromPayload(std::uint32_t size, bool packed,
                                         std::vector<std::uint8_t> payload);

  /// Number of dosages stored (not bytes).
  std::size_t size() const { return size_; }

  /// False when the raw-byte fallback was taken.
  bool packed() const { return packed_; }

  /// The stored bytes: 2-bit crumbs (ceil(size/4) bytes, unused crumbs
  /// zero) when packed, one byte per dosage otherwise.
  const std::vector<std::uint8_t>& payload() const { return payload_; }

  /// Decodes back to one dosage per byte (LUT fast path, 4 at a time).
  std::vector<std::uint8_t> Unpack() const;
  void UnpackInto(std::vector<std::uint8_t>* out) const;

  /// Sum of all dosages. On packed blocks this is a popcount reduction
  /// over 64-bit words rather than a decode loop.
  std::uint64_t AlleleCount() const;

  bool operator==(const PackedGenotypeBlock&) const = default;

 private:
  std::uint32_t size_ = 0;
  bool packed_ = true;
  std::vector<std::uint8_t> payload_;
};

/// Packed counterpart of `simdata::SnpRecord`: the storage format for
/// genotype partitions in the cache.
struct PackedSnpRecord {
  std::uint32_t snp = 0;
  PackedGenotypeBlock genotypes;

  bool operator==(const PackedSnpRecord&) const = default;
};

}  // namespace ss::stats
