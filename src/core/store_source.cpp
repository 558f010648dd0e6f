#include "core/store_source.hpp"

#include <atomic>
#include <utility>

#include "core/record_traits.hpp"  // IWYU pragma: keep (ApproxBytes for PackedSnpRecord)
#include "engine/approx_bytes.hpp"
#include "engine/profile.hpp"
#include "simdata/store_codec.hpp"

namespace ss::core {

StoreGenotypeNode::StoreGenotypeNode(
    engine::EngineContext* ctx, std::shared_ptr<dfs::GenotypeStore> store,
    std::shared_ptr<const std::vector<std::uint8_t>> membership)
    : engine::Node<stats::PackedSnpRecord>(
          ctx, "genotypeStore(" + store->path() + ")",
          store->num_partitions(), {}),
      store_(std::move(store)),
      membership_(std::move(membership)) {
  // The prefetch lane materializes partitions of this node straight from
  // the mmap. The fetcher may outlive any single stage but not the node:
  // ~StoreGenotypeNode unregisters and drains before `this` dies.
  ctx_->cache().RegisterFetcher(
      id(), [this](std::uint32_t partition) -> engine::FetchedPartition {
        Result<std::vector<stats::PackedSnpRecord>> records =
            Materialize(partition);
        if (!records.ok()) return {};  // demand path surfaces the error
        auto value = std::make_shared<std::vector<stats::PackedSnpRecord>>(
            std::move(records).value());
        const std::uint64_t bytes = engine::ApproxBytesOfPartition(*value);
        return {std::move(value), bytes};
      });
}

StoreGenotypeNode::~StoreGenotypeNode() {
  ctx_->cache().UnregisterFetcher(id());
}

std::vector<stats::PackedSnpRecord> StoreGenotypeNode::ComputePartition(
    std::uint32_t index, engine::TaskContext&) {
  Result<std::vector<stats::PackedSnpRecord>> records = Materialize(index);
  if (!records.ok()) {
    // Retryable like a DFS read: the scheduler's attempts surface a
    // corrupt store as a job failure with the store diagnostic.
    throw engine::TaskFailure("genotype store read failed: " +
                              records.status().ToString());
  }
  return std::move(records).value();
}

Result<std::vector<stats::PackedSnpRecord>> StoreGenotypeNode::Materialize(
    std::uint32_t index) const {
  static std::atomic<std::uint64_t>& packed_bytes =
      engine::CounterRegistry::Global().Get("genotype.packed_bytes");
  static std::atomic<std::uint64_t>& unpacked_bytes =
      engine::CounterRegistry::Global().Get("genotype.unpacked_bytes");

  Result<std::vector<std::uint8_t>> payload = [&] {
    engine::PhaseTimer fetch_phase(engine::TaskPhase::kFetch);
    return store_->ReadGenotypeFrame(index);
  }();
  if (!payload.ok()) return payload.status();

  engine::PhaseTimer decode_phase(engine::TaskPhase::kDecode);
  Result<std::vector<stats::PackedSnpRecord>> decoded =
      simdata::DecodeGenotypePartition(payload.value());
  if (!decoded.ok()) return decoded.status();

  const std::vector<std::uint8_t>& member = *membership_;
  std::vector<stats::PackedSnpRecord> records;
  records.reserve(decoded.value().size());
  for (stats::PackedSnpRecord& record : decoded.value()) {
    if (record.snp >= member.size() || member[record.snp] == 0) continue;
    // Same byte accounting as the text path's pack step, so the run
    // report's packed/unpacked ratio stays comparable across sources.
    unpacked_bytes.fetch_add(record.genotypes.size(),
                             std::memory_order_relaxed);
    packed_bytes.fetch_add(record.genotypes.payload().size(),
                           std::memory_order_relaxed);
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace ss::core
