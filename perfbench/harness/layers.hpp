// The traced run's layer measurements. Every figure comes from the
// benchmark's own timers around the program's public entry points,
// replayed at the workload's shapes after the traced job, plus the
// program's counter registry; nothing inside src/ is instrumented.
#pragma once

#include <cstdint>
#include <string>

#include "workloads.hpp"

namespace perfbench {

struct LayerReplays {
  // Store-level entry points, single thread, over every genotype frame.
  double read_s = 0.0;  ///< GenotypeStore::ReadGenotypeFrame
  double read_bytes = 0.0;
  double decode_s = 0.0;  ///< DecodeGenotypePartition + 2-bit Unpack
  double decode_bytes = 0.0;  ///< packed frame bytes decoded
  double contributions_s = 0.0;  ///< ScoreEngine::Contributions
  double contribution_cells = 0.0;
  double mac_s = 0.0;  ///< BatchedReplicateScores at (n, batch)
  double macs = 0.0;
  double zblock_s = 0.0;  ///< One MonteCarloZBlock at (n, batch)

  // Pipeline entry points at the traced job's batch shapes.
  double score_block_s = 0.0;  ///< ComputeMonteCarloScoreBlock or
                               ///< ComputePermutationReplicate, all batches
  double fold_s = 0.0;         ///< per-set SKAT fold of every score block
  double gram_s = 0.0;         ///< CollectSetGramMatrices (hybrid screen)
  double spectrum_s = 0.0;     ///< NullSpectrumFromGram + SaddlepointPValue
};

/// Replays the store-level entry points over the staged store.
void ReplayStoreLayers(const std::string& store_path,
                       const ss::stats::Phenotype& phenotype,
                       std::uint64_t mc_seed, std::size_t batch,
                       LayerReplays* out);

/// Replays the pipeline-level entry points the traced job ran, at its
/// batch shapes, on the job's own (still cached) pipeline.
void ReplayPipelineLayers(ss::core::SkatPipeline& pipeline,
                          const WorkloadSpec& spec, const JobOutcome& job,
                          std::uint64_t mc_seed, LayerReplays* out);

}  // namespace perfbench
