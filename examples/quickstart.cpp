// Quickstart: the 60-second tour of SparkScore-C++.
//
// Generates a small synthetic GWAS study (the paper's Section III model),
// stages it in the mini-DFS, runs the SKAT pipeline (Algorithm 1) on a
// simulated 6-node cluster, estimates per-gene p-values with Lin's Monte
// Carlo resampling (Algorithm 3), and prints the top hits.
//
//   ./quickstart
#include <cstdio>

#include "core/record_traits.hpp"
#include "core/sparkscore.hpp"

int main() {
  using namespace ss;

  // 1. A mini-DFS standing in for HDFS: 4 data nodes, 2-way replication.
  dfs::MiniDfs dfs({.num_nodes = 4, .replication = 2, .block_lines = 64});

  // 2. Synthetic study per the paper's Section III generative model.
  simdata::GeneratorConfig generator;
  generator.num_patients = 500;   // n
  generator.num_snps = 2000;      // m
  generator.num_sets = 100;       // K genes
  generator.seed = 2016;
  const auto paths = simdata::GenerateToDfs(dfs, "/quickstart", generator);
  if (!paths.ok()) {
    std::fprintf(stderr, "staging failed: %s\n",
                 paths.status().ToString().c_str());
    return 1;
  }
  std::printf("Staged study: %u patients x %u SNPs in %u gene sets (%llu "
              "bytes across DFS replicas)\n",
              generator.num_patients, generator.num_snps, generator.num_sets,
              static_cast<unsigned long long>(dfs.TotalBytesStored()));

  // 3. An engine context simulating the paper's 6 x m3.2xlarge EMR cluster.
  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(6);
  options.seed = 2016;
  engine::EngineContext ctx(options, &dfs);

  // 4. Open the study through Algorithm 1's dataflow.
  core::PipelineConfig config;
  config.seed = 2016;
  auto pipeline = core::SkatPipeline::Open(ctx, paths.value(), config);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 pipeline.status().ToString().c_str());
    return 1;
  }

  // 5. Monte Carlo resampling (Algorithm 3), 500 replicates. Replicates
  // run in batches of 100: each batch is ONE engine pass over the cached
  // genotypes; results are bitwise identical for any batch size (batch 1
  // recovers one-pass-per-replicate scheduling).
  core::ResamplingRequest request;
  request.method = core::ResamplingMethod::kMonteCarlo;
  request.replicates = 500;
  request.batch_size = 100;
  const core::ResamplingResult result =
      core::RunResampling(pipeline.value(), request).scores;

  // 6. Report.
  std::printf("\n%s\n", core::SummarizeResult(result).c_str());
  std::fputs(core::FormatTopHits(result, 10).c_str(), stdout);

  const auto cache = ctx.cache().stats();
  std::printf("\nEngine: %llu tasks, genotype cache %llu hits / %llu misses "
              "(Algorithm 3 reused the cached genotypes %llu times)\n",
              static_cast<unsigned long long>(ctx.tasks_completed()),
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.hits));
  return 0;
}
