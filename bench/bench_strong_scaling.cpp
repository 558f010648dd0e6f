// Experiment C (first part) — strong scaling. Reproduces Figure 6 and
// Table VI: the same large-SNP Monte Carlo job on 6, 12, and 18
// m3.2xlarge nodes at 0/10/20 iterations.
//
// The paper's text claims the 18-node cluster is two orders of magnitude
// faster than 6 nodes at 20 iterations — far beyond the 3x slot ratio.
// The mechanism that produces such superlinear gaps on real Spark/EMR is
// aggregate cache capacity: with 2015-era executor-memory defaults, six
// nodes cannot hold the 1M-SNP cached RDD in memory, so every Monte Carlo
// iteration evicts and recomputes it through lineage (the uncached regime
// of Figure 5), while 12-18 nodes keep it resident. This bench models
// exactly that: each node contributes a fixed cache budget, sized so the
// cached genotype RDD (what Monte Carlo rescores every batch) fits in the
// aggregate memory of the larger clusters only.
//
// Method: for each node count the job executes for real with that
// cluster's cache budget (recomputation costs land in the measured task
// times), then the virtual scheduler replays the recorded profile onto
// the topology to produce the cluster makespan. Each iteration is its
// own engine pass (batch=1), as in the paper's Algorithm 3.
//
// The superlinear shape is NOT reproduced. The paper's cached RDD is U,
// whose recompute (the O(n^2) Cox contributions of every SNP) dwarfs an
// iteration over it. Monte Carlo here caches only the packed genotypes
// and scores replicates from them, so the small cluster's recompute is a
// re-read of the genotype text, barely dearer than the pass it feeds:
// the 6->18 speedup stays below the 3x slot ratio (the shape check says
// so). See EXPERIMENTS.md, Experiment C.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"

namespace ss::bench {
namespace {

int Run(int argc, char** argv) {
  const Args args(argc, argv);
  ConfigureObservability(args);
  Workload base = DefaultWorkload(args, /*snps_default=*/3000,
                                  /*sets_default=*/200);
  base.generator.num_patients =
      static_cast<std::uint32_t>(args.GetU64("patients", 400));
  base.pipeline.num_partitions =
      static_cast<std::uint32_t>(args.GetU64("partitions", 96));
  base.pipeline.num_reducers =
      static_cast<std::uint32_t>(args.GetU64("reducers", 32));
  // One engine pass per iteration, so the 6-node cluster recomputes its
  // evicted partitions every iteration as the paper's did.
  base.pipeline.resampling_batch_size =
      std::max<std::uint64_t>(1, args.GetU64("batch", 1));

  // The data are scaled ~50x below the paper's; the scheduling overheads
  // must scale with them or they dominate every prediction and flatten
  // all scaling curves (a 150 ms stage overhead is 'free' next to a
  // 1250 s full-scale iteration but crushing next to a 50 ms scaled one).
  // Dividing the fixed overheads by the same factor preserves the
  // full-scale compute-to-overhead ratio.
  base.engine.cost_model.stage_overhead_s = 0.002;
  base.engine.cost_model.task_launch_overhead_s = 0.0005;
  base.engine.cost_model.job_overhead_s = 0.010;

  // Cached genotype footprint: one packed (or plain) dosage row per SNP
  // plus record overhead. The per-node budget defaults to 1/10 of it, so
  // the 6-node aggregate (0.6x) evicts while 12 nodes (1.2x) and 18 nodes
  // (1.8x) hold it — mirroring the paper's 1M-SNP job against per-node
  // executor memory.
  const std::uint64_t n = base.generator.num_patients;
  const std::uint64_t cached_bytes =
      static_cast<std::uint64_t>(base.generator.num_snps) *
      ((base.pipeline.pack_genotypes ? (n + 3) / 4 : n) + 48ULL);
  const std::uint64_t per_node_cache =
      args.GetU64("per_node_cache_bytes", cached_bytes / 10);

  char scale[512];
  std::snprintf(scale, sizeof(scale),
                "patients=%u snps=%u sets=%u partitions=%u cached~%.2fMB "
                "cache/node=%.1fMB (paper Table VI: n=1000, 1M SNPs, 1000 "
                "sets)",
                base.generator.num_patients, base.generator.num_snps,
                base.generator.num_sets, base.pipeline.num_partitions,
                static_cast<double>(cached_bytes) / 1e6,
                static_cast<double>(per_node_cache) / 1e6);
  PrintBanner("bench_strong_scaling",
              "Figure 6 + Table VI (strong scaling, 6/12/18 nodes)", scale);

  const std::vector<std::uint64_t> iteration_counts = {0, 10, 20};
  const std::vector<int> node_counts = {6, 12, 18};

  Table figure6("Figure 6 — predicted execution time (seconds) on the "
                "simulated EMR clusters",
                {"iterations", "6 nodes", "12 nodes", "18 nodes",
                 "speedup 6->18"});
  Table cache_table("Cache behaviour per configuration (20 iterations)",
                    {"nodes", "aggregate cache (MB)", "RDD fits", "hits",
                     "misses", "evictions"});

  double speedup_at_20 = 0.0;
  for (std::uint64_t iters : iteration_counts) {
    std::vector<std::string> row = {std::to_string(iters)};
    double t6 = 0.0;
    double t18 = 0.0;
    for (int nodes : node_counts) {
      Workload workload = base;
      workload.engine.topology = cluster::EmrCluster(nodes);
      workload.engine.cache_capacity_bytes =
          per_node_cache * static_cast<std::uint64_t>(nodes);

      Workload::Instance instance = workload.Build();
      instance.ctx->metrics().Reset();
      core::RunResampling(*instance.pipeline,
                          {core::ResamplingMethod::kMonteCarlo, iters});
      if (iters == iteration_counts.back() && nodes == node_counts.back()) {
        WriteRunArtifacts(args, *instance.ctx);
      }
      const double t =
          instance.ctx->ReplayOn(workload.engine.topology).total_s;
      row.push_back(Table::Num(t, 2));
      if (nodes == 6) t6 = t;
      if (nodes == 18) t18 = t;

      if (iters == iteration_counts.back()) {
        const engine::CacheStats stats = instance.ctx->cache().stats();
        const std::uint64_t aggregate =
            per_node_cache * static_cast<std::uint64_t>(nodes);
        cache_table.AddRow(
            {std::to_string(nodes),
             Table::Num(static_cast<double>(aggregate) / 1e6, 2),
             aggregate > cached_bytes ? "yes" : "NO",
             std::to_string(stats.hits), std::to_string(stats.misses),
             std::to_string(stats.evictions)});
      }
    }
    row.push_back(Table::Num(t6 / std::max(1e-9, t18), 1) + "x");
    figure6.AddRow(std::move(row));
    if (iters == 20) speedup_at_20 = t6 / std::max(1e-9, t18);
  }
  figure6.Print();
  cache_table.Print();

  // Superlinear means beyond the 3x slot ratio of 18 to 6 nodes.
  const double slot_ratio = 3.0;
  std::printf("\nShape checks:\n");
  std::printf("  6->18 node speedup at 20 iterations: %.1fx vs the %.0fx "
              "slot ratio — %s (paper text: two orders of magnitude, from "
              "the 6-node cluster recomputing its evicted U every "
              "iteration; Monte Carlo here caches only the genotypes, "
              "whose recompute is cheap; see EXPERIMENTS.md)\n",
              speedup_at_20, slot_ratio,
              speedup_at_20 > slot_ratio ? "superlinear, REPRODUCED"
                                         : "NOT REPRODUCED");
  return 0;
}

}  // namespace
}  // namespace ss::bench

int main(int argc, char** argv) { return ss::bench::Run(argc, argv); }
