// bench_kernels — microbenchmark for the runtime-dispatched SIMD kernels
// (src/stats/kernels): batched Monte Carlo MAC, the factored genotype MAC
// Monte Carlo runs (dosages × residual weights), Cox score scan, SKAT
// folds, and 2-bit genotype pack/unpack, timed at every dispatch level
// this CPU can execute. Cross-level outputs are verified bitwise equal
// while timing, so the speedup numbers are guaranteed to compare
// identical computations.
//
// Keys: patients= count= iters= snps= seed= out=<json path>
// The genotype MAC runs at Monte Carlo's own shape, 1000 patients × 32
// replicates per batch, over `snps` SNPs with MAF drawn from U(0.05, 0.5).
// `out=` writes a BENCH_kernels.json datapoint consumed by
// tools/check_kernel_speedup.py (the bench_kernels_smoke ctest gate).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "stats/kernels/kernels.hpp"
#include "stats/kernels/packed_genotype.hpp"

namespace ss::bench {
namespace {

using stats::kernels::DispatchLevel;

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Best-of-N timing: the minimum over repeated measurements is the
/// standard microbench estimator — scheduler noise and frequency dips
/// only ever inflate a sample, never deflate it.
double BestOf(int samples, const std::function<void()>& fn) {
  double best = TimeOnce(fn);
  for (int s = 1; s < samples; ++s) best = std::min(best, TimeOnce(fn));
  return best;
}

struct LevelTiming {
  const char* name = nullptr;
  double mac_seconds = 0.0;
  double genotype_mac_seconds = 0.0;  ///< Per SNP.
  double cox_seconds = 0.0;
  double fold_seconds = 0.0;
};

int Run(int argc, char** argv) {
  const Args args(argc, argv);
  ConfigureObservability(args);
  const std::size_t n = args.GetU64("patients", 4096);
  const std::size_t count = args.GetU64("count", 256);
  const int iters = static_cast<int>(args.GetU64("iters", 40));
  const std::size_t num_snps = args.GetU64("snps", 512);
  const std::uint64_t seed = args.GetU64("seed", 2016);
  constexpr std::size_t geno_n = 1000;
  constexpr std::size_t geno_count = 32;

  char scale[160];
  std::snprintf(scale, sizeof(scale),
                "patients=%zu count=%zu iters=%d snps=%zu", n, count, iters,
                num_snps);
  PrintBanner("bench_kernels",
              "SIMD kernel dispatch (MAC / Cox scan / SKAT folds / 2-bit "
              "genotype packing)",
              scale);

  Rng rng(seed);
  std::vector<double> u(n);
  std::vector<double> zblock(n * count);
  for (double& v : u) v = rng.NextDouble() * 2.0 - 1.0;
  for (double& v : zblock) v = rng.NextDouble() * 2.0 - 1.0;

  std::vector<std::uint8_t> event(n);
  std::vector<std::uint8_t> genotypes(n);
  std::vector<std::uint32_t> prefix_end(n);
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    event[i] = static_cast<std::uint8_t>(rng.NextBounded(2));
    genotypes[i] = static_cast<std::uint8_t>(rng.NextBounded(3));
    prefix_end[i] = static_cast<std::uint32_t>(1 + rng.NextBounded(n));
    prefix[i + 1] = prefix[i] + static_cast<double>(genotypes[i]);
  }

  // The factored Monte Carlo kernel's inputs: one dosage vector per SNP
  // (Binomial(2, maf) with maf ~ U(0.05, 0.5)) and a [W ; 2W] block.
  std::vector<std::vector<std::uint8_t>> geno_snps(num_snps);
  for (auto& dosages : geno_snps) {
    const double maf = 0.05 + 0.45 * rng.NextDouble();
    dosages.resize(geno_n);
    for (auto& d : dosages) {
      d = static_cast<std::uint8_t>((rng.NextDouble() < maf ? 1 : 0) +
                                    (rng.NextDouble() < maf ? 1 : 0));
    }
  }
  std::vector<double> scaled(2 * geno_n * geno_count);
  for (std::size_t k = 0; k < geno_n * geno_count; ++k) {
    scaled[k] = rng.NextDouble() * 2.0 - 1.0;
    scaled[geno_n * geno_count + k] = 2.0 * scaled[k];
  }

  const int best = static_cast<int>(stats::kernels::BestSupportedLevel());
  std::vector<LevelTiming> timings;
  std::vector<double> mac_reference;
  std::vector<double> cox_reference;
  std::vector<double> geno_reference;
  bool bitwise_ok = true;

  for (int level = 0; level <= best; ++level) {
    const stats::kernels::KernelTable& table =
        stats::kernels::KernelsFor(static_cast<DispatchLevel>(level));
    LevelTiming timing;
    timing.name =
        stats::kernels::DispatchLevelName(static_cast<DispatchLevel>(level));

    std::vector<double> mac_out(count);
    table.batched_mac(u.data(), n, zblock.data(), count, mac_out.data());
    timing.mac_seconds = BestOf(5, [&]() {
                           for (int r = 0; r < iters; ++r) {
                             table.batched_mac(u.data(), n, zblock.data(),
                                               count, mac_out.data());
                           }
                         }) /
                         iters;

    std::vector<double> geno_out(num_snps * geno_count);
    const auto run_genotype_mac = [&]() {
      for (std::size_t j = 0; j < num_snps; ++j) {
        table.genotype_mac(geno_snps[j].data(), geno_n, scaled.data(),
                           geno_count, geno_out.data() + j * geno_count);
      }
    };
    run_genotype_mac();
    timing.genotype_mac_seconds =
        BestOf(5, [&]() {
          for (int r = 0; r < iters; ++r) run_genotype_mac();
        }) /
        (static_cast<double>(iters) * static_cast<double>(num_snps));

    std::vector<double> cox_out(n);
    table.cox_scan(event.data(), genotypes.data(), prefix.data(),
                   prefix_end.data(), n, cox_out.data());
    timing.cox_seconds = BestOf(5, [&]() {
                           for (int r = 0; r < iters; ++r) {
                             table.cox_scan(event.data(), genotypes.data(),
                                            prefix.data(), prefix_end.data(),
                                            n, cox_out.data());
                           }
                         }) /
                         iters;

    std::vector<double> skat(count, 0.0);
    std::vector<double> burden(count, 0.0);
    timing.fold_seconds =
        BestOf(5, [&]() {
          for (int r = 0; r < iters; ++r) {
            table.skat_burden_fold(mac_out.data(), count, 0.5, 0.25,
                                   skat.data(), burden.data());
          }
        }) /
        iters;

    if (level == 0) {
      mac_reference = mac_out;
      cox_reference = cox_out;
      geno_reference = geno_out;
    } else if (!BitEqual(mac_out, mac_reference) ||
               !BitEqual(cox_out, cox_reference) ||
               !BitEqual(geno_out, geno_reference)) {
      bitwise_ok = false;
      std::fprintf(stderr, "BITWISE MISMATCH at level %s\n", timing.name);
    }
    timings.push_back(timing);
  }

  // Pack/unpack throughput and the byte savings the partition cache sees.
  std::vector<std::vector<std::uint8_t>> snps(num_snps);
  std::uint64_t unpacked_bytes = 0;
  for (auto& snp : snps) {
    snp.resize(n);
    for (auto& d : snp) d = static_cast<std::uint8_t>(rng.NextBounded(3));
    unpacked_bytes += snp.size();
  }
  std::vector<stats::PackedGenotypeBlock> blocks;
  blocks.reserve(num_snps);
  const double pack_seconds = TimeOnce([&]() {
    for (const auto& snp : snps) {
      blocks.push_back(stats::PackedGenotypeBlock::Pack(snp));
    }
  });
  std::uint64_t packed_bytes = 0;
  for (const auto& block : blocks) packed_bytes += block.payload().size();
  std::vector<std::uint8_t> scratch;
  std::uint64_t allele_sink = 0;
  const double unpack_seconds = TimeOnce([&]() {
    for (const auto& block : blocks) {
      block.UnpackInto(&scratch);
      allele_sink += scratch.back();
    }
  });

  Table table("Per-call kernel timings (seconds, lower is better)",
              {"level", "batched MAC", "genotype MAC", "Cox scan", "SKAT fold",
               "MAC speedup", "genotype speedup"});
  const double scalar_mac = timings.front().mac_seconds;
  const double scalar_geno = timings.front().genotype_mac_seconds;
  for (const LevelTiming& t : timings) {
    table.AddRow({t.name, Table::Num(t.mac_seconds, 6),
                  Table::Num(t.genotype_mac_seconds, 7),
                  Table::Num(t.cox_seconds, 6), Table::Num(t.fold_seconds, 6),
                  Table::Num(scalar_mac / t.mac_seconds, 2) + "x",
                  Table::Num(scalar_geno / t.genotype_mac_seconds, 2) + "x"});
  }
  table.Print();
  std::printf("  genotype packing: %llu -> %llu bytes (%.2fx), pack %.4fs, "
              "unpack %.4fs (allele sink %llu)\n",
              static_cast<unsigned long long>(unpacked_bytes),
              static_cast<unsigned long long>(packed_bytes),
              static_cast<double>(unpacked_bytes) /
                  static_cast<double>(packed_bytes),
              pack_seconds, unpack_seconds,
              static_cast<unsigned long long>(allele_sink));
  std::printf("  genotype MAC shape: %zu patients x %zu replicates per SNP\n",
              geno_n, geno_count);
  std::printf("  bitwise cross-level check: %s\n",
              bitwise_ok ? "identical" : "MISMATCH");

#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(SPARKSCORE_SANITIZE_BUILD)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif

  const std::string out_path = args.GetStr("out", "");
  if (!out_path.empty()) {
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "could not write datapoint to %s\n",
                   out_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\"bench\":\"bench_kernels\",\"patients\":%zu,\"count\":%zu,"
                 "\"iters\":%d,\"snps\":%zu,\"geno_patients\":%zu,"
                 "\"geno_count\":%zu,\"optimized\":%s,\"sanitized\":%s,"
                 "\"bitwise_identical\":%s,\"best_level\":\"%s\",\"levels\":{",
                 n, count, iters, num_snps, geno_n, geno_count,
                 optimized ? "true" : "false",
                 sanitized ? "true" : "false", bitwise_ok ? "true" : "false",
                 timings.back().name);
    for (std::size_t i = 0; i < timings.size(); ++i) {
      const LevelTiming& t = timings[i];
      std::fprintf(out,
                   "%s\"%s\":{\"mac_seconds\":%.9f,"
                   "\"genotype_mac_seconds\":%.9f,\"cox_seconds\":%.9f,"
                   "\"fold_seconds\":%.9f,\"mac_speedup\":%.4f,"
                   "\"genotype_mac_speedup\":%.4f}",
                   i == 0 ? "" : ",", t.name, t.mac_seconds,
                   t.genotype_mac_seconds, t.cox_seconds, t.fold_seconds,
                   scalar_mac / t.mac_seconds,
                   scalar_geno / t.genotype_mac_seconds);
    }
    std::fprintf(out,
                 "},\"pack\":{\"unpacked_bytes\":%llu,\"packed_bytes\":%llu,"
                 "\"ratio\":%.4f,\"pack_seconds\":%.6f,\"unpack_seconds\":%.6f}"
                 "}\n",
                 static_cast<unsigned long long>(unpacked_bytes),
                 static_cast<unsigned long long>(packed_bytes),
                 static_cast<double>(unpacked_bytes) /
                     static_cast<double>(packed_bytes),
                 pack_seconds, unpack_seconds);
    std::fclose(out);
    std::printf("datapoint written to %s\n", out_path.c_str());
  }

  args.WarnUnknownKeys("bench_kernels");
  return bitwise_ok ? 0 : 1;
}

}  // namespace
}  // namespace ss::bench

int main(int argc, char** argv) { return ss::bench::Run(argc, argv); }
