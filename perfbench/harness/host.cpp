#include "host.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include <fcntl.h>
#include <malloc.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "stats/kernels/kernels.hpp"

namespace perfbench {
namespace {

double Seconds(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
      .count();
}

/// Parses sysfs cache sizes such as "32K", "8192K" or "300M".
std::uint64_t ParseCacheSize(const std::string& text) {
  std::uint64_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(text[i] - '0');
    ++i;
  }
  if (i < text.size() && (text[i] == 'K' || text[i] == 'k')) value <<= 10;
  if (i < text.size() && (text[i] == 'M' || text[i] == 'm')) value <<= 20;
  return value;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

using V4 = double __attribute__((vector_size(32)));
using V2 = double __attribute__((vector_size(16)));

// The MAC probe: 8 vector accumulators of replicate lanes, each a
// dependent add chain fed by u[i] * z[i][lane] from L1-resident arrays.
// Inlined into each tier's function so it compiles for that tier, without
// FMA contraction, like the kernels (-mno-fma).
template <typename Vec>
__attribute__((always_inline)) inline double MacLoop(const double* u,
                                                     const double* zs,
                                                     std::size_t n,
                                                     std::size_t passes) {
  const Vec* z = reinterpret_cast<const Vec*>(zs);
  Vec a0 = {}, a1 = {}, a2 = {}, a3 = {}, a4 = {}, a5 = {}, a6 = {}, a7 = {};
  for (std::size_t p = 0; p < passes; ++p) {
    const Vec* row = z;
    for (std::size_t i = 0; i < n; ++i, row += 8) {
      const Vec b = Vec{} + u[i];
      a0 += b * row[0];
      a1 += b * row[1];
      a2 += b * row[2];
      a3 += b * row[3];
      a4 += b * row[4];
      a5 += b * row[5];
      a6 += b * row[6];
      a7 += b * row[7];
    }
  }
  const Vec total = ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7));
  double sum = 0.0;
  for (std::size_t lane = 0; lane < sizeof(Vec) / sizeof(double); ++lane) {
    sum += total[lane];
  }
  return sum;
}

__attribute__((target("avx2"))) double MacAvx2(const double* u,
                                                const double* z, std::size_t n,
                                                std::size_t passes) {
  return MacLoop<V4>(u, z, n, passes);
}

double MacSse2(const double* u, const double* z, std::size_t n,
               std::size_t passes) {
  return MacLoop<V2>(u, z, n, passes);
}

__attribute__((optimize("no-tree-vectorize"))) double MacScalar(
    const double* u, const double* z, std::size_t n, std::size_t passes,
    unsigned lanes) {
  std::vector<double> acc(lanes, 0.0);
  for (std::size_t p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < n; ++i) {
      for (unsigned r = 0; r < lanes; ++r) acc[r] += u[i] * z[i * lanes + r];
    }
  }
  double sum = 0.0;
  for (double a : acc) sum += a;
  return sum;
}

/// Resident-set size of this process in bytes (0 where unsupported).
std::uint64_t CurrentRssBytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long long pages_total = 0;
  unsigned long long pages_resident = 0;
  const int got = std::fscanf(statm, "%llu %llu", &pages_total, &pages_resident);
  std::fclose(statm);
  if (got != 2) return 0;
  return static_cast<std::uint64_t>(pages_resident) *
         static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace

void TrimHeap() { malloc_trim(0); }

RssSampler::RssSampler()
    : baseline_(CurrentRssBytes()), peak_(baseline_), thread_([this] {
        while (!stopped_.load()) {
          Sample();
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }) {}

RssSampler::~RssSampler() { Stop(); }

void RssSampler::Stop() {
  if (!stopped_.exchange(true) && thread_.joinable()) {
    thread_.join();
    Sample();
  }
}

void RssSampler::Sample() {
  const std::uint64_t now = CurrentRssBytes();
  std::uint64_t seen = peak_.load();
  while (now > seen && !peak_.compare_exchange_weak(seen, now)) {
  }
}

HostFingerprint ReadHostFingerprint() {
  HostFingerprint host;
  host.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        host.cpu_model = line.substr(colon + 1);
        host.cpu_model.erase(0, host.cpu_model.find_first_not_of(' '));
      }
      break;
    }
  }
  // The last-level cache is the highest-level data/unified cache sysfs
  // lists for cpu0.
  int best_level = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    const std::string type = ReadFirstLine(dir + "type");
    if (type.empty()) continue;
    if (type == "Instruction") continue;
    const int level = std::atoi(ReadFirstLine(dir + "level").c_str());
    if (level >= best_level) {
      best_level = level;
      host.llc_bytes = ParseCacheSize(ReadFirstLine(dir + "size"));
    }
  }
  if (host.llc_bytes == 0) host.llc_bytes = 32ull << 20;
  host.dispatch_level = ss::stats::kernels::DispatchLevelName(
      ss::stats::kernels::ActiveDispatchLevel());
  return host;
}

double PageCacheResidentPct(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return -1.0;
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return -1.0;
  }
  const std::size_t bytes = static_cast<std::size_t>(st.st_size);
  void* map = ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return -1.0;
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t pages = (bytes + page - 1) / page;
  std::vector<unsigned char> resident(pages, 0);
  double pct = -1.0;
  if (::mincore(map, bytes, resident.data()) == 0) {
    std::size_t in_core = 0;
    for (unsigned char flag : resident) in_core += flag & 1u;
    pct = 100.0 * static_cast<double>(in_core) / static_cast<double>(pages);
  }
  ::munmap(map, bytes);
  return pct;
}

StreamResult StreamTriad(std::uint64_t llc_bytes, unsigned threads) {
  threads = std::max(1u, threads);
  // Three arrays whose sum is at least 4x the last-level cache.
  const std::uint64_t per_array = (4 * llc_bytes + 2) / 3;
  const std::size_t n =
      static_cast<std::size_t>(per_array / sizeof(double)) / threads * threads;
  StreamResult result;
  result.array_bytes = n * sizeof(double);
  const auto a = std::make_unique_for_overwrite<double[]>(n);
  const auto b = std::make_unique_for_overwrite<double[]>(n);
  const auto c = std::make_unique_for_overwrite<double[]>(n);
  const std::size_t chunk = n / threads;
  const auto parallel = [&](auto&& body) {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] { body(t * chunk, (t + 1) * chunk); });
    }
    for (std::thread& thread : pool) thread.join();
  };
  // First touch on the thread that later streams each chunk.
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double scalar = 3.0;
  double best = 0.0;
  for (int pass = 0; pass < 4; ++pass) {
    const auto begin = std::chrono::steady_clock::now();
    parallel([&](std::size_t lo, std::size_t hi) {
      double* __restrict out = a.get();
      const double* __restrict x = b.get();
      const double* __restrict y = c.get();
      for (std::size_t i = lo; i < hi; ++i) out[i] = x[i] + scalar * y[i];
    });
    const double seconds = Seconds(begin);
    if (seconds > 0.0) {
      best = std::max(best, 24.0 * static_cast<double>(n) / seconds / 1e9);
    }
  }
  // Keep the result observable so the triad cannot be elided.
  if (a[n / 2] != 7.0) std::fprintf(stderr, "stream probe: wrong triad result\n");
  result.gb_per_s = best;
  return result;
}

double MacPeakGmacPerSec() {
  // 64 patients x 32 replicate lanes of multipliers: 16 KiB, L1-resident.
  constexpr std::size_t kPatients = 64;
  constexpr std::size_t kLanes = 32;
  constexpr std::size_t kPasses = 40000;
  std::vector<double> u(kPatients);
  for (std::size_t i = 0; i < kPatients; ++i) u[i] = 1.0 + 1e-9 * double(i);
  // Aligned for the widest vector loads.
  alignas(32) double z[kPatients * kLanes];
  std::fill(z, z + kPatients * kLanes, 1e-9);
  const auto level = ss::stats::kernels::ActiveDispatchLevel();
  double best = 0.0;
  double sink = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    const auto begin = std::chrono::steady_clock::now();
    double macs = 0.0;
    switch (level) {
      case ss::stats::kernels::DispatchLevel::kAvx2:
        sink += MacAvx2(u.data(), z, kPatients, kPasses);
        macs = double(kPatients) * 32.0 * double(kPasses);
        break;
      case ss::stats::kernels::DispatchLevel::kSse2:
        sink += MacSse2(u.data(), z, kPatients, kPasses);
        macs = double(kPatients) * 16.0 * double(kPasses);
        break;
      case ss::stats::kernels::DispatchLevel::kScalar:
        sink += MacScalar(u.data(), z, kPatients, kPasses / 8, kLanes);
        macs = double(kPatients) * double(kLanes) * double(kPasses / 8);
        break;
    }
    best = std::max(best, macs / Seconds(begin) / 1e9);
  }
  // Keep the accumulated sums observable so the loops cannot be elided.
  if (sink == 0.0) std::fprintf(stderr, "mac probe: empty result\n");
  return best;
}

}  // namespace perfbench
