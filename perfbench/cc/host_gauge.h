// host_gauge.h — a fixed unit of host work, timed between iterations.
//
// The benchmark runs on shared hosts whose speed drifts by tens of percent
// over seconds to minutes: neighbours contend for caches and memory, and
// the hypervisor steals cycles. The drift slows cache- and allocation-heavy
// code (the library's) far more than register arithmetic. The gauge is a
// fixed mix of both, independent of the library: integer hashing, then
// allocation churn in a hash map over an L2-sized and over a 6 MiB working
// set, each about a third of its time on an idle host. run.py scales every
// timing by the gauge readings taken around it, so host drift cancels and
// the library's own cost does not.
//
// The gauge allocates from its own memory: a fresh anonymous mapping per
// reading, carved up by a pool resource. The library's heap (its size, its
// fragmentation, its allocator) therefore cannot move the gauge, and the
// process's peak resident memory is tracked around the readings so that
// the gauge's mapping is not counted in it.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory_resource>
#include <string>
#include <unordered_map>
#include <vector>

#include "cc/spans.h"

namespace perfbench {

/// The process's peak resident memory since the last reset_peak_rss(), in
/// KiB (VmHWM).
inline std::uint64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  std::uint64_t kib = 0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> kib;
      break;
    }
  }
  return kib;
}

/// Reset the peak to the current resident memory. Returns false when the
/// kernel refuses.
inline bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

class HostGauge {
 public:
  /// maybe() takes a reading when the last one is at least `interval_s` old.
  explicit HostGauge(double interval_s)
      : interval_ns_(static_cast<std::uint64_t>(interval_s * 1e9)) {}

  /// Take a reading when there is none yet or the last is older than the
  /// interval.
  void maybe() {
    if (readings_s_.empty() || now_ns() - last_ns_ >= interval_ns_) take();
  }

  /// Time the gauge's work now.
  void take() {
    peak_kib_ = std::max(peak_kib_, peak_rss_kib());
    void* region = mmap(nullptr, kRegionBytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (region == MAP_FAILED) {
      std::perror("host gauge: mmap");
      std::abort();
    }
    std::uint64_t t0 = 0;
    {
      // The kernel's allocations are the same every reading and fit the
      // mapping; exceeding it throws rather than touching the heap.
      std::pmr::monotonic_buffer_resource arena(
          region, kRegionBytes, std::pmr::null_memory_resource());
      std::pmr::unsynchronized_pool_resource pool(&arena);
      t0 = now_ns();
      hash_mix(1300000);
      map_churn(&pool, 1024, 8000);
      map_churn(&pool, 8192, 5000);
      last_ns_ = now_ns();
    }
    munmap(region, kRegionBytes);
    readings_s_.push_back(static_cast<double>(last_ns_ - t0) * 1e-9);
    peak_excludes_gauge_ = reset_peak_rss() && peak_excludes_gauge_;
  }

  /// Index of the latest reading. A sample tagged with it lies between that
  /// reading and the next one, if any.
  std::size_t latest() const { return readings_s_.size() - 1; }
  const std::vector<double>& readings_s() const { return readings_s_; }

  /// The process's peak resident memory outside the gauge's readings, in
  /// MiB. When the kernel refused to reset the peak, the readings' memory
  /// is included and peak_excludes_gauge() is false.
  double workload_peak_rss_mb() const {
    return static_cast<double>(std::max(peak_kib_, peak_rss_kib())) / 1024.0;
  }
  bool peak_excludes_gauge() const { return peak_excludes_gauge_; }

 private:
  static constexpr std::size_t kRegionBytes = std::size_t{24} << 20;

  void hash_mix(int steps) {
    std::uint64_t x = 1;
    for (int i = 0; i < steps; ++i) {
      x ^= x >> 13;
      x *= 0x9E3779B97F4A7C15ull;
      x += (x & 7) == 3 ? static_cast<std::uint64_t>(i) : 1;
    }
    sink_ = sink_ + x;
  }

  /// Buffers of 64..1463 bytes, rewritten and summed in `slots` map slots;
  /// one step in eight also frees a slot.
  void map_churn(std::pmr::memory_resource* memory, std::uint64_t slots,
                 int steps) {
    std::pmr::unordered_map<std::uint64_t, std::pmr::vector<std::uint8_t>>
        map(memory);
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    std::uint64_t sum = 0;
    for (int i = 0; i < steps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::pmr::vector<std::uint8_t>& buf = map[x % slots];
      buf.assign(64 + (x >> 20) % 1400, static_cast<std::uint8_t>(x));
      for (std::uint8_t b : buf) sum += b;
      if ((x >> 40) % 8 == 0) map.erase((x >> 8) % slots);
    }
    sink_ = sink_ + sum;
  }

  std::uint64_t interval_ns_;
  std::uint64_t last_ns_ = 0;
  std::vector<double> readings_s_;
  std::uint64_t peak_kib_ = 0;
  bool peak_excludes_gauge_ = true;
  volatile std::uint64_t sink_ = 0;
};

}  // namespace perfbench
