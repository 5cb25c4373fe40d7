// Shared helpers of the end-to-end facade benchmark: seeded input hashing,
// clocks, quantiles, process probes and metric-snapshot deltas.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace perfbench {

/// splitmix64 finalizer: the one mixing function behind every generated
/// value and every order-insensitive result hash.
inline uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic value number `salt` of input tuple `seq` under `seed`.
inline uint64_t Hash3(uint64_t seed, uint64_t seq, uint64_t salt) {
  return Mix(Mix(seed) ^ Mix(seq * 0x632BE59BD9B4E019ull + salt));
}

/// Uniform double in [0, 1) from a hash.
inline double Unit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Steady-clock nanoseconds.
int64_t NowNs();
/// Sleeps until the steady-clock instant `deadline_ns` (absolute), without
/// spinning.
void SleepUntilNs(int64_t deadline_ns);
/// CPU time consumed by the whole process, in nanoseconds.
int64_t ProcessCpuNs();
/// CPU time consumed by one thread of this process, in nanoseconds.
int64_t ThreadCpuNs(pthread_t thread);
/// Peak resident set (VmHWM) of this process, in MiB.
double PeakRssMb();
/// Number of OS threads of this process.
int NumThreads();
/// The machine's CPU time so far, in clock ticks, from /proc/stat: the
/// total, and the part stolen by the hypervisor for other guests.
struct HostTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostTicks ReadHostTicks();

/// Type-7 quantile (linear interpolation between order statistics), as
/// numpy and Python's statistics module compute it. Reorders `v`.
double Quantile(std::vector<double>* v, double q);

/// A histogram family's buckets summed over every instance whose name starts
/// with `prefix` (and contains `must_contain` when non-empty).
struct HistSum {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<uint64_t> buckets;  // per-bucket counts, 2^i upper bounds

  static HistSum Of(const tcq::MetricsSnapshot& snap, const std::string& prefix,
                    const std::string& must_contain = "");
  /// this minus `before` (bucket-wise).
  HistSum Minus(const HistSum& before) const;
  /// Quantile q in [0,1], interpolated within the covering bucket; 0 when
  /// the histogram is empty.
  double Quantile(double q) const;
  double Mean() const { return count == 0 ? 0.0 : double(sum) / double(count); }
};

/// Sum of a counter family (name prefix, optional substring filter).
uint64_t CounterSum(const tcq::MetricsSnapshot& snap, const std::string& prefix,
                    const std::string& must_contain = "");
/// Sum of a gauge family.
int64_t GaugeSum(const tcq::MetricsSnapshot& snap, const std::string& prefix);
/// Every counter of a family, by full name.
std::vector<std::pair<std::string, uint64_t>> CounterInstances(
    const tcq::MetricsSnapshot& snap, const std::string& prefix);

/// One pushed batch.
struct BatchInfo {
  uint64_t first_seq = 0;
  uint64_t end_seq = 0;     ///< one past the last sequence number
  int stream = 0;           ///< index of the stream the batch was pushed to
  int64_t watermark = 0;    ///< event-time watermark after the batch
  int64_t due_ns = 0;       ///< paced schedule's due time (0 = not paced)
};

/// Log of pushed batches, written by the producer thread and read
/// concurrently by the consumer thread. It keeps the most recent entries in
/// a fixed ring: the consumer reads only batches at or after the one before
/// its acknowledged prefix, which the producer never runs far ahead of.
class BatchLog {
 public:
  /// Entries kept; the producer may run at most half of it ahead of the
  /// consumer's acknowledged prefix.
  static constexpr uint64_t kCapacity = uint64_t{1} << 14;

  BatchLog() : ring_(kCapacity) {}
  /// Producer side. Returns false, appending nothing, when the entry would
  /// be kCapacity / 2 or more past `acked`.
  bool Append(const BatchInfo& info, uint64_t acked);
  /// Number of published entries (acquire: entries below it are complete).
  uint64_t size() const { return size_.load(std::memory_order_acquire); }
  /// Entry i; valid for i at or above the acknowledged prefix minus one, and
  /// for the kCapacity / 2 entries below size().
  const BatchInfo& at(uint64_t i) const { return ring_[i % kCapacity]; }
  /// First batch whose watermark exceeds `ts`, searched among the last
  /// kCapacity / 2; size() if none of them does or if it may lie before
  /// them.
  uint64_t FirstWatermarkAbove(int64_t ts) const;

 private:
  // A fixed ring, allocated once, so that the log's memory does not grow
  // with the number of batches a run pushes (the peak-RSS metrics).
  std::vector<BatchInfo> ring_;
  std::atomic<uint64_t> size_{0};
};

}  // namespace perfbench
