#include "common.h"

#include <dirent.h>
#include <pthread.h>
#include <time.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

void SleepUntilNs(int64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = deadline_ns / 1'000'000'000;
  ts.tv_nsec = deadline_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

namespace {
int64_t ClockNs(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0;
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

int64_t ThreadCpuNs(pthread_t thread) {
  clockid_t id;
  if (pthread_getcpuclockid(thread, &id) != 0) return 0;
  return ClockNs(id);
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

int NumThreads() {
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return 0;
  int n = 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(d);
  return n;
}

HostTicks ReadHostTicks() {
  HostTicks out;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) out.total += x;
    out.steal = v[7];
  }
  std::fclose(f);
  return out;
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  double pos = q * static_cast<double>(v->size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v->size() - 1);
  double frac = pos - static_cast<double>(lo);
  return (*v)[lo] + frac * ((*v)[hi] - (*v)[lo]);
}

namespace {
constexpr size_t kBuckets = tcq::Histogram::kNumBuckets + 1;

size_t BucketIndex(uint64_t le) {
  if (le == UINT64_MAX) return kBuckets - 1;
  // le = 2^(i+1) - 1
  size_t i = 0;
  while (i + 1 < kBuckets && ((uint64_t{1} << (i + 1)) - 1) < le) ++i;
  return i;
}

bool Matches(const std::string& name, const std::string& prefix,
             const std::string& must_contain) {
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  return must_contain.empty() || name.find(must_contain) != std::string::npos;
}
}  // namespace

HistSum HistSum::Of(const tcq::MetricsSnapshot& snap, const std::string& prefix,
                    const std::string& must_contain) {
  HistSum out;
  out.buckets.assign(kBuckets, 0);
  for (const auto& h : snap.histograms) {
    if (!Matches(h.name, prefix, must_contain)) continue;
    out.count += h.count;
    out.sum += h.sum;
    for (const auto& [le, c] : h.buckets) out.buckets[BucketIndex(le)] += c;
  }
  return out;
}

HistSum HistSum::Minus(const HistSum& before) const {
  HistSum out = *this;
  out.count -= before.count;
  out.sum -= before.sum;
  for (size_t i = 0; i < out.buckets.size() && i < before.buckets.size(); ++i) {
    out.buckets[i] -= before.buckets[i];
  }
  return out;
}

double HistSum::Quantile(double q) const {
  if (count == 0) return 0.0;
  double rank = q * static_cast<double>(count);
  uint64_t seen = 0;
  double lower = 0.0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    uint64_t c = buckets[i];
    double upper = i + 1 == buckets.size()
                       ? lower
                       : static_cast<double>((uint64_t{1} << (i + 1)) - 1);
    if (c > 0 && static_cast<double>(seen + c) > rank) {
      double frac = (rank - static_cast<double>(seen)) / static_cast<double>(c);
      return lower + frac * (upper - lower);
    }
    seen += c;
    lower = upper;
  }
  return lower;
}

uint64_t CounterSum(const tcq::MetricsSnapshot& snap, const std::string& prefix,
                    const std::string& must_contain) {
  uint64_t total = 0;
  for (const auto& [name, v] : snap.counters) {
    if (Matches(name, prefix, must_contain)) total += v;
  }
  return total;
}

int64_t GaugeSum(const tcq::MetricsSnapshot& snap, const std::string& prefix) {
  int64_t total = 0;
  for (const auto& [name, v] : snap.gauges) {
    if (Matches(name, prefix, "")) total += v;
  }
  return total;
}

std::vector<std::pair<std::string, uint64_t>> CounterInstances(
    const tcq::MetricsSnapshot& snap, const std::string& prefix) {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (const auto& [name, v] : snap.counters) {
    if (Matches(name, prefix, "")) out.emplace_back(name, v);
  }
  return out;
}

bool BatchLog::Append(const BatchInfo& info, uint64_t acked) {
  uint64_t n = size_.load(std::memory_order_relaxed);
  if (n >= acked + kCapacity / 2) return false;
  ring_[n % kCapacity] = info;
  size_.store(n + 1, std::memory_order_release);
  return true;
}

uint64_t BatchLog::FirstWatermarkAbove(int64_t ts) const {
  const uint64_t n = size();
  const uint64_t first = n > kCapacity / 2 ? n - kCapacity / 2 : 0;
  uint64_t lo = first, hi = n;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (at(mid).watermark > ts) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  // The answer may lie before the entries kept.
  return lo == first && first > 0 ? n : lo;
}

}  // namespace perfbench
