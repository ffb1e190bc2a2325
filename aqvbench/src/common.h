// Small shared helpers of the benchmark: clocks, order statistics, the
// stream hash, peak-RSS probing and JSON number/string rendering.

#ifndef AQVBENCH_COMMON_H_
#define AQVBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace aqvbench {

using Clock = std::chrono::steady_clock;

/// The command word of a protocol line.
inline std::string_view FirstWord(std::string_view line) {
  return line.substr(0, line.find(' '));
}

inline double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample; 0 when
/// the sample is empty.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// 64-bit FNV-1a, the stream and response fingerprint.
inline uint64_t Fnv1a(std::string_view text, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// SplitMix64 step: derives independent sub-seeds from the run seed.
inline uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b = 0) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (a + 1) + 0xbf58476d1ce4e5b9ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Peak resident set size of this process (VmHWM), in MiB; 0 if the
/// kernel does not report it.
inline double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

inline std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// A measured value with all its digits (17 significant).
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One named metric of a result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace aqvbench

#endif  // AQVBENCH_COMMON_H_
