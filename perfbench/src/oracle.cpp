#include "oracle.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"

namespace perfbench {

std::uint64_t expected_checksum(const std::vector<SparseInterval>& intervals,
                                std::size_t num_keys, std::size_t* entries) {
  std::vector<std::uint64_t> count(num_keys, 0);
  std::vector<std::uint64_t> sum(num_keys, 0);
  for (const SparseInterval& iv : intervals) {
    for (std::size_t i = 0; i < iv.keys.size(); ++i) {
      const std::uint64_t c = iv.counts[i];
      count[iv.keys[i]] += c;
      sum[iv.keys[i]] += c * (c - 1) / 2;  // values 0 .. c-1
    }
  }
  std::uint64_t acc = 0;
  std::size_t live = 0;
  for (std::size_t k = 0; k < num_keys; ++k) {
    if (count[k] == 0) continue;
    ++live;
    acc += skewless::mix64(static_cast<std::uint64_t>(k) ^
                           skewless::mix64(count[k] * 0x9e37ULL + sum[k]));
  }
  if (entries != nullptr) *entries = live;
  return acc;
}

std::vector<double> realized_theta(
    const std::vector<SparseInterval>& intervals,
    std::vector<skewless::InstanceId> dest,
    const std::vector<const std::vector<skewless::KeyMove>*>& moves_after,
    skewless::InstanceId instances) {
  std::vector<double> thetas;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    std::vector<double> loads(static_cast<std::size_t>(instances), 0.0);
    const SparseInterval& iv = intervals[i];
    for (std::size_t j = 0; j < iv.keys.size(); ++j) {
      loads[static_cast<std::size_t>(dest[iv.keys[j]])] +=
          static_cast<double>(iv.counts[j]);
    }
    double total = 0.0;
    for (const double l : loads) total += l;
    double worst = 0.0;
    if (total > 0.0) {
      const double avg = total / static_cast<double>(loads.size());
      for (const double l : loads) worst = std::max(worst, std::abs(l - avg) / avg);
    }
    thetas.push_back(worst);
    if (i < moves_after.size() && moves_after[i] != nullptr) {
      for (const skewless::KeyMove& mv : *moves_after[i]) dest[mv.key] = mv.to;
    }
  }
  return thetas;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

}  // namespace perfbench
