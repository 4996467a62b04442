// Shared pieces of the benchmark: answer digests, exact latency
// percentiles over nanosecond samples, and the metric table a run prints.
#ifndef LFBENCH_COMMON_H_
#define LFBENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/value.h"

namespace labflow::lfbench {

// ---- Digests ------------------------------------------------------------------
// A query's answer is folded into 64 bits as it arrives; the reference model
// folds its own answer the same way, and the two must be equal.

inline constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;
/// Digest of a NotFound answer.
inline constexpr uint64_t kNotFoundDigest = 0x6e6f74666f756e64ULL;

inline void Fold(uint64_t* h, uint64_t x) { *h = (*h ^ x) * kFnvPrime; }

inline uint64_t HashBytes(std::string_view s) {
  uint64_t h = kFnvOffset;
  for (char c : s) h = (h ^ static_cast<uint8_t>(c)) * kFnvPrime;
  return h;
}

inline uint64_t HashValue(const Value& v) {
  uint64_t h = kFnvOffset;
  Fold(&h, static_cast<uint64_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      Fold(&h, v.bool_value() ? 1 : 0);
      break;
    case ValueType::kInt:
      Fold(&h, static_cast<uint64_t>(v.int_value()));
      break;
    case ValueType::kReal: {
      double d = v.real_value();
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof bits);
      Fold(&h, bits);
      break;
    }
    case ValueType::kString:
      Fold(&h, HashBytes(v.string_value()));
      break;
    case ValueType::kOid:
      Fold(&h, v.oid_value().raw);
      break;
    case ValueType::kTimestamp:
      Fold(&h, static_cast<uint64_t>(v.time_value().micros));
      break;
    case ValueType::kList:
      for (const Value& item : v.list_value()) Fold(&h, HashValue(item));
      break;
  }
  return h;
}

/// The work-queue query reads this many materials from the head of a
/// state's queue.
inline constexpr size_t kWorkQueueHead = 20;

/// Digest of a material lookup (FindMaterialByName + GetMaterial).
/// Attribute ids are summed: their order in the answer is unspecified.
inline uint64_t MaterialDigest(Oid oid, std::string_view name, uint64_t cls,
                               uint64_t state, int64_t created,
                               uint64_t attr_count, uint64_t attr_sum) {
  uint64_t h = kFnvOffset;
  Fold(&h, oid.raw);
  Fold(&h, HashBytes(name));
  Fold(&h, cls);
  Fold(&h, state);
  Fold(&h, static_cast<uint64_t>(created));
  Fold(&h, attr_count);
  Fold(&h, attr_sum);
  return h;
}

/// History digest: the valid times in returned order (so order is checked)
/// plus an order-free sum over (time, value), since entries with equal
/// valid time have no specified order.
class HistoryDigest {
 public:
  void Add(int64_t time, const Value& value) {
    ++n_;
    Fold(&times_, static_cast<uint64_t>(time));
    uint64_t e = HashValue(value);
    Fold(&e, static_cast<uint64_t>(time));
    sum_ += e;
  }
  uint64_t Final() const {
    uint64_t h = times_;
    Fold(&h, n_);
    Fold(&h, sum_);
    return h;
  }

 private:
  uint64_t n_ = 0;
  uint64_t times_ = kFnvOffset;
  uint64_t sum_ = 0;
};

// ---- Statistics ---------------------------------------------------------------

/// Nearest-rank percentile (0 < p <= 1) of `v`, which it partially sorts.
template <typename T>
T Percentile(std::vector<T>* v, double p) {
  if (v->empty()) return T{};
  size_t rank = static_cast<size_t>(p * static_cast<double>(v->size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v->size());
  std::nth_element(v->begin(), v->begin() + (rank - 1), v->end());
  return (*v)[rank - 1];
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Latency samples in nanoseconds.
struct Latencies {
  std::vector<uint64_t> ns;

  void Add(uint64_t d) { ns.push_back(d); }
  size_t count() const { return ns.size(); }
  double PercentileUs(double p) {
    return static_cast<double>(Percentile(&ns, p)) / 1000.0;
  }
};

// ---- Metrics ------------------------------------------------------------------

/// Named metrics of one run, in insertion order, with their units. Each
/// metric may carry the number of samples behind it (printed, not part of
/// the result object).
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = -1) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      index_[name] = rows_.size();
      rows_.push_back({name, value, unit, samples});
    } else {
      rows_[it->second] = {name, value, unit, samples};
    }
  }
  struct Row {
    std::string name;
    double value;
    std::string unit;
    int64_t samples;
  };
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
  std::map<std::string, size_t> index_;
};

}  // namespace labflow::lfbench

#endif  // LFBENCH_COMMON_H_
