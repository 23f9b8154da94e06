#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>

namespace perfbench {

using namespace dstampede;

std::uint64_t Checksum(std::span<const std::uint8_t> bytes) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  std::uint64_t lane[4] = {1, 2, 3, 4};
  const std::uint8_t* p = bytes.data();
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int k = 0; k < 4; ++k) {
      std::uint64_t word;
      std::memcpy(&word, p + i + 8 * k, sizeof(word));
      lane[k] = std::rotl((lane[k] ^ word) * kMul, 29);
    }
  }
  std::uint64_t h = n;
  for (; i < n; ++i) h = (h ^ p[i]) * kMul;
  for (std::uint64_t l : lane) h = std::rotl((h ^ l) * kMul, 31);
  return h;
}

std::vector<Item> MakePool(std::uint64_t seed, std::size_t count,
                           std::size_t min_bytes, std::size_t max_bytes) {
  std::mt19937_64 rng(seed);
  // Stratified sizes: item k draws from the k-th of `count` equal slices
  // of the range, then the seed shuffles the order. Every seed gets
  // the same size distribution (so the mean item size, which sets the
  // relay's rate, does not move with the seed) but its own sequence.
  std::vector<std::size_t> sizes(count);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double span = static_cast<double>(max_bytes - min_bytes + 1);
  for (std::size_t k = 0; k < count; ++k) {
    const double x = (static_cast<double>(k) + unit(rng)) /
                     static_cast<double>(count);
    sizes[k] = std::min(max_bytes,
                        min_bytes + static_cast<std::size_t>(x * span));
  }
  std::shuffle(sizes.begin(), sizes.end(), rng);
  std::vector<Item> pool(count);
  for (std::size_t k = 0; k < count; ++k) {
    Item& item = pool[k];
    item.payload.resize(sizes[k]);
    std::uint64_t x = rng();
    for (std::size_t i = 0; i < item.payload.size(); i += 8) {
      // splitmix64 stream: fast, and every byte depends on the seed.
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      z ^= z >> 31;
      std::memcpy(item.payload.data() + i, &z,
                  std::min<std::size_t>(8, item.payload.size() - i));
    }
    item.checksum = Checksum(item.payload);
  }
  return pool;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Seconds(Duration d) {
  return std::chrono::duration<double>(d).count();
}

double Micros(Duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double ProcessCpuMicros() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t SpanLog::NextId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void SpanLog::Absorb(std::vector<Span> spans) {
  ds::MutexLock lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::size_t SpanLog::size() const {
  ds::MutexLock lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteJsonl(const std::string& path, TimePoint origin) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  ds::MutexLock lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"item\":%lld,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<long long>(s.item), Micros(s.start - origin),
                 Micros(s.end - origin));
  }
  return std::fclose(f) == 0;
}

RegistrySnapshot RegistrySnapshot::Take(core::Runtime& runtime) {
  RegistrySnapshot snap;
  for (std::size_t i = 0; i < runtime.size(); ++i) {
    auto parsed = json::Parse(runtime.as(i).MetricsJson());
    if (parsed.ok()) snap.spaces_.push_back(std::move(parsed).value());
  }
  return snap;
}

std::optional<double> RegistrySnapshot::Sum(const std::string& name) const {
  bool found = false;
  double total = 0;
  for (const json::Value& space : spaces_) {
    const json::Value* registry = space.Find("registry");
    if (registry == nullptr) continue;
    for (const char* kind : {"counters", "gauges", "providers"}) {
      const json::Value* group = registry->Find(kind);
      const json::Value* v = group ? group->Find(name) : nullptr;
      if (v != nullptr && v->is_number()) {
        total += v->AsDouble();
        found = true;
      }
    }
  }
  if (!found) return std::nullopt;
  return total;
}

std::optional<double> RegistrySnapshot::BusiestP50(
    const std::string& prefix) const {
  const json::Value* best = nullptr;
  double best_count = -1;
  for (const json::Value& space : spaces_) {
    const json::Value* hists = space.FindPath("registry.histograms");
    if (hists == nullptr || !hists->is_object()) continue;
    for (const auto& [name, h] : hists->AsObject()) {
      if (name.rfind(prefix, 0) != 0) continue;
      const json::Value* count = h.Find("count");
      if (count != nullptr && count->AsDouble() > best_count) {
        best_count = count->AsDouble();
        best = &h;
      }
    }
  }
  const json::Value* p50 = best ? best->Find("p50") : nullptr;
  if (p50 == nullptr) {
    MissingNames().insert(prefix + "*");
    return std::nullopt;
  }
  return p50->AsDouble();
}

std::set<std::string>& MissingNames() {
  static std::set<std::string> names;
  return names;
}

std::optional<double> Delta(const RegistrySnapshot& before,
                            const RegistrySnapshot& after,
                            const std::string& name) {
  auto a = after.Sum(name);
  if (!a) {
    MissingNames().insert(name);
    return std::nullopt;
  }
  // Instruments register lazily (a surrogate's counters appear with the
  // first session), so a name only the later snapshot has started at 0.
  return *a - before.Sum(name).value_or(0);
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
