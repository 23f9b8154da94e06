// Shared pieces of the perfbench harness: seeded item pools, exact
// quantiles, the in-memory span log, process CPU and memory readings,
// and by-name reads of the runtime's metrics registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "dstampede/common/bytes.hpp"
#include "dstampede/common/clock.hpp"
#include "dstampede/common/json.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/core/runtime.hpp"

namespace perfbench {

using dstampede::Buffer;
using dstampede::Duration;
using dstampede::TimePoint;

// --- inputs ---------------------------------------------------------------

// One generated stream item and the checksum its consumer verifies.
struct Item {
  Buffer payload;
  std::uint64_t checksum = 0;
};

// Four-lane multiply-rotate hash: order- and length-sensitive, and
// cheap enough (about 1 cycle per 8 bytes) that verifying a 256 KB item
// costs a small share of its relay.
std::uint64_t Checksum(std::span<const std::uint8_t> bytes);

// `count` items with sizes spread evenly over [min_bytes, max_bytes]
// in a seeded order; sizes and bytes are a pure function of `seed`.
std::vector<Item> MakePool(std::uint64_t seed, std::size_t count,
                           std::size_t min_bytes, std::size_t max_bytes);

// --- statistics -------------------------------------------------------------

// Linear-interpolated quantile (q in [0,1]) of the samples; 0 if empty.
double Quantile(std::vector<double> samples, double q);

double Seconds(Duration d);
double Micros(Duration d);

// User+system CPU of the whole process, in microseconds.
double ProcessCpuMicros();
// Peak resident set of the process, in MiB.
double PeakRssMib();

// --- tracing ----------------------------------------------------------------

// A span at a layer boundary: the benchmark's own call into a layer.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: root
  std::int64_t item = -1;    // item id (timestamp or pool index)
  TimePoint start;
  TimePoint end;
};

// Spans stay in memory and are written out once, at exit. Each thread
// fills its own vector and hands it over with Absorb, so recording a
// span takes no lock.
class SpanLog {
 public:
  std::uint64_t NextId();
  void Absorb(std::vector<Span> spans);
  std::size_t size() const;
  // One JSON object per line; times in microseconds since `origin`.
  bool WriteJsonl(const std::string& path, TimePoint origin) const;

 private:
  std::atomic<std::uint64_t> next_id_{1};
  mutable ds::Mutex mu_{"perfbench.spans_mu"};
  std::vector<Span> spans_ DS_GUARDED_BY(mu_);
};

// --- the runtime's own instruments ------------------------------------------

// Registry snapshot of every address space of a runtime, read through
// the same JSON document the sys/metrics RPC and dsctl serve. Names
// are looked up as strings; a name no space exports yields nullopt and
// (through Delta and BusiestP50) lands in MissingNames, so a renamed
// instrument drops a metric instead of failing the run.
class RegistrySnapshot {
 public:
  static RegistrySnapshot Take(dstampede::core::Runtime& runtime);

  // Counter or provider value summed over spaces.
  std::optional<double> Sum(const std::string& name) const;
  // p50 of the histogram with the most samples among those whose name
  // starts with `prefix`.
  std::optional<double> BusiestP50(const std::string& prefix) const;

 private:
  std::vector<dstampede::json::Value> spaces_;
};

// Registry names that some lookup did not find, over the whole run.
std::set<std::string>& MissingNames();

// after - before (0 when only `after` has the name), or nullopt if
// `after` lacks it.
std::optional<double> Delta(const RegistrySnapshot& before,
                            const RegistrySnapshot& after,
                            const std::string& name);

// --- output -------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// Prints the result object as one line on stdout.
void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Metrics& metrics);

}  // namespace perfbench
