// The relay load: one producer thread puts seeded items into a channel
// owned by another address space; one consumer thread, in the owner
// space, gets, verifies and consumes each one. Both loops are closed:
// every call waits for its reply before the next is issued.
//
// The consumer sits at the owner so its Get is local and never the
// bottleneck: with a remote consumer the bottleneck flips between the
// two ends from run to run, and latency measures queueing instead of
// the put path (see perfbench/README.md).
#pragma once

#include <cstdint>
#include <vector>

#include "harness.hpp"

namespace perfbench {

// Channel capacity the harness fixes for every stream: the app's
// default per-channel live-item bound.
inline constexpr std::size_t kChannelCapacity = 16;

struct RelaySession {
  dstampede::core::AddressSpace* producer = nullptr;
  dstampede::core::AddressSpace* owner = nullptr;
  dstampede::core::Connection out;  // producer's output connection
  dstampede::core::Connection in;   // consumer's input connection, at owner
  dstampede::Timestamp next_ts = 0;
};

// Creates the channel in `owner_as` and connects both ends.
dstampede::Result<RelaySession> OpenRelay(dstampede::core::Runtime& runtime,
                                          std::size_t producer_as,
                                          std::size_t owner_as);

struct RelayResult {
  std::uint64_t attempted = 0;   // items the producer put
  std::uint64_t failed = 0;      // items not delivered intact
  std::uint64_t mismatches = 0;  // delivered with wrong ts/length/checksum
  std::uint64_t delivered = 0;   // consumer gets returned inside the window
  double window_s = 0;
  double cpu_us = 0;             // process CPU over the window
  std::vector<double> bin_rates;   // items/s in each tenth of the window
  // Put start -> consumer Get return, binned by Put start like bin_rates.
  std::vector<std::vector<double>> bin_latency_us;
  std::vector<double> put_us;      // AddressSpace::Put call
  std::vector<double> get_wait_us; // consumer's Get call
  // Largest backlog (puts returned minus gets returned) in each tenth
  // of the window.
  std::vector<double> bin_backlog_max;
};

// Median over bins of each bin's q-quantile of latency: a stall that
// slows one stretch of the window moves one bin, not the figure.
double BinnedLatency(const RelayResult& r, double q);
std::size_t LatencySamples(const RelayResult& r);
// Median over bins of each bin's largest backlog. One descheduled
// consumer fills the channel for a moment; a backlog that stays high in
// most bins means latency has become queueing.
double BinnedBacklogMax(const RelayResult& r);

// Runs the relay for `warmup` then a timed `window`. Item i of the
// stream is pool[i % pool.size()]. With `spans` set, every item records
// a root span (put start to get return) with the Put and Get calls as
// children.
RelayResult RunRelay(RelaySession& session, const std::vector<Item>& pool,
                     Duration warmup, Duration window, SpanLog* spans);

}  // namespace perfbench
