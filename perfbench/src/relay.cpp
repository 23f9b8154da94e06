#include "relay.hpp"

#include <algorithm>
#include <array>
#include <atomic>

#include "dstampede/common/thread.hpp"

namespace perfbench {

using namespace dstampede;

namespace {

// Generous per-op deadline: a healthy relay op takes well under a
// millisecond, so hitting it means the op failed.
constexpr std::int64_t kOpDeadlineMs = 10000;
constexpr std::size_t kBins = 10;

// Per-item hand-off from producer to consumer. The producer is at most
// the channel capacity plus one item ahead, so the ring never laps.
constexpr std::size_t kRing = 4096;
struct Slot {
  std::atomic<std::int64_t> start_ns{0};  // Put start, ns since origin
  std::atomic<std::uint64_t> root_span{0};
  std::atomic<bool> put_failed{false};
};

}  // namespace

Result<RelaySession> OpenRelay(core::Runtime& runtime, std::size_t producer_as,
                               std::size_t owner_as) {
  RelaySession s;
  s.producer = &runtime.as(producer_as);
  s.owner = &runtime.as(owner_as);
  core::ChannelAttr attr;
  attr.capacity_items = kChannelCapacity;
  attr.debug_name = "perfbench/relay";
  DS_ASSIGN_OR_RETURN(ChannelId ch, s.owner->CreateChannel(attr));
  DS_ASSIGN_OR_RETURN(s.out, s.producer->Connect(ch, core::ConnMode::kOutput,
                                                 "perfbench-producer"));
  DS_ASSIGN_OR_RETURN(s.in, s.owner->Connect(ch, core::ConnMode::kInput,
                                             "perfbench-consumer"));
  return s;
}

double BinnedLatency(const RelayResult& r, double q) {
  std::vector<double> per_bin;
  for (const auto& bin : r.bin_latency_us) {
    if (!bin.empty()) per_bin.push_back(Quantile(bin, q));
  }
  return Quantile(per_bin, 0.5);
}

double BinnedBacklogMax(const RelayResult& r) {
  return Quantile(r.bin_backlog_max, 0.5);
}

std::size_t LatencySamples(const RelayResult& r) {
  std::size_t n = 0;
  for (const auto& bin : r.bin_latency_us) n += bin.size();
  return n;
}

RelayResult RunRelay(RelaySession& session, const std::vector<Item>& pool,
                     Duration warmup, Duration window, SpanLog* spans) {
  const TimePoint origin = Now();
  const TimePoint window_start = origin + warmup;
  const TimePoint window_end = window_start + window;
  const Timestamp base = session.next_ts;
  auto ns_since_origin = [origin](TimePoint t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  };

  auto ring = std::make_unique<std::array<Slot, kRing>>();
  std::atomic<Timestamp> last_ts{-1};
  std::atomic<std::uint64_t> puts_done{0};
  std::atomic<std::uint64_t> gets_done{0};

  RelayResult result;
  std::uint64_t put_failures = 0;
  std::vector<Span> producer_spans;
  std::vector<Span> consumer_spans;
  // Reserve for the fastest rate seen (small items, ~20k/s) with room
  // to spare, so no vector regrows, and stalls a thread, mid-window.
  const auto expected = static_cast<std::size_t>(
      25000 * Seconds(warmup + window) + 1024);
  result.bin_latency_us.resize(kBins);
  for (auto& bin : result.bin_latency_us) bin.reserve(expected / kBins);
  if (spans) {
    result.put_us.reserve(expected);
    result.get_wait_us.reserve(expected);
    producer_spans.reserve(expected);
    consumer_spans.reserve(2 * expected);
  }
  std::array<std::uint64_t, kBins> bins{};
  std::array<std::uint64_t, kBins> backlog_max{};

  Thread producer([&] {
    for (std::size_t i = 0;; ++i) {
      const Timestamp ts = base + static_cast<Timestamp>(i);
      Buffer payload = pool[i % pool.size()].payload;
      Slot& slot = (*ring)[static_cast<std::size_t>(ts) % kRing];
      const std::uint64_t root = spans ? spans->NextId() : 0;
      const TimePoint start = Now();
      const bool final = start >= window_end;
      if (final) last_ts.store(ts);
      slot.put_failed.store(false);
      slot.root_span.store(root);
      slot.start_ns.store(ns_since_origin(start));
      Status st = session.producer->Put(session.out, ts, std::move(payload),
                                        Deadline::AfterMillis(kOpDeadlineMs));
      const TimePoint end = Now();
      if (!st.ok()) {
        slot.put_failed.store(true);
        ++put_failures;
      }
      ++result.attempted;
      const std::uint64_t backlog =
          puts_done.fetch_add(1) + 1 - gets_done.load();
      if (end >= window_start && end < window_end) {
        auto& bin_max = backlog_max[std::min(
            static_cast<std::size_t>((end - window_start) * kBins / window),
            kBins - 1)];
        bin_max = std::max(bin_max, backlog);
      }
      if (spans) {
        result.put_us.push_back(Micros(end - start));
        producer_spans.push_back(
            Span{"core.put", spans->NextId(), root, ts, start, end});
      }
      if (final) break;
    }
  });

  Thread consumer([&] {
    for (std::size_t i = 0;; ++i) {
      const Timestamp ts = base + static_cast<Timestamp>(i);
      const Item& expect = pool[i % pool.size()];
      Slot& slot = (*ring)[static_cast<std::size_t>(ts) % kRing];
      const TimePoint get_start = Now();
      auto got = session.owner->Get(session.in, core::GetSpec::Exact(ts),
                                    Deadline::AfterMillis(kOpDeadlineMs));
      const TimePoint got_at = Now();
      gets_done.fetch_add(1);
      if (!got.ok()) {
        // A failed put is already counted; its get can only time out.
        if (!slot.put_failed.load()) ++result.failed;
      } else {
        const bool intact = got->timestamp == ts &&
                            got->payload.size() == expect.payload.size() &&
                            Checksum(got->payload.span()) == expect.checksum;
        if (!intact) ++result.mismatches;
        if (!session.owner->Consume(session.in, ts).ok() || !intact) {
          ++result.failed;
        }
        const TimePoint put_start =
            origin + std::chrono::nanoseconds(slot.start_ns.load());
        if (put_start >= window_start && put_start < window_end) {
          const auto bin = static_cast<std::size_t>(
              (put_start - window_start) * kBins / window);
          result.bin_latency_us[std::min(bin, kBins - 1)].push_back(
              Micros(got_at - put_start));
        }
        if (spans) {
          const std::uint64_t root = slot.root_span.load();
          result.get_wait_us.push_back(Micros(got_at - get_start));
          consumer_spans.push_back(
              Span{"relay.item", root, 0, ts, put_start, got_at});
          consumer_spans.push_back(Span{"core.get_wait", spans->NextId(), root,
                                        ts, get_start, got_at});
        }
      }
      if (got_at >= window_start && got_at < window_end) {
        ++result.delivered;
        const auto bin = static_cast<std::size_t>(
            (got_at - window_start) * kBins / window);
        ++bins[std::min(bin, kBins - 1)];
      }
      if (last_ts.load() == ts) break;
    }
  });

  SleepUntil(window_start);
  const double cpu_start = ProcessCpuMicros();
  SleepUntil(window_end);
  result.cpu_us = ProcessCpuMicros() - cpu_start;
  producer.join();
  consumer.join();

  result.failed += put_failures;
  result.window_s = Seconds(window);
  for (std::size_t b = 0; b < kBins; ++b) {
    result.bin_rates.push_back(static_cast<double>(bins[b]) * kBins /
                               result.window_s);
    result.bin_backlog_max.push_back(static_cast<double>(backlog_max[b]));
  }
  session.next_ts = last_ts.load() + 1;
  if (spans) {
    spans->Absorb(std::move(producer_spans));
    spans->Absorb(std::move(consumer_spans));
  }
  return result;
}

}  // namespace perfbench
