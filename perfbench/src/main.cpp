// perfbench: the repository benchmark.
//
//   perfbench --workload <relay_small|relay_large_shm|conference>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the same
// workload with spans around every call the benchmark makes into a
// layer, replays the workload's items through each layer in isolation,
// and reports the per-layer metrics. The last line of stdout is the
// result object; the line before it records the seed, the load the
// run applied and the sample counts behind each quantile.
// perfbench/README.md maps every metric to its layer and workload.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "dstampede/app/videoconf.hpp"
#include "dstampede/client/client.hpp"
#include "dstampede/client/listener.hpp"
#include "probes.hpp"
#include "relay.hpp"

namespace perfbench {
namespace {

using namespace dstampede;

// Set-up is repeated this many times per run and reported as a median;
// the last cluster brought up is the one measured.
constexpr int kSetups = 9;
// Untraced runs pool this many independent clusters.
constexpr int kClusters = 8;
constexpr Duration kWarmup = std::chrono::milliseconds(500);
// Frames per conference Run: ~0.3 s each, so a run gets tens of Runs.
constexpr Timestamp kConferenceFrames = 400;
constexpr std::size_t kFrameBytes = 74 * 1024;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

struct WorkloadSpec {
  std::size_t spaces = 2;
  bool shm = false;
  bool conference = false;
  // Item pool: count and size range.
  std::size_t pool_items = 0;
  std::size_t min_bytes = 0;
  std::size_t max_bytes = 0;
  std::size_t load_threads = 0;
  std::size_t tcp_connections = 0;
};

bool LookupWorkload(const std::string& name, WorkloadSpec& spec) {
  if (name == "relay_small") {
    spec = WorkloadSpec{2, false, false, 1024, 64, 1024, 2, 0};
  } else if (name == "relay_large_shm") {
    spec = WorkloadSpec{2, true, false, 64, 32 * 1024, 256 * 1024, 2, 0};
  } else if (name == "conference") {
    // Two participants: a camera and a display thread each, one TCP
    // session per device. The cameras synthesize their own frames; the
    // pool feeds the frame relay and the layer probes.
    spec = WorkloadSpec{3, false, true, 16, kFrameBytes, kFrameBytes, 4, 4};
  } else {
    return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--spans") {
      args.spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

Duration SecondsToDuration(double s) {
  return std::chrono::duration_cast<Duration>(std::chrono::duration<double>(s));
}

// --- set-up -------------------------------------------------------------------

// Reset a cluster before assigning another to it: member-wise move
// assignment would destroy the runtime before its listener.
struct Cluster {
  std::unique_ptr<core::Runtime> runtime;
  std::unique_ptr<client::Listener> listener;

  // The listener refers to the runtime, so it goes first.
  void Reset() {
    if (listener) listener->Shutdown();
    listener.reset();
    if (runtime) runtime->Shutdown();
    runtime.reset();
  }
};

struct SetupTimes {
  std::vector<double> runtime_s;
  std::vector<double> listener_s;
  std::vector<double> total_s;
};

// Brings a cluster up `count` times (runtime, listener, then the
// workload's session via `session`), shuts all but the last down, and
// records each bring-up.
Result<Cluster> BringUp(const WorkloadSpec& spec, SetupTimes& times,
                        const std::function<Status(Cluster&)>& session,
                        int count) {
  core::Runtime::Options opts;
  opts.num_address_spaces = spec.spaces;
  opts.shm_fastpath = spec.shm;
  Cluster cluster;
  for (int i = 0; i < count; ++i) {
    cluster.Reset();
    const TimePoint t0 = Now();
    DS_ASSIGN_OR_RETURN(cluster.runtime, core::Runtime::Create(opts));
    const TimePoint t1 = Now();
    DS_ASSIGN_OR_RETURN(cluster.listener,
                        client::Listener::Start(*cluster.runtime));
    const TimePoint t2 = Now();
    DS_RETURN_IF_ERROR(session(cluster));
    const TimePoint t3 = Now();
    times.runtime_s.push_back(Seconds(t1 - t0));
    times.listener_s.push_back(Seconds(t2 - t1));
    times.total_s.push_back(Seconds(t3 - t0));
  }
  return cluster;
}

// Set-up failing means the program cannot run the workload at all.
Cluster BringUpOrDie(const WorkloadSpec& spec, SetupTimes& times,
                     const std::function<Status(Cluster&)>& session,
                     int count) {
  auto cluster = BringUp(spec, times, session, count);
  if (!cluster.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 cluster.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(cluster).value();
}

// A device session joins through the listener and leaves again.
Status DeviceSession(Cluster& cluster) {
  client::CClient::Options opts;
  opts.server = cluster.listener->addr();
  opts.name = "perfbench/setup-device";
  DS_ASSIGN_OR_RETURN(auto device, client::CClient::Join(opts));
  return device->Leave();
}

// --- results ------------------------------------------------------------------

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::pair<std::string, std::size_t>> sample_counts;
};

void Put(Metrics& m, const std::string& name, double value,
         const std::string& unit) {
  m[name] = Metric{value, unit};
}

// Adds a metric computed from registry reads; skipped (and the names
// already listed as missing) when a read came back empty.
void PutIf(Metrics& m, const std::string& name, std::optional<double> value,
           const std::string& unit) {
  if (value) Put(m, name, *value, unit);
}

std::optional<double> Ratio(std::optional<double> num,
                            std::optional<double> den, double scale = 1) {
  if (!num || !den) return std::nullopt;
  return *den > 0 ? scale * *num / *den : 0.0;
}

void PutSetup(Metrics& m, const SetupTimes& times, bool traced) {
  if (traced) {
    Put(m, "setup.runtime_create_s", Quantile(times.runtime_s, 0.5), "s");
    Put(m, "setup.listener_start_s", Quantile(times.listener_s, 0.5), "s");
  } else {
    Put(m, "setup_s", Quantile(times.total_s, 0.5), "s");
  }
}

// The listener places device sessions round-robin over the spaces, so
// consecutive conference Runs on one cluster cycle through placements
// whose rates differ by up to 30 %. Each group of `group` consecutive
// Runs covers every placement once; appends each whole group's mean.
void AppendGroupMeans(const std::vector<double>& runs, std::size_t group,
                      std::vector<double>& means) {
  for (std::size_t i = 0; i + group <= runs.size(); i += group) {
    double sum = 0;
    for (std::size_t j = i; j < i + group; ++j) sum += runs[j];
    means.push_back(sum / static_cast<double>(group));
  }
}

double OkRatio(const Outcome& o) {
  return o.attempted == 0
             ? 0.0
             : static_cast<double>(o.attempted - o.failed) /
                   static_cast<double>(o.attempted);
}

void AddRelay(Outcome& o, const RelayResult& r) {
  o.attempted += r.attempted;
  o.failed += r.failed;
  if (r.mismatches > 0) o.correct = false;
}

// Per-layer registry ratios over one measured stretch of `items`
// stream items (relay items or conference frames).
void PutRegistryLayers(Metrics& m, const RegistrySnapshot& before,
                       const RegistrySnapshot& after, double items) {
  const std::optional<double> n = items;
  PutIf(m, "core.dispatch_requests_per_item",
        Ratio(Delta(before, after, "dispatch.requests"), n), "count");
  PutIf(m, "core.dispatch_deferred_per_frame",
        Ratio(Delta(before, after, "dispatch.deferred"), n), "count");
  PutIf(m, "gc.reclaimed_ratio",
        Ratio(Delta(before, after, "stm.reclaimed_items"),
              Delta(before, after, "stm.puts")),
        "ratio");
  PutIf(m, "gc.reclaim_lag.p50_us", after.BusiestP50("stm.reclaim_lag_us"),
        "us");
  const auto sent = Delta(before, after, "clf.data_packets_sent");
  const auto resent = Delta(before, after, "clf.retransmissions");
  PutIf(m, "clf.packets_per_item", Ratio(sent, n), "count");
  PutIf(m, "clf.retransmits_per_kpacket", Ratio(resent, sent, 1000), "count");
  if (sent && resent) {
    // Share of data transmissions that were first sends; with no UDP
    // data packets at all (shm path) nothing was wasted.
    const double total = *sent + *resent;
    Put(m, "clf.useful_packet_ratio", total > 0 ? *sent / total : 1.0,
        "ratio");
  }
  // Histograms cannot be differenced; the RTT reading covers the
  // cluster's life up to this point. Without UDP data packets (the shm
  // path) there is no round trip to time.
  if (sent && *sent == 0) {
    Put(m, "clf.rtt.p50_us", 0, "us");
  } else {
    PutIf(m, "clf.rtt.p50_us", after.BusiestP50("clf.rtt_us."), "us");
  }
}

// Layer probes shared by every traced run. Returns the sum of the
// medians the latency ledger subtracts.
double PutProbes(Metrics& m, Outcome& o, const std::vector<Item>& pool,
                 bool shm, Cluster& cluster, SpanLog& spans) {
  double attributed = 0;
  auto median = [&](const char* metric, Result<Samples> samples,
                    bool ledger) {
    ++o.attempted;
    if (!samples.ok()) {
      std::fprintf(stderr, "probe %s failed: %s\n", metric,
                   samples.status().ToString().c_str());
      ++o.failed;
      return;
    }
    const double p50 = Quantile(*samples, 0.5);
    Put(m, metric, p50, "us");
    o.sample_counts.emplace_back(metric, samples->size());
    if (ledger) attributed += p50;
  };
  median("core.container.p50_us", ProbeContainer(pool, spans), true);
  median("marshal.xdr_encode.p50_us", ProbeXdrEncode(pool, spans), true);
  median("marshal.xdr_decode.p50_us", ProbeXdrDecode(pool, spans), true);
  median("clf.roundtrip.p50_us", ProbeClfRoundTrip(pool, shm, spans), true);
  median("transport.udp_roundtrip.p50_us", ProbeUdpRoundTrip(pool, spans),
         false);
  median("transport.tcp_roundtrip.p50_us", ProbeTcpRoundTrip(pool, spans),
         false);
  median("app.blend.p50_us", ProbeBlend(spans), false);

  ++o.attempted;
  const auto before = RegistrySnapshot::Take(*cluster.runtime);
  auto client = ProbeClient(cluster.listener->addr(), pool, spans);
  const auto after = RegistrySnapshot::Take(*cluster.runtime);
  if (client.ok()) {
    Put(m, "client.put.p50_us", Quantile(client->put_us, 0.5), "us");
    Put(m, "client.get.p50_us", Quantile(client->get_us, 0.5), "us");
    o.sample_counts.emplace_back("client", client->put_us.size());
    // The conference counts surrogate calls over its own Runs; the relays
    // have no other client traffic, so the probe's items are the base.
    if (!m.count("client.surrogate_calls_per_frame")) {
      PutIf(m, "client.surrogate_calls_per_frame",
            Ratio(Delta(before, after, "surrogate.calls"),
                  static_cast<double>(client->put_us.size())),
            "count");
    }
  } else {
    std::fprintf(stderr, "client probe failed: %s\n",
                 client.status().ToString().c_str());
    ++o.failed;
  }
  return attributed;
}

// In-situ relay layers from a traced relay, and the ledger against the
// untraced relay's median latency.
void PutRelayLayers(Metrics& m, Outcome& o, const RelayResult& untraced,
                    const RelayResult& traced, double attributed) {
  Put(m, "core.put.p50_us", Quantile(traced.put_us, 0.5), "us");
  Put(m, "core.put.p99_us", Quantile(traced.put_us, 0.99), "us");
  Put(m, "core.get_wait.p50_us", Quantile(traced.get_wait_us, 0.5), "us");
  Put(m, "core.backlog_max_items", BinnedBacklogMax(traced), "count");
  const double latency = BinnedLatency(untraced, 0.5);
  Put(m, "ledger.latency_p50_us", latency, "us");
  Put(m, "ledger.unattributed_us", latency - attributed, "us");
  const double rate_untraced =
      static_cast<double>(untraced.delivered) / untraced.window_s;
  const double rate_traced =
      static_cast<double>(traced.delivered) / traced.window_s;
  Put(m, "trace.overhead_ratio",
      rate_untraced > 0 ? rate_traced / rate_untraced : 0, "ratio");
  o.sample_counts.emplace_back("core.put", traced.put_us.size());
  o.sample_counts.emplace_back("ledger.latency", LatencySamples(untraced));
}

// --- workloads ----------------------------------------------------------------

// Folds one relay sub-run into the running total.
void Merge(RelayResult& into, const RelayResult& r) {
  into.attempted += r.attempted;
  into.failed += r.failed;
  into.mismatches += r.mismatches;
  into.delivered += r.delivered;
  into.window_s += r.window_s;
  into.cpu_us += r.cpu_us;
  into.bin_rates.insert(into.bin_rates.end(), r.bin_rates.begin(),
                        r.bin_rates.end());
  into.bin_latency_us.insert(into.bin_latency_us.end(),
                             r.bin_latency_us.begin(), r.bin_latency_us.end());
}

Outcome RunRelayWorkload(const Args& args, const WorkloadSpec& spec,
                         SpanLog& spans) {
  Outcome o;
  Metrics& m = o.metrics;
  const auto pool =
      MakePool(args.seed, spec.pool_items, spec.min_bytes, spec.max_bytes);
  SetupTimes times;
  RelaySession session;
  auto open_relay = [&](Cluster& c) -> Status {
    DS_ASSIGN_OR_RETURN(session, OpenRelay(*c.runtime, 0, 1));
    return OkStatus();
  };

  if (!args.trace) {
    // The measured window is split over kClusters fresh clusters. A
    // relay's rate drifts for seconds at a time and differs between
    // clusters of one run; pooling independent clusters and taking
    // medians over short bins keeps one slow stretch from setting a
    // run's figures.
    RelayResult total;
    const Duration window = SecondsToDuration(args.seconds / kClusters);
    for (int c = 0; c < kClusters; ++c) {
      Cluster cluster =
          BringUpOrDie(spec, times, open_relay, c == 0 ? kSetups : 1);
      Merge(total, RunRelay(session, pool, kWarmup, window, nullptr));
      cluster.Reset();
    }
    AddRelay(o, total);
    const double rate = Quantile(total.bin_rates, 0.5);
    Put(m, "items_per_s", rate, "1/s");
    Put(m, "fps_min", rate, "1/s");  // the relay has one display
    Put(m, "latency_p50_us", BinnedLatency(total, 0.5), "us");
    Put(m, "latency_p99_us", BinnedLatency(total, 0.99), "us");
    Put(m, "cpu_us_per_item",
        total.cpu_us /
            static_cast<double>(std::max<std::uint64_t>(total.delivered, 1)),
        "us");
    Put(m, "peak_rss_mb", PeakRssMib(), "MiB");
    Put(m, "ok_ratio", OkRatio(o), "ratio");
    PutSetup(m, times, false);
    o.sample_counts.emplace_back("latency", LatencySamples(total));
    o.sample_counts.emplace_back("rate_bins", total.bin_rates.size());
    o.sample_counts.emplace_back("setups", times.total_s.size());
    return o;
  }

  Cluster cluster = BringUpOrDie(spec, times, open_relay, kSetups);
  const Duration window = SecondsToDuration(args.seconds / 2);
  const RelayResult untraced =
      RunRelay(session, pool, kWarmup, window, nullptr);
  const auto before = RegistrySnapshot::Take(*cluster.runtime);
  const RelayResult traced = RunRelay(session, pool, kWarmup, window, &spans);
  const auto after = RegistrySnapshot::Take(*cluster.runtime);
  AddRelay(o, untraced);
  AddRelay(o, traced);
  PutSetup(m, times, true);
  PutRegistryLayers(m, before, after, static_cast<double>(traced.attempted));
  const double attributed = PutProbes(m, o, pool, spec.shm, cluster, spans);
  PutRelayLayers(m, o, untraced, traced, attributed);
  Put(m, "app.producer_slips", 0, "count");  // no camera in a relay
  cluster.Reset();
  return o;
}

struct ConferenceTotals {
  std::vector<double> fps_min;  // group means, see AppendGroupMeans
  std::vector<double> fps_sum;  // composite frames/s summed over displays
  std::uint64_t frames = 0;
  std::uint64_t slips = 0;
  double cpu_us = 0;
};

// Repeats conference Runs on one cluster for `window`, after one
// unmeasured Run that lets caches fill and lazy set-up finish.
void RunConferences(Cluster& cluster, const app::VideoConfConfig& config,
                    Duration window, std::size_t group, SpanLog* spans,
                    Outcome& o, ConferenceTotals& totals) {
  (void)app::VideoConfApp::Run(*cluster.runtime, *cluster.listener, config);
  std::vector<double> fps_min, fps_sum;
  const std::uint64_t root = spans ? spans->NextId() : 0;
  std::vector<Span> run_spans;
  const TimePoint start = Now();
  const double cpu_start = ProcessCpuMicros();
  for (std::int64_t run = 0; Now() - start < window; ++run) {
    const TimePoint run_start = Now();
    auto report =
        app::VideoConfApp::Run(*cluster.runtime, *cluster.listener, config);
    ++o.attempted;
    if (spans) {
      run_spans.push_back(Span{"app.conference_run", spans->NextId(), root,
                               run, run_start, Now()});
    }
    if (!report.ok() || report->frames_completed != config.num_frames) {
      std::fprintf(stderr, "conference run failed: %s\n",
                   report.ok() ? "short run"
                               : report.status().ToString().c_str());
      ++o.failed;
      // Frame validation reports kInternal: wrong output, not only a
      // failed op.
      if (!report.ok() && report.status().code() == StatusCode::kInternal) {
        o.correct = false;
      }
      // Keep the placement cycle aligned for the group means.
      fps_min.push_back(0);
      fps_sum.push_back(0);
      continue;
    }
    totals.frames += static_cast<std::uint64_t>(report->frames_completed);
    totals.slips += report->producer_slips;
    double sum = 0;
    for (double fps : report->display_fps) sum += fps;
    fps_min.push_back(report->min_display_fps);
    fps_sum.push_back(sum);
  }
  totals.cpu_us += ProcessCpuMicros() - cpu_start;
  AppendGroupMeans(fps_min, group, totals.fps_min);
  AppendGroupMeans(fps_sum, group, totals.fps_sum);
  if (spans) spans->Absorb(std::move(run_spans));
}

Outcome RunConferenceWorkload(const Args& args, const WorkloadSpec& spec,
                              SpanLog& spans) {
  Outcome o;
  Metrics& m = o.metrics;
  SetupTimes times;
  app::VideoConfConfig config;
  config.num_clients = 2;
  config.image_bytes = kFrameBytes;
  config.multithreaded_mixer = true;
  config.mixer_as = 2;
  config.channel_capacity = kChannelCapacity;
  config.num_frames = kConferenceFrames;
  config.warmup_frames = kConferenceFrames / 10;
  config.validate_frames = args.trace;

  // Conference Runs fill most of the window. A frame's trip from camera
  // to display happens inside Run, out of the benchmark's reach, so the
  // rest of each cluster's share relays frame-sized items from a
  // camera's space (AS0) to the mixer's (AS2): the multi-fragment
  // CLF/UDP hop every frame takes. Latency comes from that relay.
  // Untraced, the window is spread over kClusters fresh clusters, as the
  // relays' is.
  const int clusters = args.trace ? 1 : kClusters;
  const double share = args.seconds / clusters;
  const Duration window = SecondsToDuration(share * (args.trace ? 0.5 : 0.8));
  const Duration relay_window = args.trace ? std::chrono::seconds(1)
                                           : SecondsToDuration(share * 0.2);
  const auto pool =
      MakePool(args.seed, spec.pool_items, spec.min_bytes, spec.max_bytes);
  ConferenceTotals totals;
  RelayResult untraced;
  Cluster cluster;
  RelaySession session;
  RegistrySnapshot before, after;
  for (int c = 0; c < clusters; ++c) {
    cluster.Reset();
    cluster = BringUpOrDie(spec, times, DeviceSession, c == 0 ? kSetups : 1);
    before = RegistrySnapshot::Take(*cluster.runtime);
    RunConferences(cluster, config, window, spec.spaces,
                   args.trace ? &spans : nullptr, o, totals);
    after = RegistrySnapshot::Take(*cluster.runtime);
    auto opened = OpenRelay(*cluster.runtime, 0, 2);
    if (!opened.ok()) {
      std::fprintf(stderr, "frame relay failed: %s\n",
                   opened.status().ToString().c_str());
      ++o.attempted;
      ++o.failed;
      continue;
    }
    session = *opened;
    // A cluster's share holds too few frame relay items for ten bins,
    // so each cluster's samples form one bin.
    RelayResult part =
        RunRelay(session, pool, kWarmup / 2, relay_window, nullptr);
    auto& bins = part.bin_latency_us;
    for (std::size_t b = 1; b < bins.size(); ++b) {
      bins[0].insert(bins[0].end(), bins[b].begin(), bins[b].end());
    }
    bins.resize(1);
    Merge(untraced, part);
  }
  o.sample_counts.emplace_back("conference_groups", totals.fps_min.size());
  PutSetup(m, times, args.trace);
  AddRelay(o, untraced);
  if (session.owner == nullptr) {
    cluster.Reset();
    return o;
  }

  if (!args.trace) {
    Put(m, "fps_min", Quantile(totals.fps_min, 0.5), "1/s");
    // Composite frames delivered per second, summed over the displays.
    Put(m, "items_per_s", Quantile(totals.fps_sum, 0.5), "1/s");
    Put(m, "latency_p50_us", BinnedLatency(untraced, 0.5), "us");
    Put(m, "latency_p99_us", BinnedLatency(untraced, 0.99), "us");
    Put(m, "cpu_us_per_item",
        totals.cpu_us /
            static_cast<double>(std::max<std::uint64_t>(totals.frames, 1)),
        "us");
    Put(m, "peak_rss_mb", PeakRssMib(), "MiB");
    Put(m, "ok_ratio", OkRatio(o), "ratio");
    o.sample_counts.emplace_back("latency", LatencySamples(untraced));
  } else {
    const double frames = static_cast<double>(totals.frames);
    PutRegistryLayers(m, before, after, frames);
    PutIf(m, "client.surrogate_calls_per_frame",
          Ratio(Delta(before, after, "surrogate.calls"), frames), "count");
    Put(m, "app.producer_slips", static_cast<double>(totals.slips), "count");
    // The in-situ core layers come from the frame relay as well.
    const RelayResult traced =
        RunRelay(session, pool, kWarmup, relay_window, &spans);
    AddRelay(o, traced);
    const double attributed = PutProbes(m, o, pool, spec.shm, cluster, spans);
    PutRelayLayers(m, o, untraced, traced, attributed);
  }
  cluster.Reset();
  return o;
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, args) || !LookupWorkload(args.workload, spec)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<relay_small|relay_large_shm|conference> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>]\n");
    return 2;
  }
  // glibc adapts its mmap and trim thresholds to the sizes it sees
  // freed. With 32-256 KB items that flips large-buffer allocation
  // between the heap and mmap/munmap from run to run, which swung the
  // shm relay between about 2.5k and 12k items/s. Fixed thresholds keep
  // every large buffer on the heap, so each run measures the same
  // allocator.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  const TimePoint origin = Now();
  SpanLog spans;
  Outcome o = spec.conference ? RunConferenceWorkload(args, spec, spans)
                              : RunRelayWorkload(args, spec, spans);

  if (args.trace && !args.spans_path.empty() &&
      !spans.WriteJsonl(args.spans_path, origin)) {
    std::fprintf(stderr, "cannot write spans to %s\n",
                 args.spans_path.c_str());
  }

  std::string info = "{\"workload\": \"" + args.workload + "\"";
  info += ", \"seed\": " + std::to_string(args.seed);
  info += ", \"trace\": " + std::to_string(args.trace ? 1 : 0);
  info += ", \"load_threads\": " + std::to_string(spec.load_threads);
  info += ", \"tcp_connections\": " + std::to_string(spec.tcp_connections);
  info += ", \"spans\": " + std::to_string(spans.size());
  info += ", \"samples\": {";
  for (std::size_t i = 0; i < o.sample_counts.size(); ++i) {
    if (i) info += ", ";
    info += "\"" + o.sample_counts[i].first +
            "\": " + std::to_string(o.sample_counts[i].second);
  }
  info += "}, \"missing_registry_names\": [";
  bool first = true;
  for (const std::string& name : MissingNames()) {
    info += (first ? "\"" : ", \"") + name + "\"";
    first = false;
  }
  info += "]}";
  std::printf("%s\n", info.c_str());
  PrintResult(o.correct && o.attempted > 0, std::max<std::uint64_t>(o.attempted, 1),
              o.failed, o.metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
