// Layer probes for the traced run. Each replays the workload's own
// seeded item sequence through one layer's public entry point, in
// isolation, and records one span per call. The runtime itself carries
// no benchmark instrumentation.
#pragma once

#include <vector>

#include "dstampede/transport/socket.hpp"
#include "harness.hpp"

namespace perfbench {

// Per-call latencies in microseconds.
using Samples = std::vector<double>;

// core: LocalChannel Put + Get + Consume of one item.
dstampede::Result<Samples> ProbeContainer(const std::vector<Item>& pool,
                                          SpanLog& spans);
// marshal: XDR encode / decode of an item as the wire carries it
// (timestamp, then the payload as opaque bytes).
dstampede::Result<Samples> ProbeXdrEncode(const std::vector<Item>& pool,
                                          SpanLog& spans);
dstampede::Result<Samples> ProbeXdrDecode(const std::vector<Item>& pool,
                                          SpanLog& spans);
// clf: the item as a request and a status-sized reply between two bare
// endpoints, over UDP or the shared-memory fast path.
dstampede::Result<Samples> ProbeClfRoundTrip(const std::vector<Item>& pool,
                                             bool shm, SpanLog& spans);
// transport: raw loopback ping-pong, the paper's baselines. UDP legs
// are cut to one datagram (60000 bytes), the paper's largest size.
dstampede::Result<Samples> ProbeUdpRoundTrip(const std::vector<Item>& pool,
                                             SpanLog& spans);
dstampede::Result<Samples> ProbeTcpRoundTrip(const std::vector<Item>& pool,
                                             SpanLog& spans);

// client: CClient Put and Get through the listener, surrogate and the
// session's host space.
struct ClientSamples {
  Samples put_us;
  Samples get_us;
};
dstampede::Result<ClientSamples> ProbeClient(
    const dstampede::transport::SockAddr& listener,
    const std::vector<Item>& pool, SpanLog& spans);

// app: Compositor::Blend of one 74 KB camera frame into a 2-way composite.
dstampede::Result<Samples> ProbeBlend(SpanLog& spans);

}  // namespace perfbench
