#include "probes.hpp"

#include <algorithm>

#include "dstampede/app/image.hpp"
#include "dstampede/clf/endpoint.hpp"
#include "dstampede/client/client.hpp"
#include "dstampede/common/thread.hpp"
#include "dstampede/core/channel.hpp"
#include "dstampede/marshal/xdr.hpp"
#include "dstampede/transport/tcp.hpp"
#include "dstampede/transport/udp.hpp"

namespace perfbench {

using namespace dstampede;

namespace {

// Each probe runs at least kMinCalls calls (so every pool size is
// replayed at least once), then stops at kMaxCalls or kProbeTime.
constexpr std::size_t kMinCalls = 64;
constexpr std::size_t kMaxCalls = 20000;
constexpr Duration kProbeTime = std::chrono::milliseconds(250);
constexpr std::size_t kMaxDatagram = 60000;
constexpr std::size_t kReplyBytes = 32;

Deadline OpDeadline() { return Deadline::AfterMillis(10000); }

// Times fn(item, i) over the pool in stream order, one span per call
// under a "probe" root span.
template <typename Fn>
Result<Samples> Replay(const char* name, const std::vector<Item>& pool,
                       SpanLog& spans, Fn&& fn) {
  const std::uint64_t root = spans.NextId();
  std::vector<Span> local;
  Samples us;
  const TimePoint begin = Now();
  const TimePoint stop = begin + kProbeTime;
  for (std::size_t i = 0;
       i < kMaxCalls && (i < std::max(kMinCalls, pool.size()) || Now() < stop);
       ++i) {
    const Item& item = pool[i % pool.size()];
    const TimePoint start = Now();
    Status st = fn(item, i);
    const TimePoint end = Now();
    if (!st.ok()) return st;
    us.push_back(Micros(end - start));
    local.push_back(Span{name, spans.NextId(), root,
                         static_cast<std::int64_t>(i), start, end});
  }
  local.push_back(Span{"probe", root, 0, -1, begin, Now()});
  spans.Absorb(std::move(local));
  return us;
}

Status Expect(bool ok, const char* what) {
  return ok ? OkStatus() : InternalError(what);
}

}  // namespace

Result<Samples> ProbeContainer(const std::vector<Item>& pool, SpanLog& spans) {
  core::LocalChannel ch{core::ChannelAttr{}};
  const std::uint32_t conn = ch.Attach(core::ConnMode::kInputOutput, "probe");
  std::vector<SharedBuffer> shared;
  for (const Item& item : pool) shared.emplace_back(item.payload);
  return Replay("core.container", pool, spans,
                [&](const Item& item, std::size_t i) -> Status {
                  const auto ts = static_cast<Timestamp>(i);
                  DS_RETURN_IF_ERROR(
                      ch.Put(ts, shared[i % shared.size()], Deadline::Poll()));
                  auto got =
                      ch.Get(conn, core::GetSpec::Exact(ts), Deadline::Poll());
                  if (!got.ok()) return got.status();
                  DS_RETURN_IF_ERROR(ch.Consume(conn, ts));
                  return Expect(got->payload.size() == item.payload.size(),
                                "container returned a wrong item");
                });
}

Result<Samples> ProbeXdrEncode(const std::vector<Item>& pool, SpanLog& spans) {
  return Replay("marshal.xdr_encode", pool, spans,
                [](const Item& item, std::size_t i) -> Status {
                  marshal::XdrEncoder enc(item.payload.size() + 16);
                  enc.PutI64(static_cast<std::int64_t>(i));
                  enc.PutOpaque(item.payload);
                  Buffer wire = enc.Take();
                  return Expect(wire.size() >= item.payload.size() + 12,
                                "short XDR encoding");
                });
}

Result<Samples> ProbeXdrDecode(const std::vector<Item>& pool, SpanLog& spans) {
  std::vector<Buffer> wires;
  for (const Item& item : pool) {
    marshal::XdrEncoder enc(item.payload.size() + 16);
    enc.PutI64(0);
    enc.PutOpaque(item.payload);
    wires.push_back(enc.Take());
  }
  return Replay("marshal.xdr_decode", pool, spans,
                [&](const Item& item, std::size_t i) -> Status {
                  marshal::XdrDecoder dec(wires[i % wires.size()]);
                  auto ts = dec.GetI64();
                  if (!ts.ok()) return ts.status();
                  auto payload = dec.GetOpaque();
                  if (!payload.ok()) return payload.status();
                  return Expect(payload->size() == item.payload.size(),
                                "XDR decoded a wrong length");
                });
}

Result<Samples> ProbeClfRoundTrip(const std::vector<Item>& pool, bool shm,
                                  SpanLog& spans) {
  clf::Endpoint::Options opts;
  opts.enable_shm_fastpath = shm;
  DS_ASSIGN_OR_RETURN(auto a, clf::Endpoint::Create(opts));
  DS_ASSIGN_OR_RETURN(auto b, clf::Endpoint::Create(opts));
  // The reply is status-sized, as a Put's is.
  const Buffer reply(kReplyBytes, 0);
  Buffer got;
  transport::SockAddr from;
  return Replay("clf.roundtrip", pool, spans,
                [&](const Item& item, std::size_t) -> Status {
                  DS_RETURN_IF_ERROR(a->Send(b->addr(), item.payload));
                  DS_RETURN_IF_ERROR(b->Recv(got, from, OpDeadline()));
                  DS_RETURN_IF_ERROR(
                      Expect(got == item.payload, "clf corrupted a message"));
                  DS_RETURN_IF_ERROR(b->Send(from, reply));
                  return a->Recv(got, from, OpDeadline());
                });
}

Result<Samples> ProbeUdpRoundTrip(const std::vector<Item>& pool,
                                  SpanLog& spans) {
  DS_ASSIGN_OR_RETURN(auto a, transport::UdpSocket::Bind(0));
  DS_ASSIGN_OR_RETURN(auto b, transport::UdpSocket::Bind(0));
  Buffer got;
  transport::SockAddr from;
  // Loopback rarely drops; a lost leg is resent after 200 ms.
  auto leg = [&](transport::UdpSocket& src, transport::UdpSocket& dst,
                 std::span<const std::uint8_t> bytes) -> Status {
    for (int attempt = 0; attempt < 50; ++attempt) {
      DS_RETURN_IF_ERROR(src.SendTo(dst.bound_addr(), bytes));
      if (dst.RecvFrom(got, from, Deadline::AfterMillis(200)).ok()) {
        return Expect(got.size() == bytes.size(), "udp leg truncated");
      }
    }
    return TimeoutError("udp leg lost");
  };
  return Replay("transport.udp_roundtrip", pool, spans,
                [&](const Item& item, std::size_t) -> Status {
                  auto bytes = std::span<const std::uint8_t>(item.payload)
                                   .first(std::min(item.payload.size(),
                                                   kMaxDatagram));
                  DS_RETURN_IF_ERROR(leg(a, b, bytes));
                  return leg(b, a, bytes);
                });
}

Result<Samples> ProbeTcpRoundTrip(const std::vector<Item>& pool,
                                  SpanLog& spans) {
  DS_ASSIGN_OR_RETURN(auto listener, transport::TcpListener::Bind(0));
  DS_ASSIGN_OR_RETURN(auto client,
                      transport::TcpConnection::Connect(listener.bound_addr()));
  DS_ASSIGN_OR_RETURN(auto server,
                      listener.Accept(Deadline::AfterMillis(5000)));
  // The echo side runs on its own thread so legs larger than the
  // socket buffers cannot deadlock. A zero-length frame stops it.
  Thread echo([&server] {
    Buffer frame;
    while (server.RecvFrame(frame, OpDeadline()).ok() && !frame.empty()) {
      if (!server.SendFrame(frame).ok()) return;
    }
  });
  Buffer got;
  auto samples = Replay("transport.tcp_roundtrip", pool, spans,
                        [&](const Item& item, std::size_t) -> Status {
                          DS_RETURN_IF_ERROR(client.SendFrame(item.payload));
                          DS_RETURN_IF_ERROR(client.RecvFrame(got, OpDeadline()));
                          return Expect(got.size() == item.payload.size(),
                                        "tcp echo truncated");
                        });
  (void)client.SendFrame({});
  echo.join();
  return samples;
}

Result<ClientSamples> ProbeClient(const transport::SockAddr& listener,
                                  const std::vector<Item>& pool,
                                  SpanLog& spans) {
  client::CClient::Options opts;
  opts.server = listener;
  opts.name = "perfbench/probe-client";
  DS_ASSIGN_OR_RETURN(auto cc, client::CClient::Join(opts));
  DS_ASSIGN_OR_RETURN(ChannelId ch, cc->CreateChannel());
  DS_ASSIGN_OR_RETURN(core::Connection conn,
                      cc->Connect(ch, core::ConnMode::kInputOutput));
  // Each item is put, got back and consumed before the next, so the
  // channel holds one item at a time.
  ClientSamples out;
  const std::uint64_t root = spans.NextId();
  std::vector<Span> local;
  const TimePoint begin = Now();
  Status st;
  for (std::size_t i = 0; i < kMaxCalls && st.ok() &&
                          (i < std::max(kMinCalls, pool.size()) ||
                           Now() < begin + kProbeTime);
       ++i) {
    const Item& item = pool[i % pool.size()];
    const auto ts = static_cast<Timestamp>(i);
    Buffer payload = item.payload;
    const TimePoint put_start = Now();
    st = cc->Put(conn, ts, std::move(payload), OpDeadline());
    const TimePoint put_end = Now();
    if (!st.ok()) break;
    auto got = cc->Get(conn, core::GetSpec::Exact(ts), OpDeadline());
    const TimePoint get_end = Now();
    if (!got.ok()) {
      st = got.status();
      break;
    }
    st = Expect(Checksum(got->payload.span()) == item.checksum,
                "client got a corrupted item");
    if (st.ok()) st = cc->Consume(conn, ts);
    out.put_us.push_back(Micros(put_end - put_start));
    out.get_us.push_back(Micros(get_end - put_end));
    local.push_back(Span{"client.put", spans.NextId(), root,
                         static_cast<std::int64_t>(i), put_start, put_end});
    local.push_back(Span{"client.get", spans.NextId(), root,
                         static_cast<std::int64_t>(i), put_end, get_end});
  }
  local.push_back(Span{"probe", root, 0, -1, begin, Now()});
  spans.Absorb(std::move(local));
  (void)cc->Disconnect(conn);
  (void)cc->Leave();
  if (!st.ok()) return st;
  return out;
}

Result<Samples> ProbeBlend(SpanLog& spans) {
  constexpr std::size_t kFrameBytes = 74 * 1024;
  app::Compositor comp(2, kFrameBytes);
  std::vector<Item> frames(2);
  for (std::uint32_t j = 0; j < 2; ++j) {
    frames[j].payload = app::VirtualCamera(j, kFrameBytes).Grab(0);
  }
  Buffer composite = comp.MakeComposite();
  return Replay("app.blend", frames, spans,
                [&](const Item& frame, std::size_t i) -> Status {
                  return comp.Blend(composite, i % 2, frame.payload);
                });
}

}  // namespace perfbench
