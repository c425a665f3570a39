#include "net/transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "net/chaos.h"
#include "net/tcp.h"
#include "net/wire.h"
#include "obs/crc32.h"
#include "obs/metrics.h"

namespace gtv::net {
namespace {

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

// --- frame codec -----------------------------------------------------------------

TEST(FrameCodecTest, RoundTrip) {
  Frame frame;
  frame.link = "client0->server";
  frame.seq = 41;
  frame.payload = bytes_of({1, 2, 3, 250, 0, 7});
  const auto encoded = encode_frame(frame);
  ASSERT_EQ(encoded.size(), kFrameHeaderBytes + frame.link.size() + frame.payload.size());
  const Frame back = decode_frame(encoded);
  EXPECT_EQ(back.link, frame.link);
  EXPECT_EQ(back.seq, 41u);
  EXPECT_EQ(back.payload, frame.payload);
}

TEST(FrameCodecTest, EmptyPayloadRoundTrip) {
  Frame frame;
  frame.link = "x";
  const Frame back = decode_frame(encode_frame(frame));
  EXPECT_TRUE(back.payload.empty());
  EXPECT_EQ(back.seq, 0u);
}

TEST(FrameCodecTest, HeaderIsLittleEndianWithMagic) {
  Frame frame;
  frame.link = "ab";
  frame.payload = bytes_of({9});
  const auto encoded = encode_frame(frame);
  // magic "GTVF" little-endian: 46 56 54 47.
  EXPECT_EQ(encoded[0], 0x46u);
  EXPECT_EQ(encoded[1], 0x56u);
  EXPECT_EQ(encoded[2], 0x54u);
  EXPECT_EQ(encoded[3], 0x47u);
  EXPECT_EQ(encoded[4], kProtocolVersion & 0xffu);  // version lo byte
  EXPECT_EQ(encoded[6], 2u);                        // link_len lo byte
  EXPECT_EQ(encoded[8], 1u);                        // payload_len lo byte
}

TEST(FrameCodecTest, BadMagicThrowsWireError) {
  Frame frame;
  frame.link = "l";
  auto encoded = encode_frame(frame);
  encoded[0] ^= 0xff;
  EXPECT_THROW(decode_frame(encoded), WireError);
}

TEST(FrameCodecTest, VersionMismatchThrowsVersionError) {
  Frame frame;
  frame.link = "l";
  auto encoded = encode_frame(frame);
  encoded[4] = static_cast<std::uint8_t>(kProtocolVersion + 1);
  EXPECT_THROW(decode_frame(encoded), VersionError);
}

TEST(FrameCodecTest, FlippedPayloadByteThrowsCorruptFrameError) {
  Frame frame;
  frame.link = "client1->server";
  frame.payload = bytes_of({10, 20, 30});
  auto encoded = encode_frame(frame);
  encoded[encoded.size() - 2] ^= 0x01;
  EXPECT_THROW(decode_frame(encoded), CorruptFrameError);
  // CorruptFrameError must be catchable as the wire/base error types too.
  encoded = encode_frame(frame);
  encoded[kFrameHeaderBytes] ^= 0x80;  // first link byte, also CRC-covered
  EXPECT_THROW(decode_frame(encoded), WireError);
  encoded = encode_frame(frame);
  encoded[kFrameHeaderBytes] ^= 0x80;
  EXPECT_THROW(decode_frame(encoded), TransportError);
}

TEST(FrameCodecTest, TruncationAtEveryLengthThrows) {
  Frame frame;
  frame.link = "a->b";
  frame.payload = bytes_of({1, 2, 3, 4, 5});
  const auto encoded = encode_frame(frame);
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    std::vector<std::uint8_t> cut(encoded.begin(), encoded.begin() + len);
    EXPECT_THROW(decode_frame(cut.data(), cut.size()), WireError) << "len=" << len;
  }
  // Trailing garbage is rejected too.
  auto padded = encoded;
  padded.push_back(0);
  EXPECT_THROW(decode_frame(padded), WireError);
}

TEST(FrameCodecTest, CrcMatchesKnownVector) {
  // CRC-32 (IEEE) of "123456789" is the classic check value 0xcbf43926.
  const std::string s = "123456789";
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  EXPECT_EQ(obs::crc32(p, s.size()), 0xcbf43926u);
  // Split feeds chain to the same value as one pass.
  EXPECT_EQ(obs::crc32_update(obs::crc32(p, 4), p + 4, s.size() - 4), 0xcbf43926u);
  EXPECT_EQ(obs::crc32_update(obs::crc32(p, s.size()), p, 0), 0xcbf43926u);
}

// --- Transport sequencing --------------------------------------------------------

TEST(TransportSeqTest, DeliversInOrderAndDropsDuplicates) {
  InProcTransport t;
  t.send("a->b", bytes_of({1}));
  t.send("a->b", bytes_of({1}), /*retransmit=*/true);  // duplicate of seq 0
  t.send("a->b", bytes_of({2}));
  EXPECT_EQ(t.recv("a->b", 0), bytes_of({1}));
  // The duplicate is silently skipped; the next logical payload arrives.
  EXPECT_EQ(t.recv("a->b", 0), bytes_of({2}));
  EXPECT_EQ(t.stale_frames_dropped(), 1u);
}

TEST(TransportSeqTest, RetransmitBeforeFirstSendThrows) {
  InProcTransport t;
  EXPECT_THROW(t.send("a->b", {}, /*retransmit=*/true), TransportError);
}

TEST(TransportSeqTest, LinksSequenceIndependently) {
  InProcTransport t;
  t.send("a->b", bytes_of({1}));
  t.send("b->a", bytes_of({2}));
  EXPECT_EQ(t.recv("b->a", 0), bytes_of({2}));
  EXPECT_EQ(t.recv("a->b", 0), bytes_of({1}));
}

TEST(InProcTransportTest, RecvTimesOutOnEmptyLink) {
  InProcTransport t;
  EXPECT_THROW(t.recv("empty", 0), TimeoutError);
  EXPECT_THROW(t.recv("empty", 20), TimeoutError);
}

TEST(InProcTransportTest, CrossThreadDelivery) {
  InProcTransport t;
  std::thread producer([&] { t.send("x->y", bytes_of({42})); });
  EXPECT_EQ(t.recv("x->y", 2000), bytes_of({42}));
  producer.join();
}

// --- ChaosTransport --------------------------------------------------------------

TEST(ChaosTransportTest, SameSeedSameSchedule) {
  const auto run = [](std::uint64_t seed) {
    ChaosOptions options;
    options.drop_prob = 0.3;
    options.dup_prob = 0.2;
    options.corrupt_prob = 0.2;
    options.seed = seed;
    ChaosTransport chaos(std::make_shared<InProcTransport>(), options);
    for (int i = 0; i < 50; ++i) {
      Frame frame;
      frame.link = i % 2 == 0 ? "a->b" : "b->a";
      frame.seq = static_cast<std::uint64_t>(i);
      frame.payload = bytes_of({i, i + 1});
      chaos.deliver_frame(frame.link, encode_frame(frame));
    }
    return chaos.schedule_digest();
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

TEST(ChaosTransportTest, CorruptionIsCaughtByChecksum) {
  ChaosOptions options;
  options.corrupt_prob = 1.0;
  ChaosTransport chaos(std::make_shared<InProcTransport>(), options);
  chaos.send("a->b", bytes_of({1, 2, 3}));
  EXPECT_THROW(chaos.recv("a->b", 0), CorruptFrameError);
  EXPECT_EQ(chaos.stats().corruptions, 1u);
}

TEST(ChaosTransportTest, MeterRecoversDropsByRetransmitting) {
  ChaosOptions options;
  options.drop_prob = 0.5;
  options.seed = 3;
  TrafficMeter meter;
  meter.set_transport(std::make_shared<ChaosTransport>(std::make_shared<InProcTransport>(),
                                                       options));
  RetryPolicy policy;
  policy.backoff_base_ms = 0;  // loopback: no need to sleep between retries
  meter.set_retry_policy(policy);
  Rng rng(1);
  const Tensor t = Tensor::uniform(6, 4, -1.0f, 1.0f, rng);
  for (int i = 0; i < 40; ++i) {
    const Tensor out = meter.transfer("a->b", t);
    EXPECT_FLOAT_EQ(t.max_abs_diff(out), 0.0f);
  }
  // Half the deliveries vanish, so retries must have happened — and every
  // logical transfer still completed with the exact payload.
  EXPECT_GT(meter.stats("a->b").retries, 0u);
  EXPECT_EQ(meter.stats("a->b").messages, 40u);
}

TEST(ChaosTransportTest, MeterRecoversCorruptionAndDuplicates) {
  ChaosOptions options;
  options.drop_prob = 0.2;
  options.dup_prob = 0.3;
  options.corrupt_prob = 0.2;
  options.seed = 11;
  TrafficMeter meter;
  meter.set_transport(std::make_shared<ChaosTransport>(std::make_shared<InProcTransport>(),
                                                       options));
  RetryPolicy policy;
  policy.backoff_base_ms = 0;
  meter.set_retry_policy(policy);
  std::vector<std::size_t> idx = {3, 1, 4, 1, 5, 9, 2, 6};
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(meter.transfer("noisy", idx), idx);
  }
  const LinkStats& stats = meter.stats("noisy");
  EXPECT_EQ(stats.messages, 60u);
  EXPECT_GT(stats.corrupt_frames, 0u);
  EXPECT_GT(stats.retries, 0u);
}

TEST(ChaosTransportTest, CombinedChaosCountersMatchScheduleDigest) {
  // Drop + dup + corrupt on the same link. The chaos schedule is a pure
  // function of the seed (schedule_digest proves the runs saw the same
  // faults), so the recovery counters — both the per-meter LinkStats and
  // the process-wide net.<link>.* registry counters — must be identical
  // across runs and consistent with each other.
  struct RunResult {
    LinkStats stats;
    std::uint64_t digest = 0;
    std::uint64_t reg_retries = 0, reg_timeouts = 0, reg_corrupt = 0;
  };
  auto run_once = [] {
    ChaosOptions options;
    options.drop_prob = 0.25;
    options.dup_prob = 0.25;
    options.corrupt_prob = 0.25;
    options.seed = 17;
    auto chaos =
        std::make_shared<ChaosTransport>(std::make_shared<InProcTransport>(), options);
    TrafficMeter meter;
    meter.set_transport(chaos);
    RetryPolicy policy;
    policy.backoff_base_ms = 0;
    meter.set_retry_policy(policy);
    auto& registry = gtv::obs::MetricsRegistry::instance();
    const std::uint64_t r0 = registry.counter("net.combined.retries").value();
    const std::uint64_t t0 = registry.counter("net.combined.timeouts").value();
    const std::uint64_t c0 = registry.counter("net.combined.corrupt_frames").value();
    const std::vector<std::size_t> idx = {8, 6, 7, 5, 3, 0, 9};
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(meter.transfer("combined", idx), idx);
    }
    RunResult result;
    result.stats = meter.stats("combined");
    result.digest = chaos->schedule_digest();
    result.reg_retries = registry.counter("net.combined.retries").value() - r0;
    result.reg_timeouts = registry.counter("net.combined.timeouts").value() - t0;
    result.reg_corrupt = registry.counter("net.combined.corrupt_frames").value() - c0;
    return result;
  };

  const RunResult a = run_once();
  const RunResult b = run_once();
  ASSERT_EQ(a.digest, b.digest);

  // Every fault class fired at least once under the combined schedule.
  EXPECT_GT(a.stats.retries, 0u);
  EXPECT_GT(a.stats.timeouts, 0u);
  EXPECT_GT(a.stats.corrupt_frames, 0u);
  EXPECT_EQ(a.stats.messages, 50u);

  // Same digest -> same counters, run over run.
  EXPECT_EQ(a.stats.retries, b.stats.retries);
  EXPECT_EQ(a.stats.timeouts, b.stats.timeouts);
  EXPECT_EQ(a.stats.corrupt_frames, b.stats.corrupt_frames);

  // The registry deltas mirror the LinkStats exactly, both runs.
  EXPECT_EQ(a.reg_retries, a.stats.retries);
  EXPECT_EQ(a.reg_timeouts, a.stats.timeouts);
  EXPECT_EQ(a.reg_corrupt, a.stats.corrupt_frames);
  EXPECT_EQ(b.reg_retries, b.stats.retries);
  EXPECT_EQ(b.reg_timeouts, b.stats.timeouts);
  EXPECT_EQ(b.reg_corrupt, b.stats.corrupt_frames);
}

// --- TcpTransport ----------------------------------------------------------------

TEST(TcpTransportTest, ConnectHandshakeAndBidirectionalFrames) {
  TcpTransport server("server");
  const std::uint16_t port = server.listen(0);
  ASSERT_GT(port, 0);

  TcpTransport client("client0");
  client.connect_peer("server", "127.0.0.1", port);
  ASSERT_TRUE(server.wait_for_peer("client0", 5000));
  EXPECT_EQ(client.peers(), std::vector<std::string>{"server"});

  client.send("client0->server", bytes_of({1, 2, 3}));
  EXPECT_EQ(server.recv("client0->server", 5000), bytes_of({1, 2, 3}));
  server.send("server->client0", bytes_of({4, 5}));
  EXPECT_EQ(client.recv("server->client0", 5000), bytes_of({4, 5}));
}

TEST(TcpTransportTest, DemultiplexesLinksAcrossPeers) {
  TcpTransport hub("server");
  const std::uint16_t port = hub.listen(0);
  TcpTransport a("client0"), b("client1");
  a.connect_peer("server", "127.0.0.1", port);
  b.connect_peer("server", "127.0.0.1", port);
  ASSERT_TRUE(hub.wait_for_peer("client0", 5000));
  ASSERT_TRUE(hub.wait_for_peer("client1", 5000));

  b.send("client1->server", bytes_of({11}));
  a.send("client0->server", bytes_of({10}));
  // Each link has its own queue regardless of arrival interleaving.
  EXPECT_EQ(hub.recv("client0->server", 5000), bytes_of({10}));
  EXPECT_EQ(hub.recv("client1->server", 5000), bytes_of({11}));
}

TEST(TcpTransportTest, RecvTimesOut) {
  TcpTransport server("server");
  const std::uint16_t port = server.listen(0);
  TcpTransport client("client0");
  client.connect_peer("server", "127.0.0.1", port);
  EXPECT_THROW(server.recv("client0->server", 50), TimeoutError);
}

TEST(TcpTransportTest, SendToUnknownPeerThrows) {
  TcpTransport lonely("server");
  EXPECT_THROW(lonely.send("server->client0", bytes_of({1})), TransportError);
  EXPECT_THROW(lonely.send("nolink", bytes_of({1})), TransportError);
}

TEST(TcpTransportTest, ConnectRetriesUntilListenerAppears) {
  // Grab an ephemeral port, then release it so the client's first dials
  // fail; the listener comes up shortly after.
  std::uint16_t port = 0;
  {
    TcpTransport probe("probe");
    port = probe.listen(0);
  }
  std::atomic<bool> connected{false};
  TcpTransport client("client0");
  std::thread dialer([&] {
    client.connect_peer("server", "127.0.0.1", port);
    connected.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  TcpTransport server("server");
  server.listen(port);
  dialer.join();
  EXPECT_TRUE(connected.load());
  EXPECT_GT(client.connect_retries(), 0u);
  EXPECT_TRUE(server.wait_for_peer("client0", 5000));
}

// --- clock sync ------------------------------------------------------------------

TEST(ClockSyncTest, EstimatorRecoversSyntheticSkew) {
  // Peer clock runs 2500us ahead; one-way delay 40us each direction.
  std::vector<ClockSyncSample> samples;
  for (int i = 0; i < 8; ++i) {
    const double t0 = 1000.0 * i;
    const double noise = 5.0 * i;  // asymmetric queueing on later samples
    ClockSyncSample s;
    s.t0 = t0;
    s.t1 = t0 + 40 + noise + 2500;  // receive on peer clock
    s.t2 = s.t1 + 3;                // peer turnaround
    s.t3 = t0 + 83 + 2 * noise;     // back on our clock
    samples.push_back(s);
  }
  const ClockSync sync = estimate_clock_offset(samples);
  ASSERT_TRUE(sync.valid);
  // Min-RTT sample is i == 0 (zero noise): exact recovery there.
  EXPECT_NEAR(sync.offset_us, 2500.0, 1.0);
  EXPECT_NEAR(sync.rtt_us, 80.0, 1.0);
}

TEST(ClockSyncTest, EstimatorRejectsEmptyAndNegativeRtt) {
  EXPECT_FALSE(estimate_clock_offset({}).valid);
  ClockSyncSample stepped;  // clock jumped backwards mid-exchange
  stepped.t0 = 100;
  stepped.t1 = 50;
  stepped.t2 = 51;
  stepped.t3 = 60;  // rtt = (60-100) - (51-50) < 0
  EXPECT_FALSE(estimate_clock_offset({stepped}).valid);
}

TEST(ClockSyncTest, HandshakeMeasuresLoopbackOffsetWithinRttBound) {
  TcpTransport server("server");
  const std::uint16_t port = server.listen(0);
  TcpTransport client("client0");
  client.connect_peer("server", "127.0.0.1", port);
  ASSERT_TRUE(server.wait_for_peer("client0", 5000));

  // Same process, same trace clock: the true offset is 0, so the measured
  // one must sit inside the NTP error bound rtt/2 (plus scheduling slack).
  const ClockSync at_client = client.clock_sync("server");
  const ClockSync at_server = server.clock_sync("client0");
  ASSERT_TRUE(at_client.valid);
  ASSERT_TRUE(at_server.valid);
  EXPECT_GE(at_client.rtt_us, 0.0);
  EXPECT_LE(std::abs(at_client.offset_us), at_client.rtt_us / 2 + 1000.0);
  EXPECT_LE(std::abs(at_server.offset_us), at_server.rtt_us / 2 + 1000.0);
  // Both sides agree on the convention peer_clock - self_clock, so the two
  // estimates are (noisy) negations of each other.
  EXPECT_NEAR(at_client.offset_us, -at_server.offset_us,
              at_client.rtt_us + at_server.rtt_us + 2000.0);
  // Unknown peer -> invalid, not a throw.
  EXPECT_FALSE(client.clock_sync("nobody").valid);
}

TEST(ClockSyncTest, DisabledWhenPingsZero) {
  TcpOptions no_sync;
  no_sync.clock_sync_pings = 0;
  TcpTransport server("server", no_sync);
  const std::uint16_t port = server.listen(0);
  TcpTransport client("client0", no_sync);
  client.connect_peer("server", "127.0.0.1", port);
  ASSERT_TRUE(server.wait_for_peer("client0", 5000));
  EXPECT_FALSE(client.clock_sync("server").valid);
  EXPECT_FALSE(server.clock_sync("client0").valid);
}

TEST(TcpTransportTest, ReconnectReplacesDeadConnection) {
  TcpTransport server("server");
  const std::uint16_t port = server.listen(0);

  {
    TcpTransport first("client0");
    first.connect_peer("server", "127.0.0.1", port);
    ASSERT_TRUE(server.wait_for_peer("client0", 5000));
    first.send("client0->server", bytes_of({1}));
    EXPECT_EQ(server.recv("client0->server", 5000), bytes_of({1}));
    EXPECT_EQ(server.conn_generation("client0"), 1u);
  }  // first's socket closes; server's conn is marked dead on reader EOF

  // Give the server's reader a beat to observe the EOF before redialing.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // A second dial under the same party name must replace the dead conn.
  TcpTransport second("client0");
  second.connect_peer("server", "127.0.0.1", port);
  // The fresh transport restarts seq at 0, which Transport::recv would
  // drop as a duplicate — fetch the raw frame like the Collector does.
  second.send("client0->server", bytes_of({2}));
  const Frame frame = decode_frame(server.fetch_frame("client0->server", 5000));
  EXPECT_EQ(frame.payload, bytes_of({2}));
  EXPECT_EQ(server.conn_generation("client0"), 2u);
  EXPECT_TRUE(server.clock_sync("client0").valid);
}

TEST(TcpTransportTest, WaiterFailsWhenSourceReconnectsAsNewProcess) {
  // A crashed party that relaunches and redials within the dead-source
  // grace window must not leave a waiter blocked on a frame only the dead
  // process could have sent: the new conn is a new process.
  TcpTransport server("server");
  const std::uint16_t port = server.listen(0);
  auto first = std::make_unique<TcpTransport>("client0");
  first->connect_peer("server", "127.0.0.1", port);
  ASSERT_TRUE(server.wait_for_peer("client0", 5000));

  std::atomic<int> outcome{0};  // 1 frame, 2 TransportError, 3 TimeoutError
  std::chrono::steady_clock::duration waited{};
  std::thread waiter([&] {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      server.fetch_frame("client0->server", 10000);
      outcome = 1;
    } catch (const TimeoutError&) {
      outcome = 3;
    } catch (const TransportError&) {
      outcome = 2;
    }
    waited = std::chrono::steady_clock::now() - t0;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // waiter blocks

  first.reset();  // the first client0 dies
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  TcpTransport second("client0");  // ...and its relaunch redials within 50 ms
  second.connect_peer("server", "127.0.0.1", port);
  waiter.join();

  EXPECT_EQ(outcome.load(), 2);
  EXPECT_LT(waited, std::chrono::seconds(2));
  EXPECT_EQ(server.conn_generation("client0"), 2u);
}

TEST(TcpTransportTest, MeterSplitEndpointsCarryTensors) {
  TcpTransport server_t("server");
  const std::uint16_t port = server_t.listen(0);
  TcpTransport client_t("client0");
  client_t.connect_peer("server", "127.0.0.1", port);
  ASSERT_TRUE(server_t.wait_for_peer("client0", 5000));

  // Two meters, one per process in real deployments.
  TrafficMeter sender, receiver;
  sender.set_transport(std::shared_ptr<Transport>(&client_t, [](Transport*) {}));
  receiver.set_transport(std::shared_ptr<Transport>(&server_t, [](Transport*) {}));

  Rng rng(5);
  const Tensor t = Tensor::normal(8, 3, 0.0f, 1.0f, rng);
  sender.send_tensor("client0->server", t);
  const Tensor out = receiver.recv_tensor("client0->server");
  EXPECT_FLOAT_EQ(t.max_abs_diff(out), 0.0f);
  // Sender charges the traffic; the receiver does not double-count.
  EXPECT_EQ(sender.stats("client0->server").messages, 1u);
  EXPECT_EQ(receiver.stats("client0->server").messages, 0u);
}

}  // namespace
}  // namespace gtv::net
