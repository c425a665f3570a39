// gtv::net — pluggable party transport beneath the TrafficMeter.
//
// Every cross-party payload in GTV travels as a *frame*: a versioned,
// checksummed envelope addressed to a named link ("client0->server").
// A Transport moves frames between the two ends of a link; the TrafficMeter
// sits on top, charging traffic and retrying lost or corrupted deliveries.
//
// Frame layout (all integers little-endian, header = 24 bytes):
//
//   offset  size  field
//        0     4  magic        0x47545646 ("GTVF")
//        4     2  version      kProtocolVersion; mismatch -> VersionError
//        6     2  link_len     length of the link-name bytes
//        8     4  payload_len  length of the payload bytes
//       12     8  seq          per-link logical message number
//       20     4  crc32        CRC-32 (IEEE) over link bytes + payload bytes
//       24     .  link bytes, then payload bytes
//
// Sequencing gives the reliability layer exactly-once per-link delivery on
// top of an at-least-once sender: a fresh send() increments the link's seq,
// a retransmit (send with retransmit=true) reuses it, and recv() silently
// drops frames whose seq is below the next expected one (duplicates and
// late retransmits), so retries can never deliver a phantom message.
//
// Three implementations:
//   - InProcTransport: loopback queues; the default under TrafficMeter and
//     byte-identical to the pre-transport simulated boundary.
//   - TcpTransport (net/tcp.h): real POSIX sockets between OS processes.
//   - ChaosTransport (net/chaos.h): a decorator injecting seeded latency,
//     drops, duplicates and payload corruption at the frame layer.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace gtv::net {

// --- typed errors ----------------------------------------------------------------
// Base class for every transport/wire failure.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Malformed bytes: truncated buffer, impossible sizes, bad magic, trailing
// garbage. Raised by the wire serializers and the frame decoder.
class WireError : public TransportError {
 public:
  using TransportError::TransportError;
};

// Frame checksum mismatch — the payload was altered in flight. Raised by
// decode_frame; the TrafficMeter counts it per link and retries.
class CorruptFrameError : public WireError {
 public:
  using WireError::WireError;
};

// recv()/fetch deadline expired with no frame available.
class TimeoutError : public TransportError {
 public:
  using TransportError::TransportError;
};

// Peer speaks a different protocol version (handshake or frame header).
class VersionError : public TransportError {
 public:
  using TransportError::TransportError;
};

// --- frame codec -----------------------------------------------------------------
inline constexpr std::uint32_t kFrameMagic = 0x47545646u;  // "GTVF"
// v2: HELLO handshake is followed by an NTP-style @clock exchange
// (net/tcp.cpp); v1 peers would misparse it, so the bump fails them fast.
inline constexpr std::uint16_t kProtocolVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 24;
// Sanity caps enforced by the decoder; far above anything GTV sends.
inline constexpr std::size_t kMaxLinkNameBytes = 256;
inline constexpr std::size_t kMaxFramePayloadBytes = std::size_t{1} << 31;

struct Frame {
  std::string link;
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload;
};

std::vector<std::uint8_t> encode_frame(const Frame& frame);
// Parses and validates one complete frame. Throws WireError on malformed
// input, VersionError on a version mismatch, CorruptFrameError on a CRC
// mismatch.
Frame decode_frame(const std::uint8_t* data, std::size_t len);
inline Frame decode_frame(const std::vector<std::uint8_t>& bytes) {
  return decode_frame(bytes.data(), bytes.size());
}

// Parsed header fields only (no CRC check); used by stream readers to split
// frames off a byte stream before the full body has arrived.
struct FrameHeader {
  std::uint16_t link_len = 0;
  std::uint32_t payload_len = 0;
  std::uint64_t seq = 0;
  std::size_t total_bytes() const {
    return kFrameHeaderBytes + link_len + payload_len;
  }
};
FrameHeader decode_frame_header(const std::uint8_t* data, std::size_t len);

// --- Transport -------------------------------------------------------------------
// Payload-level API (send/recv) is implemented here once: framing, per-link
// sequence numbers and duplicate suppression. Implementations supply raw
// frame delivery (deliver_frame/fetch_frame); decorators such as
// ChaosTransport intercept at that raw layer so their tampering is visible
// to the checksum.
class Transport {
 public:
  virtual ~Transport() = default;

  // Frames `payload` onto `link` and delivers it. A fresh send advances the
  // link's sequence number; retransmit=true reuses the previous one so the
  // receiver can collapse duplicates of the same logical message.
  void send(const std::string& link, const std::vector<std::uint8_t>& payload,
            bool retransmit = false);

  // Returns the next logical payload on `link`, waiting up to `timeout_ms`
  // (0 = only what is already queued). Silently discards stale duplicates.
  // Throws TimeoutError when nothing arrives, CorruptFrameError when a
  // frame fails its checksum (the frame is consumed), WireError on
  // malformed or misrouted frames.
  std::vector<std::uint8_t> recv(const std::string& link, int timeout_ms);

  // Implementation name for logs/metrics ("inproc", "tcp", "chaos+...").
  virtual std::string kind() const = 0;

  // Raw frame layer (public so decorators can forward to the inner
  // transport without re-framing).
  virtual void deliver_frame(const std::string& link,
                             std::vector<std::uint8_t> frame) = 0;
  virtual std::vector<std::uint8_t> fetch_frame(const std::string& link,
                                                int timeout_ms) = 0;

  // Frames dropped by recv() as duplicates/late retransmits.
  std::uint64_t stale_frames_dropped() const;

  // --- crash recovery -------------------------------------------------------
  // Forgets the sequence bookkeeping of one link. A party that died and
  // rejoined restarts its links at seq 0; without the reset the surviving
  // end would drop every frame from the fresh process as stale.
  void reset_link(const std::string& link);

  // Drops any frames already queued on `link` (half-delivered state from a
  // round the recovery protocol is about to replay). Default: no queue to
  // clear.
  virtual void discard_queued(const std::string& link) { (void)link; }

  // Waits until `peer` has a *live* connection, up to timeout_ms. Distinct
  // from any handshake-time wait: a peer that connected and then died must
  // count as absent. Transports without peer liveness (inproc: parties are
  // threads, links never die) return true immediately.
  virtual bool wait_for_live_peer(const std::string& peer, int timeout_ms) {
    (void)peer;
    (void)timeout_ms;
    return true;
  }

  // How many connections `peer` has established with us (1 = original,
  // each reconnect increments; 0 if never connected). A reconnect is a
  // relaunched process, so a changed value means the peer restarted, even
  // when its new connection is already live. Transports whose parties
  // cannot restart (inproc) return 0.
  virtual std::uint64_t conn_generation(const std::string& peer) const {
    (void)peer;
    return 0;
  }

 private:
  mutable std::mutex seq_mu_;
  std::map<std::string, std::uint64_t> send_seq_;       // next seq per link
  std::map<std::string, std::uint64_t> recv_expected_;  // next accepted seq
  std::uint64_t stale_dropped_ = 0;
};

// Loopback transport: frames queue in-process per link. The default under
// TrafficMeter; transfer() pushes and immediately pops, reproducing the
// original simulated boundary byte-for-byte. Thread-safe, so it also backs
// multi-threaded tests.
class InProcTransport : public Transport {
 public:
  std::string kind() const override { return "inproc"; }
  void deliver_frame(const std::string& link,
                     std::vector<std::uint8_t> frame) override;
  std::vector<std::uint8_t> fetch_frame(const std::string& link,
                                        int timeout_ms) override;
  void discard_queued(const std::string& link) override;

  // Frames currently queued on `link` (tests).
  std::size_t queued(const std::string& link) const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, std::deque<std::vector<std::uint8_t>>> queues_;
};

}  // namespace gtv::net
