// gtv::net — chaos fault injection at the frame layer.
//
// ChaosTransport decorates another Transport and tampers with frames on
// their way into deliver_frame: seeded deterministic latency, message
// drops, duplicate deliveries and payload corruption. Because it acts on
// the *encoded* frame, corruption lands inside the CRC-covered region and
// is guaranteed to surface as CorruptFrameError at the receiver — never as
// silently wrong floats. Drops and corruptions are recovered by the
// TrafficMeter's bounded retransmit loop; duplicates are collapsed by the
// frame sequence numbers.
//
// All randomness flows from one seeded Rng drawn in a fixed order per
// send, so a given (seed, traffic sequence) pair produces an identical
// fault schedule every run — schedule_digest() hashes the event stream so
// tests can pin that determinism.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.h"
#include "tensor/rng.h"

namespace gtv::net {

struct ChaosOptions {
  double drop_prob = 0.0;     // frame vanishes entirely
  double dup_prob = 0.0;      // frame delivered twice
  double corrupt_prob = 0.0;  // one payload byte flipped (CRC-detected)
  // Uniform per-delivery latency in [min, max] microseconds; 0/0 disables.
  int latency_min_us = 0;
  int latency_max_us = 0;
  std::uint64_t seed = 1;
};

class ChaosTransport : public Transport {
 public:
  ChaosTransport(std::shared_ptr<Transport> inner, ChaosOptions options);

  std::string kind() const override { return "chaos+" + inner_->kind(); }
  void deliver_frame(const std::string& link,
                     std::vector<std::uint8_t> frame) override;
  std::vector<std::uint8_t> fetch_frame(const std::string& link,
                                        int timeout_ms) override;
  // Crash-recovery plumbing passes straight through to the real transport
  // (queues and peer liveness live there, not in the decorator).
  void discard_queued(const std::string& link) override {
    inner_->discard_queued(link);
  }
  bool wait_for_live_peer(const std::string& peer, int timeout_ms) override {
    return inner_->wait_for_live_peer(peer, timeout_ms);
  }
  std::uint64_t conn_generation(const std::string& peer) const override {
    return inner_->conn_generation(peer);
  }

  struct Stats {
    std::uint64_t sends = 0;        // deliver_frame calls observed
    std::uint64_t drops = 0;        // frames never delivered
    std::uint64_t dups = 0;         // extra copies delivered
    std::uint64_t corruptions = 0;  // frames delivered with a flipped byte
    std::uint64_t delays = 0;       // deliveries that slept
    std::uint64_t delay_us_total = 0;
  };
  Stats stats() const;

  // FNV-1a hash over the ordered (link, action, value) event stream: equal
  // seeds and traffic produce equal digests.
  std::uint64_t schedule_digest() const;

  Transport& inner() { return *inner_; }

 private:
  void note(const std::string& link, char action, std::uint64_t value);

  std::shared_ptr<Transport> inner_;
  ChaosOptions options_;
  mutable std::mutex mu_;
  Rng rng_;
  Stats stats_;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

}  // namespace gtv::net
