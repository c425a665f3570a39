// Measuring one party from outside: a net::Transport decorator that times
// every frame the party sends and every wait for one it receives, and the
// per-party probe that turns those events into round-aligned counters.
//
// Round boundaries are logical, not time windows, so counts over the timed
// rounds repeat exactly. A party is at the start of round r when it takes
// the driver's first critic-step command of that round (the driver: when it
// sends it), and at the end of training when it takes kCmdFinish. At each
// boundary the probe snapshots its cumulative counters and the party's own
// TrafficMeter totals — from the party's own thread, inside the meter's
// recv, so the read never races the party. The in-process trainer has one
// party; its boundaries are marked by the caller around train_round().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "net/transport.h"
#include "net/wire.h"

namespace perfbench {

// Cumulative per-party counters; a boundary is a snapshot of them.
struct PartyCounters {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_fetched = 0;
  std::uint64_t payload_bytes_sent = 0;  // equals TrafficMeter bytes on a clean link
  std::uint64_t full_table_frames = 0;   // client->server tensors carrying every table row
  double send_ms = 0;       // inside the inner transport's deliver_frame
  double recv_wait_ms = 0;  // inside the inner transport's fetch_frame
  std::uint64_t meter_bytes = 0;
  std::uint64_t tensor_allocs = 0;  // process-wide obs::memory_stats().alloc_count
  Clock::time_point at{};
};

class PartyProbe {
 public:
  PartyProbe(std::string party, std::size_t d_steps, std::size_t table_rows);

  const std::string& party() const { return party_; }
  // The meter read at each boundary. Must only be touched by the party's
  // own thread while it runs.
  void attach_meter(const gtv::net::TrafficMeter* meter) { meter_ = meter; }
  // Copies every frame this party sends while it is in round `round`, and
  // with `fetched` every frame it takes as well.
  void record_round(std::size_t round, bool fetched = false) {
    record_round_ = round;
    record_fetched_ = fetched;
  }
  // Called on the party's thread right after boundary `index` is taken.
  void on_boundary(std::function<void(std::size_t index)> hook) { hook_ = std::move(hook); }

  void mark_boundary();
  const std::vector<PartyCounters>& boundaries() const { return boundaries_; }
  const PartyCounters& live() const { return live_; }
  const std::vector<std::vector<std::uint8_t>>& recorded() const { return recorded_; }
  // Driver only: when each step's loss report arrived from the server.
  const std::vector<Clock::time_point>& loss_receipts() const { return loss_receipts_; }

  // TimingTransport hooks (party thread).
  void before_send(const std::string& link, const std::vector<std::uint8_t>& frame);
  void after_send(double ms) { live_.send_ms += ms; }
  void on_fetch(const std::string& link, const std::vector<std::uint8_t>& frame, double ms);
  void on_fetch_failed(double ms) { live_.recv_wait_ms += ms; }

 private:
  // Driver command code carried by a "driver->..." frame; 0 if none.
  static std::size_t command_code(const std::vector<std::uint8_t>& frame);
  void on_command(std::size_t code);
  bool recording() const { return !boundaries_.empty() && boundaries_.size() - 1 == record_round_; }

  std::string party_;
  std::size_t d_steps_;
  std::size_t table_rows_;
  const gtv::net::TrafficMeter* meter_ = nullptr;
  std::size_t record_round_ = static_cast<std::size_t>(-1);
  bool record_fetched_ = false;
  std::function<void(std::size_t)> hook_;
  std::size_t critic_commands_ = 0;
  bool finished_ = false;  // kCmdFinish seen
  PartyCounters live_;
  std::vector<PartyCounters> boundaries_;
  std::vector<std::vector<std::uint8_t>> recorded_;
  std::vector<Clock::time_point> loss_receipts_;
};

// Counters of `p` between boundaries `first` and `last`.
PartyCounters delta(const PartyProbe& p, std::size_t first, std::size_t last);

// Transport decorator feeding one PartyProbe. Frames pass through
// unchanged; crash-recovery plumbing forwards to the inner transport.
class TimingTransport : public gtv::net::Transport {
 public:
  TimingTransport(std::shared_ptr<gtv::net::Transport> inner, PartyProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string kind() const override { return "timing+" + inner_->kind(); }
  void deliver_frame(const std::string& link, std::vector<std::uint8_t> frame) override;
  std::vector<std::uint8_t> fetch_frame(const std::string& link, int timeout_ms) override;
  void discard_queued(const std::string& link) override { inner_->discard_queued(link); }
  bool wait_for_live_peer(const std::string& peer, int timeout_ms) override {
    return inner_->wait_for_live_peer(peer, timeout_ms);
  }

 private:
  std::shared_ptr<gtv::net::Transport> inner_;
  PartyProbe* probe_;
};

}  // namespace perfbench
