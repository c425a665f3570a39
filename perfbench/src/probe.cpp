#include "probe.h"


#include "core/node.h"
#include "obs/memory.h"

namespace perfbench {

namespace {

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

PartyProbe::PartyProbe(std::string party, std::size_t d_steps, std::size_t table_rows)
    : party_(std::move(party)), d_steps_(d_steps), table_rows_(table_rows) {}

void PartyProbe::mark_boundary() {
  PartyCounters snap = live_;
  if (meter_ != nullptr) snap.meter_bytes = meter_->total().bytes;
  snap.tensor_allocs = gtv::obs::memory_stats().alloc_count;
  snap.at = Clock::now();
  boundaries_.push_back(snap);
  if (hook_) hook_(boundaries_.size() - 1);
}

std::size_t PartyProbe::command_code(const std::vector<std::uint8_t>& frame) {
  const gtv::net::Frame decoded = gtv::net::decode_frame(frame);
  // Commands are index vectors {code, arg}; checkpoint/restore payloads
  // that share the link are not, and carry no boundary.
  try {
    const std::vector<std::size_t> idx = gtv::net::deserialize_indices(decoded.payload);
    return idx.size() == 2 ? idx[0] : 0;
  } catch (const gtv::net::WireError&) {
    return 0;
  }
}

void PartyProbe::on_command(std::size_t code) {
  if (code == gtv::core::kCmdCriticStep) {
    if (critic_commands_ % d_steps_ == 0) mark_boundary();
    ++critic_commands_;
  } else if (code == gtv::core::kCmdFinish) {
    finished_ = true;
    mark_boundary();
  }
}

void PartyProbe::before_send(const std::string& link, const std::vector<std::uint8_t>& frame) {
  if (party_ == "driver" && link == "driver->server") on_command(command_code(frame));
  const gtv::net::FrameHeader header = gtv::net::decode_frame_header(frame.data(), frame.size());
  ++live_.frames_sent;
  live_.payload_bytes_sent += header.payload_len;
  // A real-path forward of every table row: a tensor payload (u64 rows,
  // u64 cols, f32 cells) on a client->server link with rows == table rows.
  if (starts_with(link, "client") && header.payload_len >= 16) {
    const std::uint8_t* payload = frame.data() + gtv::net::kFrameHeaderBytes + header.link_len;
    const std::uint64_t rows = read_u64(payload);
    const std::uint64_t cols = read_u64(payload + 8);
    if (rows == table_rows_ && cols > 0 && header.payload_len == 16 + rows * cols * 4) {
      ++live_.full_table_frames;
    }
  }
  if (recording()) recorded_.push_back(frame);
}

void PartyProbe::on_fetch(const std::string& link, const std::vector<std::uint8_t>& frame,
                          double ms) {
  live_.recv_wait_ms += ms;
  ++live_.frames_fetched;
  if (record_fetched_ && recording()) recorded_.push_back(frame);
  if (party_ == "driver") {
    // After kCmdFinish the server's frame on this link is its finish ack.
    if (link == "server->driver" && !finished_) loss_receipts_.push_back(Clock::now());
  } else if (starts_with(link, "driver->")) {
    on_command(command_code(frame));
  }
}

PartyCounters delta(const PartyProbe& p, std::size_t first, std::size_t last) {
  const PartyCounters& a = p.boundaries().at(first);
  const PartyCounters& b = p.boundaries().at(last);
  PartyCounters d;
  d.frames_sent = b.frames_sent - a.frames_sent;
  d.frames_fetched = b.frames_fetched - a.frames_fetched;
  d.payload_bytes_sent = b.payload_bytes_sent - a.payload_bytes_sent;
  d.full_table_frames = b.full_table_frames - a.full_table_frames;
  d.send_ms = b.send_ms - a.send_ms;
  d.recv_wait_ms = b.recv_wait_ms - a.recv_wait_ms;
  d.meter_bytes = b.meter_bytes - a.meter_bytes;
  d.tensor_allocs = b.tensor_allocs - a.tensor_allocs;
  return d;
}

void TimingTransport::deliver_frame(const std::string& link, std::vector<std::uint8_t> frame) {
  SpanScope span("net.send");
  probe_->before_send(link, frame);
  const Clock::time_point t0 = Clock::now();
  inner_->deliver_frame(link, std::move(frame));
  probe_->after_send(ms_between(t0, Clock::now()));
}

std::vector<std::uint8_t> TimingTransport::fetch_frame(const std::string& link,
                                                       int timeout_ms) {
  SpanScope span("net.recv_wait");
  const Clock::time_point t0 = Clock::now();
  std::vector<std::uint8_t> frame;
  try {
    frame = inner_->fetch_frame(link, timeout_ms);
  } catch (...) {
    probe_->on_fetch_failed(ms_between(t0, Clock::now()));
    throw;
  }
  probe_->on_fetch(link, frame, ms_between(t0, Clock::now()));
  return frame;
}

}  // namespace perfbench
