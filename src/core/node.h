// Multi-process GTV: one party per OS process.
//
// GtvTrainer runs Algorithm 1 with every party in one address space, the
// TrafficMeter looping each transfer back in-process. The node classes here
// split that same algorithm across real processes: a ServerNode owns the
// GtvServer, each ClientNode owns one GtvClient, and a DriverNode plays the
// trainer loop (round scheduling, the clients' secret shuffle stream, loss
// collection). All cross-party values travel through each node's
// TrafficMeter over a caller-supplied Transport — TCP for separate
// processes (tools/gtv-node), or loopback/chaos in tests.
//
// Loss parity: every party executes the exact op-and-RNG sequence its in-
// process counterpart executes inside GtvTrainer::critic_step /
// generator_step, so a distributed run reproduces the in-process losses
// bit-for-bit given the same seed. That only holds for configurations whose
// computation is already cleanly partitioned by party —
// NodeConfig::validate() rejects the simulation-only modes (exact gradient
// penalty, peer-to-peer index sharing) whose RNG or autograd state crosses
// the party boundary. DP noise is fine: each client draws from its own
// dp stream (GtvClient::privatize), so inproc and TCP trajectories agree.
//
// Control plane: the driver broadcasts one command frame per step
// ("driver->server", "driver->client<k>"); within a step the server tells
// the clients which one was selected as the CV contributor; the server
// reports per-step losses to the driver ("server->driver").
//
// Elastic federation: with set_train_checkpoint the driver periodically
// runs a kCmdCheckpointTrain barrier — every party ships its training
// state (core/resume.h) to the driver, which writes one atomic GTVT
// container. set_resume replays such a container through a kCmdRestore
// barrier before round 0. When a party dies mid-round (detected through
// the transport: a closed TCP connection fast-fails pending recvs), the
// survivors *park* — abandon the half round, drop split-backprop state and
// wait for driver commands — while the driver waits for the dead party to
// be relaunched with --rejoin, then replays the last coordinated
// checkpoint through the same kCmdRestore barrier. Every restored RNG
// stream resumes mid-sequence, so the recovered run's loss trajectory is
// bit-identical to an uninterrupted one.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/client.h"
#include "core/options.h"
#include "core/server.h"
#include "gan/ctabgan.h"
#include "net/wire.h"
#include "obs/snapshot.h"
#include "serve/checkpoint.h"

namespace gtv::core {

// Step commands broadcast by the driver. Encoded as an index vector
// {code, arg}: batch size for the step commands, the round's secret
// shuffle seed for kShuffle (sent to clients only — the server must never
// see it, same as in-process). kCmdCheckpoint asks every party to encode
// its serve::Checkpoint part and ship it to the driver, which assembles
// the container without ever seeing raw data. kCmdCheckpointTrain does the
// same for the *training* state (GTVT), and kCmdRestore pushes a saved
// training state back down: {code, completed-round}, followed by the
// party's encoded train part on the same command link; the party resets
// its data-plane links, restores, and acks {kCmdRestore} to the driver.
enum NodeCommand : std::size_t {
  kCmdCriticStep = 1,
  kCmdGeneratorStep = 2,
  kCmdShuffle = 3,
  kCmdFinish = 4,
  kCmdCheckpoint = 5,
  kCmdCheckpointTrain = 6,
  kCmdRestore = 7,
};

struct NodeConfig {
  GtvOptions options;
  std::size_t n_clients = 2;
  std::size_t rounds = 3;
  std::uint64_t seed = 7;
  // Rows in the (row-aligned) training shards; the driver derives the batch
  // size from it exactly like GtvTrainer::train_round does.
  std::size_t train_rows = 0;

  // Throws std::invalid_argument for configurations that cannot be
  // partitioned by party (see file comment).
  void validate() const;
};

// Seeds per party, drawn in GtvTrainer's construction order (clients in
// index order, then the server) so every process agrees without talking.
std::vector<std::uint64_t> party_seeds(std::uint64_t seed, std::size_t n_clients);

class ServerNode {
 public:
  // `g_widths` / `d_widths` are the per-client split widths, computed from
  // the public feature counts (core::proportional_widths) — every process
  // derives them identically from the dataset spec.
  ServerNode(NodeConfig config, std::vector<std::size_t> g_widths,
             std::vector<std::size_t> d_widths);

  void set_transport(std::shared_ptr<net::Transport> transport) {
    meter_.set_transport(std::move(transport));
  }
  net::TrafficMeter& traffic() { return meter_; }

  // Optional telemetry hook (must outlive the node): round/phase/loss
  // progress is mirrored into `status` with relaxed atomic stores at step
  // boundaries, so a SnapshotPublisher can watch the run without touching
  // the training path.
  void set_live_status(obs::agg::LiveStatus* status) { status_ = status; }

  // Elastic mode: a TransportError during a step parks the round (drops
  // split state, pokes blocked peers, returns to the command loop) instead
  // of crashing, so the driver can replay from the last train checkpoint.
  void set_elastic(bool elastic) { elastic_ = elastic; }

  // Performs the setup handshake (clients report their CV widths), then
  // serves driver commands until kCmdFinish.
  void run();

 private:
  void critic_step(std::size_t batch);
  void generator_step(std::size_t batch);
  // Abandons a half-finished round: drops split state and delivers one
  // empty "poison" frame per peer link so parties blocked in a data recv
  // fail fast instead of burning their full retry budget.
  void park_round();
  // kCmdRestore: reset data links, receive + apply this party's train part,
  // ack the driver.
  void restore_train();
  std::string link_up(std::size_t client) const;
  std::string link_down(std::size_t client) const;

  NodeConfig config_;
  std::vector<std::size_t> g_widths_;
  std::vector<std::size_t> d_widths_;
  std::unique_ptr<GtvServer> server_;
  net::TrafficMeter meter_;
  obs::agg::LiveStatus* status_ = nullptr;
  bool elastic_ = false;
};

class ClientNode {
 public:
  ClientNode(NodeConfig config, std::size_t id, data::Table local_table,
             std::size_t g_width, std::size_t d_width);

  void set_transport(std::shared_ptr<net::Transport> transport) {
    meter_.set_transport(std::move(transport));
  }
  net::TrafficMeter& traffic() { return meter_; }

  // Telemetry hook; see ServerNode::set_live_status.
  void set_live_status(obs::agg::LiveStatus* status) { status_ = status; }

  // Elastic mode; see ServerNode::set_elastic.
  void set_elastic(bool elastic) { elastic_ = elastic; }
  // Rejoin after a crash: skip the setup CV-width report (the surviving
  // server already holds it) and wait for the driver's kCmdRestore.
  void set_rejoin(bool rejoin) { rejoin_ = rejoin; }

  // Reports this client's CV width to the server, then serves driver
  // commands until kCmdFinish.
  void run();

 private:
  void critic_step(std::size_t batch);
  void generator_step(std::size_t batch);
  void restore_train();
  std::string link_up() const;    // client<id> -> server
  std::string link_down() const;  // server -> client<id>

  NodeConfig config_;
  std::size_t id_;
  std::size_t g_width_ = 0;  // this client's split-generator slice width
  std::unique_ptr<GtvClient> client_;
  net::TrafficMeter meter_;
  obs::agg::LiveStatus* status_ = nullptr;
  bool elastic_ = false;
  bool rejoin_ = false;
};

class DriverNode {
 public:
  explicit DriverNode(NodeConfig config);

  void set_transport(std::shared_ptr<net::Transport> transport) {
    meter_.set_transport(std::move(transport));
  }
  net::TrafficMeter& traffic() { return meter_; }

  // Telemetry hook; see ServerNode::set_live_status.
  void set_live_status(obs::agg::LiveStatus* status) { status_ = status; }

  // After training, collect every party's checkpoint part and write the
  // assembled serve::Checkpoint container here. The stamped model_hash is
  // the FNV-1a hash of a 64-row Synthesizer sample seeded with the run
  // seed, so repeat runs of the same config produce the same stamp.
  void set_checkpoint_out(std::string path) { checkpoint_out_ = std::move(path); }
  std::uint64_t checkpoint_hash() const { return checkpoint_hash_; }

  // Coordinated train checkpoints: after every `every` completed rounds the
  // driver runs a kCmdCheckpointTrain barrier and writes the assembled GTVT
  // container to `path` (atomic tmp+rename, each write replacing the last).
  // The in-memory copy doubles as the crash-recovery replay point.
  void set_train_checkpoint(std::string path, std::size_t every);
  // Resume: load `path` (a GTVT container) and push it through a
  // kCmdRestore barrier before round 0, then train the remaining rounds.
  void set_resume(std::string path);
  // How long recover() waits for a dead party to be relaunched.
  void set_rejoin_wait_ms(int ms) { rejoin_wait_ms_ = ms; }
  // Rounds skipped by --resume (0 when starting fresh).
  std::size_t resumed_from() const { return resumed_from_; }
  // Successful crash recoveries performed during run().
  std::size_t recoveries() const { return recoveries_; }

  // Runs the full schedule (rounds x (d_steps x critic + generator +
  // shuffle)), then collects the checkpoint (when requested) and
  // broadcasts kCmdFinish. Returns one RoundLosses per round,
  // field-for-field what GtvTrainer::train_round returns.
  std::vector<gan::RoundLosses> run();

 private:
  void broadcast(NodeCommand code, std::size_t arg, bool include_server);
  void collect_checkpoint();
  // kCmdCheckpointTrain barrier: collect every party's train part, stamp in
  // the driver streams + history, write the GTVT container.
  void collect_train_checkpoint(const std::vector<gan::RoundLosses>& history);
  // kCmdRestore barrier: push last_train_ckpt_ to every party, wait for
  // acks, restore the driver's own streams. Returns the restored history.
  std::vector<gan::RoundLosses> distribute_restore();
  // Crash recovery: identify dead or relaunched peers, wait for their
  // --rejoin relaunch, reset their links, then distribute_restore().
  std::vector<gan::RoundLosses> recover();
  // Reads index frames off `link` until one equals {kCmdRestore}, skipping
  // frames left over from the aborted round (stale losses, park poison).
  void await_restore_ack(const std::string& link);

  NodeConfig config_;
  Rng shuffle_stream_;
  Rng publish_stream_;  // mirror of GtvTrainer's (only advanced by sampling)
  net::TrafficMeter meter_;
  obs::agg::LiveStatus* status_ = nullptr;
  std::string checkpoint_out_;
  std::uint64_t checkpoint_hash_ = 0;
  std::string train_ckpt_path_;
  std::size_t train_ckpt_every_ = 0;
  std::string resume_path_;
  int rejoin_wait_ms_ = 30000;
  std::size_t resumed_from_ = 0;
  std::size_t recoveries_ = 0;
  // Each client's connection generation when its driver links were last in
  // lockstep; recover() treats a different one as a relaunched process.
  std::vector<std::uint64_t> client_generations_;
  std::unique_ptr<serve::TrainCheckpoint> last_train_ckpt_;
};

}  // namespace gtv::core
