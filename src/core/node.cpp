#include "core/node.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/resume.h"
#include "gan/losses.h"
#include "obs/thread_name.h"
#include "serve/engine.h"

namespace gtv::core {

using ag::Var;

void NodeConfig::validate() const {
  if (n_clients == 0) throw std::invalid_argument("NodeConfig: no clients");
  if (train_rows == 0) throw std::invalid_argument("NodeConfig: train_rows is 0");
  if (options.exact_gradient_penalty) {
    throw std::invalid_argument(
        "NodeConfig: exact_gradient_penalty differentiates through all parties' "
        "bottom models in one graph — impossible across processes; use the "
        "server-local penalty (exact_gradient_penalty=false)");
  }
  if (options.index_sharing == IndexSharing::kPeerToPeer) {
    throw std::invalid_argument(
        "NodeConfig: peer-to-peer index sharing needs client<->client links; "
        "the node topology is star-shaped (use IndexSharing::kServer)");
  }
  // DP noise is deliberately NOT rejected: each client owns its noise
  // stream (GtvClient::privatize, seeded from the client's party seed), so
  // dp_noise_std > 0 partitions cleanly and runs over TCP.
}

std::vector<std::uint64_t> party_seeds(std::uint64_t seed, std::size_t n_clients) {
  Rng seeder(seed);
  std::vector<std::uint64_t> seeds;
  seeds.reserve(n_clients + 1);
  for (std::size_t i = 0; i <= n_clients; ++i) seeds.push_back(seeder.next_u64());
  return seeds;  // [0..n-1] clients, [n] server
}

namespace {

std::vector<std::size_t> recv_command(net::TrafficMeter& meter, const std::string& link) {
  auto cmd = meter.recv_indices(link);
  if (cmd.empty()) throw net::WireError("node: empty command on " + link);
  return cmd;
}

// Losses travel server -> driver as a 1x4 tensor in RoundLosses field order.
Tensor pack_losses(float d_loss, float g_loss, float gp, float wasserstein) {
  Tensor t(1, 4);
  t(0, 0) = d_loss;
  t(0, 1) = g_loss;
  t(0, 2) = gp;
  t(0, 3) = wasserstein;
  return t;
}

}  // namespace

// --- ServerNode ------------------------------------------------------------------

ServerNode::ServerNode(NodeConfig config, std::vector<std::size_t> g_widths,
                       std::vector<std::size_t> d_widths)
    : config_(std::move(config)), g_widths_(std::move(g_widths)), d_widths_(std::move(d_widths)) {
  config_.validate();
  if (g_widths_.size() != config_.n_clients || d_widths_.size() != config_.n_clients) {
    throw std::invalid_argument("ServerNode: width vectors must have one entry per client");
  }
}

std::string ServerNode::link_up(std::size_t client) const {
  return "client" + std::to_string(client) + "->server";
}

std::string ServerNode::link_down(std::size_t client) const {
  return "server->client" + std::to_string(client);
}

void ServerNode::run() {
  // Role-named main thread: sampler folded stacks and blackbox thread dumps
  // show "gtv-server" instead of the process image name.
  obs::set_current_thread_name("gtv-server");
  const std::size_t n = config_.n_clients;
  if (status_ != nullptr) {
    status_->rounds_total.store(config_.rounds, std::memory_order_relaxed);
    status_->set_phase(obs::agg::Phase::kSetup);
  }
  // Setup: each client reports its CV width; the split widths are public
  // (derived from feature counts), so this completes the ClientInfo table.
  std::vector<GtvServer::ClientInfo> infos;
  for (std::size_t i = 0; i < n; ++i) {
    const auto widths = meter_.recv_indices(link_up(i));
    if (widths.size() != 1) throw net::WireError("node: bad setup frame from client");
    infos.push_back({widths[0], g_widths_[i], d_widths_[i]});
  }
  // Same seeder position GtvTrainer gives the server: after all clients.
  server_ = std::make_unique<GtvServer>(config_.options, std::move(infos),
                                        party_seeds(config_.seed, n)[n]);

  for (;;) {
    const auto cmd = recv_command(meter_, "driver->server");
    switch (cmd[0]) {
      case kCmdCriticStep:
        if (status_ != nullptr) status_->set_phase(obs::agg::Phase::kCritic);
        try {
          critic_step(cmd.at(1));
        } catch (const net::TransportError&) {
          if (!elastic_) throw;
          park_round();
        }
        break;
      case kCmdGeneratorStep:
        if (status_ != nullptr) status_->set_phase(obs::agg::Phase::kGenerator);
        try {
          generator_step(cmd.at(1));
        } catch (const net::TransportError&) {
          if (!elastic_) throw;
          park_round();
          break;
        }
        if (status_ != nullptr) {
          status_->round.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      case kCmdCheckpointTrain:
        meter_.send_payload("server->driver",
                            serve::encode_server_train_part(
                                capture_server_train_state(*server_)));
        break;
      case kCmdRestore:
        restore_train();
        break;
      case kCmdCheckpoint: {
        serve::ServerPart part;
        part.noise_dim = config_.options.gan.noise_dim;
        part.gumbel_tau = config_.options.gan.gumbel_tau;
        std::size_t g_total = 0;
        for (const std::size_t w : g_widths_) g_total += w;
        const serve::NetArch arch{
            config_.options.gan.noise_dim + server_->total_cv_width(),
            config_.options.generator_hidden, config_.options.partition.g_top, g_total};
        part.g_top = serve::snapshot_net(arch, server_->generator_top());
        meter_.send_payload("server->driver", serve::encode_server_part(part));
        break;
      }
      case kCmdFinish:
        if (status_ != nullptr) status_->set_phase(obs::agg::Phase::kDone);
        meter_.send_indices("server->driver", {kCmdFinish});
        return;
      default:
        throw net::WireError("node: unknown server command " + std::to_string(cmd[0]));
    }
  }
}

void ServerNode::park_round() {
  // A peer vanished mid-round. Drop half-finished split state; the driver
  // will replay the round from the last coordinated checkpoint.
  server_->clear_pending();
  // Poke everyone still blocked on us: an empty payload fails whatever
  // recv consumes it (indices and tensors both reject it) without waiting
  // out the retry budget. Anything left queued is discarded at restore.
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    try {
      meter_.send_payload(link_down(i), {});
    } catch (const net::TransportError&) {
      // dead peer — exactly why we are parking
    }
  }
  try {
    meter_.send_payload("server->driver", {});
  } catch (const net::TransportError&) {
  }
}

void ServerNode::restore_train() {
  // Data-plane links restart from scratch: the rejoined party counts from
  // seq 0, and queued frames belong to the round being replayed. The
  // command links stay intact — they are in lockstep with the driver.
  net::Transport& t = meter_.transport();
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    t.discard_queued(link_up(i));
    t.reset_link(link_up(i));
    t.reset_link(link_down(i));
  }
  const serve::ServerTrainPart part =
      serve::decode_server_train_part(meter_.recv_payload("driver->server"));
  restore_server_train_state(*server_, part);
  meter_.send_indices("server->driver", {kCmdRestore});
}

void ServerNode::critic_step(std::size_t batch) {
  const std::size_t n = config_.n_clients;
  const GtvOptions& options = config_.options;

  // --- CVGeneration: pick p, tell everyone, collect p's CV + indices --------
  const std::size_t p = server_->select_cv_client();
  for (std::size_t i = 0; i < n; ++i) meter_.send_indices(link_down(i), {p});
  const Tensor cv_p = meter_.recv_tensor(link_up(p));
  const std::vector<std::size_t> idx = meter_.recv_indices(link_up(p));
  const Tensor global_cv = server_->assemble_global_cv(p, cv_p, batch);

  server_->zero_grad_discriminator();

  // --- fake path: split slices down, bottom-critic logits back up -----------
  const auto slices = server_->generator_forward(global_cv, /*retain_graph=*/false);
  std::vector<Var> fake_vars;
  fake_vars.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    meter_.send_tensor(link_down(i), slices[i]);
    fake_vars.emplace_back(meter_.recv_tensor(link_up(i)), /*requires_grad=*/true);
  }

  // --- real path -------------------------------------------------------------
  std::vector<Var> real_vars;
  real_vars.reserve(n);
  std::vector<std::size_t> real_full_rows(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Tensor d_out = meter_.recv_tensor(link_up(i));
    real_full_rows[i] = d_out.rows();
    if (i == p) {
      real_vars.emplace_back(d_out, /*requires_grad=*/true);
    } else {
      real_vars.emplace_back(d_out.gather_rows(idx), /*requires_grad=*/true);
    }
  }

  // --- top loss (identical op order to GtvTrainer::critic_step) --------------
  Var cv_var = ag::constant(global_cv);
  Var d_fake = server_->critic_top(fake_vars, cv_var);
  Var d_real = server_->critic_top(real_vars, cv_var);
  Var critic = gan::wasserstein_critic_loss(d_real, d_fake);

  Var gp;
  if (options.gan.critic_mode == gan::CriticMode::kWeightClipping) {
    gp = ag::constant(Tensor::scalar(0.0f));
  } else {
    // Server-local penalty on D^t's concatenated input logits — the only
    // penalty mode that never needs another party's autograd graph.
    std::vector<Tensor> fake_logits, real_logits;
    std::vector<std::size_t> widths;
    for (std::size_t i = 0; i < n; ++i) {
      fake_logits.push_back(fake_vars[i].value());
      real_logits.push_back(real_vars[i].value());
      widths.push_back(fake_vars[i].cols());
    }
    auto critic_fn = [&](const Var& x) {
      std::vector<Var> parts;
      std::size_t offset = 0;
      for (std::size_t w : widths) {
        parts.push_back(ag::slice_cols(x, offset, offset + w));
        offset += w;
      }
      return server_->critic_top(parts, cv_var);
    };
    gp = gan::gradient_penalty(critic_fn, Tensor::concat_cols(real_logits),
                               Tensor::concat_cols(fake_logits), server_->rng());
  }

  Var loss = ag::add(critic, ag::mul_scalar(gp, options.gan.gp_lambda));
  ag::backward(loss);

  // --- gradient return --------------------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    meter_.send_tensor(link_down(i), fake_vars[i].grad());
    Tensor real_grad = real_vars[i].grad();
    if (i != p) {
      Tensor full(real_full_rows[i], real_grad.cols());
      for (std::size_t b = 0; b < idx.size(); ++b) {
        for (std::size_t c = 0; c < real_grad.cols(); ++c) {
          full(idx[b], c) += real_grad(b, c);
        }
      }
      real_grad = std::move(full);
    }
    meter_.send_tensor(link_down(i), real_grad);
  }
  server_->step_discriminator();
  if (options.gan.critic_mode == gan::CriticMode::kWeightClipping) {
    gan::clip_parameters(server_->discriminator_parameters(), options.gan.clip_value);
  }

  if (status_ != nullptr) {
    status_->d_loss.store(loss.value()(0, 0), std::memory_order_relaxed);
    status_->gp.store(gp.value()(0, 0), std::memory_order_relaxed);
    status_->wasserstein.store(-critic.value()(0, 0), std::memory_order_relaxed);
  }
  meter_.send_tensor("server->driver",
                     pack_losses(loss.value()(0, 0), 0.0f, gp.value()(0, 0),
                                 -critic.value()(0, 0)));
}

void ServerNode::generator_step(std::size_t batch) {
  const std::size_t n = config_.n_clients;

  const std::size_t p = server_->select_cv_client();
  for (std::size_t i = 0; i < n; ++i) meter_.send_indices(link_down(i), {p});
  const Tensor cv_p = meter_.recv_tensor(link_up(p));
  if (config_.options.index_sharing == IndexSharing::kServer) {
    meter_.recv_indices(link_up(p));  // protocol fidelity: indices still flow
  }
  const Tensor global_cv = server_->assemble_global_cv(p, cv_p, batch);

  server_->zero_grad_generator();

  const auto slices = server_->generator_forward(global_cv, /*retain_graph=*/true);
  std::vector<Var> fake_vars;
  fake_vars.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    meter_.send_tensor(link_down(i), slices[i]);
    fake_vars.emplace_back(meter_.recv_tensor(link_up(i)), /*requires_grad=*/true);
  }

  Var cv_var = ag::constant(global_cv);
  Var d_fake = server_->critic_top(fake_vars, cv_var);
  Var adv = gan::wasserstein_generator_loss(d_fake);
  ag::backward(adv);

  std::vector<Tensor> slice_grads;
  slice_grads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    meter_.send_tensor(link_down(i), fake_vars[i].grad());
    slice_grads.push_back(meter_.recv_tensor(link_up(i)));
  }
  server_->generator_backward(slice_grads);
  server_->step_generator();

  if (status_ != nullptr) {
    status_->g_loss.store(adv.value()(0, 0), std::memory_order_relaxed);
  }
  meter_.send_tensor("server->driver", pack_losses(0.0f, adv.value()(0, 0), 0.0f, 0.0f));
}

// --- ClientNode ------------------------------------------------------------------

ClientNode::ClientNode(NodeConfig config, std::size_t id, data::Table local_table,
                       std::size_t g_width, std::size_t d_width)
    : config_(std::move(config)), id_(id), g_width_(g_width) {
  config_.validate();
  if (id_ >= config_.n_clients) throw std::invalid_argument("ClientNode: id out of range");
  client_ = std::make_unique<GtvClient>(id_, std::move(local_table), config_.options,
                                        g_width, d_width,
                                        party_seeds(config_.seed, config_.n_clients)[id_]);
}

std::string ClientNode::link_up() const {
  return "client" + std::to_string(id_) + "->server";
}

std::string ClientNode::link_down() const {
  return "server->client" + std::to_string(id_);
}

void ClientNode::run() {
  obs::set_current_thread_name(("gtv-client" + std::to_string(id_)).c_str());
  if (status_ != nullptr) {
    status_->rounds_total.store(config_.rounds, std::memory_order_relaxed);
    status_->set_phase(obs::agg::Phase::kSetup);
  }
  // A rejoining client skips the CV-width report: the surviving server
  // already holds every client's setup info, and an unexpected setup frame
  // would desync the replayed round.
  if (!rejoin_) meter_.send_indices(link_up(), {client_->cv_width()});
  const std::string cmd_link = "driver->client" + std::to_string(id_);
  const std::string ack_link = "client" + std::to_string(id_) + "->driver";
  for (;;) {
    const auto cmd = recv_command(meter_, cmd_link);
    switch (cmd[0]) {
      case kCmdCriticStep:
        if (status_ != nullptr) status_->set_phase(obs::agg::Phase::kCritic);
        try {
          critic_step(cmd.at(1));
        } catch (const net::TransportError&) {
          if (!elastic_) throw;
          client_->clear_pending();  // park: the driver will replay the round
        }
        break;
      case kCmdGeneratorStep:
        if (status_ != nullptr) status_->set_phase(obs::agg::Phase::kGenerator);
        try {
          generator_step(cmd.at(1));
        } catch (const net::TransportError&) {
          if (!elastic_) throw;
          client_->clear_pending();
          break;
        }
        if (status_ != nullptr) {
          status_->round.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      case kCmdShuffle:
        if (status_ != nullptr) status_->set_phase(obs::agg::Phase::kShuffle);
        client_->shuffle_local_data(static_cast<std::uint64_t>(cmd.at(1)));
        break;
      case kCmdCheckpointTrain:
        meter_.send_payload(ack_link, serve::encode_client_train_part(
                                          capture_client_train_state(*client_)));
        break;
      case kCmdRestore:
        restore_train();
        break;
      case kCmdCheckpoint: {
        serve::ClientPart part;
        part.cv_width = client_->cv_width();
        part.g_slice_width = g_width_;
        const serve::NetArch arch{g_width_, g_width_, config_.options.partition.g_bottom,
                                  client_->encoded_width()};
        part.g_bottom = serve::snapshot_net(arch, client_->generator_bottom());
        part.encoder = client_->encoder();
        meter_.send_payload(ack_link, serve::encode_client_part(part));
        break;
      }
      case kCmdFinish:
        if (status_ != nullptr) status_->set_phase(obs::agg::Phase::kDone);
        meter_.send_indices(ack_link, {kCmdFinish});
        return;
      default:
        throw net::WireError("node: unknown client command " + std::to_string(cmd[0]));
    }
  }
}

void ClientNode::restore_train() {
  net::Transport& t = meter_.transport();
  t.discard_queued(link_down());
  t.reset_link(link_down());
  t.reset_link(link_up());
  const std::string cmd_link = "driver->client" + std::to_string(id_);
  const serve::ClientTrainPart part =
      serve::decode_client_train_part(meter_.recv_payload(cmd_link));
  restore_client_train_state(*client_, part);
  meter_.send_indices("client" + std::to_string(id_) + "->driver", {kCmdRestore});
}

void ClientNode::critic_step(std::size_t batch) {
  const std::size_t p = recv_command(meter_, link_down())[0];

  encode::ConditionalSampler::Sample sample;
  if (p == id_) {
    sample = client_->sample_cv(batch);
    meter_.send_tensor(link_up(), sample.cv);
    meter_.send_indices(link_up(), sample.rows);
  }

  client_->zero_grad_discriminator();

  // Fake path: split slice down, D^b(G^b(slice)) back up. Outbound logits
  // pass through the client's own DP stream (no-op when disabled), exactly
  // as in GtvTrainer::critic_step.
  const Tensor slice = meter_.recv_tensor(link_down());
  meter_.send_tensor(
      link_up(),
      client_->privatize(client_->forward_fake(slice, /*train_generator=*/false)));

  // Real path: the selected client forwards its chosen rows; everyone else
  // forwards everything and lets the server select.
  if (p == id_) {
    meter_.send_tensor(link_up(),
                       client_->privatize(client_->forward_real_selected(sample.rows)));
  } else {
    meter_.send_tensor(link_up(), client_->privatize(client_->forward_real_all()));
  }

  client_->backward_fake_discriminator(meter_.recv_tensor(link_down()));
  client_->backward_real(meter_.recv_tensor(link_down()));
  client_->step_discriminator();
  if (config_.options.gan.critic_mode == gan::CriticMode::kWeightClipping) {
    gan::clip_parameters(client_->discriminator_parameters(), config_.options.gan.clip_value);
  }
}

void ClientNode::generator_step(std::size_t batch) {
  const std::size_t p = recv_command(meter_, link_down())[0];

  if (p == id_) {
    auto sample = client_->sample_cv(batch);
    meter_.send_tensor(link_up(), sample.cv);
    if (config_.options.index_sharing == IndexSharing::kServer) {
      meter_.send_indices(link_up(), sample.rows);
    }
    if (config_.options.gan.use_conditional_loss) client_->set_pending_condition(sample);
  }

  client_->zero_grad_generator();

  const Tensor slice = meter_.recv_tensor(link_down());
  meter_.send_tensor(
      link_up(),
      client_->privatize(client_->forward_fake(slice, /*train_generator=*/true)));

  const Tensor d_out_grad = meter_.recv_tensor(link_down());
  meter_.send_tensor(link_up(), client_->backward_generator(d_out_grad));
  client_->step_generator();
}

// --- DriverNode ------------------------------------------------------------------

DriverNode::DriverNode(NodeConfig config)
    : config_(std::move(config)),
      shuffle_stream_(config_.options.shuffle_seed),
      publish_stream_(config_.options.shuffle_seed ^ 0x9e3779b97f4a7c15ULL) {
  config_.validate();
}

void DriverNode::set_train_checkpoint(std::string path, std::size_t every) {
  if (every == 0) throw std::invalid_argument("DriverNode: checkpoint interval is 0");
  train_ckpt_path_ = std::move(path);
  train_ckpt_every_ = every;
}

void DriverNode::set_resume(std::string path) { resume_path_ = std::move(path); }

void DriverNode::broadcast(NodeCommand code, std::size_t arg, bool include_server) {
  if (include_server) meter_.send_indices("driver->server", {code, arg});
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    meter_.send_indices("driver->client" + std::to_string(i), {code, arg});
  }
}

std::vector<gan::RoundLosses> DriverNode::run() {
  obs::set_current_thread_name("gtv-driver");
  const std::size_t batch = std::min(config_.options.gan.batch_size, config_.train_rows);
  if (status_ != nullptr) {
    status_->rounds_total.store(config_.rounds, std::memory_order_relaxed);
    status_->set_phase(obs::agg::Phase::kSetup);
  }
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    client_generations_.push_back(
        meter_.transport().conn_generation("client" + std::to_string(i)));
  }
  std::vector<gan::RoundLosses> history;
  if (!resume_path_.empty()) {
    last_train_ckpt_ = std::make_unique<serve::TrainCheckpoint>(
        serve::load_train_checkpoint(resume_path_));
    history = distribute_restore();
    resumed_from_ = history.size();
  }
  std::size_t r = history.size();
  while (r < config_.rounds) {
    try {
      gan::RoundLosses losses;
      for (std::size_t step = 0; step < config_.options.gan.d_steps_per_round; ++step) {
        if (status_ != nullptr) status_->set_phase(obs::agg::Phase::kCritic);
        broadcast(kCmdCriticStep, batch, /*include_server=*/true);
        const Tensor packed = meter_.recv_tensor("server->driver");
        losses.d_loss = packed(0, 0);
        losses.gp = packed(0, 2);
        losses.wasserstein = packed(0, 3);
      }
      if (status_ != nullptr) status_->set_phase(obs::agg::Phase::kGenerator);
      broadcast(kCmdGeneratorStep, batch, /*include_server=*/true);
      losses.g_loss = meter_.recv_tensor("server->driver")(0, 1);
      if (status_ != nullptr) {
        status_->set_losses(losses.d_loss, losses.g_loss, losses.gp,
                            losses.wasserstein);
        status_->set_round(r + 1);
      }

      if (config_.options.training_with_shuffling) {
        // The shuffle seed is the clients' shared secret: the driver plays
        // the clients' side of that agreement and never tells the server.
        const std::uint64_t round_seed = shuffle_stream_.next_u64();
        broadcast(kCmdShuffle, static_cast<std::size_t>(round_seed),
                  /*include_server=*/false);
      }
      history.push_back(losses);
      if (train_ckpt_every_ > 0 && (r + 1) % train_ckpt_every_ == 0) {
        collect_train_checkpoint(history);
      }
      ++r;
    } catch (const net::TransportError&) {
      // A party died mid-round. Without a coordinated checkpoint there is
      // nothing to replay from — surface the failure as before.
      if (last_train_ckpt_ == nullptr) throw;
      history = recover();
      r = history.size();
      ++recoveries_;
    }
  }
  if (!checkpoint_out_.empty()) collect_checkpoint();
  broadcast(kCmdFinish, 0, /*include_server=*/true);
  meter_.recv_indices("server->driver");
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    meter_.recv_indices("client" + std::to_string(i) + "->driver");
  }
  if (status_ != nullptr) status_->set_phase(obs::agg::Phase::kDone);
  return history;
}

void DriverNode::collect_checkpoint() {
  broadcast(kCmdCheckpoint, 0, /*include_server=*/true);
  serve::Checkpoint ckpt;
  ckpt.seed = config_.seed;
  ckpt.rounds = config_.rounds;
  serve::ServerPart server_part =
      serve::decode_server_part(meter_.recv_payload("server->driver"));
  ckpt.noise_dim = server_part.noise_dim;
  ckpt.gumbel_tau = server_part.gumbel_tau;
  ckpt.g_top = std::move(server_part.g_top);
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    ckpt.clients.push_back(serve::decode_client_part(
        meter_.recv_payload("client" + std::to_string(i) + "->driver")));
  }
  // Stamp the model identity before writing: the hash of a fixed-seed
  // sample is a stable fingerprint of the assembled weights + encoders.
  serve::Synthesizer synth(ckpt);
  ckpt.model_hash = serve::hash_table(synth.sample(64, config_.seed));
  checkpoint_hash_ = ckpt.model_hash;
  serve::save_checkpoint(ckpt, checkpoint_out_);
}

void DriverNode::collect_train_checkpoint(
    const std::vector<gan::RoundLosses>& history) {
  broadcast(kCmdCheckpointTrain, 0, /*include_server=*/true);
  auto ckpt = std::make_unique<serve::TrainCheckpoint>();
  ckpt->seed = config_.seed;
  ckpt->round = history.size();
  ckpt->shuffle_stream = shuffle_stream_.state();
  ckpt->publish_stream = publish_stream_.state();
  ckpt->history = history;
  ckpt->server =
      serve::decode_server_train_part(meter_.recv_payload("server->driver"));
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    ckpt->clients.push_back(serve::decode_client_train_part(
        meter_.recv_payload("client" + std::to_string(i) + "->driver")));
  }
  if (!train_ckpt_path_.empty()) {
    serve::save_train_checkpoint(*ckpt, train_ckpt_path_);
  }
  // Kept in memory as the crash-recovery replay point: recover() must not
  // depend on re-reading a file the crash may have raced.
  last_train_ckpt_ = std::move(ckpt);
}

std::vector<gan::RoundLosses> DriverNode::distribute_restore() {
  const serve::TrainCheckpoint& ckpt = *last_train_ckpt_;
  if (ckpt.seed != config_.seed) {
    throw serve::CheckpointError("train checkpoint seed mismatch");
  }
  if (ckpt.clients.size() != config_.n_clients) {
    throw serve::CheckpointError("train checkpoint client count mismatch");
  }
  if (ckpt.round > config_.rounds || ckpt.history.size() != ckpt.round) {
    throw serve::CheckpointError("train checkpoint round count implausible");
  }
  const auto round_arg = static_cast<std::size_t>(ckpt.round);
  meter_.send_indices("driver->server", {kCmdRestore, round_arg});
  meter_.send_payload("driver->server",
                      serve::encode_server_train_part(ckpt.server));
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    const std::string cmd = "driver->client" + std::to_string(i);
    meter_.send_indices(cmd, {kCmdRestore, round_arg});
    meter_.send_payload(cmd, serve::encode_client_train_part(ckpt.clients[i]));
  }
  await_restore_ack("server->driver");
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    await_restore_ack("client" + std::to_string(i) + "->driver");
  }
  shuffle_stream_.set_state(ckpt.shuffle_stream);
  publish_stream_.set_state(ckpt.publish_stream);
  return ckpt.history;
}

std::vector<gan::RoundLosses> DriverNode::recover() {
  net::Transport& transport = meter_.transport();
  // Short probe first: a live party answers immediately, so only genuinely
  // dead peers are made to wait out the rejoin window.
  std::vector<std::size_t> dead;
  if (!transport.wait_for_live_peer("server", 200)) {
    // A rejoined server cannot rebuild its per-client CV-width table (the
    // setup handshake already happened), so server loss is not recoverable.
    throw net::TransportError("DriverNode: server died; only client crashes are recoverable");
  }
  // A fast --rejoin relaunch can be connected before this probe runs, so a
  // live peer on a new connection generation counts as dead too.
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    const std::string peer = "client" + std::to_string(i);
    const bool live = transport.wait_for_live_peer(peer, 200);
    if (!live || transport.conn_generation(peer) != client_generations_[i]) {
      dead.push_back(i);
    }
  }
  for (std::size_t i : dead) {
    const std::string peer = "client" + std::to_string(i);
    if (!transport.wait_for_live_peer(peer, rejoin_wait_ms_)) {
      throw net::TransportError("DriverNode: " + peer +
                                " did not rejoin within the wait window");
    }
    client_generations_[i] = transport.conn_generation(peer);
    // The restarted process starts every link at seq 0; forget the old
    // sequence bookkeeping on both directions of its driver links. (The
    // server resets its own data links to the rejoiner during kCmdRestore.)
    transport.reset_link("driver->" + peer);
    transport.reset_link(peer + "->driver");
    transport.discard_queued(peer + "->driver");
  }
  // Drop whatever the aborted round left queued on our in-links (stale
  // losses, park poison, half-collected checkpoint parts).
  transport.discard_queued("server->driver");
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    transport.discard_queued("client" + std::to_string(i) + "->driver");
  }
  return distribute_restore();
}

void DriverNode::await_restore_ack(const std::string& link) {
  // The aborted round may still flush frames onto this link (a loss tensor
  // the server sent just before parking, the park poison frame itself).
  // Skip a bounded amount of junk; anything persistent is a real failure.
  constexpr int kMaxJunk = 32;
  for (int attempt = 0; attempt < kMaxJunk; ++attempt) {
    try {
      const std::vector<std::size_t> ack = meter_.recv_indices(link);
      if (ack.size() == 1 && ack[0] == kCmdRestore) return;
    } catch (const net::TimeoutError&) {
      throw;  // retry budget already spent inside recv_indices
    } catch (const net::WireError&) {
      // Stale tensor payload or poison frame; keep draining.
    }
  }
  throw net::TransportError("DriverNode: no restore ack on " + link);
}

}  // namespace gtv::core
