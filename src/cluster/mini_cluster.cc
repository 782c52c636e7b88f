#include "cluster/mini_cluster.h"

#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "common/logging.h"
#include "rpc/messages.h"

namespace kera {

namespace {

/// Node `node`'s subdirectory of a per-cluster root directory.
std::string NodeDir(const std::string& root, NodeId node) {
  return root + "/n" + std::to_string(node);
}

}  // namespace

BrokerConfig MiniCluster::BrokerConfigFor(NodeId node) const {
  BrokerConfig bc = config_.broker;
  bc.node = node;
  bc.incarnation = incarnations_[node - 1];
  bc.spill_dir = SpillDirFor(node);
  // Prefetch threads only where the transport is already nondeterministic;
  // Direct and external (DES/chaos) networks keep readahead inline so the
  // cold-cache state is a pure function of the schedule.
  bc.async_readahead = threaded_ != nullptr || socket_ != nullptr;
  bc.backup_nodes.clear();
  for (NodeId n = 1; n <= config_.nodes; ++n) {
    bc.backup_nodes.push_back(BackupServiceId(n));
  }
  return bc;
}

BackupConfig MiniCluster::BackupConfigFor(NodeId node) const {
  BackupConfig bkc = config_.backup;
  bkc.node = node;
  bkc.storage_dir = BackupDirFor(node);
  return bkc;
}

std::string MiniCluster::BackupDirFor(NodeId node) const {
  if (config_.backup.storage_dir.empty()) return {};
  return NodeDir(config_.backup.storage_dir, node);
}

std::string MiniCluster::SpillDirFor(NodeId node) const {
  if (config_.broker.spill_dir.empty() ||
      config_.broker.memory_budget_bytes == 0) {
    return {};
  }
  // Per-incarnation subdirectory: a restarted broker never scans (or
  // collides with) its previous life's spill records.
  return NodeDir(config_.broker.spill_dir, node) + "/inc" +
         std::to_string(incarnations_[node - 1]);
}

void MiniCluster::RegisterOnNetwork(NodeId service, rpc::RpcHandler* handler) {
  if (config_.external_network != nullptr) {
    config_.external_register(service, handler);
  } else if (threaded_ != nullptr) {
    threaded_->Register(service, handler);
  } else if (socket_ != nullptr) {
    // Brokers and backups get the shared-nothing reactor shape: one
    // server shard per broker shard, with data-plane frames routed to the
    // shard owning their streamlet (produce/consume) or vlog (replicate).
    // The coordinator is control-plane only and stays single-reactor.
    rpc::SocketNetwork::NodeOptions opts;
    if (config_.broker.shards > 1 && service != kCoordinatorNode) {
      opts.shards = int(config_.broker.shards);
      opts.router = rpc::RouteFrameToShard;
    }
    auto port = socket_->Register(service, handler, std::move(opts));
    if (!port.ok()) {
      KERA_ERROR("socket register failed for node %u: %s", unsigned(service),
                 port.status().message().c_str());
    }
  } else {
    direct_->Register(service, handler);
  }
}

void MiniCluster::CrashOnNetwork(NodeId service) {
  if (config_.external_network != nullptr) {
    config_.external_crash(service);
  } else if (threaded_ != nullptr) {
    threaded_->Crash(service);
  } else if (socket_ != nullptr) {
    socket_->Crash(service);
  } else {
    direct_->Crash(service);
  }
}

void MiniCluster::RestoreOnNetwork(NodeId service, rpc::RpcHandler* handler) {
  if (config_.external_network != nullptr) {
    config_.external_restore(service, handler);
  } else if (threaded_ != nullptr) {
    threaded_->Restore(service, handler);
  } else if (socket_ != nullptr) {
    auto port = socket_->Restore(service, handler);
    if (!port.ok()) {
      KERA_ERROR("socket restore failed for node %u: %s", unsigned(service),
                 port.status().message().c_str());
    }
  } else {
    direct_->Restore(service, handler);
  }
}

MiniCluster::MiniCluster(MiniClusterConfig config)
    : config_(std::move(config)) {
  // Real recovery threads only where the whole RPC path tolerates
  // concurrent callers: the Threaded and Socket transports. Direct and
  // external networks (the DES / chaos harness decorates a DirectNetwork
  // with single-threaded virtual-clock machinery) stay serial — recovery
  // models the parallel makespan there instead.
  bool recovery_threads = false;
  if (config_.external_network != nullptr) {
    network_ = config_.external_network;
  } else {
    recovery_threads = config_.transport == MiniClusterTransport::kThreaded ||
                       config_.transport == MiniClusterTransport::kSocket;
    switch (config_.transport) {
      case MiniClusterTransport::kThreaded:
        if (config_.workers_per_node < 1) {
          // A threaded network without workers would hang every RPC.
          KERA_ERROR("MiniCluster: kThreaded needs workers_per_node >= 1");
          std::abort();
        }
        threaded_ =
            std::make_unique<rpc::ThreadedNetwork>(config_.workers_per_node);
        network_ = threaded_.get();
        break;
      case MiniClusterTransport::kDirect:
        direct_ = std::make_unique<rpc::DirectNetwork>();
        network_ = direct_.get();
        break;
      case MiniClusterTransport::kSocket: {
        rpc::SocketNetwork::Options opts;
        if (config_.workers_per_node > 0) {
          opts.workers_per_node = config_.workers_per_node;
        }
        socket_ = std::make_unique<rpc::SocketNetwork>(opts);
        network_ = socket_.get();
        break;
      }
    }
  }
  CoordinatorConfig cc = config_.coordinator;
  cc.recovery_use_threads = recovery_threads;
  coordinator_ = std::make_unique<Coordinator>(*network_, cc);

  incarnations_.assign(config_.nodes, 0);
  for (NodeId node = 1; node <= config_.nodes; ++node) {
    brokers_.push_back(
        std::make_unique<Broker>(BrokerConfigFor(node), *network_));
    backups_.push_back(std::make_unique<Backup>(BackupConfigFor(node)));
  }

  RegisterOnNetwork(kCoordinatorNode, coordinator_.get());
  for (NodeId node = 1; node <= config_.nodes; ++node) {
    RegisterOnNetwork(node, brokers_[node - 1].get());
    RegisterOnNetwork(BackupServiceId(node), backups_[node - 1].get());
    coordinator_->RegisterNode(node, brokers_[node - 1].get(),
                               backups_[node - 1].get());
  }
}

MiniCluster::~MiniCluster() {
  // Wake the consume long-pollers before the network shuts down, so the
  // shutdown does not block on a handler thread parked until its poll
  // deadline.
  for (auto& b : brokers_) b->StopConsumeWaits();
  if (threaded_ != nullptr) threaded_->Shutdown();
  if (socket_ != nullptr) socket_->Shutdown();
}

std::vector<NodeId> MiniCluster::BrokerNodes() const {
  std::vector<NodeId> out;
  for (NodeId node = 1; node <= config_.nodes; ++node) out.push_back(node);
  return out;
}

void MiniCluster::CrashNode(NodeId node) {
  CrashOnNetwork(node);
  CrashOnNetwork(BackupServiceId(node));
  // Fail parked long-polls now: the transport no longer delivers to this
  // broker, but handler threads already inside HandleConsume would
  // otherwise sleep until their poll deadline (and a later restart swaps
  // in a fresh broker whose parking works again).
  brokers_[node - 1]->StopConsumeWaits();
  // A real crash loses the process-local spill log with the process; the
  // broker's durable data lives on the backups. Delete the node's whole
  // spill tree (all incarnations) so recovery provably never reads it.
  // The dead broker object stops spilling first, so its flusher never
  // writes into the deleted tree; it may still hold open fds — unlinking
  // is safe, and its per-incarnation subdirectory is never reused
  // (RestartNode bumps the incarnation).
  if (TieredStore* tiered = brokers_[node - 1]->tiered()) {
    tiered->StopSpilling();
  }
  if (!SpillDirFor(node).empty()) {
    std::error_code ec;
    std::filesystem::remove_all(NodeDir(config_.broker.spill_dir, node), ec);
  }
}

Status MiniCluster::RestartNode(NodeId node) {
  if (node == 0 || node > config_.nodes) {
    return Status(StatusCode::kInvalidArgument, "no such node");
  }
  // Fresh instances: a restarted process has lost all in-memory state.
  // The bumped incarnation keeps the new broker's virtual segment ids
  // disjoint from any stale copies of its previous life that backups
  // still hold (backups key copies by (primary, vlog, vseg)).
  ++incarnations_[node - 1];
  auto broker = std::make_unique<Broker>(BrokerConfigFor(node), *network_);
  auto backup = std::make_unique<Backup>(BackupConfigFor(node));
  // Transport first, so the node is reachable the moment the coordinator
  // re-admits it (recovery replay and fresh placements dial it directly).
  RestoreOnNetwork(node, broker.get());
  RestoreOnNetwork(BackupServiceId(node), backup.get());
  Status s = coordinator_->RejoinNode(node, broker.get(), backup.get());
  if (!s.ok()) {
    CrashOnNetwork(node);
    CrashOnNetwork(BackupServiceId(node));
    return s;
  }
  brokers_[node - 1] = std::move(broker);
  backups_[node - 1] = std::move(backup);
  return OkStatus();
}

void MiniCluster::CrashBackup(NodeId node) {
  CrashOnNetwork(BackupServiceId(node));
}

void MiniCluster::DestroyBackup(NodeId node) {
  CrashOnNetwork(BackupServiceId(node));
  backups_[node - 1].reset();
}

void MiniCluster::RestartBackup(NodeId node) {
  auto backup = std::make_unique<Backup>(BackupConfigFor(node));
  RestoreOnNetwork(BackupServiceId(node), backup.get());
  backups_[node - 1] = std::move(backup);
}

Broker::Stats MiniCluster::TotalBrokerStats() const {
  Broker::Stats total;
  for (const auto& b : brokers_) total += b->GetStats();
  return total;
}

Backup::Stats MiniCluster::TotalBackupStats() const {
  Backup::Stats total;
  for (const auto& b : backups_) {
    if (b != nullptr) total += b->GetStats();  // null while power-cut
  }
  return total;
}

}  // namespace kera
