#include "cluster/mini_cluster.h"

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
  // Direct networks (owned, or the DES/chaos harness's) keep readahead
  // inline so the cold-cache state is a pure function of the schedule.
  bc.async_readahead = socket_ != nullptr;
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
  if (socket_ != nullptr) {
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
  if (socket_ != nullptr) {
    socket_->Crash(service);
  } else {
    direct_->Crash(service);
  }
}

void MiniCluster::RestoreOnNetwork(NodeId service, rpc::RpcHandler* handler) {
  if (socket_ != nullptr) {
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
  if (config_.external_direct != nullptr) {
    direct_ = config_.external_direct;
    network_ = config_.external_network;
  } else if (config_.transport == MiniClusterTransport::kSocket) {
    socket_ = std::make_unique<rpc::SocketNetwork>(rpc::SocketNetwork::Options{
        .workers_per_node = config_.workers_per_node});
    network_ = socket_.get();
  } else {
    owned_direct_ = std::make_unique<rpc::DirectNetwork>();
    direct_ = owned_direct_.get();
    network_ = direct_;
  }
  // Real recovery threads only where the whole RPC path tolerates
  // concurrent callers: the socket transport. Direct networks (the DES /
  // chaos harness decorates one with single-threaded virtual-clock
  // machinery) stay serial — recovery models the parallel makespan there
  // instead.
  CoordinatorConfig cc = config_.coordinator;
  cc.recovery_use_threads = socket_ != nullptr;
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
  if (socket_ != nullptr) socket_->Shutdown();
}

std::vector<NodeId> MiniCluster::BrokerNodes() const {
  std::vector<NodeId> out;
  for (NodeId node = 1; node <= config_.nodes; ++node) out.push_back(node);
  return out;
}

void MiniCluster::CrashNode(NodeId node) {
  // Release parked long-polls first: handler threads already inside
  // HandleConsume would otherwise sleep until their poll deadline, and the
  // socket transport's Crash waits for the node's running handlers (a
  // later restart swaps in a fresh broker whose parking works again).
  brokers_[node - 1]->StopConsumeWaits();
  CrashOnNetwork(node);
  CrashOnNetwork(BackupServiceId(node));
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
