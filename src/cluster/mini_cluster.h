// MiniCluster: an in-process KerA cluster — one coordinator plus N nodes,
// each hosting a broker and a backup service — wired over a SocketNetwork
// (loopback TCP, dispatch/worker threads per node) or a DirectNetwork
// (deterministic, single-threaded). Used by integration tests and the
// examples.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "backup/backup.h"
#include "broker/broker.h"
#include "coordinator/coordinator.h"
#include "rpc/socket_transport.h"
#include "rpc/transport.h"

namespace kera {

/// Which Network implementation carries the cluster's RPCs.
enum class MiniClusterTransport {
  /// DirectNetwork: handler runs inline on the caller thread.
  kDirect,
  /// SocketNetwork: real TCP over loopback, multiplexed framing.
  kSocket,
};

/// MiniCluster's broker template: BrokerConfig with test-sized memory
/// (512 MiB) and 1 MiB segments and virtual segments.
inline BrokerConfig MiniClusterBrokerDefaults() {
  BrokerConfig bc;
  bc.memory_bytes = size_t(512) << 20;
  bc.segment_size = 1u << 20;
  bc.virtual_segment_capacity = 1u << 20;
  return bc;
}

struct MiniClusterConfig {
  uint32_t nodes = 4;
  /// Handler worker threads per node on kSocket
  /// (SocketNetwork::Options::workers_per_node); kDirect ignores it.
  int workers_per_node = 4;
  MiniClusterTransport transport = MiniClusterTransport::kSocket;

  /// Component templates, copied for every node. MiniCluster overwrites
  /// only the per-node identity fields: the broker's `node`,
  /// `incarnation`, `backup_nodes` (every node's backup) and
  /// `async_readahead` (true on kSocket); the backup's `node`; the
  /// coordinator's `recovery_use_threads` (true on kSocket).
  /// `broker.spill_dir` and `backup.storage_dir` are root directories:
  /// node n's backup log lives in `<storage_dir>/n<n>`, and each broker
  /// incarnation k spills to `<spill_dir>/n<n>/inc<k>`. With
  /// `broker.shards` > 1 the socket transport gives brokers and backups
  /// one server reactor per shard (rpc::RouteFrameToShard).
  BrokerConfig broker = MiniClusterBrokerDefaults();
  BackupConfig backup;
  CoordinatorConfig coordinator;

  /// External network injection (the chaos harness wraps a DirectNetwork
  /// in a fault-injecting decorator): when `external_direct` is set the
  /// cluster constructs no transport; services register, crash and
  /// restore on `external_direct`, and every call goes through
  /// `external_network`. Set both; both must outlive the cluster.
  /// `transport` is ignored.
  rpc::DirectNetwork* external_direct = nullptr;
  rpc::Network* external_network = nullptr;
};

class MiniCluster {
 public:
  explicit MiniCluster(MiniClusterConfig config);
  ~MiniCluster();

  MiniCluster(const MiniCluster&) = delete;
  MiniCluster& operator=(const MiniCluster&) = delete;

  [[nodiscard]] rpc::Network& network() { return *network_; }
  [[nodiscard]] Coordinator& coordinator() { return *coordinator_; }
  [[nodiscard]] Broker& broker(NodeId node) { return *brokers_[node - 1]; }
  [[nodiscard]] Backup& backup(NodeId node) { return *backups_[node - 1]; }
  [[nodiscard]] uint32_t node_count() const { return config_.nodes; }

  /// Broker node ids: 1..nodes.
  [[nodiscard]] std::vector<NodeId> BrokerNodes() const;

  /// Kills a node (both broker and backup stop answering). Parked consume
  /// long-polls on the crashed broker are released immediately rather than
  /// leaking until their poll deadline, and on the socket transport no
  /// handler of the node still runs when this returns. Use coordinator().RecoverNode(node)
  /// afterwards, then optionally RestartNode to bring the node back.
  void CrashNode(NodeId node);

  /// Restarts a crashed-and-recovered node with a FRESH broker and backup
  /// (all previous in-memory state is gone, as after a real process
  /// restart): re-registers both services on the transport and rejoins the
  /// coordinator (Coordinator::RejoinNode), so new streams can place
  /// streamlets on it and new virtual segments can target its backup.
  Status RestartNode(NodeId node);

  /// Kills only the node's backup service (mid-flush memory loss); the
  /// broker keeps serving. Pair with coordinator().NoteBackupDown(node).
  void CrashBackup(NodeId node);

  /// Brings a crashed backup service back as a fresh, empty instance.
  /// Pair with coordinator().NoteBackupUp(node, &backup(node)).
  void RestartBackup(NodeId node);

  /// Power-loss variant of CrashBackup: unregisters AND destroys the
  /// backup instance (its segment-log flusher thread stops and all file
  /// handles close), so the caller may truncate the on-disk log before
  /// RestartBackup rescans it. backup(node) is invalid until then.
  void DestroyBackup(NodeId node);

  /// Aggregated broker stats across the cluster.
  [[nodiscard]] Broker::Stats TotalBrokerStats() const;

  /// Aggregated backup stats across the cluster.
  [[nodiscard]] Backup::Stats TotalBackupStats() const;

  /// Resolved backup storage directory for `node` (empty when disk
  /// flushing is disabled). The chaos power-loss fault truncates the log
  /// files under this directory between CrashBackup and RestartBackup.
  [[nodiscard]] std::string BackupDirFor(NodeId node) const;

  /// Resolved spill-log directory for `node`'s CURRENT broker incarnation
  /// (empty when tiering is off). CrashNode removes the node's whole
  /// spill tree — a crashed process's spill log is garbage by definition.
  [[nodiscard]] std::string SpillDirFor(NodeId node) const;

 private:
  [[nodiscard]] BrokerConfig BrokerConfigFor(NodeId node) const;
  [[nodiscard]] BackupConfig BackupConfigFor(NodeId node) const;
  void RegisterOnNetwork(NodeId service, rpc::RpcHandler* handler);
  void CrashOnNetwork(NodeId service);
  void RestoreOnNetwork(NodeId service, rpc::RpcHandler* handler);

  MiniClusterConfig config_;
  std::unique_ptr<rpc::SocketNetwork> socket_;
  std::unique_ptr<rpc::DirectNetwork> owned_direct_;
  /// Where services register when there is no socket_: owned_direct_ or
  /// the external one.
  rpc::DirectNetwork* direct_ = nullptr;
  rpc::Network* network_ = nullptr;
  std::unique_ptr<Coordinator> coordinator_;
  std::vector<std::unique_ptr<Broker>> brokers_;
  std::vector<std::unique_ptr<Backup>> backups_;
  /// Per-node broker restart count; fed into BrokerConfig::incarnation so
  /// a restarted broker's virtual segment ids never collide with stale
  /// backup copies from its previous life.
  std::vector<uint64_t> incarnations_;
};

}  // namespace kera
