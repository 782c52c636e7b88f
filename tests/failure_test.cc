// Failure-injection tests: a flaky network between clients, brokers and
// backups must never break exactly-once semantics or the durability gate.
// Producer retries + broker-side dedup + idempotent backup batches absorb
// both lost requests and lost responses.
#include <gtest/gtest.h>

#include <string_view>

#include "backup/backup.h"
#include "broker/broker.h"
#include "chaos/chaos_net.h"
#include "rpc/transport.h"
#include "wire/chunk.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::vector<std::byte> MakeChunk(StreamId stream, StreamletId streamlet,
                                 ProducerId producer, ChunkSeq seq) {
  ChunkBuilder b(512);
  b.Start(stream, streamlet, producer);
  EXPECT_TRUE(b.AppendValue(AsBytes("flaky-payload")));
  auto bytes = b.Seal(seq);
  return {bytes.begin(), bytes.end()};
}

/// Counts the requests that reach it and echoes them back.
class EchoHandler final : public rpc::RpcHandler {
 public:
  std::vector<std::byte> HandleRpc(std::span<const std::byte> r) override {
    ++calls;
    return {r.begin(), r.end()};
  }
  int calls = 0;
};

TEST(ChaosNetworkDropTest, DropsConfiguredFraction) {
  rpc::DirectNetwork inner;
  EchoHandler echo;
  inner.Register(1, &echo);
  chaos::ChaosNetwork net(inner, /*seed=*/7);
  net.SetEdgePolicy(1, {.drop_request = 0.3});
  int failures = 0;
  for (int i = 0; i < 1000; ++i) {
    if (!net.Call(1, AsBytes("x")).ok()) ++failures;
  }
  EXPECT_NEAR(failures, 300, 60);
  EXPECT_EQ(echo.calls, 1000 - failures);  // dropped before the handler
  auto stats = net.GetStats();
  EXPECT_EQ(stats.calls, 1000u);
  EXPECT_EQ(stats.dropped_requests, uint64_t(failures));
  EXPECT_EQ(stats.dropped_responses, 0u);
}

TEST(ChaosNetworkDropTest, ResponseDropRunsHandlerButFailsCaller) {
  rpc::DirectNetwork inner;
  EchoHandler echo;
  inner.Register(1, &echo);
  chaos::ChaosNetwork net(inner, /*seed=*/3);
  net.SetEdgePolicy(1, {.drop_response = 1.0});
  auto r = net.Call(1, AsBytes("x"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(echo.calls, 1);  // side effect happened; response was lost
  EXPECT_EQ(net.GetStats().dropped_responses, 1u);
  // The async paths apply the same coin after delivery.
  EXPECT_FALSE(net.CallAsync(1, AsBytes("y")).get().ok());
  EXPECT_EQ(echo.calls, 2);
}

/// Broker + 2 backups over a flaky network; a client loop retries every
/// produce request until acknowledged. Exactly-once must hold.
class FlakyProduceTest : public ::testing::Test {
 protected:
  FlakyProduceTest()
      : flaky_(inner_, /*seed=*/42),
        backup2_(BackupConfig{.node = 2, .storage_dir = ""}),
        backup3_(BackupConfig{.node = 3, .storage_dir = ""}) {
    BrokerConfig bc;
    bc.node = 1;
    bc.memory_bytes = 16 << 20;
    bc.segment_size = 64 << 10;
    bc.virtual_segment_capacity = 64 << 10;
    bc.backup_nodes = {BackupServiceId(2), BackupServiceId(3)};
    bc.replication_retries = 50;  // ride out the injected failures
    broker_ = std::make_unique<Broker>(bc, flaky_);
    inner_.Register(BackupServiceId(2), &backup2_);
    inner_.Register(BackupServiceId(3), &backup3_);
    for (NodeId backup : {BackupServiceId(2), BackupServiceId(3)}) {
      flaky_.SetEdgePolicy(backup,
                           {.drop_request = 0.15, .drop_response = 0.15});
    }

    rpc::StreamInfo info;
    info.stream = 1;
    info.options.num_streamlets = 1;
    info.options.replication_factor = 3;
    info.streamlet_brokers = {1};
    EXPECT_TRUE(broker_->AddStream("s", info).ok());
    EXPECT_TRUE(broker_->AddStreamlet(1, 0).ok());
  }

  rpc::DirectNetwork inner_;
  chaos::ChaosNetwork flaky_;
  Backup backup2_;
  Backup backup3_;
  std::unique_ptr<Broker> broker_;
};

TEST_F(FlakyProduceTest, RetriedProducesStayExactlyOnce) {
  constexpr int kChunks = 200;
  for (int i = 1; i <= kChunks; ++i) {
    auto chunk = MakeChunk(1, 0, /*producer=*/9, ChunkSeq(i));
    rpc::ProduceRequest req;
    req.producer = 9;
    req.stream = 1;
    req.chunks = {chunk};
    // Client retry loop: the broker call itself is direct (we inject
    // flakiness between broker and backups), so each HandleProduce retries
    // replication internally; a failed request is retried wholesale.
    int attempts = 0;
    while (true) {
      ++attempts;
      ASSERT_LT(attempts, 100);
      auto resp = broker_->HandleProduce(req);
      if (resp.status == StatusCode::kOk) break;
    }
  }
  auto stats = broker_->GetStats();
  EXPECT_EQ(stats.chunks_appended, uint64_t(kChunks));
  // Backups saw failures but hold exactly one copy of each chunk.
  EXPECT_EQ(backup2_.GetStats().chunks_received, uint64_t(kChunks));
  EXPECT_EQ(backup3_.GetStats().chunks_received, uint64_t(kChunks));
  EXPECT_GT(flaky_.GetStats().dropped_requests +
                flaky_.GetStats().dropped_responses,
            0u);

  // All chunks durable and consumable, in order.
  rpc::ConsumeRequest creq;
  creq.stream = 1;
  creq.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                   .max_chunks = 1000}};
  auto cresp = broker_->HandleConsume(creq);
  uint64_t total = 0;
  GroupId group = 0;
  uint64_t cursor = 0;
  for (int rounds = 0; rounds < 100; ++rounds) {
    creq.entries[0].group = group;
    creq.entries[0].start_chunk = cursor;
    auto resp = broker_->HandleConsume(creq);
    if (resp.entries[0].chunks.empty() && !resp.entries[0].group_closed) {
      break;
    }
    total += resp.entries[0].chunks.size();
    cursor = resp.entries[0].next_chunk;
    if (resp.entries[0].group_closed) {
      ++group;
      cursor = 0;
      if (!resp.entries[0].group_exists && resp.entries[0].chunks.empty()) {
        break;
      }
    }
  }
  (void)cresp;
  EXPECT_EQ(total, uint64_t(kChunks));
}

TEST_F(FlakyProduceTest, DuplicateRequestRetransmissionsAreAbsorbed) {
  auto chunk = MakeChunk(1, 0, 5, 1);
  rpc::ProduceRequest req;
  req.producer = 5;
  req.stream = 1;
  req.chunks = {chunk};
  int appended = 0;
  int duplicates = 0;
  for (int attempt = 0; attempt < 10; ++attempt) {
    auto resp = broker_->HandleProduce(req);
    if (resp.status != StatusCode::kOk) continue;
    appended += int(resp.appended);
    duplicates += int(resp.duplicates);
  }
  EXPECT_EQ(appended, 1);
  EXPECT_GE(duplicates, 1);
  EXPECT_EQ(broker_->GetStats().chunks_appended, 1u);
  EXPECT_EQ(backup2_.GetStats().chunks_received, 1u);
}

}  // namespace
}  // namespace kera
