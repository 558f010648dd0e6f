// Codec round-trips and checkpoint semantics: persistence to the DFS,
// lineage truncation, reopening, and recovery under node failure.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "engine/dataset.hpp"

namespace ss::engine {
namespace {

EngineContext::Options LocalOptions() {
  EngineContext::Options options;
  options.topology = cluster::EmrCluster(2);
  options.physical_threads = 4;
  return options;
}

dfs::DfsOptions ReplicatedDfs() {
  return {.num_nodes = 3, .replication = 2, .block_lines = 16};
}

TEST(CodecTest, PodRoundTrip) {
  BinaryWriter writer;
  Codec<int>::Encode(writer, -42);
  Codec<double>::Encode(writer, 2.75);
  BinaryReader reader(writer.bytes());
  EXPECT_EQ(Codec<int>::Decode(reader), -42);
  EXPECT_DOUBLE_EQ(Codec<double>::Decode(reader), 2.75);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(CodecTest, StringAndPairRoundTrip) {
  BinaryWriter writer;
  Codec<std::pair<std::string, double>>::Encode(writer, {"snp42", 1.5});
  BinaryReader reader(writer.bytes());
  const auto pair = Codec<std::pair<std::string, double>>::Decode(reader);
  EXPECT_EQ(pair.first, "snp42");
  EXPECT_DOUBLE_EQ(pair.second, 1.5);
}

TEST(CodecTest, NestedVectorRoundTrip) {
  using Record = std::pair<std::uint32_t, std::vector<double>>;
  const std::vector<Record> records = {{1, {0.5, -1.5}}, {2, {}}, {3, {9.0}}};
  const auto bytes = EncodePartition(records);
  EXPECT_EQ(DecodePartition<Record>(bytes), records);
}

TEST(CodecTest, EmptyPartition) {
  EXPECT_TRUE(DecodePartition<int>(EncodePartition<int>({})).empty());
}

TEST(CheckpointTest, RoundTripsData) {
  dfs::MiniDfs store(ReplicatedDfs());
  EngineContext ctx(LocalOptions(), &store);
  std::vector<int> data(50);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Parallelize(ctx, data, 5).Map([](const int& x) { return x * 2; });
  auto checkpointed = Checkpoint(ds, "/ckpt");
  ASSERT_TRUE(checkpointed.ok());
  EXPECT_EQ(checkpointed.value().NumPartitions(), 5u);
  std::vector<int> expected;
  for (int x : data) expected.push_back(x * 2);
  EXPECT_EQ(checkpointed.value().Collect(), expected);
}

TEST(CheckpointTest, TruncatesLineage) {
  dfs::MiniDfs store(ReplicatedDfs());
  EngineContext ctx(LocalOptions(), &store);
  std::atomic<int> upstream{0};
  auto ds = Parallelize(ctx, std::vector<int>{1, 2, 3, 4}, 2)
                .Map([&upstream](const int& x) {
                  upstream.fetch_add(1);
                  return x;
                });
  auto checkpointed = Checkpoint(ds, "/ckpt");
  ASSERT_TRUE(checkpointed.ok());
  const int after_write = upstream.load();
  checkpointed.value().Collect();
  checkpointed.value().Collect();
  EXPECT_EQ(upstream.load(), after_write);  // upstream never re-runs
  // Lineage string shows a source node, not the map chain.
  EXPECT_NE(checkpointed.value().DebugString().find("checkpoint(/ckpt)"),
            std::string::npos);
  EXPECT_EQ(checkpointed.value().DebugString().find("parallelize"),
            std::string::npos);
}

TEST(CheckpointTest, ReopenInNewContext) {
  dfs::MiniDfs store(ReplicatedDfs());
  {
    EngineContext ctx(LocalOptions(), &store);
    auto ds = Parallelize(ctx, std::vector<std::string>{"a", "b", "c"}, 2);
    ASSERT_TRUE(Checkpoint(ds, "/persisted").ok());
  }
  EngineContext ctx2(LocalOptions(), &store);
  auto reopened = OpenCheckpoint<std::string>(ctx2, "/persisted");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().Collect(),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CheckpointTest, OpenMissingFails) {
  dfs::MiniDfs store(ReplicatedDfs());
  EngineContext ctx(LocalOptions(), &store);
  EXPECT_FALSE(OpenCheckpoint<int>(ctx, "/nope").ok());
}

TEST(CheckpointTest, SurvivesDfsNodeLoss) {
  dfs::MiniDfs store(ReplicatedDfs());
  EngineContext ctx(LocalOptions(), &store);
  std::vector<int> data(30);
  std::iota(data.begin(), data.end(), 0);
  auto checkpointed = Checkpoint(Parallelize(ctx, data, 3), "/ckpt");
  ASSERT_TRUE(checkpointed.ok());
  store.KillNode(1);
  EXPECT_EQ(checkpointed.value().Collect(), data);
}

TEST(CheckpointTest, FailsWithoutDfs) {
  EngineContext ctx(LocalOptions());
  auto ds = Parallelize(ctx, std::vector<int>{1}, 1);
  EXPECT_EQ(Checkpoint(ds, "/x").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CheckpointTest, DownstreamOpsCompose) {
  dfs::MiniDfs store(ReplicatedDfs());
  EngineContext ctx(LocalOptions(), &store);
  std::vector<int> data(40);
  std::iota(data.begin(), data.end(), 0);
  auto checkpointed = Checkpoint(Parallelize(ctx, data, 4), "/ckpt");
  ASSERT_TRUE(checkpointed.ok());
  const int evens =
      static_cast<int>(checkpointed.value()
                           .Filter([](const int& x) { return x % 2 == 0; })
                           .Collect()
                           .size());
  EXPECT_EQ(evens, 20);
}

TEST(DfsBinaryTest, WriteReadBlocks) {
  dfs::MiniDfs store(ReplicatedDfs());
  std::vector<std::vector<std::uint8_t>> blocks = {{1, 2, 3}, {}, {4, 5}};
  ASSERT_TRUE(store.WriteBinaryFile("/bin", blocks).ok());
  EXPECT_EQ(store.BlockCount("/bin").value(), 3u);
  for (std::uint32_t b = 0; b < 3; ++b) {
    auto got = store.ReadBinaryBlock("/bin", b);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), blocks[b]);
  }
  EXPECT_FALSE(store.ReadBinaryBlock("/bin", 3).ok());
  EXPECT_FALSE(store.ReadBinaryBlock("/missing", 0).ok());
}

TEST(DfsBinaryTest, ChecksumFailover) {
  dfs::MiniDfs store(ReplicatedDfs());
  ASSERT_TRUE(store.WriteBinaryFile("/bin", {{9, 9, 9, 9}}).ok());
  const auto meta = store.name_node().Lookup("/bin").value();
  ASSERT_TRUE(
      store.CorruptReplica("/bin", 0, meta.blocks[0].replica_nodes[0]).ok());
  auto got = store.ReadBinaryBlock("/bin", 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), (std::vector<std::uint8_t>{9, 9, 9, 9}));
}

}  // namespace
}  // namespace ss::engine
