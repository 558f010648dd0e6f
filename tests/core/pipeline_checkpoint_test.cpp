// Checkpoint serialization of the pipeline's genotype records (the
// engine's checkpoint itself is tested in tests/engine/checkpoint_test.cpp).
#include <gtest/gtest.h>

#include "core/record_traits.hpp"
#include "core/sparkscore.hpp"

namespace ss::core {
namespace {

TEST(PipelineCheckpointTest, SnpRecordCodecRoundTrip) {
  const simdata::SnpRecord record{42, {0, 1, 2, 1, 0, 2}};
  BinaryWriter writer;
  engine::Codec<simdata::SnpRecord>::Encode(writer, record);
  BinaryReader reader(writer.bytes());
  EXPECT_EQ(engine::Codec<simdata::SnpRecord>::Decode(reader), record);
}

}  // namespace
}  // namespace ss::core
