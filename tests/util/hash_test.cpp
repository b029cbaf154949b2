#include "util/hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

namespace prete::util {
namespace {

// Published FNV-1a-64 test vectors.
TEST(HashTest, MatchesPublishedFnv1aVectors) {
  EXPECT_EQ(fnv1a(kFnvOffsetBasis, "", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a(kFnvOffsetBasis, "a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a(kFnvOffsetBasis, "foobar", 6), 0x85944171f73967e8ULL);
}

TEST(HashTest, ByteRangesChain) {
  const std::uint64_t whole = fnv1a(kFnvOffsetBasis, "foobar", 6);
  EXPECT_EQ(fnv1a(fnv1a(kFnvOffsetBasis, "foo", 3), "bar", 3), whole);
}

TEST(HashTest, U64MixerFoldsLeastSignificantByteFirst) {
  const std::uint64_t v = 0x0123456789abcdefULL;
  const unsigned char bytes[8] = {0xef, 0xcd, 0xab, 0x89,
                                  0x67, 0x45, 0x23, 0x01};
  EXPECT_EQ(fnv1a_u64(kFnvOffsetBasis, v),
            fnv1a(kFnvOffsetBasis, bytes, sizeof(bytes)));
  EXPECT_NE(fnv1a_u64(kFnvOffsetBasis, v), fnv1a_u64(kFnvOffsetBasis, v + 1));
}

}  // namespace
}  // namespace prete::util
