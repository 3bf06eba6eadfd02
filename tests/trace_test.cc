#include "trace/trace.h"

#include <gtest/gtest.h>

#include <memory>

namespace pcal {
namespace {

Trace make_trace() {
  return Trace("t", {{0x10, AccessKind::kRead},
                     {0x20, AccessKind::kWrite},
                     {0x30, AccessKind::kRead}});
}

TEST(Trace, IteratesAndEnds) {
  Trace t = make_trace();
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.name(), "t");
  auto a = t.next();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->address, 0x10u);
  EXPECT_EQ(a->kind, AccessKind::kRead);
  EXPECT_TRUE(t.next().has_value());
  EXPECT_TRUE(t.next().has_value());
  EXPECT_FALSE(t.next().has_value());
  EXPECT_FALSE(t.next().has_value());
}

TEST(Trace, ResetRestarts) {
  Trace t = make_trace();
  (void)t.next();
  (void)t.next();
  t.reset();
  auto a = t.next();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->address, 0x10u);
}

TEST(Trace, SizeHintMatches) {
  Trace t = make_trace();
  ASSERT_TRUE(t.size_hint().has_value());
  EXPECT_EQ(*t.size_hint(), 3u);
}

TEST(Trace, IndexAndPushBack) {
  Trace t;
  t.push_back({1, AccessKind::kRead});
  t.push_back({2, AccessKind::kWrite});
  EXPECT_EQ(t[1].address, 2u);
  EXPECT_FALSE(t.empty());
  EXPECT_TRUE(Trace().empty());
}

TEST(Trace, MaterializeCopiesWholeSource) {
  Trace src = make_trace();
  (void)src.next();  // materialize must reset first
  Trace copy = Trace::materialize(src);
  EXPECT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy[0].address, 0x10u);
  EXPECT_EQ(copy.name(), "t");
}

TEST(Trace, MaterializeRespectsLimit) {
  Trace src = make_trace();
  Trace copy = Trace::materialize(src, 2);
  EXPECT_EQ(copy.size(), 2u);
}

TEST(TruncatedSource, LimitsAndResets) {
  TruncatedSource trunc(std::make_unique<Trace>(make_trace()), 2);
  EXPECT_TRUE(trunc.next().has_value());
  EXPECT_TRUE(trunc.next().has_value());
  EXPECT_FALSE(trunc.next().has_value());
  trunc.reset();
  EXPECT_TRUE(trunc.next().has_value());
  ASSERT_TRUE(trunc.size_hint().has_value());
  EXPECT_EQ(*trunc.size_hint(), 2u);
}

TEST(TruncatedSource, LimitBeyondSource) {
  TruncatedSource trunc(std::make_unique<Trace>(make_trace()), 100);
  EXPECT_EQ(*trunc.size_hint(), 3u);
  int n = 0;
  while (trunc.next()) ++n;
  EXPECT_EQ(n, 3);
}

}  // namespace
}  // namespace pcal
