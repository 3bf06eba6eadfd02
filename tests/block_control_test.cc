#include "bank/block_control.h"

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/rng.h"

namespace pcal {
namespace {

TEST(SaturatingCounter, HardwareSemantics) {
  SaturatingCounter c(3);
  EXPECT_FALSE(c.terminal());
  c.tick(false);
  c.tick(false);
  EXPECT_FALSE(c.terminal());
  c.tick(false);
  EXPECT_TRUE(c.terminal());  // saturated at 3 idle cycles
  c.tick(false);
  EXPECT_EQ(c.value(), 3u);  // stays saturated
  c.tick(true);
  EXPECT_FALSE(c.terminal());
  EXPECT_EQ(c.value(), 0u);
}

TEST(BlockControl, SleepCyclesArithmetic) {
  // Breakeven 10.  Bank 0 accessed at cycles 0 and 50: one idle interval
  // of 49 cycles -> 39 sleep cycles, one episode.
  BlockControl bc(2, 10, 10);
  bc.on_access(0, 0);
  bc.on_access(0, 50);
  bc.finish(51);
  EXPECT_EQ(bc.accesses(0), 2u);
  EXPECT_EQ(bc.sleep_cycles(0), 39u);
  EXPECT_EQ(bc.sleep_episodes(0), 1u);
  // Bank 1 never accessed: idle 0..50 = 51 cycles -> 41 asleep.
  EXPECT_EQ(bc.accesses(1), 0u);
  EXPECT_EQ(bc.sleep_cycles(1), 41u);
  EXPECT_DOUBLE_EQ(bc.sleep_residency(1, 51), 41.0 / 51.0);
}

TEST(BlockControl, ShortGapsDoNotSleep) {
  BlockControl bc(1, 10, 10);
  for (std::uint64_t t = 0; t < 100; t += 5) bc.on_access(0, t);
  bc.finish(100);
  EXPECT_EQ(bc.sleep_cycles(0), 0u);
  EXPECT_EQ(bc.sleep_episodes(0), 0u);
  EXPECT_DOUBLE_EQ(bc.useful_idleness_count(0), 0.0);
}

TEST(BlockControl, ExactBreakevenGapDoesNotSleep) {
  // An idle interval of exactly `breakeven` cycles never reaches the
  // terminal count state *with slack*, so no sleep results (strictly-
  // greater semantics, consistent with IdleSums).
  BlockControl bc(1, 10, 10);
  bc.on_access(0, 0);
  bc.on_access(0, 11);  // gap of 10 idle cycles (1..10)
  bc.finish(12);
  EXPECT_EQ(bc.sleep_cycles(0), 0u);
  bc = BlockControl(1, 10, 10);
  bc.on_access(0, 0);
  bc.on_access(0, 12);  // gap of 11 -> sleeps 1 cycle
  bc.finish(13);
  EXPECT_EQ(bc.sleep_cycles(0), 1u);
  EXPECT_EQ(bc.sleep_episodes(0), 1u);
}

TEST(BlockControl, GateSplitsSleepIntoGatedShare) {
  // Breakeven 10, gate 30.  Bank 0 idles 49 cycles (1..49): 39 asleep,
  // of which 19 past the gate.
  BlockControl bc(2, 10, 30);
  EXPECT_EQ(bc.gate_cycles(), 30u);
  bc.on_access(0, 0);
  bc.on_access(1, 30);
  bc.on_access(0, 50);
  bc.finish(51);
  EXPECT_EQ(bc.sleep_cycles(0), 39u);
  EXPECT_EQ(bc.gated_cycles(0), 19u);
  EXPECT_EQ(bc.sleep_episodes(0), 1u);
  EXPECT_EQ(bc.gated_episodes(0), 1u);
  // Bank 1: idle 0..29 (30 cycles: sleeps 20, gate not passed), then
  // 31..50 (20 cycles: sleeps 10).
  EXPECT_EQ(bc.sleep_cycles(1), 30u);
  EXPECT_EQ(bc.sleep_episodes(1), 2u);
  EXPECT_EQ(bc.gated_cycles(1), 0u);
  EXPECT_EQ(bc.gated_episodes(1), 0u);
  EXPECT_DOUBLE_EQ(bc.useful_idleness_count(1), 1.0);
  // A gate before the breakeven is no power policy.
  EXPECT_THROW(BlockControl(1, 10, 9), Error);
}

TEST(BlockControl, IsSleepingTracksCounterSaturation) {
  BlockControl bc(1, 5, 5);
  bc.on_access(0, 10);
  EXPECT_FALSE(bc.is_sleeping(0, 11));
  EXPECT_FALSE(bc.is_sleeping(0, 15));
  EXPECT_TRUE(bc.is_sleeping(0, 16));  // 5 full idle cycles elapsed
  EXPECT_TRUE(bc.is_sleeping(0, 100));
}

TEST(BlockControl, TrailingIdleCountedByFinish) {
  BlockControl bc(1, 10, 10);
  bc.on_access(0, 0);
  bc.finish(101);  // idle 1..100 = 100 cycles -> 90 asleep
  EXPECT_EQ(bc.sleep_cycles(0), 90u);
}

TEST(BlockControl, InitialIdlePeriodCounts) {
  BlockControl bc(1, 10, 10);
  bc.on_access(0, 50);  // idle 0..49 before first access
  bc.finish(51);
  EXPECT_EQ(bc.sleep_cycles(0), 40u);
}

TEST(BlockControl, ErrorsOnMisuse) {
  BlockControl bc(2, 10, 10);
  bc.on_access(0, 5);
  EXPECT_THROW(bc.on_access(0, 5), Error);   // same cycle, same bank
  EXPECT_THROW(bc.on_access(1, 4), Error);   // time went backwards
  EXPECT_THROW(bc.on_access(2, 6), Error);   // bank out of range
  bc.finish(10);
  EXPECT_THROW(bc.on_access(0, 11), Error);  // after finish
  EXPECT_NO_THROW(bc.finish(10));            // idempotent
}

TEST(BlockControl, StatsRequireFinish) {
  BlockControl bc(1, 10, 10);
  bc.on_access(0, 0);
  EXPECT_THROW(bc.sleep_cycles(0), Error);
  EXPECT_THROW(bc.gated_cycles(0), Error);
  EXPECT_THROW(bc.sleep_residency(0, 10), Error);
}

// Cross-check: the O(1) interval arithmetic must agree cycle-for-cycle
// with the bit-level saturating-counter hardware model, at the
// breakeven and at the gate threshold (a second counter per bank that
// saturates at the gate).
class CounterCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CounterCrossCheck, IntervalModelMatchesHardwareCounters) {
  const std::uint64_t breakeven = GetParam();
  const std::uint64_t gate = 2 * breakeven + 3;
  constexpr std::uint64_t kBanks = 4;
  constexpr std::uint64_t kCycles = 3000;

  struct Hardware {
    SaturatingCounter counter;
    bool was_terminal = false;
    std::uint64_t slept = 0;       // cycles spent past saturation
    std::uint64_t episodes = 0;
    std::uint64_t this_episode = 0;

    // Hardware: the counter ticks every cycle; a cycle is slept if the
    // counter was already terminal at its start and no access arrives.
    // A wake after at least one slept cycle is one episode.
    void tick(bool accessed) {
      if (was_terminal && !accessed) {
        ++slept;
        ++this_episode;
      }
      if (accessed) close();
      counter.tick(accessed);
      was_terminal = counter.terminal();
    }
    // Close out an episode, as an access or finish() does.
    void close() {
      if (this_episode > 0) ++episodes;
      this_episode = 0;
    }
  };

  BlockControl bc(kBanks, breakeven, gate);
  std::vector<Hardware> sleep(kBanks, Hardware{SaturatingCounter(breakeven)});
  std::vector<Hardware> gated(kBanks, Hardware{SaturatingCounter(gate)});

  Xoshiro256 rng(breakeven * 977 + 1);
  for (std::uint64_t t = 0; t < kCycles; ++t) {
    // Skewed bank choice so some banks idle long enough to sleep.
    const std::uint64_t r = rng.next_below(100);
    const std::uint64_t bank = r < 85 ? 0 : (r < 95 ? 1 : (r < 99 ? 2 : 3));
    bc.on_access(bank, t);
    for (std::uint64_t b = 0; b < kBanks; ++b) {
      sleep[b].tick(b == bank);
      gated[b].tick(b == bank);
    }
  }
  bc.finish(kCycles);
  std::uint64_t gated_total = 0;
  for (std::uint64_t b = 0; b < kBanks; ++b) {
    sleep[b].close();
    gated[b].close();
    EXPECT_EQ(bc.sleep_cycles(b), sleep[b].slept) << "bank " << b;
    EXPECT_EQ(bc.sleep_episodes(b), sleep[b].episodes) << "bank " << b;
    EXPECT_EQ(bc.gated_cycles(b), gated[b].slept) << "bank " << b;
    EXPECT_EQ(bc.gated_episodes(b), gated[b].episodes) << "bank " << b;
    gated_total += gated[b].slept;
  }
  EXPECT_GT(gated_total, 0u);
}

INSTANTIATE_TEST_SUITE_P(Breakevens, CounterCrossCheck,
                         ::testing::Values(1u, 4u, 16u, 32u, 64u));

}  // namespace
}  // namespace pcal
