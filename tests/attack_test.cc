/**
 * @file
 * Tests for the attack library: pagemap scanning, target discovery,
 * eviction-set construction, and the three hammer kernels — including the
 * Table-1 calibration properties (accesses-to-flip and time-to-flip) and
 * the Section-2.1 refresh-rate results.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "attack/hammer.hh"
#include "attack/memory_layout.hh"
#include "common/units.hh"
#include "mem/memory_system.hh"
#include "scenario/spec.hh"

namespace anvil::attack {
namespace {

/** Full-size machine (the Table 1 platform); built once per suite. */
class AttackTest : public ::testing::Test
{
  protected:

    explicit AttackTest(Tick refresh_period = ms(64))
        : AttackTest(config_with_refresh(refresh_period))
    {
    }

    explicit AttackTest(const mem::SystemConfig &config)
    {
        machine_ = std::make_unique<mem::MemorySystem>(config);
        attacker_ = &machine_->create_process();
        buffer_ = attacker_->mmap(scenario::kDefaultAttackBufferBytes);
        layout_ = std::make_unique<MemoryLayout>(
            *attacker_, machine_->dram().address_map(),
            machine_->hierarchy());
        layout_->scan(buffer_, scenario::kDefaultAttackBufferBytes);
    }

    /**
     * Advances the clock to just after the victim row's next refresh so a
     * trial measures pure hammering time (the controlled-experiment
     * equivalent of the paper picking known-flippable modules).
     */
    void
    align_to_refresh(std::uint32_t victim_row)
    {
        const auto &schedule = machine_->dram().refresh_schedule();
        machine_->advance(
            schedule.next_refresh(victim_row, machine_->now()) + 10 -
            machine_->now());
    }

    /** First target whose victim row has the minimum flip threshold. */
    template <typename Targets>
    std::optional<typename Targets::value_type>
    weakest_target(const Targets &targets)
    {
        for (const auto &t : targets) {
            std::uint32_t row = 0;
            std::uint32_t bank = 0;
            if constexpr (std::is_same_v<typename Targets::value_type,
                                         DoubleSidedTarget>) {
                row = t.victim_row;
                bank = t.flat_bank;
            } else {
                row = t.aggressor_row + 1;
                bank = t.flat_bank;
            }
            const auto &model = machine_->dram().disturbance(bank);
            if (model.threshold_of(row) ==
                machine_->dram().config().flip_threshold) {
                return t;
            }
        }
        return std::nullopt;
    }

    static mem::SystemConfig
    config_with_refresh(Tick refresh_period)
    {
        mem::SystemConfig config;
        config.dram.refresh_period = refresh_period;
        return config;
    }

    std::unique_ptr<mem::MemorySystem> machine_;
    mem::AddressSpace *attacker_ = nullptr;
    Addr buffer_ = 0;
    std::unique_ptr<MemoryLayout> layout_;
};

TEST_F(AttackTest, ScanIndexesAllPages)
{
    EXPECT_EQ(layout_->pages_scanned(),
              scenario::kDefaultAttackBufferBytes / mem::kPageBytes);
}

TEST_F(AttackTest, DoubleSidedTargetsSandwichRealVictims)
{
    const auto targets = layout_->find_double_sided_targets(32);
    ASSERT_FALSE(targets.empty());
    const auto &map = machine_->dram().address_map();
    for (const auto &t : targets) {
        const Addr pa_low = attacker_->translate(t.low_aggressor_va);
        const Addr pa_high = attacker_->translate(t.high_aggressor_va);
        const auto low = map.decode(pa_low);
        const auto high = map.decode(pa_high);
        EXPECT_EQ(map.flat_bank(low), t.flat_bank);
        EXPECT_EQ(map.flat_bank(high), t.flat_bank);
        EXPECT_EQ(low.row + 1, t.victim_row);
        EXPECT_EQ(high.row - 1, t.victim_row);
    }
}

TEST_F(AttackTest, SingleSidedTargetsShareBankWithDistantCloser)
{
    const auto targets = layout_->find_single_sided_targets(16, 64);
    ASSERT_FALSE(targets.empty());
    const auto &map = machine_->dram().address_map();
    for (const auto &t : targets) {
        const auto agg = map.decode(attacker_->translate(t.aggressor_va));
        const auto closer = map.decode(attacker_->translate(t.closer_va));
        EXPECT_EQ(map.flat_bank(agg), map.flat_bank(closer));
        EXPECT_GE(closer.row, agg.row + 64);
    }
}

TEST_F(AttackTest, EvictionSetSharesSetAndSlice)
{
    const auto targets = layout_->find_double_sided_targets(4);
    ASSERT_FALSE(targets.empty());
    const Addr target_va = targets[0].low_aggressor_va;
    const auto lines = layout_->build_eviction_set(target_va, 12);
    ASSERT_EQ(lines.size(), 12u);

    const auto &h = machine_->hierarchy();
    const Addr target_pa = attacker_->translate(target_va);
    std::set<Addr> distinct;
    for (const Addr va : lines) {
        const Addr pa = attacker_->translate(va);
        ASSERT_NE(pa, kInvalidAddr);
        EXPECT_EQ(h.llc_set(pa), h.llc_set(target_pa));
        EXPECT_EQ(h.llc_slice(pa), h.llc_slice(target_pa));
        EXPECT_NE(cache::line_of(pa), cache::line_of(target_pa));
        distinct.insert(cache::line_of(pa));
    }
    EXPECT_EQ(distinct.size(), 12u);
}

TEST_F(AttackTest, EvictionSetAvoidsTargetNeighbourhood)
{
    const auto targets = layout_->find_double_sided_targets(4);
    ASSERT_FALSE(targets.empty());
    const Addr target_va = targets[0].low_aggressor_va;
    const auto lines = layout_->build_eviction_set(target_va, 12);
    const auto &map = machine_->dram().address_map();
    const Addr target_pa = attacker_->translate(target_va);
    const auto target_coord = map.decode(target_pa);
    for (const Addr va : lines) {
        const auto coord = map.decode(attacker_->translate(va));
        if (map.flat_bank(coord) != map.flat_bank(target_coord))
            continue;
        const std::int64_t gap = static_cast<std::int64_t>(coord.row) -
                                 static_cast<std::int64_t>(target_coord.row);
        EXPECT_GT(std::abs(gap), 4);
    }
}

TEST_F(AttackTest, ClflushDoubleSidedMatchesTable1)
{
    // Table 1: double-sided with CLFLUSH — 220 K row accesses, first flip
    // at 15 ms.
    const auto target =
        weakest_target(layout_->find_double_sided_targets(64));
    ASSERT_TRUE(target.has_value());
    align_to_refresh(target->victim_row);

    ClflushDoubleSided hammer(*machine_, attacker_->pid(), *target);
    const HammerResult result = hammer.run(ms(70));
    ASSERT_TRUE(result.flipped);
    EXPECT_NEAR(static_cast<double>(result.aggressor_accesses), 220000.0,
                6000.0);
    EXPECT_GT(to_ms(result.duration), 13.0);
    EXPECT_LT(to_ms(result.duration), 19.0);
    EXPECT_EQ(result.flips[0].row, target->victim_row);
}

TEST_F(AttackTest, ClflushSingleSidedMatchesTable1)
{
    // Table 1: single-sided with CLFLUSH — 400 K accesses, ~58 ms.
    const auto targets = layout_->find_single_sided_targets(64, 64);
    const auto target = weakest_target(targets);
    ASSERT_TRUE(target.has_value());
    align_to_refresh(target->aggressor_row + 1);

    ClflushSingleSided hammer(*machine_, attacker_->pid(), *target);
    const HammerResult result = hammer.run(ms(70));
    ASSERT_TRUE(result.flipped);
    EXPECT_NEAR(static_cast<double>(result.aggressor_accesses), 400000.0,
                12000.0);
    EXPECT_GT(to_ms(result.duration), 42.0);
    EXPECT_LT(to_ms(result.duration), 64.0);
}

TEST_F(AttackTest, ClflushFreeDoubleSidedMatchesTable1)
{
    // Table 1: double-sided WITHOUT CLFLUSH — 220 K accesses, ~45 ms.
    const auto targets = layout_->find_double_sided_targets(256);
    std::optional<DoubleSidedTarget> chosen;
    for (const auto &t : targets) {
        if (!ClflushFreeDoubleSided::slice_compatible(*machine_,
                                                      attacker_->pid(), t))
            continue;
        const auto &model = machine_->dram().disturbance(t.flat_bank);
        if (model.threshold_of(t.victim_row) ==
            machine_->dram().config().flip_threshold) {
            chosen = t;
            break;
        }
    }
    ASSERT_TRUE(chosen.has_value())
        << "no slice-compatible weak target in buffer";
    align_to_refresh(chosen->victim_row);

    ClflushFreeDoubleSided hammer(*machine_, attacker_->pid(), *chosen,
                                  *layout_);
    const HammerResult result = hammer.run(ms(70));
    ASSERT_TRUE(result.flipped);
    EXPECT_NEAR(static_cast<double>(result.aggressor_accesses), 220000.0,
                8000.0);
    EXPECT_GT(to_ms(result.duration), 35.0);
    EXPECT_LT(to_ms(result.duration), 60.0);
}

TEST_F(AttackTest, ClflushFreePatternMissesOnlyAggressors)
{
    // Property behind Figure 1b: in steady state each iteration's only
    // LLC misses are the two aggressor rows.
    const auto targets = layout_->find_double_sided_targets(256);
    std::optional<DoubleSidedTarget> chosen;
    for (const auto &t : targets) {
        if (ClflushFreeDoubleSided::slice_compatible(*machine_,
                                                     attacker_->pid(), t)) {
            chosen = t;
            break;
        }
    }
    ASSERT_TRUE(chosen.has_value());
    ClflushFreeDoubleSided hammer(*machine_, attacker_->pid(), *chosen,
                                  *layout_);
    for (int i = 0; i < 4; ++i)
        hammer.step();  // warm up

    const auto before = machine_->hierarchy().llc_stats();
    const std::uint64_t acts_before =
        machine_->dram().bank(chosen->flat_bank).activations();
    const int iterations = 200;
    for (int i = 0; i < iterations; ++i)
        hammer.step();
    const auto after = machine_->hierarchy().llc_stats();

    // Exactly 2 misses per iteration...
    EXPECT_EQ(after.misses - before.misses,
              static_cast<std::uint64_t>(2 * iterations));
    // ...and every miss is an aggressor-row activation in the target bank.
    EXPECT_EQ(machine_->dram().bank(chosen->flat_bank).activations() -
                  acts_before,
              static_cast<std::uint64_t>(2 * iterations));
}

TEST_F(AttackTest, ClflushFreeThroughputSupports190KHammersPerRefresh)
{
    // Section 2.2: "This allows up to 190K double-sided hammers with-in a
    // 64ms refresh period." Our pattern must sustain at least ~150 K.
    const auto targets = layout_->find_double_sided_targets(256);
    std::optional<DoubleSidedTarget> chosen;
    for (const auto &t : targets) {
        if (ClflushFreeDoubleSided::slice_compatible(*machine_,
                                                     attacker_->pid(), t)) {
            chosen = t;
            break;
        }
    }
    ASSERT_TRUE(chosen.has_value());
    ClflushFreeDoubleSided hammer(*machine_, attacker_->pid(), *chosen,
                                  *layout_);
    for (int i = 0; i < 4; ++i)
        hammer.step();
    const Tick start = machine_->now();
    const int iterations = 5000;
    for (int i = 0; i < iterations; ++i)
        hammer.step();
    const double ns_per_iteration =
        to_ns(machine_->now() - start) / iterations;
    const double hammers_per_refresh = 64e6 / ns_per_iteration;
    EXPECT_GT(hammers_per_refresh, 150000.0);
    EXPECT_LT(hammers_per_refresh, 220000.0);
}

TEST_F(AttackTest, SliceIncompatibleTargetThrows)
{
    const auto targets = layout_->find_double_sided_targets(256);
    for (const auto &t : targets) {
        if (!ClflushFreeDoubleSided::slice_compatible(*machine_,
                                                      attacker_->pid(), t)) {
            EXPECT_THROW(ClflushFreeDoubleSided(*machine_, attacker_->pid(),
                                                t, *layout_),
                         std::runtime_error);
            return;
        }
    }
    GTEST_SKIP() << "every target happened to be compatible";
}

TEST_F(AttackTest, HalfDoubleTargetsOwnTheFullSandwich)
{
    const auto targets = layout_->find_half_double_targets(32);
    ASSERT_FALSE(targets.empty());
    const auto &map = machine_->dram().address_map();
    for (const auto &t : targets) {
        const auto far_low = map.decode(attacker_->translate(t.far_low_va));
        const auto near_low =
            map.decode(attacker_->translate(t.near_low_va));
        const auto near_high =
            map.decode(attacker_->translate(t.near_high_va));
        const auto far_high =
            map.decode(attacker_->translate(t.far_high_va));
        EXPECT_EQ(map.flat_bank(far_low), t.flat_bank);
        EXPECT_EQ(map.flat_bank(near_low), t.flat_bank);
        EXPECT_EQ(map.flat_bank(near_high), t.flat_bank);
        EXPECT_EQ(map.flat_bank(far_high), t.flat_bank);
        EXPECT_EQ(far_low.row + 2, t.victim_row);
        EXPECT_EQ(near_low.row + 1, t.victim_row);
        EXPECT_EQ(near_high.row - 1, t.victim_row);
        EXPECT_EQ(far_high.row - 2, t.victim_row);
    }
}

TEST_F(AttackTest, HalfDoubleIsInertWithoutDistanceTwoCoupling)
{
    // On the classic module (second_neighbor_weight = 0) the far
    // aggressors contribute nothing to the sandwiched victim; a run
    // well past the double-sided time-to-flip leaves memory intact.
    const auto targets = layout_->find_half_double_targets(16);
    ASSERT_FALSE(targets.empty());
    ClflushHalfDouble hammer(*machine_, attacker_->pid(), targets[0]);
    const HammerResult result = hammer.run(ms(30));
    EXPECT_FALSE(result.flipped);
    EXPECT_TRUE(machine_->dram().flips().empty());
}

TEST_F(AttackTest, HalfDoubleRejectsAZeroNearTouchInterval)
{
    const auto targets = layout_->find_half_double_targets(16);
    ASSERT_FALSE(targets.empty());
    EXPECT_THROW(
        ClflushHalfDouble(*machine_, attacker_->pid(), targets[0], 0),
        std::runtime_error);
}

TEST_F(AttackTest, ThrashRowsAreDistinctAndSpaced)
{
    const auto rows = layout_->find_thrash_rows(512);
    ASSERT_GE(rows.size(), 64u);
    const auto &map = machine_->dram().address_map();
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
    std::map<std::uint32_t, std::vector<std::uint32_t>> by_bank;
    for (const Addr va : rows) {
        const auto coord = map.decode(attacker_->translate(va));
        EXPECT_TRUE(seen.insert({map.flat_bank(coord), coord.row}).second);
        by_bank[map.flat_bank(coord)].push_back(coord.row);
    }
    // Same-bank picks keep the minimum gap, so round-robin traffic never
    // concentrates disturbance on any one victim.
    for (auto &[bank, bank_rows] : by_bank) {
        std::sort(bank_rows.begin(), bank_rows.end());
        for (std::size_t i = 1; i < bank_rows.size(); ++i)
            EXPECT_GE(bank_rows[i] - bank_rows[i - 1], 3u) << bank;
    }
}

TEST_F(AttackTest, TrackerThrashCyclesDistinctRowsWithoutFlipping)
{
    const auto rows = layout_->find_thrash_rows(256);
    ASSERT_FALSE(rows.empty());
    TrackerThrash hammer(*machine_, attacker_->pid(), rows);
    EXPECT_EQ(hammer.working_set_rows(), rows.size());
    const std::uint64_t misses_before =
        machine_->dram().stats().row_misses;
    for (std::size_t i = 0; i < 4 * rows.size(); ++i)
        hammer.step();
    // Round-robin over distinct (bank, row) locations: every access
    // opens a fresh row (maximal tracker pressure)...
    EXPECT_EQ(machine_->dram().stats().row_misses - misses_before,
              4 * rows.size());
    // ...while no victim accumulates disturbance worth mentioning.
    EXPECT_TRUE(machine_->dram().flips().empty());
}

TEST_F(AttackTest, TrackerThrashRejectsAnEmptyWorkingSet)
{
    EXPECT_THROW(TrackerThrash(*machine_, attacker_->pid(), {}),
                 std::runtime_error);
}

/** Next-generation module: lower threshold plus distance-2 coupling. */
class HalfDoubleAttackTest : public AttackTest
{
  protected:
    HalfDoubleAttackTest() : AttackTest(next_gen_config()) {}

    static mem::SystemConfig
    next_gen_config()
    {
        mem::SystemConfig config;
        config.dram.flip_threshold = 200000;
        config.dram.second_neighbor_weight = 0.5;
        return config;
    }
};

TEST_F(HalfDoubleAttackTest, FlipsTheSandwichedVictim)
{
    // The victim accrues w2 from BOTH far aggressors (1.0 per iteration)
    // while the distance-3 collateral rows see only one aggressor each
    // (0.5 per iteration), so a weakest-grade victim always flips first.
    std::optional<HalfDoubleTarget> chosen;
    for (const auto &t : layout_->find_half_double_targets(1024)) {
        if (machine_->dram().disturbance(t.flat_bank).threshold_of(
                t.victim_row) ==
            machine_->dram().config().flip_threshold) {
            chosen = t;
            break;
        }
    }
    ASSERT_TRUE(chosen.has_value());
    align_to_refresh(chosen->victim_row);

    ClflushHalfDouble hammer(*machine_, attacker_->pid(), *chosen);
    const HammerResult result = hammer.run(ms(192));
    ASSERT_TRUE(result.flipped);
    EXPECT_EQ(result.flips[0].row, chosen->victim_row);
    // Pure distance-2 coupling at weight 0.5: the two aggressors must
    // jointly deliver ~2x the threshold in far accesses.
    EXPECT_GT(result.aggressor_accesses, 300000u);
    // The kept-charged near rows never flip.
    for (const auto &flip : machine_->dram().flips()) {
        EXPECT_NE(flip.row, chosen->victim_row - 1);
        EXPECT_NE(flip.row, chosen->victim_row + 1);
    }
}

/** Section 2.1: double refresh (32 ms) does NOT stop the CLFLUSH attack. */
class Attack32msTest : public AttackTest
{
  protected:
    Attack32msTest() : AttackTest(ms(32)) {}
};

TEST_F(Attack32msTest, ClflushDoubleSidedStillFlipsAt32ms)
{
    const auto target =
        weakest_target(layout_->find_double_sided_targets(64));
    ASSERT_TRUE(target.has_value());
    align_to_refresh(target->victim_row);
    ClflushDoubleSided hammer(*machine_, attacker_->pid(), *target);
    const HammerResult result = hammer.run(ms(40));
    EXPECT_TRUE(result.flipped);
    EXPECT_LT(to_ms(result.duration), 32.0);
}

TEST_F(Attack32msTest, SingleSidedIsDefeatedBy32ms)
{
    const auto target =
        weakest_target(layout_->find_single_sided_targets(64, 64));
    ASSERT_TRUE(target.has_value());
    align_to_refresh(target->aggressor_row + 1);
    ClflushSingleSided hammer(*machine_, attacker_->pid(), *target);
    // Two full refresh periods of trying.
    const HammerResult result = hammer.run(ms(64));
    EXPECT_FALSE(result.flipped);
}

TEST_F(Attack32msTest, ClflushFreeIsDefeatedBy32ms)
{
    // Table 1 discussion: "we are unable to yet rowhammer memory in less
    // than 32ms without use of the CLFLUSH instruction."
    const auto targets = layout_->find_double_sided_targets(256);
    std::optional<DoubleSidedTarget> chosen;
    for (const auto &t : targets) {
        if (!ClflushFreeDoubleSided::slice_compatible(*machine_,
                                                      attacker_->pid(), t))
            continue;
        const auto &model = machine_->dram().disturbance(t.flat_bank);
        if (model.threshold_of(t.victim_row) ==
            machine_->dram().config().flip_threshold) {
            chosen = t;
            break;
        }
    }
    ASSERT_TRUE(chosen.has_value());
    align_to_refresh(chosen->victim_row);
    ClflushFreeDoubleSided hammer(*machine_, attacker_->pid(), *chosen,
                                  *layout_);
    const HammerResult result = hammer.run(ms(64));
    EXPECT_FALSE(result.flipped);
}

/** Section 5.2.1: flips remain possible even at a 16 ms refresh period. */
class Attack16msTest : public AttackTest
{
  protected:
    Attack16msTest() : AttackTest(ms(16)) {}
};

TEST_F(Attack16msTest, ClflushDoubleSidedStillFlipsAt16ms)
{
    const auto target =
        weakest_target(layout_->find_double_sided_targets(64));
    ASSERT_TRUE(target.has_value());
    align_to_refresh(target->victim_row);
    ClflushDoubleSided hammer(*machine_, attacker_->pid(), *target);
    const HammerResult result = hammer.run(ms(40));
    EXPECT_TRUE(result.flipped);
    EXPECT_LT(to_ms(result.duration), 16.0);
}

}  // namespace
}  // namespace anvil::attack
