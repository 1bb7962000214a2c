/**
 * @file
 * Tests for BaselineRefresh's REF cadence: one REF per tREFI per rank,
 * with REFs that cannot issue when due kept as debt and caught up.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/controller.hh"

using namespace hira;

namespace {

ControllerConfig
makeConfig()
{
    ControllerConfig cc;
    cc.geom = Geometry::forCapacityGb(8.0);
    cc.tp = ddr4_2400(8.0);
    return cc;
}

Request
readReq(BankId bank, RowId row, std::uint64_t tag)
{
    Request r;
    r.type = MemType::Read;
    r.da.channel = 0;
    r.da.bank = bank;
    r.da.row = row;
    r.addr = (static_cast<Addr>(row) << 20) | (bank << 14) | (tag << 6);
    r.tag = tag;
    return r;
}

} // namespace

TEST(BaselineRefresh, ZeroPostponeMatchesStrictBaseline)
{
    auto cc = makeConfig();
    MemoryController ctrl(0, cc, std::make_unique<BaselineRefresh>());
    TimingCycles tc(cc.tp);
    for (Cycle now = 1; now < 4 * tc.refi + 200; ++now) {
        ctrl.tick(now);
        ctrl.completions().clear();
    }
    EXPECT_EQ(ctrl.stats().refs, 4u);
}

TEST(BaselineRefresh, RefreshRateNeverFallsBehindBound)
{
    // Refresh-rate guarantee: after any traffic pattern, issued REFs +
    // outstanding debt always equal the elapsed tREFIs.
    auto cc = makeConfig();
    auto scheme = std::make_unique<BaselineRefresh>();
    BaselineRefresh *br = scheme.get();
    MemoryController ctrl(0, cc, std::move(scheme));
    TimingCycles tc(cc.tp);
    Rng rng(21);
    std::uint64_t tag = 1;
    Cycle horizon = 6 * tc.refi;
    for (Cycle now = 1; now < horizon; ++now) {
        if (rng.chance(0.05) && !ctrl.readQueueFull()) {
            ctrl.enqueue(readReq(static_cast<BankId>(rng.below(16)),
                                 static_cast<RowId>(rng.below(4096)),
                                 tag++));
        }
        ctrl.tick(now);
        ctrl.completions().clear();
    }
    // REFs come due at refi, 2*refi, ..., strictly before the horizon.
    Cycle elapsed_refis = (horizon - 1) / tc.refi;
    EXPECT_EQ(ctrl.stats().refs + static_cast<std::uint64_t>(
                                      br->debtOf(0)),
              elapsed_refis);
}
