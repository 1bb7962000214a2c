/**
 * @file
 * Golden command-trace property test for the demand scheduler.
 *
 * A standalone MemoryController is driven with seeded random read and
 * write streams under four refresh set-ups (NoRefresh, BaselineRefresh,
 * HiRA-MC, BaselineRefresh with immediate PARA) on one and two ranks.
 * Each run folds its sorted command trace, every completion and the
 * ControllerStats into one 64-bit hash, which must equal a recorded
 * constant: any change to which command issues when, or to which
 * request it serves, moves the hash. After every tick the demand
 * queues' per-bank index must also equal a brute-force recount over
 * the request pool.
 *
 * Several mixed streams end in a write-drain stall: in drain mode a
 * write to another row of a bank whose open row has queued read hits
 * is never precharged for, and without refresh to close the bank
 * nothing frees it. The hashes pin that behavior along with the rest.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "common/rng.hh"
#include "core/hira_mc.hh"
#include "mem/controller.hh"

using namespace hira;

namespace {

enum class Setup
{
    NoRefresh,
    Baseline,
    HiraMc,
    ImmediatePara,
};

const char *
setupName(Setup s)
{
    switch (s) {
    case Setup::NoRefresh:
        return "norefresh";
    case Setup::Baseline:
        return "baseline";
    case Setup::HiraMc:
        return "hira-mc";
    case Setup::ImmediatePara:
        return "immediate-para";
    }
    return "?";
}

constexpr Cycle kCycles = 40000;

ControllerConfig
makeConfig(Setup s, int ranks)
{
    ControllerConfig cc;
    cc.geom = Geometry::forCapacityGb(8.0);
    cc.geom.ranksPerChannel = ranks;
    cc.tp = ddr4_2400(8.0);
    cc.recordTrace = true;
    if (s == Setup::HiraMc)
        cc.paraImmediate = false;
    if (s == Setup::ImmediatePara) {
        cc.para.enabled = true;
        cc.para.pth = 0.05;
    }
    return cc;
}

std::unique_ptr<RefreshScheme>
makeScheme(Setup s)
{
    switch (s) {
    case Setup::NoRefresh:
        return std::make_unique<NoRefresh>();
    case Setup::Baseline:
    case Setup::ImmediatePara:
        return std::make_unique<BaselineRefresh>();
    case Setup::HiraMc: {
        HiraMcConfig h;
        h.slackN = 2;
        return std::make_unique<HiraMc>(h);
    }
    }
    return nullptr;
}

/**
 * A random request with row and column locality: few rows per bank, so
 * row hits, conflicts and write forwards all happen, and the address is
 * a pure function of the DRAM coordinates.
 */
Request
randomRequest(Rng &rng, int ranks, double write_frac, std::uint64_t tag,
              Cycle now)
{
    Request r;
    r.type = rng.chance(write_frac) ? MemType::Write : MemType::Read;
    r.da.channel = 0;
    r.da.rank = static_cast<int>(rng.below(static_cast<std::uint64_t>(ranks)));
    r.da.bank = static_cast<BankId>(rng.below(16));
    r.da.row = static_cast<RowId>(rng.below(6));
    r.da.col = static_cast<std::uint32_t>(rng.below(8));
    r.addr = (static_cast<Addr>(r.da.row) << 24) |
             (static_cast<Addr>(r.da.rank) << 20) |
             (static_cast<Addr>(r.da.bank) << 16) |
             (static_cast<Addr>(r.da.col) << 6);
    r.coreId = static_cast<int>(tag % 4);
    r.tag = tag;
    r.arrival = now;
    return r;
}

/**
 * The request-index invariant, recomputed by brute force over the
 * pool: per-bank queued and open-row-hit counts, the work and hit
 * bitmasks, each bank's oldest hit and oldest request, and each bank
 * list in strictly increasing sequence order.
 */
void
checkQueue(const MemoryController &ctrl, const RequestQueue &q,
           const char *name)
{
    const Geometry &geom = ctrl.geometry();
    const std::size_t nbanks =
        static_cast<std::size_t>(geom.banksPerChannel());
    std::vector<std::uint16_t> queued(nbanks, 0), hits(nbanks, 0);
    std::vector<std::uint64_t> oldest(nbanks, ~std::uint64_t{0});
    std::vector<std::uint64_t> oldest_hit(nbanks, ~std::uint64_t{0});
    std::size_t live = 0;
    for (int s = 0; s < static_cast<int>(q.capacity()); ++s) {
        if (!q.live(s))
            continue;
        ++live;
        const Request &r = q.at(s);
        std::size_t b = static_cast<std::size_t>(
            r.da.rank * geom.banksPerRank() + static_cast<int>(r.da.bank));
        ++queued[b];
        if (ctrl.timing().openRow(r.da.rank, r.da.bank) == r.da.row) {
            ++hits[b];
            oldest_hit[b] = std::min(oldest_hit[b], q.seq(s));
        }
        oldest[b] = std::min(oldest[b], q.seq(s));
    }
    ASSERT_EQ(live, q.size()) << name;

    for (std::size_t b = 0; b < nbanks; ++b) {
        ASSERT_EQ(q.queued(b), queued[b]) << name << " bank " << b;
        ASSERT_EQ(q.hits(b), hits[b]) << name << " bank " << b;
        ASSERT_EQ(q.hitMask().test(b), hits[b] != 0)
            << name << " bank " << b;
        if (hits[b] != 0) {
            ASSERT_EQ(q.seq(q.oldestHit(b)), oldest_hit[b])
                << name << " bank " << b;
        } else {
            ASSERT_EQ(q.oldestHit(b), RequestQueue::kNone)
                << name << " bank " << b;
        }
        std::size_t n = 0;
        std::uint64_t prev = 0;
        for (int s = q.head(b); s != RequestQueue::kNone; s = q.next(s)) {
            ASSERT_TRUE(q.live(s));
            if (n > 0) {
                ASSERT_GT(q.seq(s), prev) << name << " bank " << b;
            }
            prev = q.seq(s);
            ++n;
        }
        ASSERT_EQ(n, queued[b]) << name << " bank " << b;
        ASSERT_EQ(q.workMask().test(b), queued[b] != 0)
            << name << " bank " << b;
        if (queued[b] != 0) {
            ASSERT_EQ(q.seq(q.head(b)), oldest[b]) << name << " bank " << b;
        }
    }
}

void
checkIndex(const MemoryController &ctrl)
{
    checkQueue(ctrl, ctrl.readQueue(), "readQ");
    checkQueue(ctrl, ctrl.writeQueue(), "writeQ");
}

/** Arrival pattern of a golden stream. */
enum class Stream
{
    /**
     * 30 % writes; busy phases offer about 0.9 requests per cycle, so
     * both queues fill, writes cross the drain watermark and enqueues
     * bounce.
     */
    MixedSaturating,
    /** 30 % writes at about 0.25 requests per cycle in busy phases. */
    MixedModerate,
    /** Reads only at the saturating rate: no write drain at all. */
    ReadsSaturating,
};

const char *
streamName(Stream s)
{
    switch (s) {
    case Stream::MixedSaturating:
        return "mixed-saturating";
    case Stream::MixedModerate:
        return "mixed-moderate";
    case Stream::ReadsSaturating:
        return "reads-saturating";
    }
    return "?";
}

/** Run one set-up and return its trace + completions + stats hash. */
std::uint64_t
runGolden(Setup s, int ranks, Stream stream)
{
    ControllerConfig cc = makeConfig(s, ranks);
    MemoryController ctrl(0, cc, makeScheme(s));
    Rng rng(0x901dULL + static_cast<std::uint64_t>(ranks) * 31 +
            static_cast<std::uint64_t>(s) * 7 +
            static_cast<std::uint64_t>(stream));
    const double busy = stream == Stream::MixedModerate ? 0.125 : 0.45;
    const double writes = stream == Stream::ReadsSaturating ? 0.0 : 0.3;
    std::uint64_t h = 0x6a09e667f3bcc908ULL;
    std::uint64_t tag = 1;
    for (Cycle now = 1; now < kCycles; ++now) {
        // Bursty arrivals: busy phases alternate with quiet ones that
        // let the queues empty.
        double rate = (now / 2000) % 2 == 0 ? busy : 0.02;
        for (int k = 0; k < 2; ++k) {
            if (rng.chance(rate)) {
                ctrl.enqueue(
                    randomRequest(rng, ranks, writes, tag++, now));
            }
        }
        ctrl.tick(now);
        checkIndex(ctrl);
        if (::testing::Test::HasFatalFailure())
            return 0;
        for (const Completion &c : ctrl.completions()) {
            h = hashCombine(h, c.tag);
            h = hashCombine(h, static_cast<std::uint64_t>(c.coreId));
            h = hashCombine(h, c.at);
        }
        ctrl.completions().clear();
    }
    for (const Command &c : ctrl.trace()) {
        h = hashCombine(h, static_cast<std::uint64_t>(c.type));
        h = hashCombine(h, c.cycle);
        h = hashCombine(h, static_cast<std::uint64_t>(c.rank));
        h = hashCombine(h, c.bank);
        h = hashCombine(h, c.row);
        h = hashCombine(h, static_cast<std::uint64_t>(c.hiraRole));
    }
    const ControllerStats &st = ctrl.stats();
    for (std::uint64_t v :
         {st.readsServed, st.writesServed, st.readLatencySum, st.forwards,
          st.acts, st.pres, st.refs, st.hiraOps, st.rejectedRequests,
          static_cast<std::uint64_t>(ctrl.queuedReads()),
          static_cast<std::uint64_t>(ctrl.queuedWrites())}) {
        h = hashCombine(h, v);
    }
    std::printf("  served r=%llu w=%llu fwd=%llu acts=%llu hira=%llu "
                "rejected=%llu\n",
                static_cast<unsigned long long>(st.readsServed),
                static_cast<unsigned long long>(st.writesServed),
                static_cast<unsigned long long>(st.forwards),
                static_cast<unsigned long long>(st.acts),
                static_cast<unsigned long long>(st.hiraOps),
                static_cast<unsigned long long>(st.rejectedRequests));
    // Guard against a degenerate stream that never exercises the
    // scheduler.
    EXPECT_GT(st.readsServed, 250u);
    EXPECT_GT(st.acts, 50u);
    if (stream != Stream::ReadsSaturating) {
        EXPECT_GT(st.writesServed, 0u);
        EXPECT_GT(st.forwards, 0u);
    }
    if (stream != Stream::MixedModerate) {
        EXPECT_GT(st.rejectedRequests, 0u);
    }
    return h;
}

struct Golden
{
    Setup setup;
    int ranks;
    Stream stream;
    std::uint64_t hash;
};

const Golden kGolden[] = {
    {Setup::NoRefresh, 1, Stream::MixedSaturating,
     0x92c52d5497d8535dULL},
    {Setup::Baseline, 1, Stream::MixedSaturating,
     0xc5f4cee2977b88feULL},
    {Setup::HiraMc, 1, Stream::MixedSaturating,
     0xa45d6cbedb429594ULL},
    {Setup::ImmediatePara, 1, Stream::MixedSaturating,
     0xbb97ad318573a4bfULL},
    {Setup::NoRefresh, 2, Stream::MixedSaturating,
     0x3265b56d4872de23ULL},
    {Setup::Baseline, 2, Stream::MixedSaturating,
     0x226795f6cc666b9bULL},
    {Setup::HiraMc, 2, Stream::MixedSaturating,
     0x91a6fbdc1875a182ULL},
    {Setup::ImmediatePara, 2, Stream::MixedSaturating,
     0x6e5c2563a5c5524dULL},
    {Setup::NoRefresh, 1, Stream::MixedModerate,
     0x9cbc31fd3cfdb939ULL},
    {Setup::Baseline, 1, Stream::MixedModerate,
     0xf86a073d2d470590ULL},
    {Setup::HiraMc, 1, Stream::MixedModerate,
     0x70f01c6cda925ee7ULL},
    {Setup::ImmediatePara, 1, Stream::MixedModerate,
     0x70a7bc0df867b135ULL},
    {Setup::NoRefresh, 2, Stream::MixedModerate,
     0xdf32f0fd0cc496dcULL},
    {Setup::Baseline, 2, Stream::MixedModerate,
     0x31e799e9f07ac7d9ULL},
    {Setup::HiraMc, 2, Stream::MixedModerate,
     0x8b29fc5f0a0b2b00ULL},
    {Setup::ImmediatePara, 2, Stream::MixedModerate,
     0xbfc17f07b67cd107ULL},
    {Setup::NoRefresh, 1, Stream::ReadsSaturating,
     0xca4d883a398ebb81ULL},
    {Setup::Baseline, 1, Stream::ReadsSaturating,
     0x5535330a3c6182b1ULL},
    {Setup::HiraMc, 1, Stream::ReadsSaturating,
     0x103a41924de8201aULL},
    {Setup::ImmediatePara, 1, Stream::ReadsSaturating,
     0xd96c9ce19d8d342fULL},
    {Setup::NoRefresh, 2, Stream::ReadsSaturating,
     0x81d65b578ea7d9fcULL},
    {Setup::Baseline, 2, Stream::ReadsSaturating,
     0xc877120d6458b1ccULL},
    {Setup::HiraMc, 2, Stream::ReadsSaturating,
     0xaea3393b7dc937f7ULL},
    {Setup::ImmediatePara, 2, Stream::ReadsSaturating,
     0xb42ec17f09f6a5bdULL},
};

} // namespace

TEST(ControllerGolden, TraceAndStatsMatchRecordedHashes)
{
    for (const Golden &g : kGolden) {
        SCOPED_TRACE(std::string(setupName(g.setup)) + " x" +
                     std::to_string(g.ranks) + " rank(s), " +
                     streamName(g.stream));
        std::uint64_t h = runGolden(g.setup, g.ranks, g.stream);
        std::printf("golden %-15s ranks=%d %-17s 0x%016llxULL\n",
                    setupName(g.setup), g.ranks, streamName(g.stream),
                    static_cast<unsigned long long>(h));
        EXPECT_EQ(h, g.hash);
    }
}
