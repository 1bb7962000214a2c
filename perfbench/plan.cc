#include "perfbench.hh"

#include <sys/resource.h>

#include <cstring>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "dram/standard.hh"
#include "sim/result_cache.hh"
#include "sim/scheme_registry.hh"

namespace perfbench {

using namespace hira;

namespace {

GeomSpec
geom(const char *standard, double capacityGb, int channels, int ranks)
{
    GeomSpec g;
    g.standard = standard;
    g.capacityGb = capacityGb;
    g.channels = channels;
    g.ranks = ranks;
    return g;
}

SchemeSpec
scheme(SchemeKind kind, int slackN = 2)
{
    SchemeSpec s;
    s.kind = kind;
    s.slackN = slackN;
    return s;
}

/** Baseline refresh plus PARA at @p nrh; slack >= 0 serves it by HiRA. */
SchemeSpec
para(double nrh, int slack)
{
    SchemeSpec s;
    s.kind = SchemeKind::Baseline;
    s.paraEnabled = true;
    s.nrh = nrh;
    if (slack >= 0) {
        s.preventiveViaHira = true;
        s.slackN = slack;
    }
    return s;
}

std::vector<Workload>
makeWorkloads()
{
    std::vector<Workload> ws;

    // Memory-heavy mixes on one channel and rank: queues stay deep, so
    // the FR-FCFS scan, the timing model's rebuilds and HiRA-MC's
    // periodic pairing do most of the work. Points 0-3 / 4-7 are the
    // 32 / 128 Gb columns of Fig. 9 (NoRefresh, Baseline, HiRA-2,
    // HiRA-8).
    {
        Workload w;
        w.name = "refresh_saturated";
        w.profiles = {"mcf", "libquantum", "lbm", "gems",
                      "milc", "soplex", "leslie3d", "sphinx"};
        w.mixes = 6;
        for (double cap : {32.0, 128.0}) {
            GeomSpec g = geom("ddr4_2400", cap, 1, 1);
            w.points.push_back({g, scheme(SchemeKind::NoRefresh)});
            w.points.push_back({g, scheme(SchemeKind::Baseline)});
            w.points.push_back({g, scheme(SchemeKind::HiraMc, 2)});
            w.points.push_back({g, scheme(SchemeKind::HiraMc, 8)});
        }
        w.densePoints = {5, 6};
        w.probePoint = 6;
        ws.push_back(w);
    }

    // Low-intensity mixes spread over 8 channels x 2 ranks: queues stay
    // short, so cost comes from ticking many controllers, the cores and
    // the LLC, not from long scans. Few long simulations per plan.
    {
        Workload w;
        w.name = "multichannel_light";
        w.profiles = {"h264", "namd", "perlbench", "hmmer",
                      "gcc", "bzip2", "astar", "zeusmp"};
        w.mixes = 8;
        GeomSpec g = geom("ddr4_2400", 8.0, 8, 2);
        w.points.push_back({g, scheme(SchemeKind::Baseline)});
        w.points.push_back({g, scheme(SchemeKind::HiraMc, 2)});
        w.densePoints = {1};
        w.probePoint = 1;
        ws.push_back(w);
    }

    // Write-leaning memory-intensive mixes under RowHammer defences:
    // the Fig. 12 configuration at NRH=64 on DDR4-2400, and the
    // mitigation zoo on DDR5-4800 with thresholds low enough that RFM
    // and PRAC issue preventive refreshes. Graphene's threshold is not
    // settable from SchemeSpec; at its default it only tracks.
    {
        Workload w;
        w.name = "mitigation_mix";
        w.profiles = {"lbm", "gems", "soplex", "milc",
                      "cactus", "leslie3d", "omnetpp", "zeusmp"};
        w.mixes = 6;
        GeomSpec d4 = geom("ddr4_2400", 8.0, 1, 1);
        w.points.push_back({d4, scheme(SchemeKind::Baseline)});
        w.points.push_back({d4, para(64.0, -1)});
        w.points.push_back({d4, para(64.0, 4)});
        GeomSpec d5 = geom("ddr5_4800",
                           standardByName("ddr5_4800").defaultCapacityGb,
                           1, 1);
        SchemeSpec rfm = scheme(SchemeKind::Rfm);
        rfm.raaimt = 16;
        SchemeSpec prac = scheme(SchemeKind::Prac);
        prac.pracThreshold = 32;
        w.points.push_back({d5, rfm});
        w.points.push_back({d5, prac});
        w.points.push_back({d5, scheme(SchemeKind::Graphene)});
        w.densePoints = {2, 4};
        w.probePoint = 2;
        ws.push_back(w);
    }
    return ws;
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> ws = makeWorkloads();
    return ws;
}

} // namespace

const Workload *
workloadByName(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const Workload &w : workloads())
        names.push_back(w.name);
    return names;
}

std::vector<WorkloadMix>
drawMixes(const Workload &w, std::uint64_t seed)
{
    // Stratified draw: across the plan's mixes every profile fills the
    // same number of cores, and the seed shuffles them over the slots.
    // Mixes still differ, so the plan's work moves with the seed; the
    // timed run's "work" line shows by how much.
    std::vector<std::string> slots;
    const std::size_t n = static_cast<std::size_t>(w.mixes * kCores);
    for (std::size_t i = 0; i < n; ++i)
        slots.push_back(w.profiles[i % w.profiles.size()] + "-like");
    Rng rng(hashCombine(hashString(w.name), seed));
    for (std::size_t i = n - 1; i > 0; --i)
        std::swap(slots[i], slots[rng.below(i + 1)]);
    std::vector<WorkloadMix> mixes;
    for (std::size_t i = 0; i < n; i += kCores)
        mixes.emplace_back(slots.begin() + i, slots.begin() + i + kCores);
    return mixes;
}

BenchKnobs
benchKnobs(int workers)
{
    BenchKnobs k;
    k.cycles = kMeasureCycles;
    k.warmup = kWarmupCycles;
    k.cores = kCores;
    k.threads = workers;
    return k;
}

void
setUpFirstSimulation(const Workload &w, std::uint64_t seed, int workers,
                     const std::function<void()> &ready)
{
    std::vector<WorkloadMix> mixes = drawMixes(w, seed);
    SweepRunner runner(benchKnobs(workers), mixes);
    runner.setResultCache(nullptr);
    const SweepPoint &p = w.points.front();
    SystemConfig cfg = makeSystemConfig(
        p.geom, p.scheme, mixes.front(),
        sweepRunSeed(p.geom.key(), p.scheme.seedKey(), 0));
    System sys(cfg);
    ready();
}

std::size_t
pointSims(const Workload &w)
{
    return w.points.size() * static_cast<std::size_t>(w.mixes);
}

std::uint64_t
counter(const MetricsSnapshot &m, const std::string &name)
{
    auto it = m.values.find(name);
    return it == m.values.end() ? 0 : it->second.count;
}

std::uint64_t
sumCounter(const MetricsSnapshot &m, const std::string &prefix,
           const std::string &name)
{
    // Keys look like "ctrl3.cmd.act": the prefix, a decimal instance
    // number, a dot, then the metric name.
    std::uint64_t sum = 0;
    for (auto it = m.values.lower_bound(prefix);
         it != m.values.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
        const std::string &key = it->first;
        std::size_t dot = key.find('.', prefix.size());
        if (dot == std::string::npos || dot == prefix.size() ||
            key.compare(dot + 1, std::string::npos, name) != 0)
            continue;
        if (key.find_first_not_of("0123456789", prefix.size()) != dot)
            continue;
        sum += it->second.count;
    }
    return sum;
}

RefreshStats
windowRefresh(const MetricsSnapshot &m)
{
    RefreshStats r;
    r.refCommands = sumCounter(m, "ctrl", "scheme.ref_commands");
    r.rowRefreshes = sumCounter(m, "ctrl", "scheme.row_refreshes");
    r.accessPaired = sumCounter(m, "ctrl", "scheme.access_paired");
    r.refreshPaired = sumCounter(m, "ctrl", "scheme.refresh_paired");
    r.standalone = sumCounter(m, "ctrl", "scheme.standalone");
    r.deadlineMisses = sumCounter(m, "ctrl", "scheme.deadline_misses");
    r.preventiveGenerated =
        sumCounter(m, "ctrl", "scheme.preventive_generated");
    r.preventiveDropped =
        sumCounter(m, "ctrl", "scheme.preventive_dropped");
    return r;
}

std::uint64_t
paraGenerated(System &sys)
{
    std::uint64_t n = 0;
    for (int ch = 0; ch < sys.channels(); ++ch)
        n += sys.controller(ch).para().generated;
    return n;
}

std::uint64_t
resultDigest(const std::vector<double> &meanWs,
             const std::vector<RefreshStats> &window)
{
    hira_assert(meanWs.size() == window.size());
    std::uint64_t h = hashString("perfbench-digest");
    for (std::size_t i = 0; i < meanWs.size(); ++i) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &meanWs[i], sizeof(bits));
        const RefreshStats &r = window[i];
        for (std::uint64_t v :
             {bits, r.refCommands, r.rowRefreshes, r.accessPaired,
              r.refreshPaired, r.standalone, r.deadlineMisses,
              r.preventiveGenerated, r.preventiveDropped})
            h = hashCombine(h, v);
    }
    return h;
}

std::string
pointLabel(const SweepPoint &p)
{
    return p.scheme.label() + " @ " + p.geom.key();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               1e-6 * static_cast<double>(t.tv_usec);
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

} // namespace perfbench
