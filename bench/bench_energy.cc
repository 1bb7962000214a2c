/**
 * @file
 * Energy extension (not a paper figure; motivated by Section 5.2's
 * power-budget discussion): refresh energy of rank-level REF vs HiRA's
 * per-row refresh stream across chip capacities, IDD-based model.
 */

#include "bench_util.hh"
#include "power/energy_model.hh"
#include "sim/experiment.hh"

using namespace hira;
using namespace hira::benchutil;

int
main()
{
    BenchKnobs knobs = BenchKnobs::fromEnv();
    banner("Extension - refresh energy, REF baseline vs HiRA-MC",
           "IDD-based attribution; HiRA trades REF bursts for row "
           "activations (Section 5.2 discusses the power budget via "
           "tFAW)");
    knobsLine(knobs);

    WorkloadMix mix = {"mcf-like", "libquantum-like", "gcc-like",
                       "lbm-like", "h264-like", "milc-like",
                       "omnetpp-like", "astar-like"};
    const Cycle warm = static_cast<Cycle>(knobs.warmup);
    const Cycle run = static_cast<Cycle>(knobs.cycles);

    seriesHeader("chip scheme",
                 {"refresh uJ", "total uJ", "refresh %", "rows/REFs"});
    for (double cap : {8.0, 32.0, 128.0}) {
        GeomSpec g;
        g.capacityGb = cap;
        EnergyModel em(g.toTiming());
        for (const char *label : {"Baseline", "HiRA-2"}) {
            SchemeSpec s;
            if (std::string(label) == "Baseline") {
                s.kind = SchemeKind::Baseline;
            } else {
                s.kind = SchemeKind::HiraMc;
                s.slackN = 2;
            }
            RunResult r =
                runOne(makeSystemConfig(g, s, mix, 5), warm, run);
            EnergyBreakdown e = em.attribute(
                r.sys.controller, r.sys.refresh, 1, warm + run);
            seriesRow(strprintf("%.0fGb %s", cap, label),
                      {e.refreshNj / 1000.0, e.totalNj() / 1000.0,
                       100.0 * e.refreshNj / e.totalNj(),
                       static_cast<double>(r.sys.refresh.rowRefreshes +
                                           r.sys.refresh.refCommands)},
                      "%9.2f");
        }
    }
    note("HiRA's per-row energy stays within the same order as REF's "
         "per-row share; the win is latency hiding, not raw energy");
    footer();
    return 0;
}
