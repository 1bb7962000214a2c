/**
 * @file
 * Ablation (DESIGN.md): sensitivity of HiRA-MC's benefit to the SPT
 * isolation density (the paper assumes the measured 32 %; Section 7).
 * Sweeps 10 % .. 100 % at 128 Gb as one sharded
 * SweepRunner::runPoints() drain.
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace hira;
using namespace hira::benchutil;

int
main()
{
    BenchKnobs knobs = BenchKnobs::fromEnv();
    banner("Ablation - SPT isolation density sweep (128 Gb, HiRA-4)",
           "paper assumes 32 % of rows can pair (Section 7); denser "
           "isolation gives more pairing freedom");
    knobsLine(knobs);

    SweepRunner runner(knobs);
    GeomSpec g;
    g.capacityGb = 128.0;
    const std::vector<double> isolations = {0.10, 0.25, 0.32, 0.60, 1.00};

    SweepGrid grid;
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    std::size_t base_id = grid.add(g, base);
    std::vector<std::size_t> ids;
    for (double iso : isolations) {
        SchemeSpec s;
        s.kind = SchemeKind::HiraMc;
        s.slackN = 4;
        s.sptIsolation = iso;
        ids.push_back(grid.add(g, s));
    }
    grid.run(runner);
    double ws_base = grid.ws(base_id);

    seriesHeader("isolation", {"WS/Baseline", "access-paired %"});
    for (std::size_t i = 0; i < isolations.size(); ++i) {
        double ws = grid.ws(ids[i]);
        const RefreshStats &rs = grid.at(ids[i]).refresh;
        double paired =
            rs.rowRefreshes == 0
                ? 0.0
                : static_cast<double>(rs.accessPaired) /
                      static_cast<double>(rs.rowRefreshes);
        seriesRow(strprintf("%.0f %%", 100.0 * isolations[i]),
                  {ws / ws_base, 100.0 * paired});
    }
    footer();
    return 0;
}
