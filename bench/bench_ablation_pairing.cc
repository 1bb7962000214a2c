/**
 * @file
 * Ablation (DESIGN.md): contribution of each HiRA-MC pairing mechanism
 * at 128 Gb — refresh-access pairing (case 1), refresh-refresh pairing
 * incl. schedule pull-ahead (case 2), both, or neither (standalone
 * per-row refreshes only). All points run as one sharded
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
    banner("Ablation - HiRA-MC pairing mechanisms (128 Gb, HiRA-4)",
           "quantifies case-1 (refresh-access) vs case-2 "
           "(refresh-refresh + pull-ahead) parallelization");
    knobsLine(knobs);

    SweepRunner runner(knobs);
    GeomSpec g;
    g.capacityGb = 128.0;

    SweepGrid grid;
    SchemeSpec none;
    none.kind = SchemeKind::NoRefresh;
    std::size_t ideal_id = grid.add(g, none);
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    std::size_t base_id = grid.add(g, base);

    struct Variant
    {
        const char *name;
        bool access, rr, pull;
    };
    const Variant variants[] = {
        {"standalone only", false, false, false},
        {"+refresh-refresh", false, true, false},
        {"+pull-ahead", false, true, true},
        {"+refresh-access", true, false, false},
        {"full HiRA-MC", true, true, true},
    };
    std::vector<std::size_t> ids;
    for (const Variant &v : variants) {
        SchemeSpec s;
        s.kind = SchemeKind::HiraMc;
        s.slackN = 4;
        s.accessPairing = v.access;
        s.refreshPairing = v.rr || v.pull;
        s.pullAhead = v.pull;
        ids.push_back(grid.add(g, s));
    }
    grid.run(runner);
    double ws_ideal = grid.ws(ideal_id);
    double ws_base = grid.ws(base_id);

    seriesHeader("variant",
                 {"WS/NoRefresh", "WS/Baseline", "paired fraction %"});
    seriesRow("Baseline (REF)", {ws_base / ws_ideal, 1.0});
    for (std::size_t i = 0; i < ids.size(); ++i) {
        double ws = grid.ws(ids[i]);
        const RefreshStats &rs = grid.at(ids[i]).refresh;
        double paired =
            rs.rowRefreshes == 0
                ? 0.0
                : static_cast<double>(rs.accessPaired +
                                      rs.refreshPaired) /
                      static_cast<double>(rs.rowRefreshes);
        seriesRow(variants[i].name,
                  {ws / ws_ideal, ws / ws_base, 100.0 * paired});
    }
    note("who wins: full HiRA-MC; each pairing mechanism independently "
         "recovers part of the gap between standalone per-row refresh "
         "and the ideal");
    footer();
    return 0;
}
