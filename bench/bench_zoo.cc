/**
 * @file
 * Mitigation zoo x memory standard: every registered refresh scheme
 * (NoRefresh, Baseline, HiRA-2, RFM, PRAC, Graphene-TRR) on every
 * swept memory standard (DDR4-2400, DDR5-4800), weighted speedup over
 * 8-core multiprogrammed mixes. One section per standard: absolute WS
 * per scheme plus rows normalized to that standard's Baseline, so the
 * artifact answers "what does each mitigation cost, and does the
 * answer change across standards" directly. The whole scheme x
 * standard grid runs as one sharded SweepRunner::runPoints() drain.
 *
 * Scale caveat: the committed snapshot uses the default knob scale
 * (HIRA_CYCLES=150000). Past ~200k cycles the 8-core/1-channel config
 * saturates the read queue, and the capless FR-FCFS scheduler starves
 * row-conflict requests behind streaming row hits; periodic REF acts
 * as an accidental anti-starvation drain, so long-horizon runs show
 * refresh-bearing schemes *above* the NoRefresh ideal. That is a
 * property of the controller model at saturation, not of the
 * mitigations under test.
 */

#include "bench_util.hh"
#include "sim/experiment.hh"
#include "sim/scheme_registry.hh"

using namespace hira;
using namespace hira::benchutil;

namespace {

std::vector<SchemeSpec>
zooSchemes()
{
    std::vector<SchemeSpec> schemes;
    schemes.push_back(schemeSpecByName("norefresh"));
    schemes.push_back(schemeSpecByName("baseline"));
    SchemeSpec hira = schemeSpecByName("hira");
    hira.slackN = 2;
    schemes.push_back(hira);
    schemes.push_back(schemeSpecByName("rfm"));      // RAAIMT 32
    schemes.push_back(schemeSpecByName("prac"));     // threshold 256
    schemes.push_back(schemeSpecByName("graphene")); // 16-entry trackers
    return schemes;
}

} // namespace

int
main()
{
    BenchKnobs knobs = BenchKnobs::fromEnv();
    banner("Mitigation zoo x memory standard",
           "registry sweep: RowHammer mitigations (RFM, PRAC, "
           "Graphene-TRR) vs the paper's Baseline/HiRA on DDR4-2400 "
           "and DDR5-4800");
    knobsLine(knobs);

    SweepRunner runner(knobs, mixesFromEnv(knobs));
    const std::vector<std::string> standards = {"ddr4_2400", "ddr5_4800"};
    std::vector<SchemeSpec> schemes = zooSchemes();

    SweepGrid grid;
    // ids[standard][scheme]
    std::vector<std::vector<std::size_t>> ids(standards.size());
    for (std::size_t ti = 0; ti < standards.size(); ++ti) {
        GeomSpec g;
        g.standard = standards[ti];
        g.capacityGb = standardByName(standards[ti]).defaultCapacityGb;
        for (const SchemeSpec &s : schemes)
            ids[ti].push_back(grid.add(g, s));
    }
    grid.run(runner);

    const std::vector<std::string> cols = {"meanWS", "vsBaseline"};
    for (std::size_t ti = 0; ti < standards.size(); ++ti) {
        const MemoryStandard &std_ = standardByName(standards[ti]);
        double baseWs = grid.ws(ids[ti][1]); // schemes[1] is Baseline
        std::printf("%s%s (%.0f Gb chips): weighted speedup per "
                    "mitigation\n",
                    ti > 0 ? "\n" : "", std_.display,
                    std_.defaultCapacityGb);
        seriesHeader(std_.display, cols);
        for (std::size_t si = 0; si < schemes.size(); ++si) {
            double ws = grid.ws(ids[ti][si]);
            seriesRow(schemes[si].label(), {ws, ws / baseWs});
        }
    }

    // A preventive scheme whose trigger never fires at this scale is
    // measured as plain Baseline; say so rather than let its row pass
    // for a mitigation cost.
    for (std::size_t ti = 0; ti < standards.size(); ++ti) {
        for (std::size_t si = 0; si < schemes.size(); ++si) {
            SchemeKind kind = schemes[si].kind;
            bool preventive = kind == SchemeKind::Rfm ||
                              kind == SchemeKind::Prac ||
                              kind == SchemeKind::Graphene;
            if (preventive &&
                grid.at(ids[ti][si]).refresh.preventiveGenerated == 0) {
                note(strprintf("%s on %s issued no preventive refresh "
                               "(preventive_generated 0 over all mixes)",
                               schemes[si].label().c_str(),
                               standardByName(standards[ti]).display));
            }
        }
    }

    double d4Base = grid.ws(ids[0][1]);
    double d5Base = grid.ws(ids[1][1]);
    std::printf("\nheadlines: DDR5 Baseline WS %+.1f %% vs DDR4 "
                "(halved tREFI, doubled clock); zoo overheads vs "
                "Baseline printed above\n",
                100.0 * (d5Base / d4Base - 1.0));
    footer();
    return 0;
}
