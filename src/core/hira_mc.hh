/**
 * @file
 * HiRA-MC: the HiRA Memory Controller refresh scheme (Section 5).
 *
 * Components (Fig. 7): the Periodic Refresh Controller generates one
 * per-bank row-refresh request per generation interval, staggered
 * across banks; the Preventive Refresh Controller samples every row
 * activation with a slack-adjusted PARA threshold and queues victims in
 * per-bank PR-FIFOs; the Refresh Table holds all queued requests with
 * deadlines; the Concurrent Refresh Finder pairs queued refreshes with
 * demand activations (case 1, via the controller's pickHiddenRefresh
 * hook) or with each other (case 2) and falls back to standalone
 * refreshes at the deadline.
 *
 * HiRA-N configurations set tRefSlack = N * tRC (Sections 8-9's
 * notation).
 */

#ifndef HIRA_CORE_HIRA_MC_HH
#define HIRA_CORE_HIRA_MC_HH

#include <memory>
#include <vector>

#include "core/pr_fifo.hh"
#include "core/refptr_table.hh"
#include "core/refresh_table.hh"
#include "core/spt.hh"
#include "mem/para.hh"
#include "mem/refresh.hh"

namespace hira {

/** HiRA-MC configuration. */
struct HiraMcConfig
{
    /** tRefSlack in units of tRC (HiRA-N). */
    int slackN = 2;
    /** SPT isolated-pair density (paper §7 assumption: 32 %). */
    double sptIsolation = 0.32;
    std::uint64_t seed = 0x41a4;
    /**
     * PreventiveRC sampling. The pth here must already be slack-adjusted
     * via security::solvePth (Section 9.1, step 4).
     */
    ParaConfig preventive;
    /**
     * True: periodic refresh is performed with HiRA row refreshes
     * (Section 8). False: periodic refresh stays on conventional REF
     * commands and only preventive refreshes use HiRA (Section 9.2).
     */
    bool periodicViaHira = true;
    // Ablation switches (DESIGN.md ablation index).
    bool enableAccessPairing = true;
    bool enableRefreshPairing = true;
    /**
     * When a periodic refresh must execute standalone and no second
     * request is queued for its bank (the staggered generation schedule
     * rarely queues two), pull the bank's *next* scheduled request
     * forward and pair it refresh-refresh (two rows in t1+t2+tRAS
     * instead of one in tRC). Refreshing ahead of schedule is always
     * safe; this realizes Section 5.1.3's refresh-refresh parallelism
     * for periodic refreshes. Disable for the pairing ablation.
     */
    bool enablePullAhead = true;
    /** Case-2 urgency margin in units of tRC (paper: 1). */
    int deadlineMarginRc = 1;
};

/** The HiRA-MC refresh scheme for one memory controller (channel). */
class HiraMc final : public RefreshScheme
{
  public:
    explicit HiraMc(const HiraMcConfig &cfg);

    void attach(MemoryController *ctrl) override;
    void attachMetrics(const MetricScope &scope) override;
    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle now) const override;
    RowId pickHiddenRefresh(int rank, BankId bank, RowId row_a,
                            Cycle now) override;
    void onHiraIssued(int rank, BankId bank, RowId refresh_row,
                      Cycle now) override;
    void onActivate(int rank, BankId bank, RowId row, Cycle now) override;

    // ----- inspection ---------------------------------------------------

    const RefreshTable &table(int rank) const { return tables[rank]; }
    const RefPtrTable &refPtr(int rank) const { return refptrs[rank]; }
    const PrFifoSet &prFifo(int rank) const { return fifos[rank]; }
    const SubarrayPairsTable &spt() const { return *spt_; }
    const HiraMcConfig &config() const { return cfg; }

  private:
    struct Target
    {
        RowId row = kNoRow;
        SubarrayId subarray = kAnySubarray;

        bool valid() const { return row != kNoRow; }
    };

    struct Proposal
    {
        bool valid = false;
        std::uint64_t entryId = 0;
        int rank = 0;
        BankId bank = 0;
        RefreshType type = RefreshType::Periodic;
        Target target;
    };

    void generatePeriodic(Cycle now);
    bool caseTwo(Cycle now);
    Target targetFor(const RefreshEntry &e, SubarrayId pair_with,
                     int fifo_index) const;
    void commit(const RefreshEntry &e, const Target &t, Cycle now);

    HiraMcConfig cfg;
    std::unique_ptr<BaselineRefresh> baseline;
    std::unique_ptr<SubarrayPairsTable> spt_;
    std::vector<RefreshTable> tables;   //!< per rank
    std::vector<RefPtrTable> refptrs;   //!< per rank
    std::vector<PrFifoSet> fifos;       //!< per rank
    ParaSampler sampler;

    std::vector<double> nextGen;        //!< per (rank, bank), in cycles
    // Cached min over nextGen for the event-engine horizon: every tick
    // recomputes the wake bound, but the array only changes when a
    // generation instant passes (generatePeriodic) or a pull-ahead
    // consumes one (caseTwo), so those sites invalidate and the scan
    // runs once per change instead of once per recompute.
    mutable double nextGenMin = 0.0;
    mutable bool nextGenMinValid = false;
    double genIntervalCycles = 0.0;
    Cycle slackCycles = 0;
    Cycle marginCycles = 0;
    Cycle windowCycles = 0;
    Cycle nextWindowReset = 0;
    Proposal proposal;
    int rankCursor = 0;

    // Observability (nullptr when metrics are off). mPrFifoDepth samples
    // the per-bank PR-FIFO occupancy right after each successful push;
    // mRefptrResets counts tREFW window rollovers.
    HistogramMetric *mPrFifoDepth = nullptr;
    Counter *mRefptrResets = nullptr;
};

} // namespace hira

#endif // HIRA_CORE_HIRA_MC_HH
