/**
 * @file
 * Refresh scheme interface and the two non-HiRA schemes: NoRefresh (the
 * ideal upper bound of Fig. 9a) and BaselineRefresh (rank-level REF
 * every tREFI, as in deployed DDR4 controllers).
 */

#ifndef HIRA_MEM_REFRESH_HH
#define HIRA_MEM_REFRESH_HH

#include <vector>

#include "common/metrics.hh"
#include "common/types.hh"
#include "dram/geometry.hh"

namespace hira {

class MemoryController;

/** Refresh statistics every scheme reports. */
struct RefreshStats
{
    std::uint64_t refCommands = 0;       //!< rank-level REF commands
    std::uint64_t rowRefreshes = 0;      //!< per-row refresh operations
    std::uint64_t accessPaired = 0;      //!< hidden under a demand ACT
    std::uint64_t refreshPaired = 0;     //!< two refreshes per HiRA op
    std::uint64_t standalone = 0;        //!< plain ACT+PRE refreshes
    std::uint64_t deadlineMisses = 0;    //!< executed past their deadline
    std::uint64_t preventiveGenerated = 0;
    /** Preventive victims rejected by a full PR-FIFO (never refreshed). */
    std::uint64_t preventiveDropped = 0;
};

/**
 * A refresh scheme plugged into one memory controller. The controller
 * calls tick() first each cycle (refresh has priority over demand
 * scheduling when deadlines require it) and offers the Case-1 hook
 * before every demand activation.
 */
class RefreshScheme
{
  public:
    virtual ~RefreshScheme() = default;

    /** Called once after the controller is constructed. */
    virtual void attach(MemoryController *controller) { ctrl = controller; }

    /**
     * Offer the scheme a metrics scope (e.g. "ctrl0.scheme."), called
     * right after attach(). Schemes register what they want and keep
     * the returned pointers; the default registers nothing (the
     * RefreshStats every scheme reports are mirrored into the registry
     * by System::metricsSnapshot() without scheme cooperation).
     * Metrics must only observe — scheme behavior must be identical
     * with and without a live scope.
     */
    virtual void attachMetrics(const MetricScope &scope) { (void)scope; }

    /**
     * Per-cycle refresh work. May issue at most one command through the
     * controller's try* primitives.
     */
    virtual void tick(Cycle now) = 0;

    /**
     * Case-1 hook (Fig. 8): the controller is about to activate
     * @p row_a on (rank, bank) for a demand access. Return a row whose
     * refresh should ride along as HiRA's first ACT, or kNoRow.
     */
    virtual RowId
    pickHiddenRefresh(int rank, BankId bank, RowId row_a, Cycle now)
    {
        (void)rank; (void)bank; (void)row_a; (void)now;
        return kNoRow;
    }

    /** The proposed HiRA op was issued; commit the bookkeeping. */
    virtual void
    onHiraIssued(int rank, BankId bank, RowId refresh_row, Cycle now)
    {
        (void)rank; (void)bank; (void)refresh_row; (void)now;
    }

    /** Notification of every row activation (for PreventiveRC). */
    virtual void
    onActivate(int rank, BankId bank, RowId row, Cycle now)
    {
        (void)rank; (void)bank; (void)row; (void)now;
    }

    /**
     * Event-engine horizon: a conservative lower bound on the next
     * cycle at which tick() could observably act or change state, given
     * no intervening commands on the channel (any issue wakes the
     * controller for the following cycle anyway). Returning a cycle
     * that is too *early* only costs a wasted poll; returning one that
     * is too *late* breaks the bitwise cycle/event equivalence, so when
     * in doubt return now + 1 (the base-class default, which keeps
     * unknown schemes correct by degrading them to dense ticking).
     * kNeverCycle means "nothing scheduled".
     */
    virtual Cycle
    nextEventCycle(Cycle now) const
    {
        return now + 1;
    }

    const RefreshStats &stats() const { return stats_; }

  protected:
    MemoryController *ctrl = nullptr;
    RefreshStats stats_;
};

/** The ideal No Refresh configuration (Fig. 9a's normalization base). */
class NoRefresh final : public RefreshScheme
{
  public:
    void tick(Cycle) override {}
    Cycle nextEventCycle(Cycle) const override { return kNeverCycle; }
};

/**
 * Conventional rank-level refresh: one all-bank REF per rank every
 * tREFI, rank offsets staggered; blocks the rank for tRFC. A REF that
 * cannot issue when due stays owed in a per-rank debt counter and is
 * caught up as soon as the rank allows.
 */
class BaselineRefresh final : public RefreshScheme
{
  public:
    void attach(MemoryController *ctrl) override;
    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle now) const override;

    /** REFs due but not yet issued on the rank (test hook). */
    int debtOf(int rank) const { return debt[rank]; }

  private:
    std::vector<Cycle> nextRefAt; //!< per rank
    std::vector<int> debt;        //!< due, not yet issued REFs per rank
    std::vector<bool> closing;    //!< draining banks ahead of a due REF
};

} // namespace hira

#endif // HIRA_MEM_REFRESH_HH
