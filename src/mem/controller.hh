/**
 * @file
 * Cycle-level DDR4 memory controller for one channel.
 *
 * Models the Table 3 controller: 64-entry read and write queues,
 * FR-FCFS scheduling [143, 190] with the open-row policy, write-drain
 * watermarks, one command per channel cycle (the shared command bus all
 * ranks contend on, which drives the Fig. 14/16 rank-scaling behavior),
 * a pluggable refresh scheme (NoRefresh / BaselineRefresh / HiRA-MC),
 * and PARA in its original immediate form (preventive refresh as soon
 * as the activated row's bank is free) or delegated to the scheme's
 * PreventiveRC.
 *
 * Demand scheduling. Each queue is a RequestQueue
 * (mem/request_queue.hh): a fixed pool of request slots threaded into
 * one arrival-order list per bank, every slot stamped with an arrival
 * sequence number, plus per-bank queued / open-row-hit counts, each
 * bank's oldest hit, and bitmasks of banks with work and with a queued
 * hit. Refresh-open banks have a bitmask of their own. A scheduling
 * cycle is one FR-FCFS step over the active queue, and both of its
 * passes pick by sequence number, which reproduces the tie-breaks of a
 * front-to-back queue scan exactly:
 *
 *  - Column pick: visit hit-mask banks that are not refresh-open, skip
 *    those whose RD/WR timing is still in the future, and serve the
 *    ready bank's oldest hit with the smallest sequence number.
 *  - Row-command pass: a bank's oldest request decides its command,
 *    one attempt per bank: a demand ACT if the bank is closed, a
 *    conflict PRE if its open row has no queued hit. Masks drop the
 *    banks that can take neither (refresh-open, or an open row with
 *    hits); of the rest, the bank whose command can issue now and whose
 *    oldest request is oldest wins.
 *
 * Both cost O(banks with work), not O(queue). Row transitions recount
 * the affected bank's hits from its two lists (recountHits).
 *
 * The HiRA operation is issued atomically: the controller reserves the
 * two future command-bus slots for the inner PRE and second ACT, applies
 * the timing effects through ChannelTimingModel::issueHira, and logs all
 * three commands with HiraRole tags so TimingChecker can audit traces.
 */

#ifndef HIRA_MEM_CONTROLLER_HH
#define HIRA_MEM_CONTROLLER_HH

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/metrics.hh"
#include "dram/timing_checker.hh"
#include "dram/timing_state.hh"
#include "mem/para.hh"
#include "mem/refresh.hh"
#include "mem/request.hh"
#include "mem/request_queue.hh"

namespace hira {

/** Static configuration of one controller. */
struct ControllerConfig
{
    Geometry geom;
    TimingParams tp;
    int readQueueCap = 64;
    int writeQueueCap = 64;
    int drainHigh = 48;  //!< enter write-drain mode at this depth
    int drainLow = 16;   //!< leave write-drain mode at this depth
    ParaConfig para;
    /**
     * True: preventive refreshes execute immediately (original PARA).
     * False: activations are only reported to the refresh scheme, whose
     * PreventiveRC queues them with slack (HiRA-MC).
     */
    bool paraImmediate = true;
    bool recordTrace = false; //!< feed the TimingChecker trace recorder

    /**
     * Metrics scope for this controller instance (e.g. "ctrl0."); a
     * default-constructed scope disables all instrumentation. The
     * refresh scheme receives the "scheme." child scope. Metrics only
     * observe: scheduling decisions are identical with and without a
     * live scope (pinned by tests/sim/test_metrics_equivalence.cc).
     */
    MetricScope metrics;
};

/** Demand-side statistics. */
struct ControllerStats
{
    std::uint64_t readsServed = 0;
    std::uint64_t writesServed = 0;
    std::uint64_t readLatencySum = 0; //!< enqueue to data return, cycles
    std::uint64_t forwards = 0;       //!< reads served from the write queue
    std::uint64_t acts = 0;
    std::uint64_t pres = 0;
    std::uint64_t refs = 0;
    std::uint64_t hiraOps = 0;
    std::uint64_t rejectedRequests = 0; //!< enqueue failures (full queue)
};

/** One channel's memory controller. */
class MemoryController
{
  public:
    MemoryController(int channel_id, const ControllerConfig &cfg,
                     std::unique_ptr<RefreshScheme> scheme);

    // ----- demand interface -------------------------------------------

    /** Enqueue a demand request; false if the queue is full. */
    bool enqueue(const Request &req);

    /** Advance one memory-bus cycle. */
    void tick(Cycle now);

    /**
     * Event-engine wake-up: a conservative lower bound on the next
     * cycle at which tick() could do anything observable or a queued
     * completion falls due. Between the last tick and this cycle,
     * tick() is provably a no-op, so the event engine
     * (src/sim/system.cc) skips it without diverging from per-cycle
     * polling. The bound is recomputed lazily after each tick from the
     * per-bank timing-state horizons, queue occupancy, pending
     * completions, and the refresh scheme's own nextEventCycle();
     * enqueue() lowers it so newly arriving work is polled at the same
     * cycle the dense loop would have seen it. HiRA bus-slot
     * reservations need no horizon of their own: a reservation only
     * exists after an issue, and an issue always forces a poll of the
     * following cycle, after which any still-gated horizon degrades to
     * dense polling. Never later than the true next event; possibly
     * earlier (a wasted poll, never a divergence).
     */
    Cycle nextEvent() const;

    /**
     * Observer of wake-bound lowering: called with the `seen` cycle
     * whenever enqueue() accepts a request, so an external deadline
     * index (System's heap, src/sim/deadline_heap.hh) can lower this
     * controller's key without re-querying nextEvent(). Raising keys
     * stays the owner's job (after each tick), so the listener only
     * ever makes the index more conservative.
     */
    void setWakeListener(std::function<void(Cycle)> fn)
    {
        wakeListener = std::move(fn);
    }

    /**
     * Account @p n enqueue rejections in bulk. The event engine calls
     * this when it skips cycles during which the dense loop would have
     * re-offered (and re-rejected) the LLC's outbound head once per
     * cycle — the only per-cycle observable of those retries is this
     * counter, so bulk accrual keeps SystemResult bitwise identical.
     */
    void accrueRejected(std::uint64_t n) { stats_.rejectedRequests += n; }

    /** Completions accumulated since the last drain. */
    std::vector<Completion> &completions() { return completions_; }

    bool readQueueFull() const;
    std::size_t queuedReads() const { return readQ.size(); }
    std::size_t queuedWrites() const { return writeQ.size(); }
    /** The demand queues with their per-bank index (read-only). */
    const RequestQueue &readQueue() const { return readQ; }
    const RequestQueue &writeQueue() const { return writeQ; }

    // ----- primitives for refresh schemes ------------------------------

    /** True if the command bus can carry a command this cycle. */
    bool busFree(Cycle now) const;

    /** Issue an all-bank REF to the rank (all banks must be closed). */
    bool tryRef(int rank, Cycle now);

    /** Precharge one open bank of the rank (REF preparation). */
    bool tryCloseOneBank(int rank, Cycle now);

    /** Precharge a specific bank. */
    bool tryPre(int rank, BankId bank, Cycle now);

    /**
     * Standalone per-row refresh: ACT @p row now, auto-PRE after tRAS.
     * The bank is withheld from demand scheduling until the PRE.
     */
    bool tryRefreshAct(int rank, BankId bank, RowId row, Cycle now);

    /**
     * Refresh-refresh HiRA (Section 5.1.3 case 2): one HiRA op
     * refreshing @p first and @p second, auto-PRE after the second's
     * tRAS.
     */
    bool tryHiraRefreshPair(int rank, BankId bank, RowId first,
                            RowId second, Cycle now);

    // ----- inspection ---------------------------------------------------

    const ChannelTimingModel &timing() const { return model; }
    const Geometry &geometry() const { return cfg.geom; }
    const TimingCycles &tc() const { return model.cycles(); }
    const ControllerStats &stats() const { return stats_; }
    RefreshScheme &scheme() { return *refreshScheme; }
    const RefreshScheme &scheme() const { return *refreshScheme; }
    ParaSampler &para() { return paraSampler; }
    /**
     * Recorded command trace, sorted by issue cycle (HiRA's inner PRE /
     * second ACT are recorded at issue time but occupy future bus
     * slots).
     */
    std::vector<Command> trace() const;

    /** True if the bank is withheld from demand scheduling. */
    bool bankBlocked(int rank, BankId bank) const;

    /**
     * Hold all new activations to the rank (REF preparation: the rank
     * must drain to all-banks-precharged before a REF can issue).
     */
    void setRankHold(int rank, bool hold);
    bool rankHeld(int rank) const
    {
        return rankHold[static_cast<std::size_t>(rank)];
    }

    /** Pending preventive refreshes on the bank (immediate PARA). */
    std::size_t pendingPreventive(int rank, BankId bank) const;

  private:
    struct BankAux
    {
        std::deque<RowId> preventive;  //!< immediate-PARA victims
    };

    std::size_t bankIndex(int rank, BankId bank) const
    {
        return static_cast<std::size_t>(rank) *
                   static_cast<std::size_t>(cfg.geom.banksPerRank()) +
               bank;
    }

    /** Refresh row open in bank @p idx, auto-PRE pending. */
    bool refreshOpen(std::size_t idx) const
    {
        return refreshOpenMask.test(idx);
    }
    void setRefreshOpen(int rank, BankId bank, bool open)
    {
        refreshOpenMask.set(bankIndex(rank, bank), open);
    }
    BankAux &aux(int rank, BankId bank);
    const BankAux &aux(int rank, BankId bank) const;

    void record(CommandType type, Cycle cycle, int rank, BankId bank,
                RowId row, HiraRole role = HiraRole::None);
    void markIssued();
    bool slotReservedAt(Cycle c) const;
    void reserveHiraSlots(Cycle now);
    void autoPreTick(Cycle now);
    bool issueColumnIfReady(RequestQueue &queue, bool is_read, Cycle now);

    Cycle computeNextEvent(Cycle now) const;
    /** Every activation funnels through here (PARA sampling hook). */
    void onRowActivation(int rank, BankId bank, RowId row, Cycle now);
    void preventiveTick(Cycle now);
    void scheduleDemand(Cycle now);
    void issueRowCommand(RequestQueue &queue, Cycle now);
    /** Demand ACT (or HiRA) for @p req; the caller checked the gates. */
    void issueDemandAct(const Request &req, Cycle now);

    /** Recount the bank's open-row hits from its two request lists. */
    void recountHits(int rank, BankId bank);

    /**
     * True if the bank's open row has a queued hit the scheduler still
     * honors: readQ hits always, writeQ hits only in write-drain mode
     * (mirroring which queues FR-FCFS serves). Gates conflict PREs in
     * issueRowCommand (as a hit-mask filter) and preventive closes in
     * preventiveTick, and the wake scan replays exactly this predicate
     * so the event engine defers the same PREs dense would.
     */
    bool bankHasOpenRowHit(std::size_t idx) const
    {
        return readQ.hits(idx) != 0 ||
               (writeMode && writeQ.hits(idx) != 0);
    }

    int channel;
    ControllerConfig cfg;
    ChannelTimingModel model;
    std::unique_ptr<RefreshScheme> refreshScheme;
    ParaSampler paraSampler;

    // Demand queues, per-bank index in bankIndex() order. The scheduler
    // passes, the row-hit gates and the wake scan read the per-bank
    // counts and masks, so they run over banks, not queue entries. The
    // index changes O(1) on enqueue and column issue; row transitions
    // recount one bank (recountHits) or clear it (tryPre).
    RequestQueue readQ, writeQ;
    std::vector<Completion> completions_;
    std::vector<BankAux> bankAux;
    // Banks holding a refresh row until its auto-PRE: demand and
    // preventive work skip them.
    BankMask refreshOpenMask;
    std::vector<Cycle> reservedSlots; //!< future HiRA PRE/ACT bus slots

    std::vector<bool> rankHold;
    bool writeMode = false;
    bool issuedThisCycle = false;
    Cycle lastTick = 0;
    int preventiveCursor = 0;

    // Cached nextEvent() bound: invalidated by tick(), lowered by
    // enqueue(). mutable so the lazy recompute stays behind a const
    // query (the cycle engine never queries it and pays nothing).
    mutable Cycle nextWake = 0;
    mutable bool nextWakeValid = false;
    std::function<void(Cycle)> wakeListener;
    ControllerStats stats_;
    CommandTraceRecorder recorder;

    // Observability (all nullptr when metrics are off; the ControllerStats
    // command mix is mirrored into the registry at snapshot time instead
    // of being double-counted here). mRowHits counts column issues (every
    // column issue hits the open row under FR-FCFS), mRowMisses demand
    // ACTs into a closed bank, mRowConflicts conflict PREs; mWakeRecomputes
    // counts lazy nextEvent() horizon recomputes (cache invalidations) and
    // mWakeLowers accepted-enqueue wake lowerings. Per-bank enqueue
    // counters live in mBankReads/mBankWrites (bankIndex order); queue
    // depth histograms are observed once per tick at MetricsLevel::Full.
    std::vector<Counter *> mBankReads, mBankWrites;
    Counter *mRowHits = nullptr;
    Counter *mRowMisses = nullptr;
    Counter *mRowConflicts = nullptr;
    mutable Counter *mWakeRecomputes = nullptr;
    Counter *mWakeLowers = nullptr;
    Counter *mScanVisits = nullptr;
    HistogramMetric *mReadQDepth = nullptr;
    HistogramMetric *mWriteQDepth = nullptr;
};

} // namespace hira

#endif // HIRA_MEM_CONTROLLER_HH
