/**
 * @file
 * The memory controller's templated hot path — the per-scheme
 * specialized simulation kernels (see src/sim/kernel.hh for the
 * dispatch layer and the generic-oracle contract).
 *
 * Everything here is the body of functions declared in controller.hh,
 * transposed over a scheme type parameter S: SchemeOps<S> turns each
 * refresh-scheme hook into either a plain virtual call (S ==
 * RefreshScheme, the generic oracle) or a devirtualized qualified call
 * on the concrete final class, which the per-cycle loop can then
 * inline. The non-template entry points in controller.cc forward to
 * the S = RefreshScheme instantiation, so every existing caller (unit
 * tests, schemes invoking controller primitives) keeps the oracle's
 * exact behavior.
 *
 * This header is included at the bottom of controller.hh — include
 * either header and you get both; the split only keeps the class
 * declaration readable.
 */

#ifndef HIRA_MEM_CONTROLLER_KERNEL_HH
#define HIRA_MEM_CONTROLLER_KERNEL_HH

#include <algorithm>
#include <type_traits>

#include "mem/controller.hh"

namespace hira {

/**
 * Dispatch shim for one refresh-scheme hook set. The generic oracle
 * (S = RefreshScheme) uses ordinary virtual dispatch; a concrete S
 * resolves every hook at compile time with a qualified call, which is
 * non-virtual and inlinable (the scheme classes are final, so the
 * static type is the dynamic type — System's constructor pins the
 * cast's soundness once per run). Hooks a scheme does not override
 * resolve to the inherited RefreshScheme defaults, exactly as the
 * vtable would.
 */
template <class S>
struct SchemeOps
{
    static constexpr bool kGeneric = std::is_same_v<S, RefreshScheme>;

    static void
    tick(RefreshScheme &s, Cycle now)
    {
        if constexpr (kGeneric)
            s.tick(now);
        else
            static_cast<S &>(s).S::tick(now);
    }

    static RowId
    pickHiddenRefresh(RefreshScheme &s, int rank, BankId bank,
                      RowId row_a, Cycle now)
    {
        if constexpr (kGeneric)
            return s.pickHiddenRefresh(rank, bank, row_a, now);
        else
            return static_cast<S &>(s).S::pickHiddenRefresh(rank, bank,
                                                            row_a, now);
    }

    static void
    onHiraIssued(RefreshScheme &s, int rank, BankId bank,
                 RowId refresh_row, Cycle now)
    {
        if constexpr (kGeneric)
            s.onHiraIssued(rank, bank, refresh_row, now);
        else
            static_cast<S &>(s).S::onHiraIssued(rank, bank, refresh_row,
                                                now);
    }

    static void
    onActivate(RefreshScheme &s, int rank, BankId bank, RowId row,
               Cycle now)
    {
        if constexpr (kGeneric)
            s.onActivate(rank, bank, row, now);
        else
            static_cast<S &>(s).S::onActivate(rank, bank, row, now);
    }

    static Cycle
    nextEventCycle(const RefreshScheme &s, Cycle now)
    {
        if constexpr (kGeneric)
            return s.nextEventCycle(now);
        else
            return static_cast<const S &>(s).S::nextEventCycle(now);
    }
};

// --------------------------------------------------------------------
// BaselineRefresh per-cycle bodies. Declared in refresh.hh; defined
// here (not refresh.cc) because they need the complete MemoryController
// and because defining them inline lets tickAs<BaselineRefresh> /
// computeNextEventAs<BaselineRefresh> fold them into the kernel.
// --------------------------------------------------------------------

inline void
BaselineRefresh::tick(Cycle now)
{
    const Geometry &geom = ctrl->geometry();
    for (int r = 0; r < geom.ranksPerChannel; ++r) {
        std::size_t ri = static_cast<std::size_t>(r);
        // Accrue due REFs into the debt counter.
        while (now >= nextRefAt[ri]) {
            ++debt[ri];
            nextRefAt[ri] += ctrl->tc().refi;
        }
        if (debt[ri] == 0) {
            if (closing[ri]) {
                ctrl->setRankHold(r, false);
                closing[ri] = false;
            }
            continue;
        }

        // Elastic postponement [161]: while demand reads are queued and
        // the debt is within the standard's bound, defer the REF.
        bool must = debt[ri] > maxPostpone;
        if (!must && ctrl->queuedReads() > 0 && !closing[ri])
            continue;

        // REF is due: hold new activations, drain open banks, issue.
        if (!closing[ri]) {
            closing[ri] = true;
            ctrl->setRankHold(r, true);
        }
        if (ctrl->tryRef(r, now)) {
            --debt[ri];
            closing[ri] = false;
            ctrl->setRankHold(r, false);
            ++stats_.refCommands;
            return;
        }
        if (ctrl->tryCloseOneBank(r, now))
            return;
    }
}

inline Cycle
BaselineRefresh::nextEventCycle(Cycle now) const
{
    Cycle wake = kNeverCycle;
    const Geometry &geom = ctrl->geometry();
    for (int r = 0; r < geom.ranksPerChannel; ++r) {
        std::size_t ri = static_cast<std::size_t>(r);
        if (closing[ri])
            return now + 1; // actively draining banks toward a REF
        if (debt[ri] > 0) {
            // After an un-gated tick, a standing debt means the REF is
            // being postponed (reads queued, within the bound). The
            // postponement can end two ways: the read queue drains —
            // an issue event, after which the controller polls densely
            // anyway — or the debt crosses the bound at the next
            // accrual. Ticks gated by a reserved HiRA bus slot can
            // also leave debt standing with an empty read queue; then
            // the scheme wants to act as soon as the gate lifts.
            bool must = debt[ri] > maxPostpone;
            if (must || ctrl->queuedReads() == 0)
                return now + 1;
        }
        if (nextRefAt[ri] < wake)
            wake = nextRefAt[ri]; // next debt accrual instant
    }
    return wake;
}

// --------------------------------------------------------------------
// MemoryController templated hot path. Each body is the former
// non-template implementation with every scheme touch routed through
// SchemeOps<S>; the S = RefreshScheme instantiation IS the legacy
// behavior (controller.cc's tick()/nextEvent() forward to it), so the
// differential suite compares the same code shape under two dispatch
// disciplines.
// --------------------------------------------------------------------

template <class S>
void
MemoryController::onRowActivationAs(int rank, BankId bank, RowId row,
                                    Cycle now)
{
    ++stats_.acts;
    SchemeOps<S>::onActivate(*refreshScheme, rank, bank, row, now);
    if (!paraSampler.enabled())
        return;
    RowId victim = paraSampler.sample(row, cfg.geom.rowsPerBank);
    if (victim == kNoRow)
        return;
    ++paraSampler.generated;
    if (cfg.paraImmediate)
        aux(rank, bank).preventive.push_back(victim);
    // In PreventiveRC mode the scheme saw the activation via onActivate
    // and does its own (slack-adjusted) sampling.
}

template <class S>
bool
MemoryController::tryRefreshActAs(int rank, BankId bank, RowId row,
                                  Cycle now)
{
    if (!busFree(now) || rankHeld(rank) ||
        model.openRow(rank, bank) != kNoRow ||
        model.earliestAct(rank, bank) > now) {
        return false;
    }
    model.issueAct(rank, bank, row, now);
    record(CommandType::ACT, now, rank, bank, row);
    markIssued();
    setRefreshOpen(rank, bank, true);
    recountHits(rank, bank); // a refresh row can match queued requests
    onRowActivationAs<S>(rank, bank, row, now);
    return true;
}

template <class S>
void
MemoryController::preventiveTickAs(Cycle now)
{
    if (!cfg.paraImmediate || !paraSampler.enabled() || !busFree(now))
        return;
    int nbanks = cfg.geom.ranksPerChannel * cfg.geom.banksPerRank();
    for (int i = 0; i < nbanks; ++i) {
        int idx = (preventiveCursor + i) % nbanks;
        int rank = idx / cfg.geom.banksPerRank();
        BankId bank = static_cast<BankId>(idx % cfg.geom.banksPerRank());
        BankAux &a = bankAux[static_cast<std::size_t>(idx)];
        if (a.preventive.empty() ||
            refreshOpen(static_cast<std::size_t>(idx))) {
            continue;
        }
        if (model.openRow(rank, bank) == kNoRow) {
            // Pop the victim only once the refresh ACT actually issued:
            // tryRefreshAct re-checks the rank hold, bank state, and
            // ACT timing itself, and any of those can decline (e.g. a
            // hold placed between our earliestAct probe and the issue).
            // Popping first would silently drop the victim — a missed
            // preventive refresh, invisible until a bit flips.
            if (tryRefreshActAs<S>(rank, bank, a.preventive.front(),
                                   now)) {
                a.preventive.pop_front();
                preventiveCursor = idx + 1;
                return;
            }
        } else if (!bankHasOpenRowHit(bankIndex(rank, bank)) &&
                   model.earliestPre(rank, bank) <= now) {
            // Close the bank so the preventive refresh can proceed; row
            // hits in flight drain first.
            tryPre(rank, bank, now);
            preventiveCursor = idx + 1;
            return;
        }
    }
}

template <class S>
void
MemoryController::issueDemandActAs(const Request &req, Cycle now)
{
    int rank = req.da.rank;
    BankId bank = req.da.bank;
    // Case-1 hook (Fig. 8): give the refresh scheme the chance to hide a
    // refresh under this activation with a HiRA operation.
    RowId hidden = SchemeOps<S>::pickHiddenRefresh(*refreshScheme, rank,
                                                   bank, req.da.row, now);
    if (hidden != kNoRow) {
        const TimingCycles &tcy = model.cycles();
        if (model.earliestHira(rank, bank) <= now &&
            !slotReservedAt(now + tcy.c1) &&
            !slotReservedAt(now + tcy.hiraSpan())) {
            Cycle second_at =
                model.issueHira(rank, bank, hidden, req.da.row, now);
            record(CommandType::ACT, now, rank, bank, hidden,
                   HiraRole::FirstAct);
            record(CommandType::PRE, now + tcy.c1, rank, bank, 0,
                   HiraRole::CutPre);
            record(CommandType::ACT, second_at, rank, bank, req.da.row,
                   HiraRole::SecondAct);
            reserveHiraSlots(now);
            markIssued();
            ++stats_.hiraOps;
            count(mRowMisses); // the demand ACT rode a closed bank
            recountHits(rank, bank); // bank now open with req's row
            SchemeOps<S>::onHiraIssued(*refreshScheme, rank, bank, hidden,
                                       now);
            onRowActivationAs<S>(rank, bank, hidden, now);
            onRowActivationAs<S>(rank, bank, req.da.row, second_at);
            return;
        }
    }

    model.issueAct(rank, bank, req.da.row, now);
    record(CommandType::ACT, now, rank, bank, req.da.row);
    markIssued();
    count(mRowMisses);
    recountHits(rank, bank);
    onRowActivationAs<S>(rank, bank, req.da.row, now);
}

template <class S>
void
MemoryController::issueRowCommandAs(RequestQueue &queue, Cycle now)
{
    // Oldest-first, one attempt per bank: each bank's oldest queued
    // request decides its row command, and the bank whose deciding
    // request is oldest among those whose command can issue now wins.
    // Banks that cannot take a row command drop out by mask: refresh-
    // open banks, and open banks with a queued hit (their head is a hit
    // waiting on CAS timing, or the hits drain before a conflict PRE).
    // Only closed banks and hit-free conflict banks are visited.
    const BankMask &work = queue.workMask();
    const BankMask &readHits = readQ.hitMask();
    const BankMask &writeHits = writeQ.hitMask();
    int bestSlot = RequestQueue::kNone;
    std::uint64_t bestSeq = ~std::uint64_t{0};
    bool bestClosed = false;
    std::uint64_t visits = 0;
    for (std::size_t w = 0; w < work.words(); ++w) {
        std::uint64_t bits = work.word(w) & ~refreshOpenMask.word(w) &
                             ~readHits.word(w);
        if (writeMode)
            bits &= ~writeHits.word(w);
        for (; bits != 0; bits &= bits - 1) {
            const std::size_t idx =
                w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
            ++visits;
            if (!bankAux[idx].preventive.empty())
                continue; // bankBlocked
            const bool closed = model.openRowAt(idx) == kNoRow;
            if ((closed ? model.earliestActAt(idx)
                        : model.earliestPreAt(idx)) > now) {
                continue;
            }
            const int s = queue.head(idx);
            if (queue.seq(s) >= bestSeq ||
                (closed && rankHeld(queue.at(s).da.rank))) {
                continue;
            }
            bestSlot = s;
            bestSeq = queue.seq(s);
            bestClosed = closed;
        }
    }
    count(mScanVisits, visits);
    if (bestSlot == RequestQueue::kNone)
        return;
    const Request &req = queue.at(bestSlot);
    if (bestClosed) {
        issueDemandActAs<S>(req, now);
    } else {
        // Conflict: the open row's queued hits have drained.
        count(mRowConflicts);
        tryPre(req.da.rank, req.da.bank, now);
    }
}

template <class S>
void
MemoryController::scheduleDemandAs(Cycle now)
{
    if (!busFree(now))
        return;

    // Write-drain mode hysteresis; also drain opportunistically when
    // there is no read work at all.
    if (!writeMode) {
        if (writeQ.size() >= static_cast<std::size_t>(cfg.drainHigh) ||
            (readQ.empty() && !writeQ.empty())) {
            writeMode = true;
        }
    } else if (writeQ.size() <= static_cast<std::size_t>(cfg.drainLow) &&
               !readQ.empty()) {
        writeMode = false;
    }
    if (writeMode && writeQ.empty())
        writeMode = false;

    RequestQueue &active = writeMode ? writeQ : readQ;
    if (active.empty())
        return;

    // FR-FCFS: ready column accesses first, then oldest-first row
    // commands.
    if (issueColumnIfReady(active, !writeMode, now))
        return;
    issueRowCommandAs<S>(active, now);
}

template <class S>
void
MemoryController::tickAs(Cycle now)
{
    issuedThisCycle = false;
    lastTick = now;
    // Occupancy at tick entry; under the event engine this samples only
    // executed cycles (skipped cycles have provably unchanged queues).
    observe(mReadQDepth, static_cast<double>(readQ.size()));
    observe(mWriteQDepth, static_cast<double>(writeQ.size()));
    // Retire expired HiRA bus-slot reservations (at most a handful of
    // future slots; plain index compaction, nothing allocates here).
    if (!reservedSlots.empty()) {
        std::size_t kept = 0;
        for (Cycle c : reservedSlots) {
            if (c >= now)
                reservedSlots[kept++] = c;
        }
        reservedSlots.resize(kept);
    }

    autoPreTick(now);
    if (!issuedThisCycle && !slotReservedAt(now))
        SchemeOps<S>::tick(*refreshScheme, now);
    if (!issuedThisCycle)
        preventiveTickAs<S>(now);
    if (!issuedThisCycle)
        scheduleDemandAs<S>(now);
    nextWakeValid = false; // state changed; nextEvent() recomputes
}

template <class S>
Cycle
MemoryController::nextEventAs() const
{
    if (!nextWakeValid) {
        nextWake = computeNextEventAs<S>(lastTick);
        nextWakeValid = true;
        count(mWakeRecomputes);
    }
    return nextWake;
}

template <class S>
Cycle
MemoryController::computeNextEventAs(Cycle now) const
{
    // The one state change the horizon scan below cannot see is the
    // write-drain hysteresis flip: writeMode changes how preventiveTick
    // weighs queued row hits and which queue schedules, and the dense
    // loop re-evaluates the flip on every busFree tick. The flip is a
    // pure function of the queue depths, so replaying the hysteresis
    // block on the current depths tells exactly whether the next dense
    // tick would change writeMode; if so, poll it. Depth changes
    // between recomputes cannot be missed: they happen only on issues
    // (each followed by this recompute) and enqueues (which lower the
    // wake to arrival+1). Everything else an issue touches —
    // completions pushed, preventive victims sampled, bank refreshOpen
    // transitions, scheme bookkeeping, data-bus adjusted horizons —
    // re-enters through the scan, which runs on post-issue state.
    {
        bool wm = writeMode;
        if (!wm) {
            if (writeQ.size() >= static_cast<std::size_t>(cfg.drainHigh) ||
                (readQ.empty() && !writeQ.empty())) {
                wm = true;
            }
        } else if (writeQ.size() <=
                       static_cast<std::size_t>(cfg.drainLow) &&
                   !readQ.empty()) {
            wm = false;
        }
        if (wm && writeQ.empty())
            wm = false;
        if (wm != writeMode)
            return now + 1;
    }

    // Horizons can never push the wake below the next cycle, so the
    // scan bails as soon as the running minimum reaches that floor.
    const Cycle floor = now + 1;
    Cycle wake = kNeverCycle;
    auto consider = [&wake, floor](Cycle c) {
        if (c < wake)
            wake = c;
        return wake <= floor;
    };

    // One sweep over the per-bank request index (queued / hit counts of
    // both RequestQueues), no queue walk at all. Only the active queue
    // can schedule before the next mode flip, and flips always land on
    // ticks the wake list covers (the hysteresis check above plus
    // enqueue's wake lowering), so the inactive class contributes no
    // horizon. The conflict-PRE and preventive-close entries replay
    // issueRowCommandAs / preventiveTick's row-hit gate
    // (bankHasOpenRowHit): a PRE dense defers while the open row has
    // queued hits is not considered, because the hit counts only change
    // at covered ticks (hit issues, hit arrivals through enqueue, row
    // transitions through commands), after which this recompute runs
    // again.
    const RequestQueue &active = writeMode ? writeQ : readQ;
    const int bpr = cfg.geom.banksPerRank();
    for (int rank = 0; rank < cfg.geom.ranksPerChannel; ++rank) {
        // Held ranks: the holding scheme's horizon polls densely while
        // it drains the rank toward a REF, so ACT entries drop out.
        const bool held = rankHold[static_cast<std::size_t>(rank)];
        for (BankId b = 0; b < static_cast<BankId>(bpr); ++b) {
            std::size_t idx = bankIndex(rank, b);
            const BankAux &a = bankAux[idx];
            if (refreshOpen(idx)) {
                // Demand and preventive work is withheld; the bank's
                // only event is the auto-PRE of the refresh row.
                if (model.openRow(rank, b) != kNoRow &&
                    consider(model.earliestPre(rank, b))) {
                    return floor;
                }
                continue;
            }
            std::uint16_t nq = active.queued(idx);
            std::uint16_t nh = active.hits(idx);
            bool preventivePending = !a.preventive.empty();
            if (nq == 0 && !preventivePending)
                continue;
            if (model.openRow(rank, b) == kNoRow) {
                // Everything queued wants an ACT (demand row or
                // preventive victim).
                if (!held && consider(model.earliestAct(rank, b)))
                    return floor;
                continue;
            }
            if (nh != 0 &&
                consider(writeMode ? model.earliestWr(rank, b)
                                   : model.earliestRd(rank, b))) {
                return floor;
            }
            if ((nq > nh || preventivePending) &&
                !bankHasOpenRowHit(idx) &&
                consider(model.earliestPre(rank, b))) {
                return floor;
            }
        }
    }

    // Completions must reach the LLC at exactly their arrival cycle.
    for (const Completion &c : completions_) {
        if (consider(c.at))
            return floor;
    }

    if (consider(SchemeOps<S>::nextEventCycle(*refreshScheme, now)))
        return floor;

    if (wake == kNeverCycle)
        return kNeverCycle;
    return std::max(wake, floor);
}

} // namespace hira

#endif // HIRA_MEM_CONTROLLER_KERNEL_HH
