#include "core/hira_mc.hh"

#include <cmath>

#include "common/logging.hh"
#include "mem/controller.hh"

namespace hira {

HiraMc::HiraMc(const HiraMcConfig &config)
    : cfg(config), sampler(config.preventive)
{
    hira_assert(cfg.slackN >= 0);
    if (!cfg.periodicViaHira)
        baseline = std::make_unique<BaselineRefresh>();
}

void
HiraMc::attach(MemoryController *controller)
{
    RefreshScheme::attach(controller);
    const Geometry &geom = controller->geometry();
    const TimingCycles &tcy = controller->tc();

    spt_ = std::make_unique<SubarrayPairsTable>(geom, cfg.sptIsolation,
                                                cfg.seed);
    slackCycles = static_cast<Cycle>(cfg.slackN) * tcy.rc;
    marginCycles = static_cast<Cycle>(cfg.deadlineMarginRc) * tcy.rc;
    // tREFW = 8192 tREFI intervals (64 ms for DDR4).
    windowCycles = tcy.refi * 8192;
    nextWindowReset = windowCycles;

    std::uint32_t groups_per_sub =
        geom.refreshGroupsPerBank / geom.subarraysPerBank;
    if (groups_per_sub == 0)
        groups_per_sub = 1;

    tables.clear();
    refptrs.clear();
    fifos.clear();
    for (int r = 0; r < geom.ranksPerChannel; ++r) {
        // §6 sizing: slack-bounded periodic entries per rank plus up to
        // 4 preventive entries per bank (68 at tRefSlack = 4 tRC).
        std::size_t capacity =
            static_cast<std::size_t>(std::max(cfg.slackN, 4)) +
            4 * static_cast<std::size_t>(geom.banksPerRank());
        tables.emplace_back(capacity);
        refptrs.emplace_back(geom.banksPerRank(), geom.subarraysPerBank,
                             groups_per_sub);
        fifos.emplace_back(geom.banksPerRank());
    }

    // Periodic generation: one row-refresh request per bank every
    // tREFW / refreshGroupsPerBank, staggered across the rank's banks
    // (Section 5.1.1's 60.9 ns example).
    genIntervalCycles =
        static_cast<double>(windowCycles) /
        static_cast<double>(geom.refreshGroupsPerBank);
    int total_banks = geom.ranksPerChannel * geom.banksPerRank();
    nextGen.assign(static_cast<std::size_t>(total_banks), 0.0);
    for (int i = 0; i < total_banks; ++i) {
        nextGen[static_cast<std::size_t>(i)] =
            genIntervalCycles * static_cast<double>(i + 1) /
            static_cast<double>(total_banks);
    }
    nextGenMinValid = false;

    if (baseline != nullptr)
        baseline->attach(controller);
}

void
HiraMc::attachMetrics(const MetricScope &scope)
{
    // PR-FIFOs hold 4 entries (Section 6); one extra bin keeps the
    // full-FIFO occupancy distinguishable from near-full.
    mPrFifoDepth = scope.histogram("pr_fifo_depth", 0.0, 5.0, 5);
    mRefptrResets = scope.counter("refptr_resets");
}

void
HiraMc::generatePeriodic(Cycle now)
{
    const Geometry &geom = ctrl->geometry();
    int banks = geom.banksPerRank();
    for (int rank = 0; rank < geom.ranksPerChannel; ++rank) {
        for (BankId bank = 0; bank < static_cast<BankId>(banks); ++bank) {
            std::size_t idx =
                static_cast<std::size_t>(rank * banks) + bank;
            while (nextGen[idx] <= static_cast<double>(now)) {
                Cycle gen = static_cast<Cycle>(nextGen[idx]);
                tables[rank].insert(gen + slackCycles, rank, bank,
                                    RefreshType::Periodic);
                nextGen[idx] += genIntervalCycles;
                nextGenMinValid = false;
            }
        }
    }
}

HiraMc::Target
HiraMc::targetFor(const RefreshEntry &e, SubarrayId pair_with,
                  int fifo_index) const
{
    Target t;
    if (e.type == RefreshType::Periodic) {
        RefPtrPick pick = refptrs[e.rank].peek(e.bank, pair_with, *spt_);
        t.row = pick.row;
        t.subarray = pick.subarray;
        return t;
    }
    const PrFifoSet &fifo = fifos[e.rank];
    RowId row = fifo_index == 0
                    ? (fifo.empty(e.bank) ? kNoRow : fifo.front(e.bank))
                    : fifo.second(e.bank);
    if (row == kNoRow)
        return t;
    SubarrayId sub = spt_->subarrayOf(row);
    if (pair_with != kAnySubarray && !spt_->isolated(sub, pair_with))
        return t;
    t.row = row;
    t.subarray = sub;
    return t;
}

void
HiraMc::commit(const RefreshEntry &e, const Target &t, Cycle now)
{
    // A refresh is late when it completes more than the case-2 margin
    // past its deadline; sub-tRC scheduling latency (inevitable at
    // tRefSlack = 0, where the deadline equals the generation instant)
    // is not a retention hazard.
    if (now > e.deadline + marginCycles)
        ++stats_.deadlineMisses;
    if (e.type == RefreshType::Periodic) {
        refptrs[e.rank].advance(e.bank, t.subarray);
    } else {
        fifos[e.rank].pop(e.bank);
    }
    ++stats_.rowRefreshes;
    bool removed = tables[e.rank].remove(e.id);
    hira_assert(removed);
}

void
HiraMc::tick(Cycle now)
{
    if (now >= nextWindowReset) {
        for (auto &rp : refptrs)
            rp.resetWindow();
        nextWindowReset += windowCycles;
        count(mRefptrResets);
    }

    if (cfg.periodicViaHira) {
        generatePeriodic(now);
    } else {
        baseline->tick(now);
        // Mirror the internal REF engine, as the mitigation-zoo
        // schemes do, so the scheme's stats count its REF commands.
        stats_.refCommands = baseline->stats().refCommands;
        if (!ctrl->busFree(now))
            return;
    }
    caseTwo(now);
}

Cycle
HiraMc::nextEventCycle(Cycle now) const
{
    // The refptr tREFW window reset is a state change and must execute
    // at the same tick in both engines. The scan bails at the floor:
    // no horizon can pull the wake below the next cycle.
    const Cycle floor = now + 1;
    Cycle wake = nextWindowReset;
    auto consider = [&wake, floor](Cycle c) {
        if (c < wake)
            wake = c;
        return wake <= floor;
    };

    // Queued refresh requests: not-yet-due entries sleep until their
    // case-2 urgency instant; due entries wait on their bank's timing
    // horizon. Blocked banks (refresh row open awaiting auto-PRE) are
    // unblocked by an issue, after which the controller polls densely.
    const ChannelTimingModel &model = ctrl->timing();
    for (const RefreshTable &table : tables) {
        for (const RefreshEntry &e : table.all()) {
            if (e.deadline > now + marginCycles) {
                if (consider(e.deadline - marginCycles))
                    return floor;
                continue;
            }
            if (ctrl->bankBlocked(e.rank, e.bank))
                continue;
            if (consider(model.earliestBankCommand(e.rank, e.bank)))
                return floor;
        }
    }

    if (cfg.periodicViaHira) {
        // First cycle c with min(nextGen) <= c, i.e. ceil of the next
        // generation instant (exact: instants stay far below 2^53).
        // ceil is monotone, so caching the double min is equivalent.
        if (!nextGenMinValid) {
            nextGenMin = nextGen.empty() ? 0.0 : nextGen[0];
            for (double g : nextGen) {
                if (g < nextGenMin)
                    nextGenMin = g;
            }
            nextGenMinValid = true;
        }
        if (consider(static_cast<Cycle>(std::ceil(nextGenMin))))
            return floor;
    } else if (consider(baseline->nextEventCycle(now))) {
        return floor;
    }
    return wake;
}

bool
HiraMc::caseTwo(Cycle now)
{
    const Geometry &geom = ctrl->geometry();
    int nranks = geom.ranksPerChannel;
    for (int i = 0; i < nranks; ++i) {
        int rank = (rankCursor + i) % nranks;
        // Earliest-deadline due entry whose bank is actionable. Scanning
        // past blocked banks avoids head-of-line blocking while a
        // just-refreshed bank waits for its auto-PRE.
        const RefreshEntry *e = nullptr;
        for (const RefreshEntry &cand : tables[rank].all()) {
            if (cand.rank != rank || cand.deadline > now + marginCycles)
                continue;
            if (ctrl->bankBlocked(rank, cand.bank))
                continue;
            if (e == nullptr || cand.deadline < e->deadline)
                e = &cand;
        }
        if (e == nullptr)
            continue;
        BankId bank = e->bank;

        const ChannelTimingModel &model = ctrl->timing();
        if (model.openRow(rank, bank) != kNoRow) {
            // Step 7 of Fig. 8: precharge the target bank first.
            if (ctrl->tryPre(rank, bank, now)) {
                rankCursor = rank + 1;
                return true;
            }
            continue;
        }

        // Copy the entry: commits mutate the table.
        RefreshEntry first = *e;
        Target tc_first = targetFor(first, kAnySubarray, 0);
        if (!tc_first.valid()) {
            // Desynchronized preventive entry (FIFO drained elsewhere):
            // drop it defensively.
            tables[rank].remove(first.id);
            continue;
        }

        if (cfg.enableRefreshPairing && cfg.enablePullAhead &&
            first.type == RefreshType::Periodic &&
            tables[rank].pairCandidate(first) == nullptr) {
            // No queued partner: pull the bank's next scheduled periodic
            // refresh forward and pair the two (see HiraMcConfig).
            Target ahead = targetFor(first, tc_first.subarray, 0);
            if (ahead.valid() &&
                ctrl->tryHiraRefreshPair(rank, bank, tc_first.row,
                                         ahead.row, now)) {
                commit(first, tc_first, now);
                refptrs[rank].advance(bank, ahead.subarray);
                ++stats_.rowRefreshes;
                stats_.refreshPaired += 2;
                std::size_t idx =
                    static_cast<std::size_t>(
                        rank * ctrl->geometry().banksPerRank()) +
                    bank;
                nextGen[idx] += genIntervalCycles;
                nextGenMinValid = false;
                rankCursor = rank + 1;
                return true;
            }
        }

        if (cfg.enableRefreshPairing) {
            const RefreshEntry *e2 = tables[rank].pairCandidate(first);
            if (e2 != nullptr) {
                RefreshEntry second = *e2;
                int fifo_index =
                    (first.type == RefreshType::Preventive &&
                     second.type == RefreshType::Preventive)
                        ? 1
                        : 0;
                Target tc_second =
                    targetFor(second, tc_first.subarray, fifo_index);
                if (tc_second.valid() &&
                    ctrl->tryHiraRefreshPair(rank, bank, tc_first.row,
                                             tc_second.row, now)) {
                    // Commit order matters for two preventive entries:
                    // the second target's FIFO index was relative to the
                    // un-popped queue, so commit first, then second.
                    commit(first, tc_first, now);
                    commit(second, tc_second, now);
                    stats_.refreshPaired += 2;
                    rankCursor = rank + 1;
                    return true;
                }
            }
        }

        if (ctrl->tryRefreshAct(rank, bank, tc_first.row, now)) {
            commit(first, tc_first, now);
            ++stats_.standalone;
            rankCursor = rank + 1;
            return true;
        }
    }
    return false;
}

RowId
HiraMc::pickHiddenRefresh(int rank, BankId bank, RowId row_a, Cycle now)
{
    (void)now;
    proposal.valid = false;
    if (!cfg.enableAccessPairing)
        return kNoRow;
    const RefreshEntry *e = tables[rank].earliestForBank(rank, bank);
    if (e == nullptr)
        return kNoRow;
    Target t = targetFor(*e, spt_->subarrayOf(row_a), 0);
    if (!t.valid())
        return kNoRow;
    proposal.valid = true;
    proposal.entryId = e->id;
    proposal.rank = rank;
    proposal.bank = bank;
    proposal.type = e->type;
    proposal.target = t;
    return t.row;
}

void
HiraMc::onHiraIssued(int rank, BankId bank, RowId refresh_row, Cycle now)
{
    hira_assert(proposal.valid && proposal.rank == rank &&
                proposal.bank == bank &&
                proposal.target.row == refresh_row);
    RefreshEntry e;
    e.id = proposal.entryId;
    e.rank = rank;
    e.bank = bank;
    e.type = proposal.type;
    // Recover the deadline for the miss statistic.
    for (const RefreshEntry &cur : tables[rank].all()) {
        if (cur.id == proposal.entryId) {
            e.deadline = cur.deadline;
            break;
        }
    }
    commit(e, proposal.target, now);
    ++stats_.accessPaired;
    proposal.valid = false;
}

void
HiraMc::onActivate(int rank, BankId bank, RowId row, Cycle now)
{
    if (!cfg.preventive.enabled)
        return;
    RowId victim =
        sampler.sample(row, ctrl->geometry().rowsPerBank);
    if (victim == kNoRow)
        return;
    ++stats_.preventiveGenerated;
    if (!fifos[rank].push(bank, victim)) {
        // The 4-entry per-bank PR-FIFO is full: the victim was never
        // enqueued, so scheduling a RefreshTable request for it would
        // desynchronize the two structures. Count the drop instead.
        ++stats_.preventiveDropped;
        return;
    }
    observe(mPrFifoDepth,
            static_cast<double>(fifos[rank].size(bank)));
    tables[rank].insert(now + slackCycles, rank, bank,
                        RefreshType::Preventive);
}

} // namespace hira
