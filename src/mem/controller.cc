#include "mem/controller.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hira {

MemoryController::MemoryController(int channel_id,
                                   const ControllerConfig &config,
                                   std::unique_ptr<RefreshScheme> scheme)
    : channel(channel_id),
      cfg(config),
      model(config.geom, config.tp),
      refreshScheme(std::move(scheme)),
      paraSampler(config.para),
      readQ(config.readQueueCap,
            static_cast<std::size_t>(config.geom.banksPerChannel())),
      writeQ(config.writeQueueCap,
             static_cast<std::size_t>(config.geom.banksPerChannel())),
      bankAux(static_cast<std::size_t>(config.geom.banksPerChannel())),
      refreshOpenMask(bankAux.size())
{
    hira_assert(refreshScheme != nullptr);
    rankHold.assign(static_cast<std::size_t>(cfg.geom.ranksPerChannel),
                    false);
    recorder.setEnabled(cfg.recordTrace);
    refreshScheme->attach(this);

    // Metrics registration (cold path; every pointer stays nullptr when
    // the scope is disabled). Queue-depth capacity +1 so the full-queue
    // depth lands in its own bin rather than clamping into the last one.
    const MetricScope &ms = cfg.metrics;
    mRowHits = ms.counter("row_hits");
    mRowMisses = ms.counter("row_misses");
    mRowConflicts = ms.counter("row_conflicts");
    mWakeRecomputes = ms.counter("wake_recomputes");
    mWakeLowers = ms.counter("wake_enqueue_lowers");
    mScanVisits = ms.counter("scan_visits");
    mReadQDepth = ms.histogram("read_q_depth", 0.0,
                               static_cast<double>(cfg.readQueueCap + 1),
                               16);
    mWriteQDepth = ms.histogram(
        "write_q_depth", 0.0,
        static_cast<double>(cfg.writeQueueCap + 1), 16);
    mBankReads.resize(bankAux.size(), nullptr);
    mBankWrites.resize(bankAux.size(), nullptr);
    if (ms.registry() != nullptr) {
        for (std::size_t i = 0; i < bankAux.size(); ++i) {
            MetricScope bank = ms.sub(strprintf("bank%zu", i));
            mBankReads[i] = bank.counter("reads");
            mBankWrites[i] = bank.counter("writes");
        }
    }
    refreshScheme->attachMetrics(ms.sub("scheme"));
}

MemoryController::BankAux &
MemoryController::aux(int rank, BankId bank)
{
    return bankAux[bankIndex(rank, bank)];
}

const MemoryController::BankAux &
MemoryController::aux(int rank, BankId bank) const
{
    return bankAux[bankIndex(rank, bank)];
}

void
MemoryController::setRankHold(int rank, bool hold)
{
    rankHold[static_cast<std::size_t>(rank)] = hold;
}

std::vector<Command>
MemoryController::trace() const
{
    std::vector<Command> t = recorder.commands();
    std::stable_sort(t.begin(), t.end(),
                     [](const Command &a, const Command &b) {
                         return a.cycle < b.cycle;
                     });
    return t;
}

bool
MemoryController::bankBlocked(int rank, BankId bank) const
{
    return refreshOpen(bankIndex(rank, bank)) ||
           !aux(rank, bank).preventive.empty();
}

std::size_t
MemoryController::pendingPreventive(int rank, BankId bank) const
{
    return aux(rank, bank).preventive.size();
}

bool
MemoryController::readQueueFull() const
{
    return readQ.full();
}

bool
MemoryController::enqueue(const Request &req)
{
    hira_assert(req.da.channel == channel);
    // Wake the event engine exactly when the dense loop would first see
    // an accepted request: this same cycle if our tick is still ahead
    // of us in the current cycle's controller phase, the next cycle if
    // we already ticked (lastTick == arrival). When the cache is
    // invalid (we ticked this cycle and nobody queried since), the lazy
    // recompute sees the queued request itself. Rejected requests leave
    // the controller untouched and owe no wake — lowering the wake on
    // the LLC's per-cycle outbound retries would pin a full controller
    // to dense polling for as long as its queue stays full.
    auto lowerWake = [this, &req]() {
        Cycle seen = lastTick == req.arrival ? req.arrival + 1
                                             : req.arrival;
        if (nextWakeValid && seen < nextWake)
            nextWake = seen;
        if (wakeListener)
            wakeListener(seen);
        count(mWakeLowers);
    };
    const std::size_t idx = bankIndex(req.da.rank, req.da.bank);
    const bool hit = model.openRow(req.da.rank, req.da.bank) == req.da.row;
    if (req.type == MemType::Read) {
        // Forward from a queued write to the same line (a line maps to
        // one bank, so only that bank's write list can hold it). The
        // forward serves the read (fixed latency, data from the write
        // queue), so it counts toward readsServed / readLatencySum like
        // any other completed read; `forwards` stays as the sub-count.
        if (writeQ.holdsLine(idx, req.addr)) {
            completions_.push_back({req.tag, req.coreId, req.arrival + 4});
            ++stats_.forwards;
            ++stats_.readsServed;
            stats_.readLatencySum += 4;
            lowerWake();
            return true;
        }
        if (readQ.full()) {
            ++stats_.rejectedRequests;
            return false;
        }
        readQ.push(req, idx, hit);
        count(mBankReads[idx]);
        lowerWake();
        return true;
    }
    if (writeQ.full()) {
        ++stats_.rejectedRequests;
        return false;
    }
    writeQ.push(req, idx, hit);
    count(mBankWrites[idx]);
    lowerWake();
    return true;
}

void
MemoryController::recountHits(int rank, BankId bank)
{
    std::size_t idx = bankIndex(rank, bank);
    RowId open = model.openRow(rank, bank);
    readQ.setOpenRow(idx, open);
    writeQ.setOpenRow(idx, open);
}

void
MemoryController::record(CommandType type, Cycle cycle, int rank,
                         BankId bank, RowId row, HiraRole role)
{
    if (!recorder.isEnabled())
        return;
    Command c;
    c.type = type;
    c.cycle = cycle;
    c.channel = channel;
    c.rank = rank;
    c.bank = bank;
    c.row = row;
    c.hiraRole = role;
    recorder.record(c);
}

void
MemoryController::markIssued()
{
    hira_assert(!issuedThisCycle);
    issuedThisCycle = true;
}

bool
MemoryController::slotReservedAt(Cycle c) const
{
    return std::find(reservedSlots.begin(), reservedSlots.end(), c) !=
           reservedSlots.end();
}

void
MemoryController::reserveHiraSlots(Cycle now)
{
    reservedSlots.push_back(now + model.cycles().c1);
    reservedSlots.push_back(now + model.cycles().hiraSpan());
}

bool
MemoryController::busFree(Cycle now) const
{
    return !issuedThisCycle && !slotReservedAt(now);
}

// --------------------------------------------------------------------
// Refresh-scheme primitives
// --------------------------------------------------------------------

bool
MemoryController::tryRef(int rank, Cycle now)
{
    if (!busFree(now))
        return false;
    for (BankId b = 0; b < static_cast<BankId>(cfg.geom.banksPerRank());
         ++b) {
        if (model.openRow(rank, b) != kNoRow)
            return false;
    }
    if (model.earliestRef(rank) > now)
        return false;
    model.issueRef(rank, now);
    record(CommandType::REF, now, rank, 0, 0);
    markIssued();
    ++stats_.refs;
    return true;
}

bool
MemoryController::tryCloseOneBank(int rank, Cycle now)
{
    if (!busFree(now))
        return false;
    for (BankId b = 0; b < static_cast<BankId>(cfg.geom.banksPerRank());
         ++b) {
        if (model.openRow(rank, b) != kNoRow &&
            model.earliestPre(rank, b) <= now) {
            return tryPre(rank, b, now);
        }
    }
    return false;
}

bool
MemoryController::tryPre(int rank, BankId bank, Cycle now)
{
    if (!busFree(now) || model.openRow(rank, bank) == kNoRow ||
        model.earliestPre(rank, bank) > now) {
        return false;
    }
    model.issuePre(rank, bank, now);
    record(CommandType::PRE, now, rank, bank, 0);
    markIssued();
    ++stats_.pres;
    setRefreshOpen(rank, bank, false);
    // Row closed: nothing hits it any more (recountHits shortcut).
    std::size_t idx = bankIndex(rank, bank);
    readQ.setOpenRow(idx, kNoRow);
    writeQ.setOpenRow(idx, kNoRow);
    return true;
}

bool
MemoryController::tryRefreshAct(int rank, BankId bank, RowId row,
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
    onRowActivation(rank, bank, row, now);
    return true;
}

bool
MemoryController::tryHiraRefreshPair(int rank, BankId bank, RowId first,
                                     RowId second, Cycle now)
{
    const TimingCycles &tcy = model.cycles();
    if (!busFree(now) || slotReservedAt(now + tcy.c1) ||
        slotReservedAt(now + tcy.hiraSpan())) {
        return false;
    }
    if (rankHeld(rank) || model.openRow(rank, bank) != kNoRow ||
        model.earliestHira(rank, bank) > now) {
        return false;
    }
    Cycle second_at = model.issueHira(rank, bank, first, second, now);
    record(CommandType::ACT, now, rank, bank, first, HiraRole::FirstAct);
    record(CommandType::PRE, now + tcy.c1, rank, bank, 0,
           HiraRole::CutPre);
    record(CommandType::ACT, second_at, rank, bank, second,
           HiraRole::SecondAct);
    reserveHiraSlots(now);
    markIssued();
    ++stats_.hiraOps;
    setRefreshOpen(rank, bank, true); // auto-PRE after the second tRAS
    recountHits(rank, bank); // bank now open with `second`
    onRowActivation(rank, bank, first, now);
    onRowActivation(rank, bank, second, second_at);
    return true;
}

// --------------------------------------------------------------------
// Per-cycle operation
// --------------------------------------------------------------------

void
MemoryController::tick(Cycle now)
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
        refreshScheme->tick(now);
    if (!issuedThisCycle)
        preventiveTick(now);
    if (!issuedThisCycle)
        scheduleDemand(now);
    nextWakeValid = false; // state changed; nextEvent() recomputes
}

void
MemoryController::autoPreTick(Cycle now)
{
    if (!busFree(now))
        return;
    // Lowest refresh-open bank (rank-major order) whose PRE is legal.
    const int bpr = cfg.geom.banksPerRank();
    for (std::size_t w = 0; w < refreshOpenMask.words(); ++w) {
        for (std::uint64_t bits = refreshOpenMask.word(w); bits != 0;
             bits &= bits - 1) {
            int idx = static_cast<int>(w * 64) + __builtin_ctzll(bits);
            int rank = idx / bpr;
            BankId b = static_cast<BankId>(idx % bpr);
            if (model.openRow(rank, b) != kNoRow &&
                model.earliestPre(rank, b) <= now) {
                tryPre(rank, b, now);
                return;
            }
        }
    }
}

void
MemoryController::onRowActivation(int rank, BankId bank, RowId row,
                                  Cycle now)
{
    ++stats_.acts;
    refreshScheme->onActivate(rank, bank, row, now);
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

void
MemoryController::preventiveTick(Cycle now)
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
            if (tryRefreshAct(rank, bank, a.preventive.front(), now)) {
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

void
MemoryController::scheduleDemand(Cycle now)
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
    issueRowCommand(active, now);
}

Cycle
MemoryController::nextEvent() const
{
    if (!nextWakeValid) {
        nextWake = computeNextEvent(lastTick);
        nextWakeValid = true;
        count(mWakeRecomputes);
    }
    return nextWake;
}

Cycle
MemoryController::computeNextEvent(Cycle now) const
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
    // issueRowCommand / preventiveTick's row-hit gate
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

    if (consider(refreshScheme->nextEventCycle(now)))
        return floor;

    if (wake == kNeverCycle)
        return kNeverCycle;
    return std::max(wake, floor);
}

bool
MemoryController::issueColumnIfReady(RequestQueue &queue, bool is_read,
                                     Cycle now)
{
    // FR-FCFS column pick: the oldest queued request that hits its
    // bank's open row, on a bank that is not refresh-open and is ready
    // for the column command. Only hit-mask banks can hold one, each
    // bank's candidate is its oldest hit, and the smallest sequence
    // number among the ready banks' candidates is the request a
    // front-to-back queue scan would serve.
    int bestSlot = RequestQueue::kNone;
    std::size_t bestIdx = 0;
    std::uint64_t bestSeq = ~std::uint64_t{0};
    std::uint64_t visits = 0;
    const BankMask &hits = queue.hitMask();
    for (std::size_t w = 0; w < hits.words(); ++w) {
        for (std::uint64_t bits = hits.word(w) & ~refreshOpenMask.word(w);
             bits != 0; bits &= bits - 1) {
            const std::size_t idx =
                w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
            ++visits;
            if ((is_read ? model.earliestRdAt(idx)
                         : model.earliestWrAt(idx)) > now) {
                continue;
            }
            const int s = queue.oldestHit(idx);
            if (queue.seq(s) < bestSeq) {
                bestSlot = s;
                bestIdx = idx;
                bestSeq = queue.seq(s);
            }
        }
    }
    count(mScanVisits, visits);
    if (bestSlot == RequestQueue::kNone)
        return false;

    const Request &req = queue.at(bestSlot);
    const int rank = req.da.rank;
    const BankId bank = req.da.bank;
    if (is_read) {
        Cycle done = model.issueRd(rank, bank, now);
        record(CommandType::RD, now, rank, bank, req.da.row);
        completions_.push_back({req.tag, req.coreId, done});
        stats_.readLatencySum += done - req.arrival;
        ++stats_.readsServed;
    } else {
        model.issueWr(rank, bank, now);
        record(CommandType::WR, now, rank, bank, req.da.row);
        ++stats_.writesServed;
    }
    markIssued();
    count(mRowHits);
    queue.eraseOldestHit(bestIdx);
    return true;
}

void
MemoryController::issueRowCommand(RequestQueue &queue, Cycle now)
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
        issueDemandAct(req, now);
    } else {
        // Conflict: the open row's queued hits have drained.
        count(mRowConflicts);
        tryPre(req.da.rank, req.da.bank, now);
    }
}

void
MemoryController::issueDemandAct(const Request &req, Cycle now)
{
    int rank = req.da.rank;
    BankId bank = req.da.bank;
    // Case-1 hook (Fig. 8): give the refresh scheme the chance to hide a
    // refresh under this activation with a HiRA operation.
    RowId hidden =
        refreshScheme->pickHiddenRefresh(rank, bank, req.da.row, now);
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
            refreshScheme->onHiraIssued(rank, bank, hidden, now);
            onRowActivation(rank, bank, hidden, now);
            onRowActivation(rank, bank, req.da.row, second_at);
            return;
        }
    }

    model.issueAct(rank, bank, req.da.row, now);
    record(CommandType::ACT, now, rank, bank, req.da.row);
    markIssued();
    count(mRowMisses);
    recountHits(rank, bank);
    onRowActivation(rank, bank, req.da.row, now);
}

} // namespace hira
