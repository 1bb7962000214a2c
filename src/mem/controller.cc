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
MemoryController::writeQueueFull() const
{
    return writeQ.full();
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
    // Called by the schemes themselves (HiRA-MC standalone refreshes,
    // plus the templated preventive path via tryRefreshActAs): the
    // non-template form keeps the oracle's virtual onActivate, which is
    // fine — scheme-initiated issues are per-refresh, not per-cycle.
    return tryRefreshActAs<RefreshScheme>(rank, bank, row, now);
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
    onRowActivationAs<RefreshScheme>(rank, bank, first, now);
    onRowActivationAs<RefreshScheme>(rank, bank, second, second_at);
    return true;
}

// --------------------------------------------------------------------
// Per-cycle operation
// --------------------------------------------------------------------

void
MemoryController::tick(Cycle now)
{
    // The generic oracle: the same templated body System's specialized
    // kernels run, with every scheme hook on ordinary virtual dispatch.
    tickAs<RefreshScheme>(now);
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

Cycle
MemoryController::nextEvent() const
{
    return nextEventAs<RefreshScheme>();
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

} // namespace hira
