#include "mem/rfm.hh"

#include "common/logging.hh"
#include "mem/controller.hh"

namespace hira {

RfmRefresh::RfmRefresh(const RfmConfig &config) : cfg(config)
{
    hira_assert(cfg.raaimt > 0);
    hira_assert(cfg.queueCap > 0);
    baseline_ = std::make_unique<BaselineRefresh>();
}

void
RfmRefresh::attach(MemoryController *controller)
{
    RefreshScheme::attach(controller);
    const Geometry &geom = controller->geometry();
    std::size_t nbanks = static_cast<std::size_t>(geom.ranksPerChannel) *
                         static_cast<std::size_t>(geom.banksPerRank());
    raa.assign(nbanks, 0);
    victims.assign(nbanks, {});
    pendingTotal = 0;
    bankCursor = 0;
    baseline_->attach(controller);
}

void
RfmRefresh::attachMetrics(const MetricScope &scope)
{
    mRfmTriggers = scope.counter("rfm_triggers");
}

void
RfmRefresh::onActivate(int rank, BankId bank, RowId row, Cycle now)
{
    (void)now;
    std::size_t idx =
        static_cast<std::size_t>(rank * ctrl->geometry().banksPerRank()) +
        bank;
    if (++raa[idx] < cfg.raaimt)
        return;
    // RAAIMT crossed: the bank owes an RFM. Subtracting (not zeroing)
    // the threshold keeps the rolling-counter semantics when several
    // ACTs land between drain opportunities.
    raa[idx] -= cfg.raaimt;
    count(mRfmTriggers);
    RowId rows = ctrl->geometry().rowsPerBank;
    RowId neighbors[2] = {row > 0 ? row - 1 : kNoRow,
                          row + 1 < rows ? row + 1 : kNoRow};
    for (RowId victim : neighbors) {
        if (victim == kNoRow)
            continue;
        ++stats_.preventiveGenerated;
        if (victims[idx].size() >=
            static_cast<std::size_t>(cfg.queueCap)) {
            // A full victim queue models the device's bounded RFM work
            // list: the victim is never refreshed, so count the drop
            // (conservation: generated = refreshed + queued + dropped).
            ++stats_.preventiveDropped;
            continue;
        }
        victims[idx].push_back(victim);
        ++pendingTotal;
    }
}

bool
RfmRefresh::drain(Cycle now)
{
    if (pendingTotal == 0)
        return false;
    const Geometry &geom = ctrl->geometry();
    int nbanks = geom.ranksPerChannel * geom.banksPerRank();
    for (int i = 0; i < nbanks; ++i) {
        int idx = (bankCursor + i) % nbanks;
        int rank = idx / geom.banksPerRank();
        BankId bank = static_cast<BankId>(idx % geom.banksPerRank());
        std::deque<RowId> &q = victims[static_cast<std::size_t>(idx)];
        if (q.empty() || ctrl->bankBlocked(rank, bank))
            continue;
        if (ctrl->timing().openRow(rank, bank) != kNoRow) {
            // Close the bank so the RFM refresh can proceed.
            if (ctrl->tryPre(rank, bank, now)) {
                bankCursor = idx + 1;
                return true;
            }
            continue;
        }
        if (ctrl->tryRefreshAct(rank, bank, q.front(), now)) {
            q.pop_front();
            --pendingTotal;
            ++stats_.rowRefreshes;
            ++stats_.standalone;
            bankCursor = idx + 1;
            return true;
        }
    }
    return false;
}

void
RfmRefresh::tick(Cycle now)
{
    baseline_->tick(now);
    // Mirror the internal REF engine so System::result() needs no
    // scheme-specific aggregation.
    stats_.refCommands = baseline_->stats().refCommands;
    if (!ctrl->busFree(now))
        return;
    drain(now);
}

Cycle
RfmRefresh::nextEventCycle(Cycle now) const
{
    // Queued victims drain against per-bank timing gates (auto-PRE,
    // rank holds); poll densely while any are pending — the queues are
    // tiny, so the window is short. RAA counters only change via
    // onActivate, i.e. on issues, which force a poll anyway.
    if (pendingTotal > 0)
        return now + 1;
    return baseline_->nextEventCycle(now);
}

} // namespace hira
