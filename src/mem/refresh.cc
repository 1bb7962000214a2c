#include "mem/refresh.hh"

#include "common/logging.hh"
#include "mem/controller.hh"

namespace hira {

void
BaselineRefresh::attach(MemoryController *controller)
{
    RefreshScheme::attach(controller);
    const Geometry &geom = controller->geometry();
    Cycle refi = controller->tc().refi;
    nextRefAt.resize(static_cast<std::size_t>(geom.ranksPerChannel));
    debt.assign(static_cast<std::size_t>(geom.ranksPerChannel), 0);
    closing.assign(static_cast<std::size_t>(geom.ranksPerChannel), false);
    for (int r = 0; r < geom.ranksPerChannel; ++r) {
        // Stagger rank refresh phases so tRFC windows do not align.
        nextRefAt[static_cast<std::size_t>(r)] =
            refi * static_cast<Cycle>(r + 1) /
            static_cast<Cycle>(geom.ranksPerChannel);
    }
}

void
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

Cycle
BaselineRefresh::nextEventCycle(Cycle now) const
{
    Cycle wake = kNeverCycle;
    const Geometry &geom = ctrl->geometry();
    for (int r = 0; r < geom.ranksPerChannel; ++r) {
        std::size_t ri = static_cast<std::size_t>(r);
        // Draining banks toward a REF, or a REF that could not issue
        // yet (e.g. a tick gated by a reserved HiRA bus slot): act as
        // soon as possible.
        if (closing[ri] || debt[ri] > 0)
            return now + 1;
        if (nextRefAt[ri] < wake)
            wake = nextRefAt[ri]; // next debt accrual instant
    }
    return wake;
}

} // namespace hira
