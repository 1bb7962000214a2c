/**
 * @file
 * The traced run (--trace 1). It makes one untraced sweep on the
 * benchmark's workers for reference, then replays the same plan
 * serially through the public calls SweepRunner makes, with a span
 * around each call and measurement-window counters from the metrics
 * registry. A layer probe then times the calls into the trace
 * sources, the LLC and the memory controllers for one mix, outside
 * System, so each layer's host cost shows on its own.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "perfbench.hh"
#include "sim/result_cache.hh"
#include "sim/cache.hh"
#include "sim/scheme_registry.hh"
#include "workload/registry.hh"

using namespace hira;

namespace perfbench {

namespace {

/** Spans kept in memory and written as Chrome trace events at exit. */
class SpanLog
{
  public:
    /** Time @p fn as span @p name under @p parent (-1: none). */
    template <class Fn>
    auto
    span(const char *name, int parent, Fn fn)
    {
        Entry e{name, parent, Clock::now(), {}};
        struct Close
        {
            SpanLog &log;
            Entry &e;
            ~Close()
            {
                e.end = Clock::now();
                log.entries.push_back(e);
            }
        } close{*this, e};
        return fn();
    }

    /** Open a parent span; returns its id for children. */
    int
    open(const std::string &name, int parent = -1)
    {
        entries.push_back({name, parent, Clock::now(), {}});
        return static_cast<int>(entries.size()) - 1;
    }

    /** Close span @p id; returns its duration in seconds. */
    double
    close(int id)
    {
        Entry &e = entries[static_cast<std::size_t>(id)];
        e.end = Clock::now();
        return seconds(e.start, e.end);
    }

    /** Seconds summed over spans called @p name. */
    double
    total(const std::string &name) const
    {
        double s = 0.0;
        for (const Entry &e : entries)
            s += e.name == name ? seconds(e.start, e.end) : 0.0;
        return s;
    }

    /** Durations in ms of every span called @p name. */
    std::vector<double>
    durationsMs(const std::string &name) const
    {
        std::vector<double> v;
        for (const Entry &e : entries)
            if (e.name == name)
                v.push_back(1e3 * seconds(e.start, e.end));
        return v;
    }

    void
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            warn("cannot write spans to '%s'", path.c_str());
            return;
        }
        Clock::time_point origin =
            entries.empty() ? Clock::now() : entries.front().start;
        std::fprintf(f, "{\"traceEvents\": [\n");
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const Entry &e = entries[i];
            std::fprintf(f,
                         "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"id\": %zu, \"parent\": %d}}",
                         i == 0 ? "" : ",\n", e.name.c_str(),
                         1e6 * seconds(origin, e.start),
                         1e6 * seconds(e.start, e.end), i, e.parent);
        }
        std::fprintf(f, "\n]}\n");
        std::fclose(f);
    }

  private:
    struct Entry
    {
        std::string name;
        int parent;
        Clock::time_point start, end;
    };
    std::vector<Entry> entries;
};

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Host ns per call of each layer, from the probe. */
struct ProbeCost
{
    double nextNs = 0.0;
    double accessNs = 0.0;
    double enqueueNs = 0.0;
    double tickNs = 0.0;
    double nextEventNs = 0.0;
};

/** Cost of one steady_clock reading, in seconds. */
double
clockReadSeconds()
{
    constexpr int kReads = 100000;
    Clock::time_point t0 = Clock::now();
    Clock::time_point t = t0;
    for (int i = 0; i < kReads; ++i)
        t = Clock::now();
    return seconds(t0, t) / kReads;
}

/**
 * Open-loop layer probe for one (point, mix): the mix's trace sources
 * feed Llc::access at @p perCycle accesses per bus cycle, the LLC
 * routes misses and writebacks to per-channel MemoryControllers, and
 * each controller ticks when its nextEvent() falls due, as in the
 * event engine. There is no core model, so nothing waits on a fill.
 * Each layer's calls are timed in batches (the sources' next() calls
 * in refills of the access buffer, the controllers' calls per cycle,
 * the LLC's calls per cycle less the enqueues nested in them); the
 * cost of reading the clock is subtracted. The first kWarmupCycles
 * are not timed.
 */
ProbeCost
probeLayers(const SweepPoint &p, const WorkloadMix &mix, std::uint64_t seed,
            double perCycle)
{
    SystemConfig cfg = makeSystemConfig(p.geom, p.scheme, mix, seed);
    AddressMapper mapper(cfg.geom);
    std::vector<std::unique_ptr<MemoryController>> ctrls;
    for (int ch = 0; ch < cfg.geom.channels; ++ch) {
        // The wiring System's constructor does for each channel.
        ControllerConfig cc;
        cc.geom = cfg.geom;
        cc.tp = cfg.tp;
        cc.para = cfg.para;
        cc.para.seed = hashCombine(cfg.seed, 0xca0 + ch);
        cc.paraImmediate = cfg.scheme != SchemeKind::HiraMc;
        ctrls.push_back(std::make_unique<MemoryController>(
            ch, cc, schemeEntryByKind(cfg.scheme).make(cfg)));
    }

    Cycle now = 0;
    double enqSec = 0.0;
    std::uint64_t enqCalls = 0;
    Llc llc(
        cfg.llc,
        [&](const Request &req) {
            Request r = req;
            r.da = mapper.decode(r.addr);
            r.arrival = now;
            Clock::time_point t = Clock::now();
            bool ok = ctrls[static_cast<std::size_t>(r.da.channel)]->enqueue(r);
            enqSec += seconds(t, Clock::now());
            ++enqCalls;
            return ok;
        },
        [](int, std::uint64_t, Cycle) {});

    std::vector<std::unique_ptr<TraceSource>> sources;
    Addr slice = mapper.addressSpaceBytes() / mix.size();
    for (std::size_t i = 0; i < mix.size(); ++i) {
        sources.push_back(WorkloadRegistry::global().makeSource(
            mix[i], hashCombine(cfg.seed, 0xc04e + i), slice * i, slice));
    }

    struct Access
    {
        bool write;
        Addr addr;
        int core;
    };
    std::vector<Access> buf;
    std::size_t pos = 0;
    double nextSec = 0.0, tickSec = 0.0, eventSec = 0.0, accessSec = 0.0;
    std::uint64_t nextCalls = 0, ticks = 0, eventCalls = 0, accessCalls = 0;
    std::uint64_t refills = 0, eventBatches = 0, tickBatches = 0,
                  accessBatches = 0;
    auto refill = [&] {
        buf.clear();
        pos = 0;
        Clock::time_point t = Clock::now();
        for (int k = 0; k < 512; ++k) {
            for (std::size_t c = 0; c < sources.size(); ++c) {
                TraceInst inst;
                do {
                    inst = sources[c]->next();
                    ++nextCalls;
                } while (!inst.isMem);
                buf.push_back({inst.isWrite, inst.addr, static_cast<int>(c)});
            }
        }
        nextSec += seconds(t, Clock::now());
        ++refills;
    };

    const double clk = clockReadSeconds();
    const Cycle end = static_cast<Cycle>(kWarmupCycles + kMeasureCycles);
    std::vector<std::uint8_t> due(ctrls.size());
    double credit = 0.0;
    std::uint64_t tag = 0;
    for (now = 1; now <= end; ++now) {
        if (now == static_cast<Cycle>(kWarmupCycles) + 1) {
            nextSec = tickSec = eventSec = accessSec = enqSec = 0.0;
            nextCalls = ticks = eventCalls = accessCalls = enqCalls = 0;
            refills = eventBatches = tickBatches = accessBatches = 0;
        }
        Clock::time_point t0 = Clock::now();
        for (std::size_t ch = 0; ch < ctrls.size(); ++ch)
            due[ch] = ctrls[ch]->nextEvent() <= now;
        Clock::time_point t1 = Clock::now();
        eventSec += seconds(t0, t1);
        eventCalls += ctrls.size();
        ++eventBatches;
        std::uint64_t ticked = 0;
        for (std::size_t ch = 0; ch < ctrls.size(); ++ch) {
            if (due[ch] != 0) {
                ctrls[ch]->tick(now);
                ++ticked;
            }
        }
        if (ticked > 0) {
            tickSec += seconds(t1, Clock::now());
            ticks += ticked;
            ++tickBatches;
        }
        for (auto &ctrl : ctrls) {
            // Deliver due fills, as System::drainCompletions does.
            std::vector<Completion> &done = ctrl->completions();
            std::size_t kept = 0;
            for (const Completion &comp : done) {
                if (comp.at <= now)
                    llc.onMemCompletion(comp.tag, now);
                else
                    done[kept++] = comp;
            }
            done.resize(kept);
        }

        credit = std::min(credit + perCycle, 4.0);
        if (pos + 4 > buf.size())
            refill();
        if (credit < 1.0 && !llc.outboundPending())
            continue;
        double enq0 = enqSec;
        std::uint64_t enqCalls0 = enqCalls;
        Clock::time_point t2 = Clock::now();
        if (llc.outboundPending())
            llc.tick(now);
        while (credit >= 1.0) {
            const Access &a = buf[pos];
            ++accessCalls;
            if (llc.access(a.write, a.addr, a.core, ++tag, now) ==
                LlcResult::Blocked)
                break; // retried next cycle
            ++pos;
            credit -= 1.0;
        }
        double nested = (enqSec - enq0) +
                        clk * static_cast<double>(enqCalls - enqCalls0);
        accessSec += seconds(t2, Clock::now()) - nested;
        ++accessBatches;
    }

    auto perCall = [clk](double sec, std::uint64_t batches,
                         std::uint64_t calls) {
        return calls == 0 ? 0.0
                          : 1e9 * (sec - clk * static_cast<double>(batches)) /
                                static_cast<double>(calls);
    };
    ProbeCost c;
    c.nextNs = perCall(nextSec, refills, nextCalls);
    c.accessNs = perCall(accessSec, accessBatches, accessCalls);
    c.enqueueNs = perCall(enqSec, enqCalls, enqCalls);
    c.tickNs = perCall(tickSec, tickBatches, ticks);
    c.nextEventNs = perCall(eventSec, eventBatches, eventCalls);
    return c;
}

} // namespace

int
runTraced(const Workload &w, std::uint64_t seed, int workers,
          const std::string &spansPath)
{
    Tally tally;
    // Untraced reference on the benchmark's workers, for the tracing
    // overhead, the pool's busy share and the bitwise result check.
    Sweep ref = runSweep(w, seed, workers, tally);

    SpanLog log;
    std::vector<WorkloadMix> mixes = drawMixes(w, seed);
    const std::size_t nMixes = mixes.size();
    SweepRunner runner(benchKnobs(1), mixes);
    runner.setResultCache(nullptr);

    const double cpu0 = processCpuSeconds();
    MetricsSnapshot total;
    std::uint64_t paraTotal = 0;
    std::vector<double> meanWs;
    std::vector<RefreshStats> window;
    double minIpc = INFINITY, fillSum = 0.0, probeRate = 0.0;
    double probeTracedSec = 0.0; // the probe point's simulations, traced
    for (std::size_t pi = 0; pi < w.points.size(); ++pi) {
        const SweepPoint &p = w.points[pi];
        double wsSum = 0.0;
        std::uint64_t pointPara = 0;
        MetricsSnapshot pointMetrics;
        for (std::size_t mi = 0; mi < nMixes; ++mi) {
            // The calls runOne() makes, one span each.
            int sim = log.open("sim");
            SystemConfig cfg = log.span("config", sim, [&] {
                SystemConfig c = makeSystemConfig(
                    p.geom, p.scheme, mixes[mi],
                    sweepRunSeed(p.geom.key(), p.scheme.seedKey(), mi));
                c.metricsLevel = MetricsLevel::Counters;
                return c;
            });
            ++tally.attempted;
            std::unique_ptr<System> owner =
                log.span("System::System", sim,
                         [&] { return std::make_unique<System>(cfg); });
            System &sys = *owner;
            log.span("System::run(warmup)", sim, [&] {
                sys.run(static_cast<Cycle>(kWarmupCycles));
                return 0;
            });
            log.span("System::resetStats", sim, [&] {
                sys.resetStats();
                return 0;
            });
            MetricsSnapshot base = log.span("System::metricsSnapshot", sim,
                                            [&] { return sys.metricsSnapshot(); });
            std::uint64_t para0 = paraGenerated(sys);
            log.span("System::run(measure)", sim, [&] {
                sys.run(static_cast<Cycle>(kMeasureCycles));
                return 0;
            });
            pointPara += paraGenerated(sys) - para0;
            SystemResult r = log.span("System::result", sim,
                                      [&] { return sys.result(); });
            MetricsSnapshot m = log.span("System::metricsSnapshot", sim, [&] {
                return sys.metricsSnapshot().diff(base);
            });
            double sec = log.close(sim);
            if (pi == w.probePoint)
                probeTracedSec += sec;

            std::vector<double> alone;
            for (const std::string &b : mixes[mi]) {
                alone.push_back(log.span("SweepRunner::aloneIpc", -1, [&] {
                    return runner.aloneIpc(b, p.geom);
                }));
            }
            double ws = weightedSpeedup(r.ipc, alone);
            if (!(ws > 0.0) || !std::isfinite(ws)) {
                tally.fail(1, strprintf("%s mix %zu: weighted speedup %g",
                                        pointLabel(p).c_str(), mi, ws));
            }
            wsSum += ws;
            for (double ipc : r.ipc)
                minIpc = std::min(minIpc, ipc);
            double lines = static_cast<double>(cfg.llc.sizeBytes) /
                           static_cast<double>(cfg.llc.lineBytes);
            fillSum += std::min(1.0, static_cast<double>(r.llcMisses) / lines);
            if (pi == w.probePoint && mi == 0) {
                probeRate = static_cast<double>(counter(m, "llc.hits") +
                                                counter(m, "llc.misses")) /
                            static_cast<double>(kMeasureCycles);
            }
            pointMetrics.merge(m);
        }
        meanWs.push_back(wsSum / static_cast<double>(nMixes));
        // Immediate PARA's refreshes, which no RefreshStats counts.
        window.push_back(windowRefresh(pointMetrics));
        window.back().preventiveGenerated += pointPara;
        paraTotal += pointPara;
        total.merge(pointMetrics);
    }
    const double tracedCpu = processCpuSeconds() - cpu0;
    tally.attempted += runner.aloneRunCount();
    for (std::size_t pi = 0; ref.ok && pi < w.points.size(); ++pi) {
        if (std::memcmp(&meanWs[pi], &ref.points[pi].meanWs,
                        sizeof(double)) != 0) {
            tally.fail(nMixes, pointLabel(w.points[pi]) +
                                   ": serial traced replay differs from "
                                   "the parallel sweep");
        }
    }
    std::printf("digest %016llx\n",
                static_cast<unsigned long long>(resultDigest(meanWs, window)));

    const SweepPoint &pp = w.points[w.probePoint];
    ++tally.attempted;
    ProbeCost probe = probeLayers(
        pp, mixes[0], sweepRunSeed(pp.geom.key(), pp.scheme.seedKey(), 0),
        probeRate);
    if (!spansPath.empty())
        log.write(spansPath);

    // Tracing overhead on equal terms: the probe point's simulations
    // again, serially and untraced, through runOne().
    double probeUntracedSec = 0.0;
    for (std::size_t mi = 0; mi < nMixes; ++mi) {
        SystemConfig cfg = makeSystemConfig(
            pp.geom, pp.scheme, mixes[mi],
            sweepRunSeed(pp.geom.key(), pp.scheme.seedKey(), mi));
        cfg.metricsLevel = MetricsLevel::Off;
        ++tally.attempted;
        probeUntracedSec +=
            runOne(cfg, static_cast<Cycle>(kWarmupCycles),
                   static_cast<Cycle>(kMeasureCycles))
                .wallSeconds;
    }

    // Measurement-window counts over every point simulation.
    const double sims = static_cast<double>(pointSims(w));
    auto ctrl = [&](const char *name) {
        return static_cast<double>(sumCounter(total, "ctrl", name));
    };
    auto core = [&](const char *name) {
        return static_cast<double>(sumCounter(total, "core", name));
    };
    auto named = [&](const char *name) {
        return static_cast<double>(counter(total, name));
    };
    RefreshStats rs = windowRefresh(total);
    rs.preventiveGenerated += paraTotal;
    const double hits = named("llc.hits"), misses = named("llc.misses");
    const double simSec = log.total("sim");
    const double aloneSec = log.total("SweepRunner::aloneIpc");
    std::vector<double> run = log.durationsMs("System::run(warmup)");
    std::vector<double> measure = log.durationsMs("System::run(measure)");
    for (std::size_t i = 0; i < run.size(); ++i)
        run[i] += measure[i];
    double runSec = 0.0;
    for (double ms : run)
        runSec += 1e-3 * ms;

    std::printf("llc fill_frac %.3f (%s)\n", fillSum / sims,
                fillSum / sims < 0.99
                    ? "LLC not filled by the end of the window"
                    : "LLC filled");
    std::vector<Metric> metrics = {
        {"experiment.sims", sims, "count"},
        {"experiment.alone_sims",
         static_cast<double>(runner.aloneRunCount()), "count"},
        {"experiment.alone_cpu_frac", ratio(aloneSec, aloneSec + simSec),
         "ratio"},
        {"experiment.pool_busy_frac",
         ratio(ref.cpuSeconds, ref.wallSeconds * workers), "ratio"},
        {"system.ctor_ms", percentile(log.durationsMs("System::System"), 0.5),
         "ms"},
        {"system.run_ms_p50", percentile(run, 0.5), "ms"},
        {"system.run_ms_p90", percentile(run, 0.9), "ms"},
        {"system.run_samples", static_cast<double>(run.size()), "count"},
        {"system.ns_per_sim_cycle",
         ratio(1e9 * runSec,
               sims * static_cast<double>(kWarmupCycles + kMeasureCycles)),
         "ns"},
        {"system.executed_frac",
         ratio(named("kernel.executed_cycles"),
               named("kernel.simulated_cycles")),
         "ratio"},
        {"system.ctrl_ticks", named("kernel.ctrl_ticks"), "count"},
        {"system.heap_rekeys", named("kernel.heap_rekeys"), "count"},
        {"system.heap_lowers", named("kernel.heap_lowers"), "count"},
        {"core.retired", core("retired"), "count"},
        {"core.stall_frac", ratio(core("stall_cycles"), core("cpu_cycles")),
         "ratio"},
        {"core.ff_tick_frac", ratio(core("ff_ticks"), core("cpu_cycles")),
         "ratio"},
        {"core.min_ipc", minIpc, "ipc"},
        {"cache.accesses", hits + misses, "count"},
        {"cache.hit_ratio", ratio(hits, hits + misses), "ratio"},
        {"cache.writebacks", named("llc.writebacks"), "count"},
        {"cache.blocked", named("llc.blocked"), "count"},
        {"cache.fill_frac", fillSum / sims, "ratio"},
        {"cache.access_ns", probe.accessNs, "ns"},
        {"controller.reads_served", ctrl("reads_served"), "count"},
        {"controller.writes_served", ctrl("writes_served"), "count"},
        {"controller.row_hit_ratio",
         ratio(ctrl("row_hits") - ctrl("row_misses"), ctrl("row_hits")),
         "ratio"},
        {"controller.read_latency_cyc",
         ratio(ctrl("read_latency_sum"), ctrl("reads_served")), "cycles"},
        {"controller.rejected", ctrl("rejected_requests"), "count"},
        {"controller.wake_recomputes", ctrl("wake_recomputes"), "count"},
        {"controller.tick_ns", probe.tickNs, "ns"},
        {"controller.enqueue_ns", probe.enqueueNs, "ns"},
        {"controller.next_event_ns", probe.nextEventNs, "ns"},
        {"timing.commands",
         ctrl("cmd.act") + ctrl("cmd.pre") + ctrl("cmd.ref") +
             ctrl("cmd.hira") + ctrl("reads_served") + ctrl("writes_served"),
         "count"},
        {"scheme.ref_commands", static_cast<double>(rs.refCommands), "count"},
        {"scheme.row_refreshes", static_cast<double>(rs.rowRefreshes),
         "count"},
        {"scheme.paired_frac",
         ratio(static_cast<double>(rs.accessPaired + rs.refreshPaired),
               static_cast<double>(rs.rowRefreshes)),
         "ratio"},
        {"scheme.deadline_misses", static_cast<double>(rs.deadlineMisses),
         "count"},
        {"scheme.preventive_generated",
         static_cast<double>(rs.preventiveGenerated), "count"},
        {"scheme.preventive_dropped",
         static_cast<double>(rs.preventiveDropped), "count"},
        {"workload.next_ns", probe.nextNs, "ns"},
        {"trace.overhead_frac", ratio(probeTracedSec, probeUntracedSec) - 1.0,
         "ratio"},
        {"trace.cpu_vs_untraced", ratio(tracedCpu, ref.cpuSeconds), "ratio"},
    };
    printResult(tally, metrics);
    return 0;
}

} // namespace perfbench
