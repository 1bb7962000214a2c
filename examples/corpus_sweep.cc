/**
 * @file
 * Trace-corpus walkthrough (src/workload/corpus.hh).
 *
 * Sweeps intensity-binned mixes of a trace corpus twice: once
 * measuring the IPC-alone references by simulation, then again with
 * those measurements written into the manifest as alone-IPC priors.
 * The prior-backed sweep must skip every IPC-alone warmup run and
 * still produce bitwise-identical weighted speedups — so this doubles
 * as a CI smoke check of the corpus path, including under sanitizers.
 *
 * With HIRA_CORPUS=<dir> set, the corpus is loaded from there (e.g.,
 * one built by tools/hira_tracegen); otherwise a tiny corpus is
 * synthesized into a temp directory first.
 *
 * Build and run: ./build/examples/example_corpus_sweep
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "common/knobs.hh"
#include "sim/experiment.hh"
#include "sim/trace.hh"
#include "sim/workloads.hh"
#include "workload/corpus.hh"

using namespace hira;

namespace {

std::string
makeTempDir()
{
    const char *base = std::getenv("TMPDIR");
    std::string templ = std::string(base != nullptr ? base : "/tmp") +
                        "/hira_corpus_sweep.XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
        std::perror("mkdtemp");
        std::exit(1);
    }
    return std::string(buf.data());
}

/** Synthesize a 4-trace corpus (no priors) into @p dir. */
std::vector<CorpusEntry>
synthesizeCorpus(const std::string &dir)
{
    const std::vector<std::string> names = {"mcf-like", "gcc-like",
                                            "h264-like",
                                            "libquantum-like"};
    std::vector<CorpusEntry> entries;
    for (std::size_t i = 0; i < names.size(); ++i) {
        CorpusEntry e;
        e.name = names[i];
        e.format = i % 2 == 0 ? TraceFormat::Text : TraceFormat::Binary;
        e.file = e.name +
                 (e.format == TraceFormat::Binary ? ".bin" : ".trace");
        e.instructions = 20000;
        const BenchmarkProfile &prof = benchmarkByName(e.name);
        TraceGen gen(prof, hashString(e.name), 0, 1ull << 28);
        dumpTrace(gen, dir + "/" + e.file, e.format, e.instructions);
        e.mpki = classifyApki(1000.0 * prof.memPerInstr);
        entries.push_back(std::move(e));
    }
    writeManifest(dir, entries);
    return entries;
}

} // namespace

int
main()
{
    BenchKnobs knobs = BenchKnobs::fromEnv();

    const char *env = std::getenv("HIRA_CORPUS");
    std::string dir = env != nullptr && *env != '\0' ? env : "";
    bool ownDir = dir.empty();
    std::vector<std::string> cleanup;
    if (ownDir) {
        dir = makeTempDir();
        std::printf("synthesizing a tiny corpus in %s\n", dir.c_str());
        for (const CorpusEntry &e : synthesizeCorpus(dir))
            cleanup.push_back(e.path.empty() ? dir + "/" + e.file
                                             : e.path);
        cleanup.push_back(dir + "/manifest.tsv");
    }

    auto corpus = std::make_shared<const Corpus>(Corpus::load(dir));
    Corpus::setActive(corpus);
    std::printf("corpus %s: %zu traces\n", dir.c_str(), corpus->size());

    std::vector<WorkloadMix> mixes =
        makeCorpusMixes(knobs.mixes, knobs.cores, *corpus);
    GeomSpec geom;
    SchemeSpec scheme;
    scheme.kind = SchemeKind::Baseline;

    // Pass 1: IPC-alone references resolve from the manifest when it
    // carries priors, by simulation otherwise.
    SweepRunner measured(knobs, mixes);
    double ws_measured = measured.meanWs(geom, scheme);
    std::printf("pass 1: mean weighted speedup %.6f (%llu alone "
                "reference runs)\n",
                ws_measured,
                static_cast<unsigned long long>(
                    measured.aloneRunCount()));

    // Pass 2: promote pass 1's alone IPCs to manifest priors; the
    // sweep must then skip every alone run and reproduce pass 1
    // bitwise.
    std::set<std::string> names;
    for (const WorkloadMix &mix : mixes)
        for (const std::string &spec : mix)
            names.insert(spec.substr(std::string("corpus:").size()));
    std::vector<CorpusEntry> entries = corpus->entries();
    for (CorpusEntry &e : entries) {
        if (names.count(e.name) != 0)
            e.aloneIpc = measured.aloneIpc(e.spec(), geom);
    }
    Corpus::setActive(
        std::make_shared<const Corpus>(Corpus(dir, entries)));

    SweepRunner primed(knobs, mixes);
    double ws_primed = primed.meanWs(geom, scheme);
    std::printf("pass 2: mean weighted speedup %.6f (%llu alone "
                "reference runs)\n",
                ws_primed,
                static_cast<unsigned long long>(primed.aloneRunCount()));

    Corpus::setActive(nullptr);
    if (ownDir) {
        for (const std::string &path : cleanup)
            ::unlink(path.c_str());
        ::rmdir(dir.c_str());
    }

    if (ws_primed != ws_measured) {
        std::printf("FAIL: prior-backed sweep diverged from the "
                    "measured one\n");
        return 1;
    }
    if (primed.aloneRunCount() != 0) {
        std::printf("FAIL: priors did not suppress the alone runs\n");
        return 1;
    }
    std::printf("alone-IPC priors reproduce the measured sweep "
                "bitwise, with zero reference runs\n");
    return 0;
}
