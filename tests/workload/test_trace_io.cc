/**
 * @file
 * Unit tests for the workload ingestion subsystem: text/binary trace
 * round-trips, parse-error diagnostics, looping semantics, and registry
 * spec resolution.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <stdlib.h>
#include <unistd.h>

#include "sim/trace.hh"
#include "sim/workloads.hh"
#include "workload/file_trace.hh"
#include "workload/registry.hh"

using namespace hira;

namespace {

/** Per-suite scratch directory, removed on teardown. */
class TraceIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string templ = "/tmp/hira_trace_io.XXXXXX";
        std::vector<char> buf(templ.begin(), templ.end());
        buf.push_back('\0');
        ASSERT_NE(mkdtemp(buf.data()), nullptr);
        dir = buf.data();
    }

    void
    TearDown() override
    {
        for (const std::string &f : files)
            ::unlink(f.c_str());
        ::rmdir(dir.c_str());
    }

    std::string
    path(const std::string &name)
    {
        std::string p = dir + "/" + name;
        files.push_back(p);
        return p;
    }

    std::string
    writeFile(const std::string &name, const std::string &content)
    {
        std::string p = path(name);
        std::ofstream out(p, std::ios::binary);
        out << content;
        return p;
    }

    std::string dir;
    std::vector<std::string> files;
};

/** Pull @p n instructions from a source. */
std::vector<TraceInst>
drain(TraceSource &src, int n)
{
    std::vector<TraceInst> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        out.push_back(src.next());
    return out;
}

void
expectSameStream(const std::vector<TraceInst> &a,
                 const std::vector<TraceInst> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].isMem, b[i].isMem) << "instruction " << i;
        ASSERT_EQ(a[i].isWrite, b[i].isWrite) << "instruction " << i;
        ASSERT_EQ(a[i].addr, b[i].addr) << "instruction " << i;
    }
}

constexpr Addr kSlice = 1 << 26;

} // namespace

TEST_F(TraceIoTest, TextRoundTripIsExact)
{
    const auto &prof = benchmarkByName("gcc-like");
    std::string p = path("gcc.trace");
    {
        TraceGen gen(prof, 99, 0, kSlice);
        dumpTrace(gen, p, TraceFormat::Text, 5000);
    }
    TraceGen ref(prof, 99, 0, kSlice);
    FileTraceSource replay(p, 0, kSlice);
    expectSameStream(drain(ref, 5000), drain(replay, 5000));
    EXPECT_FALSE(replay.binary());
}

TEST_F(TraceIoTest, BinaryRoundTripIsExact)
{
    const auto &prof = benchmarkByName("mcf-like");
    std::string p = path("mcf.bin");
    {
        TraceGen gen(prof, 7, 0, kSlice);
        dumpTrace(gen, p, TraceFormat::Binary, 5000);
    }
    TraceGen ref(prof, 7, 0, kSlice);
    FileTraceSource replay(p, 0, kSlice);
    expectSameStream(drain(ref, 5000), drain(replay, 5000));
    EXPECT_TRUE(replay.binary());
}

TEST_F(TraceIoTest, RecorderRebasesIntoReplaySlice)
{
    // Record from a core based at 4 GB, replay into a slice at 0: the
    // stream must be identical modulo the base shift.
    const auto &prof = benchmarkByName("libquantum-like");
    Addr base = 4ull << 30;
    std::string p = path("rebase.trace");
    {
        TraceGen gen(prof, 3, base, kSlice);
        dumpTrace(gen, p, TraceFormat::Text, 3000);
    }
    TraceGen ref(prof, 3, base, kSlice);
    FileTraceSource replay(p, 0, kSlice);
    auto a = drain(ref, 3000), b = drain(replay, 3000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].isMem, b[i].isMem);
        if (a[i].isMem) {
            ASSERT_EQ(a[i].addr - base, b[i].addr) << "instruction " << i;
        }
    }
}

TEST_F(TraceIoTest, TextAcceptsCommentsBlanksAndPrefixedHex)
{
    std::string p = writeFile("hand.trace",
                              "# a hand-written trace\n"
                              "\n"
                              "2 R 0x1000\n"
                              "0 W 40\r\n"
                              "  1   N   0\n");
    FileTraceSource src(p, 0, kSlice, {/*loop=*/false});
    auto insts = drain(src, 6);
    EXPECT_FALSE(insts[0].isMem);
    EXPECT_FALSE(insts[1].isMem);
    EXPECT_TRUE(insts[2].isMem);
    EXPECT_FALSE(insts[2].isWrite);
    EXPECT_EQ(insts[2].addr, 0x1000u);
    EXPECT_TRUE(insts[3].isMem);
    EXPECT_TRUE(insts[3].isWrite);
    EXPECT_EQ(insts[3].addr, 0x40u);
    EXPECT_FALSE(insts[4].isMem); // the trailing N run
    EXPECT_FALSE(insts[5].isMem); // exhausted -> idle
    EXPECT_TRUE(src.exhausted());
}

TEST_F(TraceIoTest, AddressesAlignAndWrapIntoSlice)
{
    // 0x1234567 is neither line-aligned nor within a 64 KB slice.
    std::string p = writeFile("wrap.trace", "0 R 1234567\n");
    Addr base = 1 << 20, slice = 1 << 16;
    FileTraceSource src(p, base, slice);
    TraceInst inst = src.next();
    EXPECT_TRUE(inst.isMem);
    EXPECT_EQ(inst.addr % 64, 0u);
    EXPECT_GE(inst.addr, base);
    EXPECT_LT(inst.addr, base + slice);
    EXPECT_EQ(inst.addr, base + ((0x1234567ull / 64) % (slice / 64)) * 64);
}

TEST_F(TraceIoTest, LoopingRepeatsTheStream)
{
    std::string p = writeFile("loop.trace", "1 R 40\n0 W 80\n");
    FileTraceSource src(p, 0, kSlice); // loop=true default
    // One pass is 3 instructions; three passes must repeat exactly.
    auto insts = drain(src, 9);
    for (int pass = 1; pass < 3; ++pass) {
        for (int i = 0; i < 3; ++i) {
            EXPECT_EQ(insts[static_cast<std::size_t>(i)].isMem,
                      insts[static_cast<std::size_t>(pass * 3 + i)].isMem);
            EXPECT_EQ(insts[static_cast<std::size_t>(i)].addr,
                      insts[static_cast<std::size_t>(pass * 3 + i)].addr);
        }
    }
    EXPECT_FALSE(src.exhausted());
    EXPECT_EQ(src.recordsRead(), 6u);
}

TEST_F(TraceIoTest, NonLoopingSourceExhausts)
{
    std::string p = writeFile("once.trace", "0 R 40\n");
    FileTraceSource src(p, 0, kSlice, {/*loop=*/false});
    EXPECT_TRUE(src.next().isMem);
    EXPECT_FALSE(src.exhausted());
    EXPECT_FALSE(src.next().isMem); // ran dry: idles on non-memory
    EXPECT_TRUE(src.exhausted());
    EXPECT_FALSE(src.next().isMem);
}

TEST_F(TraceIoTest, MissingFileIsFatal)
{
    EXPECT_EXIT(FileTraceSource(dir + "/nope.trace", 0, kSlice),
                ::testing::ExitedWithCode(1), "cannot open trace file");
}

TEST_F(TraceIoTest, MalformedTextDiagnosesFileAndLine)
{
    std::string p = writeFile("bad.trace", "0 R 40\nbogus line\n");
    EXPECT_EXIT(
        {
            FileTraceSource src(p, 0, kSlice);
            drain(src, 10);
        },
        ::testing::ExitedWithCode(1), "bad.trace:2:.*non-memory count");
}

TEST_F(TraceIoTest, BadAccessKindDiagnosesFileAndLine)
{
    std::string p = writeFile("kind.trace", "0 X 40\n");
    EXPECT_EXIT(
        {
            FileTraceSource src(p, 0, kSlice);
            drain(src, 10);
        },
        ::testing::ExitedWithCode(1), "kind.trace:1:.*access kind");
}

TEST_F(TraceIoTest, TrailingGarbageDiagnosesFileAndLine)
{
    std::string p = writeFile("junk.trace", "0 R 40 extra\n");
    EXPECT_EXIT(
        {
            FileTraceSource src(p, 0, kSlice);
            drain(src, 10);
        },
        ::testing::ExitedWithCode(1), "junk.trace:1:.*trailing garbage");
}

TEST_F(TraceIoTest, EmptyTraceIsFatal)
{
    std::string p = writeFile("empty.trace", "# only a comment\n");
    EXPECT_EXIT(
        {
            FileTraceSource src(p, 0, kSlice);
            drain(src, 1);
        },
        ::testing::ExitedWithCode(1), "no records");
}

TEST_F(TraceIoTest, TruncatedBinaryIsFatal)
{
    // Valid magic + one whole record + 5 stray bytes.
    std::string p = path("trunc.bin");
    {
        BenchmarkProfile prof = benchmarkByName("mcf-like");
        prof.memPerInstr = 1.0;
        TraceGen gen(prof, 1, 0, kSlice);
        dumpTrace(gen, p, TraceFormat::Binary, 1);
    }
    std::ofstream out(p, std::ios::binary | std::ios::app);
    out.write("extra", 5);
    out.close();
    EXPECT_EXIT(
        {
            FileTraceSource src(p, 0, kSlice);
            drain(src, 10);
        },
        ::testing::ExitedWithCode(1), "truncated record");
}

TEST_F(TraceIoTest, BinaryWithBadKindIsFatal)
{
    std::string magic = "HIRATRC1";
    std::string rec(13, '\0');
    rec[4] = 9; // invalid kind
    std::string p = writeFile("badkind.bin", magic + rec);
    EXPECT_EXIT(
        {
            FileTraceSource src(p, 0, kSlice);
            drain(src, 10);
        },
        ::testing::ExitedWithCode(1), "invalid access kind");
}

TEST_F(TraceIoTest, RegistryResolvesSyntheticNames)
{
    auto src = WorkloadRegistry::global().makeSource("gcc-like", 42, 0,
                                                     kSlice);
    TraceGen ref(benchmarkByName("gcc-like"), 42, 0, kSlice);
    expectSameStream(drain(ref, 2000), drain(*src, 2000));
}

TEST_F(TraceIoTest, RegistryResolvesFileSpecs)
{
    const auto &prof = benchmarkByName("h264-like");
    std::string p = path("reg.trace");
    {
        TraceGen gen(prof, 5, 0, kSlice);
        dumpTrace(gen, p, TraceFormat::Text, 1000);
    }
    auto src = WorkloadRegistry::global().makeSource("file:" + p, 0, 0,
                                                     kSlice);
    TraceGen ref(prof, 5, 0, kSlice);
    expectSameStream(drain(ref, 1000), drain(*src, 1000));
}

TEST_F(TraceIoTest, RegistryFileOnceOptionDisablesLooping)
{
    std::string p = writeFile("one.trace", "0 R 40\n");
    auto looping =
        WorkloadRegistry::global().makeSource("file:" + p, 0, 0, kSlice);
    auto once = WorkloadRegistry::global().makeSource("file:" + p + "?once",
                                                      0, 0, kSlice);
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(looping->next().isMem);
        EXPECT_EQ(once->next().isMem, i == 0);
    }
    EXPECT_FALSE(looping->exhausted());
    EXPECT_TRUE(once->exhausted());
}

TEST_F(TraceIoTest, RegistryKnowsSpecsWithoutSideEffects)
{
    const WorkloadRegistry &reg = WorkloadRegistry::global();
    EXPECT_TRUE(reg.known("mcf-like"));
    EXPECT_TRUE(reg.known("file:/does/not/exist"));
    EXPECT_TRUE(reg.known("corpus:not-loaded"));
    EXPECT_FALSE(reg.known("no-such-bench"));
    ASSERT_EQ(reg.schemes().size(), 2u);
    EXPECT_EQ(reg.schemes()[0], "corpus");
    EXPECT_EQ(reg.schemes()[1], "file");
}

TEST_F(TraceIoTest, UnknownNameListsThePool)
{
    EXPECT_EXIT(WorkloadRegistry::global().makeSource("no-such-bench", 0, 0,
                                                      kSlice),
                ::testing::ExitedWithCode(1),
                "unknown benchmark profile.*mcf-like.*file:<path>");
}

TEST_F(TraceIoTest, UnknownSchemeIsFatal)
{
    EXPECT_EXIT(WorkloadRegistry::global().makeSource("http://x", 0, 0,
                                                      kSlice),
                ::testing::ExitedWithCode(1), "unknown workload scheme");
}

TEST_F(TraceIoTest, UnknownTraceOptionIsFatal)
{
    // "?once" is the only option: anything else must not parse into a
    // distinct spec (and result-cache key) that replays like the plain
    // looping one.
    std::string p = writeFile("opt.trace", "0 R 40\n");
    EXPECT_EXIT(WorkloadRegistry::global().makeSource(
                    "file:" + p + "?rewind", 0, 0, kSlice),
                ::testing::ExitedWithCode(1),
                "unknown trace option '\\?rewind'.*supported: \\?once");
}

TEST_F(TraceIoTest, RecorderSplitsLongComputeRuns)
{
    // A synthetic source that never accesses memory: the recorder must
    // still produce a replayable file via trailing N records.
    BenchmarkProfile prof = benchmarkByName("h264-like");
    prof.memPerInstr = 0.0;
    std::string p = path("compute.trace");
    {
        TraceGen gen(prof, 1, 0, kSlice);
        dumpTrace(gen, p, TraceFormat::Text, 500);
    }
    FileTraceSource replay(p, 0, kSlice, {/*loop=*/false});
    auto insts = drain(replay, 500);
    for (const TraceInst &inst : insts)
        EXPECT_FALSE(inst.isMem);
    EXPECT_FALSE(replay.exhausted());
    replay.next();
    EXPECT_TRUE(replay.exhausted());
}
