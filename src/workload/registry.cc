#include "workload/registry.hh"

#include "common/logging.hh"
#include "sim/workloads.hh"
#include "workload/corpus.hh"
#include "workload/file_trace.hh"

namespace hira {

namespace {

/**
 * Strip a trailing "?once" option from @p arg (the spec with the scheme
 * prefix removed) into @p opts; fatal on unknown options.
 */
std::string
stripOnceOption(const std::string &arg, const char *scheme,
                FileTraceOptions &opts)
{
    std::string rest = arg;
    std::size_t q = rest.rfind('?');
    if (q != std::string::npos) {
        std::string opt = rest.substr(q + 1);
        rest.erase(q);
        if (opt != "once") {
            fatal("unknown trace option '?%s' in '%s:%s' "
                  "(supported: ?once)",
                  opt.c_str(), scheme, arg.c_str());
        }
        opts.loop = false;
    }
    return rest;
}

/** "file:<path>[?once]" -> FileTraceSource. */
std::unique_ptr<TraceSource>
makeFileSource(const std::string &arg, std::uint64_t /*seed*/, Addr base,
               Addr slice_bytes)
{
    FileTraceOptions opts;
    std::string path = stripOnceOption(arg, "file", opts);
    if (path.empty())
        fatal("empty path in workload spec 'file:%s'", arg.c_str());
    return std::make_unique<FileTraceSource>(path, base, slice_bytes, opts);
}

/**
 * "corpus:<name>[?once]" -> FileTraceSource of the named trace
 * in the active corpus (HIRA_CORPUS / Corpus::setActive).
 */
std::unique_ptr<TraceSource>
makeCorpusSource(const std::string &arg, std::uint64_t /*seed*/, Addr base,
                 Addr slice_bytes)
{
    FileTraceOptions opts;
    std::string name = stripOnceOption(arg, "corpus", opts);
    if (name.empty())
        fatal("empty trace name in workload spec 'corpus:%s'", arg.c_str());
    std::shared_ptr<const Corpus> corpus =
        Corpus::activeOrFatal(("workload spec 'corpus:" + arg + "'").c_str());
    const CorpusEntry &entry = corpus->at(name);
    return std::make_unique<FileTraceSource>(entry.path, base, slice_bytes,
                                             opts);
}

} // namespace

WorkloadRegistry::WorkloadRegistry()
{
    registerScheme("file", makeFileSource);
    registerScheme("corpus", makeCorpusSource);
}

WorkloadRegistry &
WorkloadRegistry::global()
{
    static WorkloadRegistry reg;
    return reg;
}

void
WorkloadRegistry::registerScheme(const std::string &scheme, Factory factory)
{
    factories[scheme] = std::move(factory);
}

std::vector<std::string>
WorkloadRegistry::schemes() const
{
    std::vector<std::string> out;
    for (const auto &kv : factories)
        out.push_back(kv.first);
    return out;
}

std::string
WorkloadRegistry::specSyntax()
{
    return "a synthetic pool name, 'file:<path>[?once]', or "
           "'corpus:<name>[?once]' (HIRA_CORPUS manifest)";
}

bool
WorkloadRegistry::known(const std::string &spec) const
{
    std::size_t colon = spec.find(':');
    if (colon != std::string::npos)
        return factories.count(spec.substr(0, colon)) > 0;
    for (const BenchmarkProfile &p : benchmarkPool()) {
        if (p.name == spec)
            return true;
    }
    return false;
}

std::unique_ptr<TraceSource>
WorkloadRegistry::makeSource(const std::string &spec, std::uint64_t seed,
                             Addr base, Addr slice_bytes) const
{
    std::size_t colon = spec.find(':');
    if (colon != std::string::npos) {
        std::string scheme = spec.substr(0, colon);
        auto it = factories.find(scheme);
        if (it == factories.end()) {
            fatal("unknown workload scheme '%s:' in spec '%s'; expected %s",
                  scheme.c_str(), spec.c_str(), specSyntax().c_str());
        }
        return it->second(spec.substr(colon + 1), seed, base, slice_bytes);
    }
    // Plain name: the synthetic pool (fatal with the available names on
    // a miss, see benchmarkByName).
    return std::make_unique<TraceGen>(benchmarkByName(spec), seed, base,
                                      slice_bytes);
}

} // namespace hira
