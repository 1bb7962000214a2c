/**
 * @file
 * Content-addressed, file-backed cache of sweep results.
 *
 * The determinism work of PRs 3/5 made every simulation a pure
 * function of its inputs: per-run seeds derive injectively from
 * (geometry key, scheme seed-key, mix index), the engines are
 * bitwise-equivalent, and corpus priors round-trip exactly. That is
 * what makes memoizing PointResults sound — and this cache is that
 * memo, shared across processes through a directory of single-file
 * entries committed by atomic rename.
 *
 * Keys are canonical multi-line strings covering every
 * behavior-affecting input (see SweepPoint::cacheKey in
 * sim/experiment.hh and aloneResultCacheKey below): run seeds (via the
 * geometry/scheme keys they derive from), the fully-resolved mix specs
 * including corpus manifest priors and "?once" options, warmup and
 * measured cycles, SimEngine, metrics level, the memory standard, and
 * the build's codeStamp() (a hash of the compiled sources, so a
 * rebuilt simulator never serves stale numbers). The entry file
 * stores the full key and is rejected as stale when it does not match
 * the lookup key — a hash collision or a tampered file can never
 * alias.
 *
 * The one knob: HIRA_RESULT_CACHE=<dir> enables the cache for every
 * SweepRunner in the process; an enabled cache always reads and
 * writes. Corrupt or truncated entries are treated as misses (warned
 * once, counted), never trusted.
 */

#ifndef HIRA_SIM_RESULT_CACHE_HH
#define HIRA_SIM_RESULT_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/metrics.hh"
#include "sim/experiment.hh"

namespace hira {

/**
 * The build's code stamp: a hash of the library's sources, headers,
 * compiler and flags, computed at build time by cmake/code_stamp.cmake.
 * Any edit under src/ changes it. Every cache key folds it in as
 * "rev=", and HIRA_JSON artifacts record it as "code_stamp".
 */
const char *codeStamp();

/** Lookup/store counters (also exposed as a metrics snapshot). */
struct ResultCacheStats
{
    std::uint64_t hits = 0;    //!< lookups served
    std::uint64_t misses = 0;  //!< lookups with no entry on disk
    std::uint64_t stale = 0;   //!< entries rejected on key mismatch
    std::uint64_t corrupt = 0; //!< entries rejected as unparseable
    std::uint64_t writes = 0;  //!< entries committed
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
};

/**
 * The cache: a directory of content-addressed entry files (the key's
 * hash names the file; the file repeats the key for verification).
 * Thread-safe; one instance may be shared by every thread of a sweep.
 * Concurrent writers — including other
 * processes sharing the directory — are safe because entries are
 * written to a temp file and committed by rename(2), and any two
 * writers of one key write identical bytes (determinism).
 */
class ResultCache
{
  public:
    explicit ResultCache(std::string dir);

    /**
     * Cache configured by the environment: nullptr unless
     * HIRA_RESULT_CACHE names a directory.
     */
    static std::unique_ptr<ResultCache> fromEnv();

    const std::string &dir() const { return dir_; }

    /** Point-result lookup; true and fills @p out on a hit. */
    bool lookupPoint(const std::string &key, PointResult &out);

    /** Persist @p r under @p key. */
    void storePoint(const std::string &key, const PointResult &r);

    /** Alone-IPC lookup; true and fills @p ipc on a hit. */
    bool lookupAlone(const std::string &key, double &ipc);

    /** Persist an alone-IPC value. */
    void storeAlone(const std::string &key, double ipc);

    ResultCacheStats stats() const;

    /**
     * The counters as a PR-7 metrics snapshot ("result_cache.hits",
     * ...), mergeable into sweep artifacts.
     */
    MetricsSnapshot metricsSnapshot() const;

    // Entry-file paths for a key (test hooks: stale/corrupt injection).
    std::string pointPath(const std::string &key) const;
    std::string alonePath(const std::string &key) const;

  private:
    bool lookupEntry(const std::string &key, bool is_point,
                     PointResult &point, double &ipc);
    void storeEntry(const std::string &key, bool is_point,
                    const PointResult &point, double ipc);

    std::string dir_;

    mutable std::mutex mutex_;
    ResultCacheStats stats_;
};

/**
 * Canonical key of one mix-spec entry as it contributes to a cache
 * key: plain specs verbatim; "corpus:" specs (with or without
 * options) resolved against the active corpus so the entry's identity
 * — file, format, instruction count, intensity class, and alone-IPC
 * prior — is folded in. Two corpora giving one name to different
 * traces (or different priors) therefore never share cache entries.
 * Fatal when a corpus spec has no active corpus or unknown name, like
 * the workload registry itself.
 */
std::string resolvedMixSpecKey(const std::string &spec);

/**
 * Canonical cache key of the IPC-alone run of @p bench on @p geom
 * (the persistent companion of aloneIpcCacheKey(), which keys the
 * in-memory single-flight cache). Golden strings are pinned in
 * tests/sim/test_result_cache.cc.
 */
std::string aloneResultCacheKey(const std::string &bench,
                                const GeomSpec &geom,
                                const BenchKnobs &knobs);

} // namespace hira

#endif // HIRA_SIM_RESULT_CACHE_HH
