/**
 * @file
 * Repository benchmark driver.
 *
 *   perfbench --workload <calib_methods|pack_stream|design_sweep>
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * Runs a closed loop for --seconds over the named workload (the "home"
 * workload, 70% of the host time) and a reduced probe of each other
 * workload (15% each), interleaved operation by operation, so every
 * run reports every metric.  --trace 0 prints the end-to-end metrics,
 * --trace 1 the per-layer metrics from spans recorded around each
 * call into the library.  The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.  The result file, the
 * modeled-statistics digest and (traced) the Chrome trace go to
 * .bench_out/ under the working directory.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.hh"
#include "common/parallel.hh"
#include "common/simd.hh"

using namespace perfbench;

namespace
{

const char *const kWorkloads[] = {"calib_methods", "pack_stream",
                                  "design_sweep"};

using MakeFn = std::unique_ptr<Workload> (*)(const RunSpec &);
const MakeFn kMakers[] = {makeCalibMethods, makePackStream,
                          makeDesignSweep};

/** Set-ups of the home workload; setup_s is their median. */
constexpr int kSetupRepeats = 3;
/** Host-time share of each probe in the closed loop. */
constexpr double kProbeShare = 0.15;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<calib_methods|pack_stream|design_sweep> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why.c_str());
    std::exit(2);
}

bool
parseUnsigned(const std::string &s, unsigned long long &out)
{
    if (s.empty() || s[0] == '-')
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    return errno == 0 && end && *end == '\0';
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

FILE *
openArtifact(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return f;
}

std::string
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? v : fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string outDir = ".bench_out";
    std::string workload;
    unsigned long long seed = 0, trace = 2;
    double seconds = -1.0;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(arg + " needs a value");
        const std::string value = argv[++i];
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed") {
            if (!parseUnsigned(value, seed))
                usage("--seed needs a non-negative integer");
            haveSeed = true;
        } else if (arg == "--seconds") {
            char *end = nullptr;
            seconds = std::strtod(value.c_str(), &end);
            if (!end || *end != '\0' || !(seconds > 0.0) ||
                seconds > 3600.0)
                usage("--seconds needs a number in (0, 3600]");
        } else if (arg == "--trace") {
            if (!parseUnsigned(value, trace) || trace > 1)
                usage("--trace needs 0 or 1");
        } else {
            usage("unknown argument " + arg);
        }
    }
    size_t home = std::size(kWorkloads);
    for (size_t w = 0; w < std::size(kWorkloads); ++w)
        if (workload == kWorkloads[w])
            home = w;
    if (home == std::size(kWorkloads))
        usage("unknown or missing --workload '" + workload + "'");
    if (!haveSeed || seconds < 0.0 || trace > 1)
        usage("--seed, --seconds and --trace are required");
    const bool traced = trace == 1;

    const std::string provenance =
        "{\"git_describe\": " +
        jsonString(envOr("PERFBENCH_GIT_DESCRIBE", "unknown")) +
        ", \"source_sha256\": " +
        jsonString(envOr("PERFBENCH_SOURCE_SHA", "unknown")) +
        ", \"workload\": " + jsonString(workload) +
        ", \"seed\": " + std::to_string(seed) +
        ", \"seconds\": " + jsonNumber(seconds) +
        ", \"trace\": " + std::to_string(trace) +
        ", \"simd_tier\": " +
        jsonString(bitmod::simd::tierName(bitmod::simd::activeTier())) +
        ", \"worker_pool_threads\": " +
        std::to_string(bitmod::WorkerPool::shared().threadCount()) +
        ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
        ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) + "}";

    tracer().setEnabled(traced);
    std::unique_ptr<Workload> workloads[std::size(kWorkloads)];
    for (size_t w = 0; w < std::size(kWorkloads); ++w) {
        RunSpec spec;
        spec.seed = seed;
        spec.traced = traced;
        spec.probe = w != home;
        workloads[w] = kMakers[w](spec);
        for (int r = 0; r < (w == home ? kSetupRepeats : 1); ++r) {
            const auto t0 = Clock::now();
            workloads[w]->setup();
            workloads[w]->out.setupSamples.push_back(secondsSince(t0));
        }
    }

    // The closed loop: always run the workload that is furthest behind
    // its host-time share, so every workload samples the whole run.
    // Once the time is up, only workloads short of a full pass go on.
    double spent[std::size(kWorkloads)] = {};
    const auto start = Clock::now();
    for (;;) {
        const bool timeUp = secondsSince(start) >= seconds;
        size_t next = std::size(kWorkloads);
        double behind = 0.0;
        for (size_t w = 0; w < std::size(kWorkloads); ++w) {
            if (timeUp && workloads[w]->passDone())
                continue;
            const double share =
                w == home ? 1.0 - 2.0 * kProbeShare : kProbeShare;
            const double load = spent[w] / share;
            if (next == std::size(kWorkloads) || load < behind) {
                next = w;
                behind = load;
            }
        }
        if (next == std::size(kWorkloads))
            break;
        const auto t0 = Clock::now();
        workloads[next]->step();
        spent[next] += secondsSince(t0);
    }
    const double rssMib = peakRssMib();
    WorkloadResult results[std::size(kWorkloads)];
    for (size_t w = 0; w < std::size(kWorkloads); ++w) {
        workloads[w]->finish();
        results[w] = std::move(workloads[w]->out);
    }
    tracer().setEnabled(false);

    const WorkloadResult &h = results[home];
    Metrics endToEnd, perLayer;
    endToEnd.set("setup_s", medianOf(h.setupSamples), "s");
    endToEnd.set("peak_rss_mib", rssMib, "MiB");
    long attempted = 0, failed = 0;
    bool selfChecks = true;
    for (const WorkloadResult &r : results) {
        endToEnd.append(r.endToEnd);
        perLayer.append(r.perLayer);
        attempted += r.tally.attempted;
        failed += r.tally.failed;
        selfChecks = selfChecks && r.selfCheckDetected;
    }
    const bool correct = failed == 0 && selfChecks;
    const auto metricsJson = [](const Metrics &m) {
        std::string s = "{";
        for (const Metric &x : m.all())
            s += std::string(s.size() > 1 ? ", " : "") +
                 jsonString(x.name) + ": {\"value\": " +
                 jsonNumber(x.value) + ", \"unit\": " + jsonString(x.unit) +
                 "}";
        return s + "}";
    };
    const std::string resultLine =
        std::string("{\"correct\": ") + (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) +
        ", \"metrics\": " + metricsJson(traced ? perLayer : endToEnd) + "}";

    // -- artifacts -----------------------------------------------------
    std::error_code ec;
    std::filesystem::create_directories(outDir, ec);
    const std::string stem = outDir + "/" + workload + "-seed" +
                             std::to_string(seed) + "-trace" +
                             std::to_string(trace);

    if (FILE *f = openArtifact(stem + ".digest.json")) {
        std::fprintf(f, "{\"provenance\": %s,\n\"hash\": \"%016llx\",\n"
                        "\"entries\": {\n",
                     provenance.c_str(),
                     static_cast<unsigned long long>(h.digest.hash()));
        size_t n = 0;
        for (const auto &[k, v] : h.digest.entries())
            std::fprintf(f, "%s  %s: %s\n", n++ ? "," : "",
                         jsonString(k).c_str(), jsonString(v).c_str());
        std::fprintf(f, "}}\n");
        std::fclose(f);
    }

    std::string selfTime = "{";
    if (traced) {
        for (const auto &[name, t] : tracer().totals())
            selfTime += std::string(selfTime.size() > 1 ? ", " : "") +
                        jsonString(name) + ": {\"count\": " +
                        std::to_string(t.count) + ", \"total_ms\": " +
                        jsonNumber(1e3 * t.totalS) + ", \"self_ms\": " +
                        jsonNumber(1e3 * t.selfS) + "}";
        tracer().writeChromeTrace(stem + ".trace.json", provenance);
    }
    selfTime += "}";

    if (FILE *f = openArtifact(stem + ".result.json")) {
        std::fprintf(f, "{\"provenance\": %s,\n\"result\": %s,\n"
                        "\"workloads\": {\n",
                     provenance.c_str(), resultLine.c_str());
        for (size_t w = 0; w < std::size(kWorkloads); ++w) {
            const WorkloadResult &r = results[w];
            std::string samples = "{";
            for (const auto &[k, v] : r.samples)
                samples += std::string(samples.size() > 1 ? ", " : "") +
                           jsonString(k) + ": " + jsonString(v);
            samples += "}";
            std::string setups = "[";
            for (const double s : r.setupSamples)
                setups += std::string(setups.size() > 1 ? ", " : "") +
                          jsonNumber(s);
            setups += "]";
            std::fprintf(f,
                         "%s  %s: {\"role\": \"%s\", \"attempted\": %ld, "
                         "\"failed\": %ld, \"self_check_detected\": %s, "
                         "\"setup_s\": %s, \"samples\": %s,\n"
                         "    \"end_to_end\": %s,\n    \"per_layer\": %s}\n",
                         w ? "," : "", jsonString(r.name).c_str(),
                         r.probe ? "probe" : "home", r.tally.attempted,
                         r.tally.failed,
                         r.selfCheckDetected ? "true" : "false",
                         setups.c_str(), samples.c_str(),
                         metricsJson(r.endToEnd).c_str(),
                         metricsJson(r.perLayer).c_str());
        }
        std::fprintf(f, "},\n\"self_time\": %s,\n\"digest_hash\": "
                        "\"%016llx\"}\n",
                     selfTime.c_str(),
                     static_cast<unsigned long long>(h.digest.hash()));
        std::fclose(f);
    }

    // -- stdout ----------------------------------------------------------
    for (const WorkloadResult &r : results)
        std::printf("%-13s %-5s attempted %ld failed %ld self-check %s\n",
                    r.name.c_str(), r.probe ? "probe" : "home",
                    r.tally.attempted, r.tally.failed,
                    r.selfCheckDetected ? "detected" : "MISSED");
    for (const Metric &m : (traced ? perLayer : endToEnd).all())
        std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("digest %016llx (%zu modeled statistics) -> %s\n",
                static_cast<unsigned long long>(h.digest.hash()),
                h.digest.entries().size(),
                (stem + ".digest.json").c_str());
    if (traced) {
        std::vector<std::pair<double, std::string>> bySelf;
        for (const auto &[name, t] : tracer().totals())
            bySelf.emplace_back(t.selfS, name);
        std::sort(bySelf.rbegin(), bySelf.rend());
        std::printf("self time by span (top %zu):\n",
                    std::min<size_t>(12, bySelf.size()));
        for (size_t i = 0; i < std::min<size_t>(12, bySelf.size()); ++i)
            std::printf("  %-36s %.3f s\n", bySelf[i].second.c_str(),
                        bySelf[i].first);
    }
    std::printf("provenance %s\n", provenance.c_str());
    std::printf("%s\n", resultLine.c_str());
    return 0;
}
