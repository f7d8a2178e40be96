/**
 * @file
 * Shared machinery of the repository benchmark: the span tracer, the
 * per-kind host-time samples behind every throughput metric, the
 * operation tally, the metric list and the modeled-statistics digest.
 * Nothing here calls into the library; the workload files do.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * In-memory span recorder.  Spans are opened and closed on the
 * benchmark's single driving thread around calls into the library's
 * public functions; each records its name, start, end and the span
 * that was open when it began.  Disabled (untraced runs), opening a
 * span costs one branch.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int parent = -1;  //!< index of the enclosing span, -1 = root
    };

    /** Aggregate of every span with one name. */
    struct Totals
    {
        size_t count = 0;
        double totalS = 0.0;  //!< summed durations
        double selfS = 0.0;   //!< durations minus child-covered time
    };

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    int begin(const std::string &name);
    void end(int id);

    /** Per-name totals over every span. */
    std::map<std::string, Totals> totals() const;

    /** Chrome trace-event JSON ("X" events, microseconds). */
    void writeChromeTrace(const std::string &path,
                          const std::string &provenance_json) const;

  private:
    bool enabled_ = false;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** The process-wide tracer. */
Tracer &tracer();

/** Mean duration, in seconds, of the spans named @p name (0 if none). */
double meanSeconds(const std::map<std::string, Tracer::Totals> &totals,
                   const std::string &name);

/** RAII span on the process-wide tracer (no-op while disabled). */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const std::string &name)
        : id_(tracer().enabled() ? tracer().begin(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (id_ >= 0)
            tracer().end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int id_;
};

/**
 * Host-time samples of a workload's operations, grouped by kind (one
 * kind = one distinct operation input).  rate() is the throughput on
 * the full mix — sum of work over the sum of per-kind median times —
 * so it does not depend on where the time budget cut the last pass.
 */
class KindTimes
{
  public:
    void add(const std::string &kind, double seconds, double work);

    /** Σ work_k / Σ median(seconds_k); 0 when empty. */
    double rate() const;
    size_t kinds() const { return kinds_.size(); }
    size_t minSamplesPerKind() const;

  private:
    struct Entry
    {
        double work = 0.0;
        std::vector<double> seconds;
    };
    std::map<std::string, Entry> kinds_;
};

double medianOf(std::vector<double> v);

/** Attempted and failed operations of one workload. */
struct Tally
{
    long attempted = 0;
    long failed = 0;
    /** Print the first failures to stderr (off for self-checks). */
    bool logFailures = true;

    /** Count one operation; @p what names it in the failure log. */
    void record(bool ok, const std::string &what);
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Metrics in the order they were set. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    const std::vector<Metric> &all() const { return list_; }
    void append(const Metrics &other);

  private:
    std::vector<Metric> list_;
};

/**
 * Modeled statistics (cycles, bytes, energy, latencies, losses,
 * bits/weight, effectual terms, image hashes) keyed by operation, with
 * every value printed exactly, so two commits compare key by key.
 */
class Digest
{
  public:
    void put(const std::string &key, double value);
    void putHex(const std::string &key, uint64_t value);
    const std::map<std::string, std::string> &entries() const
    {
        return entries_;
    }
    /** FNV-1a over the sorted "key=value" lines. */
    uint64_t hash() const;

  private:
    std::map<std::string, std::string> entries_;
};

/** FNV-1a 64 over raw bytes. */
uint64_t fnv1a(const void *data, size_t size,
               uint64_t h = 0xcbf29ce484222325ULL);

/** Everything one workload contributes to the run's output. */
struct WorkloadResult
{
    std::string name;
    bool probe = false;
    Tally tally;
    /** The workload's checker flagged a deliberately corrupted
     *  output as failed (checked on a scratch tally). */
    bool selfCheckDetected = false;
    std::vector<double> setupSamples;  //!< seconds per set-up
    Metrics endToEnd;
    Metrics perLayer;
    Digest digest;
    /** How many samples back each reported figure (for the doc and
     *  the result file). */
    std::map<std::string, std::string> samples;
};

/** Inputs every workload receives. */
struct RunSpec
{
    uint64_t seed = 1;
    bool traced = false;
    /** Run the reduced operation list that reports the metrics of a
     *  workload that is not the one under test. */
    bool probe = false;
};

/**
 * One workload of the closed loop: set up, then operations one at a
 * time (the driver interleaves the workloads of a run by time share),
 * then checks and metrics.
 */
class Workload
{
  public:
    Workload() = default;
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Build the inputs and warm the library.  The driver may set up
     *  several times to time it; the last set-up is the one used. */
    virtual void setup() = 0;
    /** Run the next operation. */
    virtual void step() = 0;
    /** Every operation kind has run at least once. */
    virtual bool passDone() const = 0;
    /** Self-check, metrics and, traced, the direct layer calls. */
    virtual void finish() = 0;

    WorkloadResult out;
};

std::unique_ptr<Workload> makeCalibMethods(const RunSpec &spec);
std::unique_ptr<Workload> makePackStream(const RunSpec &spec);
std::unique_ptr<Workload> makeDesignSweep(const RunSpec &spec);

/**
 * Tracing overhead of one operation: run @p op @p reps times with the
 * tracer off and on, alternating, and return the traced-minus-
 * untraced median as a percentage of the untraced median.
 */
double tracingOverheadPct(const std::function<void()> &op, int reps);

/** Stable per-purpose seed derived from the run seed. */
uint64_t deriveSeed(uint64_t seed, const char *purpose);

/** JSON string literal with escapes. */
std::string jsonString(const std::string &s);
/** Round-trip exact decimal ("%.17g"); non-finite values become null. */
std::string jsonNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
