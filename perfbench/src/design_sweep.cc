/**
 * @file
 * design_sweep: the Fig. 7/8 and serving design-space exploration
 * through simulateDeployment, in two phases.
 *
 *  - One-shot: every accelerator x model x {discriminative,
 *    generative} x batch {1, 8, 32} x {Lossy, Lossless}, measured
 *    mode.  Lossy ANT and OliVe deploys run the (uncached) proxy
 *    quality gate in accel/policy.cc.
 *  - Serving: BitMoD (Lossy, Lossless) and Baseline-FP16 on
 *    Llama-2-7B, simulated open-loop Poisson arrivals at 0.5x, 0.9x
 *    and 1.5x a capacity calibrated in set-up, TP {1, 2, 4}, FCFS and
 *    admission control, compression off and on.
 *
 * Set-up fills the ProfileCache (every precision a deploy can select,
 * and the per-shard profiles of the serving points), measures the
 * memory controller's CompressionModel and calibrates capacity, so
 * the measured profiles are charged to setup_s.
 */

#include <cmath>
#include <memory>

#include "common.hh"
#include "core/bitmod_api.hh"
#include "mem/mem_controller.hh"
#include "model/traffic.hh"
#include "numeric/float16.hh"
#include "tensor/generator.hh"

using namespace bitmod;

namespace perfbench
{

namespace
{

struct AccelName
{
    const char *name;  //!< accelByName
    const char *key;   //!< metric suffix
};

const AccelName kAccels[] = {{"Baseline-FP16", "baseline_fp16"},
                             {"ANT", "ant"},
                             {"OliVe", "olive"},
                             {"BitMoD", "bitmod"}};

struct ServingConfig
{
    const char *key;
    const char *accel;
    Policy policy;
};

const ServingConfig kServing[] = {
    {"bitmod_lossy", "BitMoD", Policy::Lossy},
    {"bitmod_lossless", "BitMoD", Policy::Lossless},
    {"fp16", "Baseline-FP16", Policy::Lossy}};

const double kLoads[] = {0.5, 0.9, 1.5};
const char *const kLoadKeys[] = {"load0.5", "load0.9", "load1.5"};
const int kTps[] = {1, 2, 4};

/** Every quantizer configuration a deploy can select: the policy's
 *  candidates for each accelerator (the gate picks among them). */
std::vector<QuantConfig>
candidateConfigs()
{
    return {PrecisionChoice::bitmod(dtypes::bitmodFp3()).quantConfig,
            PrecisionChoice::bitmod(dtypes::bitmodFp4()).quantConfig,
            PrecisionChoice::bitmod(dtypes::intSym(6)).quantConfig,
            PrecisionChoice::perChannel(dtypes::flint(4)).quantConfig,
            PrecisionChoice::perChannel(dtypes::olive(4)).quantConfig,
            PrecisionChoice::perChannel(dtypes::intSym(8)).quantConfig};
}

bool
finite(double v)
{
    return std::isfinite(v);
}

bool
finiteTraffic(const MemoryTraffic &t)
{
    return finite(t.weightBytes) && finite(t.activationBytes) &&
           finite(t.kvBytes) && finite(t.interconnectBytes);
}

bool
finiteEnergy(const EnergyBreakdown &e)
{
    return finite(e.dramNj) && finite(e.bufferNj) && finite(e.coreNj) &&
           finite(e.interconnectNj);
}

bool
finiteLatency(const LatencySummary &l)
{
    return finite(l.p50) && finite(l.p95) && finite(l.p99) &&
           finite(l.mean) && finite(l.max);
}

/** Every field of a one-shot report is finite, and the run costs
 *  something. */
bool
reportOk(const DeploymentSummary &s)
{
    const RunReport &r = s.report;
    return finite(r.prefillCycles) && finite(r.decodeCycles) &&
           finite(r.prefillComputeCycles) && finite(r.prefillMemCycles) &&
           finite(r.decodeComputeCycles) && finite(r.decodeMemCycles) &&
           finite(r.decompressionCycles) && finiteEnergy(r.energy) &&
           finiteTraffic(r.traffic.prefill) &&
           finiteTraffic(r.traffic.decode) && r.totalCycles() > 0.0 &&
           finite(s.latencyMs()) && finite(s.energyMj());
}

/** A serving run accounts for every arrival and reports only finite
 *  figures. */
bool
servingOk(const DeploymentSummary &s, size_t requests)
{
    if (!reportOk(s) || !s.serving)
        return false;
    const ServingReport &r = *s.serving;
    return r.arrivals == requests &&
           r.completed + r.rejected == r.arrivals &&
           finiteLatency(r.ttftMs) && finiteLatency(r.tpotMs) &&
           finiteLatency(r.e2eMs) && finite(r.offeredRps) &&
           finite(r.achievedRps) && finite(r.tokensPerSec) &&
           finite(r.makespanMs) && finite(r.totalCycles) &&
           finite(r.meanQueueDepth) && finite(r.meanBatchOccupancy) &&
           finiteTraffic(r.traffic) && finiteEnergy(r.energy);
}

bool
sameLatency(const LatencySummary &a, const LatencySummary &b)
{
    return a.p50 == b.p50 && a.p95 == b.p95 && a.p99 == b.p99 &&
           a.mean == b.mean && a.max == b.max && a.count == b.count;
}

/** TP=1 sharded serving must equal the single-chip path exactly. */
bool
sameServing(const DeploymentSummary &a, const DeploymentSummary &b)
{
    const ServingReport &x = *a.serving, &y = *b.serving;
    return sameLatency(x.ttftMs, y.ttftMs) &&
           sameLatency(x.tpotMs, y.tpotMs) &&
           sameLatency(x.e2eMs, y.e2eMs) && x.steps == y.steps &&
           x.completed == y.completed && x.rejected == y.rejected &&
           x.totalCycles == y.totalCycles &&
           x.traffic.total() == y.traffic.total() &&
           x.energy.totalNj() == y.energy.totalNj() &&
           a.report.totalCycles() == b.report.totalCycles();
}

double
dramBytes(const MemoryTraffic &t)
{
    return t.total() - t.interconnectBytes;
}

std::vector<uint8_t>
int8Bytes(const Matrix &acts)
{
    std::vector<uint8_t> out;
    out.reserve(acts.size());
    for (size_t t = 0; t < acts.rows(); ++t) {
        float mx = 1e-12f;
        for (size_t c = 0; c < acts.cols(); ++c)
            mx = std::max(mx, std::fabs(acts(t, c)));
        for (size_t c = 0; c < acts.cols(); ++c)
            out.push_back(static_cast<uint8_t>(static_cast<int8_t>(
                std::lrintf(acts(t, c) * 127.0f / mx))));
    }
    return out;
}

std::vector<uint8_t>
fp16Bytes(const Matrix &acts)
{
    std::vector<uint8_t> out;
    out.reserve(2 * acts.size());
    for (const float x : acts.flat()) {
        const uint16_t h = Float16(x).bits();
        out.push_back(static_cast<uint8_t>(h & 0xff));
        out.push_back(static_cast<uint8_t>(h >> 8));
    }
    return out;
}

struct OneShot
{
    std::string kind;
    const AccelName *accel;
    DeployRequest request;
};

struct ServingPoint
{
    std::string kind;
    size_t config, load;
    int tp;
    bool compressed;
    SchedulerKind scheduler;
    DeployRequest request;
};

/** Per-load-point serving counts of the first pass. */
struct LoadCounts
{
    double steps = 0, completed = 0, rejected = 0, peakQueue = 0;
    double ttftP99 = 0, tpotP99 = 0;  //!< the reference point's p99s
};

class DesignSweep : public Workload
{
  public:
    explicit DesignSweep(const RunSpec &spec)
        : spec_(spec), servingModel_(llmByName("Llama-2-7B")),
          servingConfigs_(spec.probe ? 1 : std::size(kServing))
    {
        out.name = "design_sweep";
        out.probe = spec.probe;
        // The probe keeps one model at batch 1, the BitMoD Lossy
        // serving point and compression off.
        for (const LlmSpec &m : llmZoo())
            if (!spec.probe || m.name == servingModel_.name)
                models_.push_back(&m);
        batches_ = spec.probe ? std::vector<size_t>{1}
                              : std::vector<size_t>{1, 8, 32};
        compressionModes_ = spec.probe ? std::vector<bool>{false}
                                       : std::vector<bool>{false, true};
        pcfg_.seed = deriveSeed(spec.seed, "design.profile");
        base_.numRequests = 1024;
        base_.inTokens = 32;
        base_.inTokensMax = 128;
        base_.outTokens = 32;
        base_.seed = deriveSeed(spec.seed, "design.arrivals");
    }

    void setup() override;

    /** The two phases share the loop by host time, 70% one-shot and
     *  30% serving, so both sample the same stretch of host
     *  conditions. */
    void
    step() override
    {
        if (nServing_ >= points_.size() && nOneShot_ < oneShots_.size())
            runOneShot();
        else if (nOneShot_ >= oneShots_.size() &&
                 nServing_ < points_.size())
            runServing();
        else if (oneShotS_ * 0.3 <= servingS_ * 0.7)
            runOneShot();
        else
            runServing();
    }

    bool
    passDone() const override
    {
        return nOneShot_ >= oneShots_.size() && nServing_ >= points_.size();
    }

    void finish() override;

  private:
    /** The serving-model deployment behind one serving configuration. */
    PrecisionChoice
    servingPrecision(size_t config) const
    {
        const AccelConfig accel = accelByName(kServing[config].accel);
        return kServing[config].policy == Policy::Lossless
                   ? selectLosslessPrecision(accel)
                   : selectLossyPrecision(accel, servingModel_, true);
    }

    DeployRequest
    servingRequest(size_t config, int tp, bool compressed,
                   const ServingParams &sp) const
    {
        const ServingConfig &c = kServing[config];
        DeployRequest r(c.accel, servingModel_.name);
        r.with(c.policy).withServing(sp).withMeasured(cache_.get(), pcfg_);
        r.withSharding(tp);
        if (compressed)
            r.withCompression(compression_);
        return r;
    }

    void runOneShot();
    void runServing();

    const RunSpec spec_;
    const LlmSpec &servingModel_;
    const size_t servingConfigs_;
    std::vector<const LlmSpec *> models_;
    std::vector<size_t> batches_;
    std::vector<bool> compressionModes_;
    ProfileConfig pcfg_;
    ServingParams base_;

    // Set-up state.
    std::unique_ptr<ProfileCache> cache_;
    CompressionModel compression_;
    /** capacity[config][tp index][compressed] in requests/s. */
    double capacity_[3][3][2] = {};
    std::vector<OneShot> oneShots_;
    std::vector<ServingPoint> points_;
    size_t setups_ = 0;
    size_t hits0_ = 0, misses0_ = 0;

    // Loop state.
    size_t nOneShot_ = 0, nServing_ = 0;
    KindTimes deploys_, serving_;
    double oneShotS_ = 0.0, servingS_ = 0.0;
    std::map<std::string, size_t> gatedDeploys_;
    double modeledCycles_ = 0.0, modeledDram_ = 0.0, modeledEnergy_ = 0.0;
    LoadCounts loads_[3];
    double tpSeconds_[3] = {}, tpSteps_[3] = {}, interconnect_ = 0.0;
    DeploymentSummary last_;
};

/**
 * Fill a fresh ProfileCache with every precision a deploy can select
 * and the per-shard profiles of the serving points, measure the
 * controller's CompressionModel on generated streams, and calibrate
 * each serving configuration's capacity; then build the operation
 * lists.
 */
void
DesignSweep::setup()
{
    const bool first = setups_++ == 0;
    cache_ = std::make_unique<ProfileCache>();
    for (const LlmSpec *m : models_)
        for (const QuantConfig &cfg : candidateConfigs()) {
            ScopedSpan span("accel.profile");
            cache_->get(*m, cfg, pcfg_);
        }
    for (size_t c = 0; c < servingConfigs_; ++c) {
        const PrecisionChoice p = servingPrecision(c);
        if (p.weightDtype.kind == DtypeKind::Identity)
            continue;
        for (const int tp : kTps)
            if (tp > 1) {
                ScopedSpan span("sharding.shard_profile");
                measureShardedProfiles(servingModel_, p.quantConfig, pcfg_,
                                       tp, cache_.get());
            }
    }
    if (compressionModes_.size() > 1) {
        Rng rng(deriveSeed(spec_.seed, "design.streams"));
        const Matrix w = generateWeights(256, servingModel_.hiddenDim,
                                         servingModel_.genParams, rng);
        const PackedMatrix image = bitmodPackMatrix(w, 3);
        ActivationGenParams ap;
        const auto kv = int8Bytes(generateActivations(256, 128, ap, rng));
        const auto act = fp16Bytes(generateActivations(256, 128, ap, rng));
        MemControllerConfig mc;
        mc.compressor = CompressorKind::Lz4;
        mc.protection.scheme = ProtectionScheme::None;
        const MemController controller(mc);
        const StreamStats ws = controller.processStream(image.bytes());
        const StreamStats as = controller.processStream(act);
        const StreamStats ks = controller.processStream(kv);
        compression_ = compressionModelFrom(mc, ws, as, ks);
        if (first) {
            out.tally.record(ws.roundTripOk && as.roundTripOk &&
                                 ks.roundTripOk,
                             "design_sweep compression streams");
            out.digest.put("setup.compression.weight_ratio",
                           compression_.weightRatio);
            out.digest.put("setup.compression.activation_ratio",
                           compression_.activationRatio);
            out.digest.put("setup.compression.kv_ratio",
                           compression_.kvRatio);
        }
    }
    // Capacity: saturation throughput of a closed burst (every request
    // queued at cycle 0) under FCFS.
    for (size_t c = 0; c < servingConfigs_; ++c)
        for (size_t t = 0; t < std::size(kTps); ++t)
            for (const bool comp : compressionModes_) {
                ServingParams burst = base_;
                burst.arrivalRatePerSec = 0.0;
                const DeploymentSummary s = simulateDeployment(
                    servingRequest(c, kTps[t], comp, burst));
                capacity_[c][t][comp] = s.serving->achievedRps;
                if (first) {
                    out.tally.record(servingOk(s, base_.numRequests) &&
                                         s.serving->achievedRps > 0.0,
                                     "design_sweep capacity burst");
                    out.digest.put(std::string("setup.capacity_rps.") +
                                       kServing[c].key + ".tp" +
                                       std::to_string(kTps[t]) +
                                       (comp ? ".lz4" : ".raw"),
                                   capacity_[c][t][comp]);
                }
            }

    oneShots_.clear();
    for (const LlmSpec *m : models_)
        for (const AccelName &a : kAccels)
            for (const bitmod::Workload w : {bitmod::Workload::Discriminative,
                                              bitmod::Workload::Generative})
                for (const Policy p : {Policy::Lossy, Policy::Lossless})
                    for (const size_t b : batches_) {
                        DeployRequest r(a.name, m->name);
                        r.with(w).with(p).withBatch(b).withMeasured(
                            cache_.get(), pcfg_);
                        oneShots_.push_back(
                            {m->name + "." + a.key +
                                 (w == bitmod::Workload::Generative ? ".gen"
                                                            : ".disc") +
                                 (p == Policy::Lossy ? ".lossy"
                                                     : ".lossless") +
                                 ".b" + std::to_string(b),
                             &a, r});
                    }
    points_.clear();
    for (size_t c = 0; c < servingConfigs_; ++c)
        for (size_t t = 0; t < std::size(kTps); ++t)
            for (const SchedulerKind sk :
                 {SchedulerKind::Fcfs, SchedulerKind::AdmissionControl})
                for (const bool comp : compressionModes_)
                    for (size_t l = 0; l < std::size(kLoads); ++l) {
                        ServingParams sp = base_;
                        sp.scheduler = sk;
                        sp.arrivalRatePerSec =
                            kLoads[l] * capacity_[c][t][comp];
                        points_.push_back(
                            {std::string(kServing[c].key) + ".tp" +
                                 std::to_string(kTps[t]) + "." +
                                 schedulerName(sk) +
                                 (comp ? ".lz4." : ".raw.") + kLoadKeys[l],
                             c, l, kTps[t], comp, sk,
                             servingRequest(c, kTps[t], comp, sp)});
                    }
    hits0_ = cache_->hits();
    misses0_ = cache_->misses();
}

void
DesignSweep::runOneShot()
{
    const size_t i = nOneShot_++;
    const OneShot &op = oneShots_[i % oneShots_.size()];
    const auto t0 = Clock::now();
    DeploymentSummary s;
    {
        ScopedSpan span(std::string("core.deploy.") + op.accel->key);
        s = simulateDeployment(op.request);
    }
    const double secs = secondsSince(t0);
    deploys_.add(op.kind, secs, 1.0);
    oneShotS_ += secs;
    if (op.request.policy == Policy::Lossy &&
        (std::string(op.accel->key) == "ant" ||
         std::string(op.accel->key) == "olive"))
        ++gatedDeploys_[op.accel->key];
    out.tally.record(reportOk(s), "design_sweep deploy " + op.kind);
    if (i >= oneShots_.size())
        return;
    const std::string key = "deploy." + op.kind + ".";
    const RunReport &r = s.report;
    const double dram = dramBytes(r.traffic.total());
    out.digest.put(key + "cycles", r.totalCycles());
    out.digest.put(key + "dram_bytes", dram);
    out.digest.put(key + "energy_nj", r.energy.totalNj());
    out.digest.put(key + "weight_bits", s.precision.weightBitsPerElem);
    out.digest.put(key + "effectual_terms_per_weight",
                   s.precision.effectualTermsPerWeight);
    modeledCycles_ += r.totalCycles();
    modeledDram_ += dram;
    modeledEnergy_ += r.energy.totalNj();
}

void
DesignSweep::runServing()
{
    const size_t i = nServing_++;
    const ServingPoint &pt = points_[i % points_.size()];
    const auto t0 = Clock::now();
    DeploymentSummary s;
    {
        ScopedSpan span("core.serve.tp" + std::to_string(pt.tp));
        s = simulateDeployment(pt.request);
    }
    const double secs = secondsSince(t0);
    servingS_ += secs;
    bool ok = servingOk(s, base_.numRequests);
    if (pt.tp == 1 && ok) {
        DeployRequest single = pt.request;
        single.sharding.reset();
        ok = sameServing(s, simulateDeployment(single));
    }
    out.tally.record(ok, "design_sweep serving " + pt.kind);
    if (!s.serving)
        return;
    const ServingReport &r = *s.serving;
    serving_.add(pt.kind, secs, static_cast<double>(r.arrivals));
    const size_t ti = pt.tp == 1 ? 0 : pt.tp == 2 ? 1 : 2;
    tpSeconds_[ti] += secs;
    tpSteps_[ti] += static_cast<double>(r.steps);
    last_ = s;
    if (i >= points_.size())
        return;
    const std::string key = "serve." + pt.kind + ".";
    out.digest.put(key + "ttft_ms_p50", r.ttftMs.p50);
    out.digest.put(key + "ttft_ms_p99", r.ttftMs.p99);
    out.digest.put(key + "tpot_ms_p99", r.tpotMs.p99);
    out.digest.put(key + "e2e_ms_p99", r.e2eMs.p99);
    out.digest.put(key + "steps", static_cast<double>(r.steps));
    out.digest.put(key + "completed", static_cast<double>(r.completed));
    out.digest.put(key + "rejected", static_cast<double>(r.rejected));
    out.digest.put(key + "peak_queue_depth",
                   static_cast<double>(r.peakQueueDepth));
    out.digest.put(key + "total_cycles", r.totalCycles);
    out.digest.put(key + "energy_nj", r.energy.totalNj());
    out.digest.put(key + "dram_bytes", dramBytes(r.traffic));
    out.digest.put(key + "interconnect_bytes", r.traffic.interconnectBytes);
    LoadCounts &lc = loads_[pt.load];
    lc.steps += static_cast<double>(r.steps);
    lc.completed += static_cast<double>(r.completed);
    lc.rejected += static_cast<double>(r.rejected);
    lc.peakQueue =
        std::max(lc.peakQueue, static_cast<double>(r.peakQueueDepth));
    interconnect_ += r.traffic.interconnectBytes;
    if (pt.config == 0 && pt.tp == 1 && !pt.compressed &&
        pt.scheduler == SchedulerKind::Fcfs) {
        lc.ttftP99 = r.ttftMs.p99;
        lc.tpotP99 = r.tpotMs.p99;
    }
}

void
DesignSweep::finish()
{
    const size_t hits = cache_->hits() - hits0_;
    const size_t lookups = hits + cache_->misses() - misses0_;

    Tally scratch;
    scratch.logFailures = false;
    DeploymentSummary corrupted = last_;
    if (corrupted.serving)
        ++corrupted.serving->completed;  // one more than arrived
    scratch.record(servingOk(corrupted, base_.numRequests),
                   "corrupted serving");
    out.selfCheckDetected = scratch.failed == 1;

    out.endToEnd.set("deploys_per_s", deploys_.rate(), "1/s");
    out.endToEnd.set("serve_sim_rps", serving_.rate(), "requests/s");
    out.samples["deploys_per_s"] =
        std::to_string(deploys_.kinds()) + " deploy kinds, >= " +
        std::to_string(deploys_.minSamplesPerKind()) + " samples each";
    out.samples["serve_sim_rps"] =
        std::to_string(serving_.kinds()) + " serving points, >= " +
        std::to_string(serving_.minSamplesPerKind()) + " samples each, " +
        std::to_string(base_.numRequests) + " requests per point";
    out.samples["serve.modeled_*_p99"] =
        "nearest-rank p99 over " + std::to_string(base_.numRequests) +
        " requests of the bitmod_lossy tp1 fcfs raw point";

    if (!spec_.traced)
        return;

    // Direct calls into the layers a deploy goes through.
    std::map<std::string, PrecisionChoice> lossy;
    for (const LlmSpec *m : models_)
        for (const AccelName &a : kAccels) {
            const AccelConfig accel = accelByName(a.name);
            ScopedSpan span(std::string("accel.policy.") + a.key);
            lossy[m->name + a.key] = selectLossyPrecision(accel, *m, true);
        }
    for (const LlmSpec *m : models_)
        for (const AccelName &a : kAccels) {
            const AccelConfig accel = accelByName(a.name);
            const AccelSim sim(accel);
            for (const bool lossless : {false, true}) {
                PrecisionChoice p = lossless
                                        ? selectLosslessPrecision(accel)
                                        : lossy[m->name + a.key];
                if (p.weightDtype.kind != DtypeKind::Identity)
                    p.applyProfile(cache_->get(*m, p.quantConfig, pcfg_));
                for (const size_t b : batches_) {
                    TaskSpec task = TaskSpec::generative();
                    task.batchSize = b;
                    {
                        ScopedSpan span("model.phase_traffic");
                        computePhaseTraffic(*m, task, p.spec());
                    }
                    ScopedSpan span("accel.run");
                    sim.run(*m, task, p);
                }
            }
        }
    for (size_t c = 0; c < servingConfigs_; ++c) {
        const AccelConfig accel = accelByName(kServing[c].accel);
        const PrecisionChoice p = servingPrecision(c);
        for (const int tp : kTps) {
            ShardingConfig scfg;
            scfg.tpDegree = tp;
            const ShardedSim ssim(
                AccelSim(accel), scfg,
                buildShardLanes(servingModel_, p, scfg,
                                p.weightDtype.kind != DtypeKind::Identity,
                                pcfg_, cache_.get()));
            ScopedSpan span("sharding.run");
            ssim.run(servingModel_, TaskSpec::generative());
        }
    }

    const auto totals = tracer().totals();
    const auto perCall = [&](const std::string &name, double scale) {
        return scale * meanSeconds(totals, name);
    };
    // Share of the one-shot phase's host time spent in the quality
    // gate: every lossy ANT/OliVe deploy runs it once.
    double gateS = 0.0;
    for (const auto &[accelKey, gated] : gatedDeploys_)
        gateS += perCall(std::string("accel.policy.") + accelKey, 1.0) *
                 static_cast<double>(gated);
    out.perLayer.set("accel.policy_share",
                     oneShotS_ > 0.0 ? gateS / oneShotS_ : 0.0, "ratio");
    for (const AccelName &a : kAccels) {
        out.perLayer.set(std::string("accel.policy_ms.") + a.key,
                         perCall(std::string("accel.policy.") + a.key, 1e3),
                         "ms");
        out.perLayer.set(std::string("core.deploy_us.") + a.key,
                         perCall(std::string("core.deploy.") + a.key, 1e6),
                         "us");
    }
    out.perLayer.set("accel.run_us", perCall("accel.run", 1e6), "us");
    out.perLayer.set("sharding.run_us", perCall("sharding.run", 1e6), "us");
    out.perLayer.set("model.phase_traffic_us",
                     perCall("model.phase_traffic", 1e6), "us");
    out.perLayer.set("accel.profile_cache_hit_ratio",
                     lookups > 0 ? static_cast<double>(hits) / lookups : 0.0,
                     "ratio");
    for (size_t t = 0; t < std::size(kTps); ++t)
        out.perLayer.set("serve.step_ns.tp" + std::to_string(kTps[t]),
                         tpSteps_[t] > 0.0
                             ? 1e9 * tpSeconds_[t] / tpSteps_[t]
                             : 0.0,
                         "ns");
    out.perLayer.set("accel.profile_ms", perCall("accel.profile", 1e3),
                     "ms");
    out.perLayer.set("sharding.shard_profile_ms",
                     perCall("sharding.shard_profile", 1e3), "ms");
    for (size_t l = 0; l < std::size(kLoads); ++l) {
        const std::string suffix = std::string(".") + kLoadKeys[l];
        out.perLayer.set("serve.steps" + suffix, loads_[l].steps, "count");
        out.perLayer.set("serve.completed" + suffix, loads_[l].completed,
                         "count");
        out.perLayer.set("serve.rejected" + suffix, loads_[l].rejected,
                         "count");
        out.perLayer.set("serve.peak_queue_depth" + suffix,
                         loads_[l].peakQueue, "count");
        out.perLayer.set("serve.modeled_ttft_ms_p99" + suffix,
                         loads_[l].ttftP99, "ms");
        out.perLayer.set("serve.modeled_tpot_ms_p99" + suffix,
                         loads_[l].tpotP99, "ms");
    }
    out.perLayer.set("accel.modeled_cycles", modeledCycles_, "count");
    out.perLayer.set("accel.modeled_dram_bytes", modeledDram_, "B");
    out.perLayer.set("accel.modeled_energy_nj", modeledEnergy_, "nJ");
    out.perLayer.set("sharding.interconnect_bytes", interconnect_, "B");

    if (!spec_.probe) {
        // Overhead of tracing the TP=4 serving points (~ms each).
        out.perLayer.set("trace.overhead_pct",
                         tracingOverheadPct(
                             [&] {
                                 for (const ServingPoint &pt : points_)
                                     if (pt.tp == 4) {
                                         ScopedSpan span("core.serve.tp4");
                                         simulateDeployment(pt.request);
                                     }
                             },
                             3),
                         "%");
    }
}

} // namespace

std::unique_ptr<Workload>
makeDesignSweep(const RunSpec &spec)
{
    return std::make_unique<DesignSweep>(spec);
}

} // namespace perfbench
