/**
 * @file
 * calib_methods: the calibrated (output-space) loss of the Table XI
 * method set at 4 and 3 bits on one seeded Llama model's sampled
 * layers.  One operation is one ModelEvalContext::loss call.  This is
 * the host's slowest path and it is pure linear algebra plus
 * quantization: it never reaches the packer, the PE columns, accel or
 * serve.
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "common.hh"
#include "core/bitmod_api.hh"
#include "core/experiments.hh"
#include "methods/awq.hh"
#include "methods/gptq.hh"
#include "methods/omniquant.hh"
#include "methods/quarot.hh"
#include "model/proxy.hh"
#include "tensor/linalg.hh"

using namespace bitmod;

namespace perfbench
{

namespace
{

struct Method
{
    const char *name;
    QuantFn (*make)(int bits);
};

QuantConfig
withDtype(const Dtype &dt)
{
    QuantConfig c;
    c.dtype = dt;
    return c;
}

Dtype
bitmodDtype(int bits)
{
    return bits == 3 ? dtypes::bitmodFp3() : dtypes::bitmodFp4();
}

// Table XI's rows (QuaRot and GPTQ as weight-only baselines, AWQ and
// OmniQuant with their native INT-Asym quantizer and with BitMoD),
// plus plain BitMoD RTN in the deployment configuration.
const Method kMethods[] = {
    {"quarot",
     [](int b) { return quarotFn(withDtype(dtypes::intSym(b))); }},
    {"gptq", [](int b) { return gptqFn(withDtype(dtypes::intAsym(b))); }},
    {"awq", [](int b) { return awqFn(withDtype(dtypes::intAsym(b))); }},
    {"omniquant",
     [](int b) { return omniquantFn(withDtype(dtypes::intAsym(b))); }},
    {"bitmod_awq", [](int b) { return awqFn(withDtype(bitmodDtype(b))); }},
    {"bitmod_omniquant",
     [](int b) { return omniquantFn(withDtype(bitmodDtype(b))); }},
    {"rtn", [](int b) { return rtnQuantFn(bitmodConfig(b)); }},
};

const char *const kLlamaModels[] = {"Llama-2-7B", "Llama-2-13B",
                                    "Llama-3-8B"};

bool
lossOk(double loss)
{
    return std::isfinite(loss) && loss >= 0.0;
}

struct Op
{
    std::string kind;  //!< "<bits>b/<method>"
    std::string method;
    QuantFn fn;
};

class CalibMethods : public Workload
{
  public:
    explicit CalibMethods(const RunSpec &spec)
        : spec_(spec),
          model_(llmByName(
              kLlamaModels[deriveSeed(spec.seed, "calib.model") % 3])),
          scfg_(methodSweepConfig())
    {
        out.name = "calib_methods";
        out.probe = spec.probe;
        scfg_.seed = deriveSeed(spec.seed, "calib.sample");
        // The probe keeps every method but samples one 128-column
        // group per row at one precision: ~0.5 s per pass.
        if (spec.probe)
            scfg_.maxCols = 128;
        for (const int bits : spec.probe ? std::vector<int>{4}
                                         : std::vector<int>{4, 3})
            for (const Method &m : kMethods)
                ops_.push_back({std::to_string(bits) + "b/" + m.name,
                                m.name, m.make(bits)});
    }

    /** Sample the layers and their calibration activations and measure
     *  the two RTN anchors (what ModelEvalContext construction does). */
    void
    setup() override
    {
        ctx_.reset();
        ScopedSpan span("core.eval_context");
        ctx_ = std::make_unique<ModelEvalContext>(model_, scfg_, 1);
    }

    void
    step() override
    {
        const Op &op = ops_[next_ % ops_.size()];
        const QuantFn fn = instrument(op);
        const auto t0 = Clock::now();
        double loss = 0.0;
        {
            ScopedSpan span("core.loss");
            loss = ctx_->loss(fn);
        }
        evals_.add(op.kind, secondsSince(t0), 1.0);
        ++evalsPerMethod_[op.method];
        out.tally.record(lossOk(loss), "calib_methods " + op.kind +
                                           " loss " + jsonNumber(loss));
        if (next_ < ops_.size())
            out.digest.put("calib." + model_.name + "." + op.kind + ".loss",
                           loss);
        lastLoss_ = loss;
        ++next_;
        if (spec_.traced) {
            const QuantFn replay = [this](const EvalLayer &layer) {
                return captured_.at(layer.name);
            };
            ScopedSpan span("model.calibrated_loss");
            calibratedLoss(ctx_->layers(), replay);
        }
    }

    bool passDone() const override { return next_ >= ops_.size(); }

    void finish() override;

  private:
    /** Traced runs time each QuantFn call inside the loss and keep its
     *  output, so calibratedLoss can be replayed on the precomputed
     *  outputs alone. */
    QuantFn
    instrument(const Op &op)
    {
        if (!spec_.traced)
            return op.fn;
        const std::string span = "methods." + op.method;
        return [this, fn = op.fn, span](const EvalLayer &layer) {
            Matrix q;
            {
                ScopedSpan s(span);
                q = fn(layer);
            }
            captured_[layer.name] = q;
            return q;
        };
    }

    const RunSpec spec_;
    const LlmSpec &model_;
    SampleConfig scfg_;
    std::vector<Op> ops_;
    std::unique_ptr<ModelEvalContext> ctx_;
    std::map<std::string, Matrix> captured_;
    KindTimes evals_;
    std::map<std::string, size_t> evalsPerMethod_;
    double lastLoss_ = 0.0;
    size_t next_ = 0;
};

void
CalibMethods::finish()
{
    Tally scratch;
    scratch.logFailures = false;
    scratch.record(lossOk(-(lastLoss_ + 1.0)), "corrupted loss");
    out.selfCheckDetected = scratch.failed == 1;

    out.endToEnd.set("calib_evals_per_s", evals_.rate(), "1/s");
    out.samples["calib_evals_per_s"] =
        std::to_string(evals_.kinds()) + " evaluation kinds, >= " +
        std::to_string(evals_.minSamplesPerKind()) + " samples each (" +
        model_.name + ")";

    if (!spec_.traced)
        return;

    // Direct calls on this workload's layer shapes (the first two
    // layers; every sampled Llama layer has the same shape).
    {
        ScopedSpan span("model.sample");
        sampleModel(model_, scfg_);
    }
    double macs = 0.0;
    for (const EvalLayer &layer : ctx_->layers()) {
        const double k = static_cast<double>(layer.weights.rows());
        const double d = static_cast<double>(layer.weights.cols());
        macs += 2.0 * k * d * (d + 1.0);  // two quadraticForm calls
    }
    for (size_t l = 0; l < std::min<size_t>(2, ctx_->layers().size());
         ++l) {
        const EvalLayer &layer = ctx_->layers()[l];
        Matrix h;
        {
            ScopedSpan span("tensor.gram");
            h = gram(layer.calibration);
        }
        dampDiagonal(h, 0.01);
        {
            ScopedSpan span("tensor.quadratic_form");
            quadraticForm(layer.weights, h);
        }
        {
            ScopedSpan span("tensor.cholesky");
            cholesky(h);
        }
        {
            ScopedSpan span("tensor.inverse");
            spdInverse(h);
        }
    }

    const auto totals = tracer().totals();
    const auto perCallMs = [&](const std::string &name) {
        return 1e3 * meanSeconds(totals, name);
    };
    for (const Method &m : kMethods) {
        const auto it = totals.find(std::string("methods.") + m.name);
        const double ms = it == totals.end()
                              ? 0.0
                              : 1e3 * it->second.totalS /
                                    static_cast<double>(
                                        evalsPerMethod_[m.name]);
        out.perLayer.set(std::string("methods.") + m.name + "_ms", ms,
                         "ms");
    }
    out.perLayer.set("model.calibrated_loss_ms",
                     perCallMs("model.calibrated_loss"), "ms");
    for (const char *t : {"gram", "quadratic_form", "cholesky", "inverse"})
        out.perLayer.set(std::string("tensor.") + t + "_ms",
                         perCallMs(std::string("tensor.") + t), "ms");
    out.perLayer.set("tensor.quadratic_form_macs", macs, "count");
    out.perLayer.set("model.sample_ms", perCallMs("model.sample"), "ms");

    if (!spec_.probe) {
        const QuantFn fn = instrument(ops_.back());  // BitMoD RTN
        out.perLayer.set("trace.overhead_pct",
                         tracingOverheadPct(
                             [&] {
                                 ScopedSpan span("core.loss");
                                 ctx_->loss(fn);
                             },
                             2),
                         "%");
    }
}

} // namespace

std::unique_ptr<Workload>
makeCalibMethods(const RunSpec &spec)
{
    return std::make_unique<CalibMethods>(spec);
}

} // namespace perfbench
