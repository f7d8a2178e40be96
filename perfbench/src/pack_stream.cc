/**
 * @file
 * pack_stream: model-shaped weight matrices (Llama-2-7B block linears
 * at full input width; two packed images fit the 2 MiB per-core L2 and
 * one does not) in four datatypes.
 *
 *  - Write path, one operation per (matrix, datatype): quantize, pack
 *    into the byte-exact DRAM image, run the image through the memory
 *    controller (LZ4 + CRC, round trip verified).
 *  - Read path: stream the image through tileGemvInto K times with
 *    fresh activation vectors, trusted and then checked decode; each
 *    GEMV is one operation.
 *
 * All of the work is in quant, pack, mem, rel and pe; none is in the
 * linear algebra or the simulator.
 */

#include <cmath>
#include <cstring>

#include "common.hh"
#include "core/bitmod_api.hh"
#include "mem/mem_controller.hh"
#include "pe/pe_column.hh"
#include "tensor/generator.hh"

using namespace bitmod;

namespace perfbench
{

namespace
{

struct DtypeCase
{
    const char *name;
    QuantConfig cfg;
    int bitmodBits;  //!< 3/4 = quantize through bitmodQuantizeEncoded
};

QuantConfig
groupConfig(const Dtype &dt)
{
    QuantConfig c;
    c.dtype = dt;
    c.groupSize = 128;
    c.scaleBits = 8;
    c.captureEncoding = true;
    return c;
}

QuantConfig
bitmodCapture(int bits)
{
    QuantConfig c = bitmodConfig(bits);
    c.captureEncoding = true;
    return c;
}

std::vector<DtypeCase>
dtypeCases()
{
    return {{"bitmod_fp4", bitmodCapture(4), 4},
            {"bitmod_fp3", bitmodCapture(3), 3},
            {"int4_asym", groupConfig(dtypes::intAsym(4)), 0},
            {"olive4", groupConfig(dtypes::olive(4)), 0}};
}

struct Shape
{
    const char *name;  //!< Llama-2-7B block linear
    size_t rows;       //!< output channels taken (full input width)
};

// Images at 4 bits: q_proj 0.5 MiB and ffn_up 1.5 MiB fit a 2 MiB L2;
// ffn_down (11008 columns) is 4.1 MiB and does not.
const Shape kShapes[] = {{"q_proj", 256}, {"ffn_up", 768},
                         {"ffn_down", 768}};

struct Input
{
    std::string name;
    Matrix weights;
};

std::vector<Float16>
freshActs(size_t n, Rng &rng)
{
    std::vector<Float16> acts;
    acts.reserve(n);
    for (size_t i = 0; i < n; ++i)
        acts.emplace_back(static_cast<float>(rng.gaussian()));
    return acts;
}

/** Dequantized-weight reference GEMV (double accumulation), with each
 *  row's absolute dot-product magnitude sum_c |w_rc * a_c|. */
struct Reference
{
    std::vector<double> values, magnitude;
};

Reference
referenceGemv(const Matrix &dequant, const std::vector<Float16> &acts)
{
    std::vector<float> a(acts.size());
    for (size_t c = 0; c < acts.size(); ++c)
        a[c] = acts[c].toFloat();
    Reference ref;
    ref.values.resize(dequant.rows());
    ref.magnitude.resize(dequant.rows());
    for (size_t r = 0; r < dequant.rows(); ++r) {
        const float *w = dequant.data() + r * dequant.cols();
        double s = 0.0, m = 0.0;
        for (size_t c = 0; c < a.size(); ++c) {
            const double t = static_cast<double>(w[c]) * a[c];
            s += t;
            m += std::fabs(t);
        }
        ref.values[r] = s;
        ref.magnitude[r] = m;
    }
    return ref;
}

/**
 * The bit-serial pipeline and the double reference accumulate in
 * different orders, so each row may differ by rounding.  The error is
 * bounded against the row's magnitude sum_c |w_rc * a_c|, not against
 * |ref|: random rows cancel to |ref| far below their terms, where a
 * |ref|-relative bound fails on rounding alone.  Observed worst case
 * over all four datatypes: 3e-9 of the magnitude.
 */
bool
gemvMatches(const std::vector<double> &got, const Reference &ref)
{
    if (got.size() != ref.values.size())
        return false;
    for (size_t r = 0; r < got.size(); ++r)
        if (!(std::fabs(got[r] - ref.values[r]) <= 1e-6 * ref.magnitude[r]))
            return false;
    return true;
}

bool
bitIdentical(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

MemControllerConfig
controllerConfig(CompressorKind c, ProtectionScheme p)
{
    MemControllerConfig cfg;
    cfg.compressor = c;
    cfg.protection.scheme = p;
    cfg.burstBytes = 256;
    return cfg;
}

QuantizedTensor
quantize(const Matrix &w, const DtypeCase &d)
{
    return d.bitmodBits ? bitmodQuantizeEncoded(w, d.bitmodBits)
                        : quantizeMatrix(w, d.cfg);
}

/** Per-datatype accumulators of the traced counts. */
struct DtypeTotals
{
    KindTimes quantize, pack, gemv, checked;
    double weights = 0.0, imageBytes = 0.0;
    double lz4Raw = 0.0, lz4Stored = 0.0;
    double dotCycles = 0.0, effectualTerms = 0.0;
};

class PackStream : public Workload
{
  public:
    explicit PackStream(const RunSpec &spec)
        : spec_(spec), model_(llmByName("Llama-2-7B")),
          cases_(dtypeCases()),
          controller_(
              controllerConfig(CompressorKind::Lz4, ProtectionScheme::Crc)),
          lz4Only_(
              controllerConfig(CompressorKind::Lz4, ProtectionScheme::None)),
          protectOnly_(
              controllerConfig(CompressorKind::None, ProtectionScheme::Crc)),
          actRng_(deriveSeed(spec.seed, "pack.acts"))
    {
        out.name = "pack_stream";
        out.probe = spec.probe;
    }

    /** Generate the model-shaped weights and warm the worker pool,
     *  term tables and SIMD dispatch with one small stream. */
    void
    setup() override
    {
        inputs_.clear();
        Rng rng(deriveSeed(spec_.seed, "pack.weights"));
        const size_t shapes = spec_.probe ? 1 : std::size(kShapes);
        for (size_t s = 0; s < shapes; ++s)
            for (const LinearShape &ls : model_.blockLinears())
                if (ls.name == kShapes[s].name)
                    inputs_.push_back(
                        {ls.name, generateWeights(kShapes[s].rows,
                                                  ls.inFeatures,
                                                  model_.genParams, rng)});
        Rng warmRng(1);
        const Matrix warm =
            generateWeights(64, 1024, model_.genParams, warmRng);
        const auto warmActs = freshActs(1024, warmRng);
        for (const DtypeCase &d : cases_) {
            const auto q = quantize(warm, d);
            tileGemv(GroupPacker(d.cfg).packMatrix(q.encoded), d.cfg.dtype,
                     warmActs);
        }
    }

    /** One image: the write path, then K trusted + checked GEMVs. */
    void step() override;

    bool
    passDone() const override
    {
        return next_ >= inputs_.size() * cases_.size();
    }

    void finish() override;

  private:
    /** K GEMVs per image and decode mode. */
    size_t reads() const { return spec_.probe ? 2 : 3; }

    const RunSpec spec_;
    const LlmSpec &model_;
    const std::vector<DtypeCase> cases_;
    const MemController controller_, lz4Only_, protectOnly_;
    std::vector<Input> inputs_;
    Rng actRng_;
    size_t next_ = 0;

    KindTimes ingest_, gemv_, checked_;
    std::map<std::string, DtypeTotals> per_;
    double lz4Bytes_ = 0.0, lz4S_ = 0.0;
    double protectBytes_ = 0.0, protectS_ = 0.0;
    long corruptGroups_ = 0;
    PackedGemvResult trusted_, checkedOut_;
    Reference lastRef_;
};

void
PackStream::step()
{
    const size_t images = inputs_.size() * cases_.size();
    const bool first = next_ < images;
    const Input &in = inputs_[(next_ % images) / cases_.size()];
    const DtypeCase &d = cases_[next_ % cases_.size()];
    ++next_;
    const std::string kind = in.name + "/" + d.name;
    DtypeTotals &dt = per_[d.name];
    const double w = static_cast<double>(in.weights.size());

    // -- write path ------------------------------------------------------
    const auto t0 = Clock::now();
    QuantizedTensor q;
    {
        ScopedSpan span("quant.quantize");
        q = quantize(in.weights, d);
    }
    const auto t1 = Clock::now();
    PackedMatrix pm;
    {
        ScopedSpan span("quant.pack");
        pm = GroupPacker(d.cfg).packMatrix(q.encoded);
    }
    const auto t2 = Clock::now();
    StreamStats st;
    {
        ScopedSpan span("mem.controller");
        st = controller_.processStream(pm.bytes());
    }
    ingest_.add(kind, secondsSince(t0), w);
    dt.quantize.add(kind, std::chrono::duration<double>(t1 - t0).count(),
                    w);
    dt.pack.add(kind, std::chrono::duration<double>(t2 - t1).count(), w);
    out.tally.record(st.roundTripOk && st.rawBytes == pm.imageBytes(),
                     "pack_stream write " + kind);

    if (first) {
        const std::string key = "pack." + kind + ".";
        dt.weights += w;
        dt.imageBytes += static_cast<double>(pm.imageBytes());
        out.digest.put(key + "bits_per_weight", 8.0 * pm.imageBytes() / w);
        out.digest.put(key + "controller_stored_bytes",
                       static_cast<double>(st.storedBytes()));
        out.digest.putHex(key + "image_fnv",
                          fnv1a(pm.bytes().data(), pm.imageBytes()));
        // Modeled PE work: one term-skipping strip walk.
        PeConfig pc;
        pc.termSkip = true;
        const PeColumn column(pc);
        const auto acts = freshActs(in.weights.cols(), actRng_);
        const size_t depth = static_cast<size_t>(column.pesPerColumn());
        long long cycles = 0, terms = 0;
        for (size_t r0 = 0; r0 < pm.rows(); r0 += depth) {
            const auto strip =
                column.processStrip(pm, r0, std::min(depth, pm.rows() - r0),
                                    acts, d.cfg.dtype);
            cycles += strip.cycles;
            terms += strip.effectualTerms;
        }
        dt.dotCycles += static_cast<double>(cycles);
        dt.effectualTerms += static_cast<double>(terms);
        out.digest.put(key + "dot_cycles", static_cast<double>(cycles));
        out.digest.put(key + "effectual_terms", static_cast<double>(terms));
        if (spec_.traced) {
            auto ts = Clock::now();
            StreamStats ls;
            {
                ScopedSpan span("mem.lz4");
                ls = lz4Only_.processStream(pm.bytes());
            }
            lz4S_ += secondsSince(ts);
            lz4Bytes_ += static_cast<double>(pm.imageBytes());
            dt.lz4Raw += static_cast<double>(ls.rawBytes);
            dt.lz4Stored += static_cast<double>(ls.storedBytes());
            ts = Clock::now();
            {
                ScopedSpan span("rel.protect");
                protectOnly_.processStream(pm.bytes());
            }
            protectS_ += secondsSince(ts);
            protectBytes_ += static_cast<double>(pm.imageBytes());
        }
    }

    // -- read path -------------------------------------------------------
    for (size_t k = 0; k < reads(); ++k) {
        const auto acts = freshActs(in.weights.cols(), actRng_);
        const std::span<const Float16> actSpan{acts.data(), acts.size()};
        pm.setCheckedDecode(false);
        auto tg = Clock::now();
        {
            ScopedSpan span("pe.gemv");
            tileGemvInto(pm, d.cfg.dtype, actSpan, 0, trusted_);
        }
        const double gemvS = secondsSince(tg);
        gemv_.add(kind, gemvS, w);
        dt.gemv.add(kind, gemvS, w);
        lastRef_ = referenceGemv(q.dequant, acts);
        out.tally.record(gemvMatches(trusted_.values, lastRef_),
                         "pack_stream trusted gemv " + kind);
        if (first && k == 0)
            out.digest.putHex("pack." + kind + ".gemv_fnv",
                              fnv1a(trusted_.values.data(),
                                    trusted_.values.size() *
                                        sizeof(double)));

        pm.setCheckedDecode(true);
        tg = Clock::now();
        {
            ScopedSpan span("pe.checked_gemv");
            tileGemvInto(pm, d.cfg.dtype, actSpan, 0, checkedOut_);
        }
        const double checkedS = secondsSince(tg);
        checked_.add(kind, checkedS, w);
        dt.checked.add(kind, checkedS, w);
        corruptGroups_ += checkedOut_.corruptGroups;
        out.tally.record(bitIdentical(checkedOut_.values, trusted_.values) &&
                             checkedOut_.corruptGroups == 0 &&
                             checkedOut_.status == DecodeStatus::Ok,
                         "pack_stream checked gemv " + kind);
    }
}

void
PackStream::finish()
{
    Tally scratch;
    scratch.logFailures = false;
    std::vector<double> corrupted = trusted_.values;
    corrupted[0] += 1.0 + std::fabs(corrupted[0]);
    scratch.record(gemvMatches(corrupted, lastRef_), "corrupted gemv");
    out.selfCheckDetected = scratch.failed == 1;

    out.endToEnd.set("ingest_wps", ingest_.rate(), "weights/s");
    out.endToEnd.set("gemv_wps", gemv_.rate(), "weights/s");
    out.endToEnd.set("checked_gemv_wps", checked_.rate(), "weights/s");
    const std::string samples =
        std::to_string(ingest_.kinds()) + " images, >= " +
        std::to_string(ingest_.minSamplesPerKind()) + " writes and >= " +
        std::to_string(gemv_.minSamplesPerKind()) + " GEMVs each";
    out.samples["ingest_wps"] = samples;
    out.samples["gemv_wps"] = samples;
    out.samples["checked_gemv_wps"] = samples;

    if (!spec_.traced)
        return;
    for (const DtypeCase &d : cases_) {
        DtypeTotals &dt = per_[d.name];
        const std::string n = d.name;
        out.perLayer.set("quant.quantize_wps." + n, dt.quantize.rate(),
                         "weights/s");
        out.perLayer.set("quant.pack_wps." + n, dt.pack.rate(),
                         "weights/s");
        out.perLayer.set("pe.gemv_wps." + n, dt.gemv.rate(), "weights/s");
        out.perLayer.set("pe.checked_gemv_wps." + n, dt.checked.rate(),
                         "weights/s");
        out.perLayer.set("quant.bits_per_weight." + n,
                         8.0 * dt.imageBytes / dt.weights, "bits");
        out.perLayer.set("mem.lz4_ratio." + n, dt.lz4Raw / dt.lz4Stored,
                         "ratio");
        out.perLayer.set("pe.dot_cycles." + n, dt.dotCycles, "count");
        out.perLayer.set("pe.effectual_terms." + n, dt.effectualTerms,
                         "count");
    }
    out.perLayer.set("mem.lz4_Bps", lz4Bytes_ / lz4S_, "B/s");
    out.perLayer.set("rel.protect_Bps", protectBytes_ / protectS_, "B/s");
    out.perLayer.set("pe.corrupt_groups",
                     static_cast<double>(corruptGroups_), "count");

    if (!spec_.probe) {
        // Overhead of tracing one trusted GEMV of the largest image.
        const Input &in = inputs_.back();
        const DtypeCase &d = cases_.front();
        const auto q = quantize(in.weights, d);
        const PackedMatrix pm = GroupPacker(d.cfg).packMatrix(q.encoded);
        const auto acts = freshActs(in.weights.cols(), actRng_);
        PackedGemvResult res;
        out.perLayer.set(
            "trace.overhead_pct",
            tracingOverheadPct(
                [&] {
                    ScopedSpan span("pe.gemv");
                    tileGemvInto(pm, d.cfg.dtype,
                                 std::span<const Float16>{acts.data(),
                                                          acts.size()},
                                 0, res);
                },
                7),
            "%");
    }
}

} // namespace

std::unique_ptr<Workload>
makePackStream(const RunSpec &spec)
{
    return std::make_unique<PackStream>(spec);
}

} // namespace perfbench
