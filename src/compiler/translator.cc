#include "compiler/translator.hh"

#include <chrono>

#include "crypto/hmac.hh"
#include "vir/text.hh"
#include "vir/verifier.hh"

namespace vg::cc
{

Translator::Translator(const std::vector<uint8_t> &signing_key,
                       sim::SimContext &ctx)
    : _signer(signing_key), _ctx(ctx)
{}

crypto::Digest
Translator::sign(const MachineImage &image) const
{
    return _signer.mac(image.serializeForSigning());
}

bool
Translator::verifySignature(const MachineImage &image) const
{
    MachineImage unsigned_copy = image;
    unsigned_copy.signature = crypto::Digest{};
    crypto::Digest expect =
        _signer.mac(unsigned_copy.serializeForSigning());
    return crypto::digestEqual(expect, image.signature);
}

bool
Translator::gate(const MachineImage &image, TranslateResult &result)
{
    using Clock = std::chrono::steady_clock;
    auto wallNs = [](Clock::time_point t0) {
        return (uint64_t)std::chrono::duration_cast<
                   std::chrono::nanoseconds>(Clock::now() - t0)
            .count();
    };
    sim::StatSet &stats = _ctx.stats();

    if (_ctx.config().verifyMcode) {
        auto t0 = Clock::now();
        McodeVerifier verifier(McodePolicy::fromConfig(_ctx.config()));
        result.mverify = verifier.verify(image);
        uint64_t wall = wallNs(t0);
        stats.add("mverify.functions", result.mverify.functionsChecked);
        stats.add("mverify.insts", result.mverify.instsChecked);
        stats.add("mverify.findings", result.mverify.findings.size());
        stats.add("mverify.wall_ns", wall);
        if (!result.mverify.ok()) {
            result.error = "mcode verifier rejected module '" +
                           image.moduleName + "':\n" +
                           result.mverify.message();
            stats.add("translator.mverify_rejected");
            return false;
        }
    }

    // The confidentiality gate: prove ghost-derived data cannot reach
    // an OS-visible channel unsealed. Same contract as verifyMcode —
    // findings mean no signature, no cache entry, no install.
    if (_ctx.config().verifyIflow) {
        auto t0 = Clock::now();
        IflowVerifier verifier;
        result.iflow = verifier.verify(image);
        uint64_t wall = wallNs(t0);
        stats.add("iflow.functions", result.iflow.functionsChecked);
        stats.add("iflow.insts", result.iflow.instsChecked);
        stats.add("iflow.findings", result.iflow.findings.size());
        stats.add("iflow.wall_ns", wall);
        if (!result.iflow.ok()) {
            result.error = "iflow verifier rejected module '" +
                           image.moduleName + "':\n" +
                           result.iflow.message();
            stats.add("translator.iflow_rejected");
            return false;
        }
    }
    return true;
}

TranslateResult
Translator::translateText(const std::string &text, uint64_t code_base)
{
    // Cache key: hash of source + base + instrumentation flags.
    crypto::Sha256 h;
    h.update(text.data(), text.size());
    h.update(&code_base, sizeof(code_base));
    uint8_t flags = uint8_t((_ctx.config().sandboxMemory ? 1 : 0) |
                            (_ctx.config().cfi ? 2 : 0));
    h.update(&flags, 1);
    std::string key = crypto::toHex(h.final());

    auto it = _cache.find(key);
    if (it != _cache.end()) {
        TranslateResult r;
        r.ok = true;
        r.image = it->second;
        r.fromCache = true;
        _cacheHits++;
        _ctx.stats().add("translator.cache_hits");
        return r;
    }

    vir::ParseResult parsed = vir::parse(text);
    if (!parsed.ok) {
        TranslateResult r;
        r.error = "parse error: " + parsed.error;
        return r;
    }

    TranslateResult r = translateModule(std::move(parsed.module),
                                        code_base);
    if (r.ok)
        _cache[key] = r.image;
    return r;
}

TranslateResult
Translator::translateModule(vir::Module mod, uint64_t code_base)
{
    TranslateResult result;

    vir::VerifyResult verified = vir::verify(mod);
    if (!verified.ok()) {
        result.error = "verifier rejected module:\n" + verified.message();
        _ctx.stats().add("translator.rejected");
        return result;
    }

    bool instrumented = _ctx.config().anyInstrumentation();
    if (_ctx.config().sandboxMemory)
        result.sandboxStats = sandboxPass(mod);

    std::vector<LoweredFunc> lowered;
    lowered.reserve(mod.functions.size());
    for (const auto &fn : mod.functions) {
        LoweredFunc lf = lowerFunction(fn);
        if (_ctx.config().sandboxMemory) {
            PassStats s = fuseSandboxPass(lf.code);
            result.fuseStats.sitesInstrumented += s.sitesInstrumented;
            result.fuseStats.instsRemoved += s.instsRemoved;
        }
        if (_ctx.config().cfi) {
            PassStats s = cfiPass(lf.code);
            result.cfiStats.sitesInstrumented += s.sitesInstrumented;
            result.cfiStats.instsAdded += s.instsAdded;
        }
        lowered.push_back(std::move(lf));
    }

    auto image = std::make_shared<MachineImage>(
        layoutImage(mod.name, std::move(lowered), code_base));
    image->instrumented = instrumented;

    if (_postLayoutHook)
        _postLayoutHook(*image);

    // The load-time gate: nothing gets signed (and therefore nothing
    // gets installed) unless the verifiers can prove the instrumentation
    // and confidentiality invariants on the final bytes. This is what
    // makes the passes above untrusted.
    if (!gate(*image, result))
        return result;

    image->signature = sign(*image);

    _ctx.stats().add("translator.modules");
    _ctx.stats().add("translator.insts_emitted", image->code.size());

    result.ok = true;
    result.image = std::move(image);
    return result;
}

} // namespace vg::cc
