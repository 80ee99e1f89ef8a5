/**
 * @file
 * The trusted translator: the only way code enters the kernel.
 *
 * Pipeline (S 4.2, S 5): parse VIR text -> verify -> sandbox pass (IR)
 * -> lower to machine code -> sandbox-mask fusion peephole (machine)
 * -> CFI pass (machine) -> layout -> machine-code safety verifier
 * (McodeVerifier: refuse images whose sandbox/CFI instrumentation
 * cannot be statically proven; VgConfig::verifyMcode) -> information
 * flow verifier (IflowVerifier: refuse images that can carry ghost
 * data to an OS-visible channel unsealed; VgConfig::verifyIflow) ->
 * sign the translation with the VM's HMAC key -> cache. Translations are looked
 * up by the SHA-256 of their source, so recompilation of unchanged
 * modules is free and tampered caches are detected via the signature.
 * Rejected translations are never signed and never cached.
 */

#ifndef VG_COMPILER_TRANSLATOR_HH
#define VG_COMPILER_TRANSLATOR_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/codegen.hh"
#include "compiler/iflow.hh"
#include "compiler/mcode.hh"
#include "compiler/mverify.hh"
#include "compiler/passes.hh"
#include "crypto/hmac.hh"
#include "sim/context.hh"
#include "vir/module.hh"

namespace vg::cc
{

/** Result of a translation request. */
struct TranslateResult
{
    bool ok = false;
    std::string error;
    std::shared_ptr<const MachineImage> image;
    PassStats sandboxStats;
    PassStats cfiStats;
    PassStats fuseStats;
    bool fromCache = false;

    /** Machine-code verifier report (populated when verifyMcode is on
     *  and the translation was not served from cache). */
    McodeVerifyResult mverify;

    /** Information-flow verifier report (populated when verifyIflow is
     *  on and the translation was not served from cache). */
    IflowResult iflow;
};

/** Ahead-of-time translator with a signed translation cache. */
class Translator
{
  public:
    /**
     * @param signing_key HMAC key owned by the SVA VM
     * @param ctx         simulation context (instrumentation flags)
     */
    Translator(const std::vector<uint8_t> &signing_key,
               sim::SimContext &ctx);

    /** Translate VIR text; code is placed at @p code_base. */
    TranslateResult translateText(const std::string &text,
                                  uint64_t code_base);

    /** Translate an already-parsed module (consumed by the passes). */
    TranslateResult translateModule(vir::Module mod, uint64_t code_base);

    /**
     * Verify an image's signature; the SVA VM refuses to execute
     * images that fail (S 4.5: no unsigned native code).
     */
    bool verifySignature(const MachineImage &image) const;

    /** Number of cache hits (stats / tests). */
    uint64_t cacheHits() const { return _cacheHits; }

    /**
     * Test-only: a hook run on each freshly laid-out image before the
     * machine-code verifier and signing. The fault-injection sweeps use
     * it to model a miscompiling pass pipeline and prove the verifier
     * (not the passes) is what keeps bad code out. Pass nullptr to
     * clear.
     */
    void
    setPostLayoutHook(std::function<void(MachineImage &)> hook)
    {
        _postLayoutHook = std::move(hook);
    }

  private:
    crypto::Digest sign(const MachineImage &image) const;

    /**
     * The load-time gate: run the machine-code verifier
     * (VgConfig::verifyMcode) and then the information-flow verifier
     * (VgConfig::verifyIflow) over @p image, recording stats and
     * reports in @p result. On a finding, sets result.error
     * ("<verifier> rejected module '<name>'") and returns false; the
     * caller must then neither sign nor cache.
     */
    bool gate(const MachineImage &image, TranslateResult &result);

    /** Precomputed HMAC pad states for the VM's signing key. */
    crypto::HmacSha256 _signer;
    sim::SimContext &_ctx;
    std::map<std::string, std::shared_ptr<const MachineImage>> _cache;
    uint64_t _cacheHits = 0;
    std::function<void(MachineImage &)> _postLayoutHook;
};

} // namespace vg::cc

#endif // VG_COMPILER_TRANSLATOR_HH
