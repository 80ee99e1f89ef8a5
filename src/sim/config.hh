/**
 * @file
 * Virtual Ghost protection-feature configuration.
 *
 * Each flag enables one of the protection mechanisms described in the
 * paper. The benchmark harnesses compare a native() configuration (all
 * protections off, modelling the stock FreeBSD kernel baseline) against
 * full() (the complete Virtual Ghost system); the ablation bench toggles
 * features individually.
 */

#ifndef VG_SIM_CONFIG_HH
#define VG_SIM_CONFIG_HH

namespace vg::sim
{

/** Which Virtual Ghost protections are compiled into / enforced on the
 *  simulated kernel. */
struct VgConfig
{
    /** Load/store sandboxing instrumentation on kernel code (S 4.3.1). */
    bool sandboxMemory = true;

    /** Control-flow integrity labels and checks on kernel code. */
    bool cfi = true;

    /**
     * Load-time machine-code verifier: statically prove, on every
     * translated image, that the sandboxing and CFI passes actually
     * instrumented the code (every load/store/memcpy address masked,
     * no raw returns or indirect calls, labels at all entries and
     * return sites) and refuse to install images that fail. Makes the
     * instrumentation passes untrusted: a miscompile is caught at load
     * time instead of silently voiding the protection story.
     */
    bool verifyMcode = true;

    /**
     * Load-time information-flow verifier: interprocedural taint
     * analysis over laid-out MCode proving that ghost-derived values
     * (loads through ghost pointers, ghost-reading intrinsics) only
     * reach OS-visible channels (NIC/disk/swap/stat/log externs, raw
     * stores into kernel-visible memory) after passing through a
     * seal/HMAC declassifier. Rules VG-IF-01..05; images with findings
     * are refused before signing/caching, same as verifyMcode.
     */
    bool verifyIflow = true;

    /** Run-time checks on MMU configuration intrinsics (S 4.3.2). */
    bool mmuChecks = true;

    /** IOMMU restrictions preventing DMA into ghost/SVA frames. */
    bool dmaProtection = true;

    /** Save Interrupt Contexts in SVA memory and zero registers on
     *  kernel entry (S 4.6). */
    bool protectInterruptContext = true;

    /** Refuse to execute unsigned native-code translations (S 4.5). */
    bool signedTranslations = true;

    /** Serve randomness from the trusted VM generator (S 4.7). */
    bool secureRng = true;

    /**
     * Deterministic-schedule seed. Everything in the simulator that
     * draws a "random" decision (fleet machine-step order, traffic
     * arrival times, tenant placement, bench workload shuffles) forks
     * its PRNG stream from this value, so a whole run — including a
     * whole-fleet run across many machines — is a pure function of
     * (workload, config, seed) and replays bit-identically.
     */
    uint64_t seed = 42;

    /**
     * Number of simulated vCPUs. Each vCPU owns a TLB, a timer, and a
     * cycle clock; a deterministic interleaver in the scheduler decides
     * which vCPU runs next. With vcpus == 1 the machine is stat- and
     * time-identical to the historical single-CPU model.
     */
    unsigned vcpus = 1;

    /** True when any instrumentation that affects codegen is active. */
    bool
    anyInstrumentation() const
    {
        return sandboxMemory || cfi;
    }

    /** The baseline: a stock kernel with no Virtual Ghost features. */
    static VgConfig
    native()
    {
        VgConfig c;
        c.sandboxMemory = false;
        c.cfi = false;
        c.mmuChecks = false;
        c.dmaProtection = false;
        c.protectInterruptContext = false;
        c.signedTranslations = false;
        c.secureRng = false;
        return c;
    }

    /** The complete Virtual Ghost configuration. */
    static VgConfig full() { return VgConfig{}; }
};

} // namespace vg::sim

#endif // VG_SIM_CONFIG_HH
