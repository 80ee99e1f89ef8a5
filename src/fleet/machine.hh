/**
 * @file
 * One fleet machine: a whole simulated Virtual Ghost system plus the
 * epoch-granular serving driver the fabric steps it by.
 *
 * Each machine is an independent clock/stat domain (its own
 * SimContext, PhysMem, CpuSet, SvaVm, kernel, disk, NICs). The fleet
 * advances a machine by handing it one *epoch batch* of requests:
 * serveEpoch() runs a single kernel session that forks one
 * event-driven thttpdMulti server per vCPU, a ghost worker per tenant
 * that has traffic this epoch (execve of the tenant's signed binary,
 * key delivery via sva.getKey, ghost working-set churn — the thing
 * that drives PR 8's swap under fleet-induced memory pressure), and
 * pipelined client workers that hold many connections open
 * concurrently. Everything inside the machine is deterministic, so a
 * machine's entire life is a pure function of the batches it is fed.
 */

#ifndef VG_FLEET_MACHINE_HH
#define VG_FLEET_MACHINE_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet/tenant.hh"
#include "kernel/system.hh"

namespace vg::fleet
{

/** Deterministic per-tenant ghost fill byte (key-derived, so the
 *  disclosure tests can recompute what a tenant wrote and scan a lost
 *  machine's disk and RAM for it). */
uint8_t ghostPatternByte(const crypto::AesKey &key, uint64_t page,
                         uint64_t i);

/** One request as routed to a machine. */
struct MachineRequest
{
    uint64_t id = 0;       ///< fleet-global request id
    unsigned tenant = 0;
    uint64_t arrivalUs = 0; ///< fleet-time arrival (for latency math)
};

/** One request's in-machine outcome. */
struct ServedRequest
{
    uint64_t id = 0;
    unsigned tenant = 0;
    uint64_t arrivalUs = 0; ///< copied through from the request
    uint64_t bytes = 0;
    bool ok = false;
    /** connect() to last response byte, on the issuing client's
     *  clock. */
    uint64_t serviceCycles = 0;
};

/** One epoch's outcome. */
struct EpochResult
{
    std::vector<ServedRequest> served;
    /** Machine-time cycles the epoch took (max over vCPU clocks). */
    uint64_t elapsedCycles = 0;
    /** Ghost-tenant worker failures (key refused, data corrupt). */
    uint64_t tenantFailures = 0;
};

/** Per-epoch serving knobs (from FleetConfig). */
struct EpochKnobs
{
    /** Client pipeline depth per vCPU worker. */
    unsigned concurrency = 64;
    /** Server connection-slot cap. */
    unsigned serverSlots = 256;
    /** Ghost pages each tenant worker allocates and churns. */
    unsigned ghostPagesPerTenant = 16;
};

class Machine
{
  public:
    explicit Machine(const kern::SystemConfig &config);

    kern::System &sys() { return *_sys; }

    /** Boot the stack (once). */
    void boot();

    /** Plant @p t's content file (every machine replicates every
     *  tenant's static content; only keys are per-machine state). */
    void plantContent(const Tenant &t, uint64_t file_bytes);

    /** Provision (or re-provision after a key-chain advance) @p t:
     *  package its signed binary with the current tenant key. */
    void provisionTenant(const Tenant &t);

    /** Tenants currently provisioned (their key generations). */
    const std::map<unsigned, uint64_t> &provisioned() const
    {
        return _tenantGen;
    }

    /** Serve one epoch batch. */
    EpochResult serveEpoch(const std::vector<MachineRequest> &batch,
                           const TenantDirectory &dir,
                           const EpochKnobs &knobs);

    /** Machine time (max over vCPU clocks), cycles. */
    uint64_t now() const;

    /** Full stat rollup (the per-machine bench/equivalence surface). */
    std::map<std::string, uint64_t> statsSnapshot() const;

  private:
    std::unique_ptr<kern::System> _sys;
    /** Tenant id -> signed binary packaged with that tenant's key. */
    std::map<unsigned, sva::AppBinary> _binaries;
    /** Tenant id -> key generation the binary was packaged at. */
    std::map<unsigned, uint64_t> _tenantGen;
};

} // namespace vg::fleet

#endif // VG_FLEET_MACHINE_HH
