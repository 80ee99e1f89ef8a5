/**
 * @file
 * Per-tenant ghost-key management at fleet scale.
 *
 * Every tenant is one ghosting application replicated across the
 * fleet: it owns a content path, a home (primary) machine, and a
 * key chain rooted in the fleet master key. Tenant keys are derived —
 * HMAC-SHA256(master, "vg-tenant-key" || id || generation) truncated
 * to an AES-128 key — never stored, so advancing the generation
 * (failover, scheduled rotation) revokes every previously-derived key
 * without touching the other tenants. The directory is the control
 * plane's view; the keys themselves only ever live inside each
 * machine's SvaVm once the tenant is provisioned there.
 */

#ifndef VG_FLEET_TENANT_HH
#define VG_FLEET_TENANT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/aes.hh"

namespace vg::fleet
{

/** One ghost tenant. */
struct Tenant
{
    unsigned id = 0;
    std::string name; ///< "tenant-007"
    std::string path; ///< served content, e.g. "/t/007.bin"

    /** Primary machine (consistent-hash anchor; failover moves it). */
    unsigned primary = 0;

    /** Key-chain position. Bumped on migration: every key derived for
     *  the pre-migration generation is dead fleet-wide. */
    uint64_t keyGeneration = 1;

    /** The current derived application key. */
    crypto::AesKey key{};

    uint64_t migrations = 0;
    uint64_t requestsServed = 0;
    uint64_t bytesServed = 0;
};

/** The fleet control plane's tenant table. */
class TenantDirectory
{
  public:
    TenantDirectory(const crypto::AesKey &master, unsigned tenants);

    Tenant &tenant(unsigned id) { return _tenants[id]; }
    const Tenant &tenant(unsigned id) const { return _tenants[id]; }
    std::vector<Tenant> &all() { return _tenants; }

    /** Derive tenant @p id's key at @p generation from the master. */
    crypto::AesKey deriveKey(unsigned id, uint64_t generation) const;

    /** Failover: move @p id's primary to @p new_machine, advance the
     *  key chain and re-derive. The old generation's key is dead. */
    void migrate(unsigned id, unsigned new_machine);

  private:
    std::vector<uint8_t> _master;
    std::vector<Tenant> _tenants;
};

} // namespace vg::fleet

#endif // VG_FLEET_TENANT_HH
