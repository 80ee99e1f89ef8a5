/**
 * @file
 * Ghosting application runtime: the syscall wrapper library of S 6.
 *
 * Provides the conveniences the paper's 667-line wrapper library
 * provides: bounce buffers in traditional memory for syscall data and
 * encrypt-then-MAC file I/O under the application key. A ghosting
 * application's signal() is UserApi::installSignalHandler with
 * permit_with_sva set, which registers the handler with
 * sva.permitFunction before the kernel learns of it.
 */

#ifndef VG_GHOST_RUNTIME_HH
#define VG_GHOST_RUNTIME_HH

#include <optional>
#include <string>
#include <vector>

#include "crypto/drbg.hh"
#include "crypto/sealed.hh"
#include "ghost/gmalloc.hh"

namespace vg::ghost
{

/** Per-process ghosting runtime. */
class GhostRuntime
{
  public:
    explicit GhostRuntime(kern::UserApi &api);

    GhostHeap &heap() { return _heap; }

    /** The application key fetched via sva.getKey() at startup
     *  (nullopt when the process has no bound app binary). */
    const std::optional<crypto::AesKey> &appKey() const
    {
        return _appKey;
    }

    // --- bounce-buffered I/O -------------------------------------------
    /** Write host bytes to a file through a traditional-memory bounce
     *  buffer (the data is OS-visible, as intended for public data). */
    bool writeFile(const std::string &path,
                   const std::vector<uint8_t> &data);

    /** Read a whole file via the bounce buffer. */
    bool readFile(const std::string &path, std::vector<uint8_t> &out);

    // --- secure file I/O (S 3.3) ----------------------------------------
    /** Seal under the app key and write: confidentiality + integrity
     *  against the hostile OS. */
    bool writeSecureFile(const std::string &path,
                         const std::vector<uint8_t> &plain);

    /** Read + verify + decrypt; false on tampering. */
    bool readSecureFile(const std::string &path,
                        std::vector<uint8_t> &plain);

    // --- rollback-protected files (paper S 10 future work) -------------
    /**
     * Like writeSecureFile, but additionally binds the blob to a
     * fresh TPM monotonic counter value, so the hostile OS cannot
     * substitute an *older* (validly sealed) version of the file.
     * One counter per application: the latest versioned write is the
     * only one that verifies.
     */
    bool writeVersionedFile(const std::string &path,
                            const std::vector<uint8_t> &plain);

    /** Read a versioned file; false on tampering OR rollback. */
    bool readVersionedFile(const std::string &path,
                           std::vector<uint8_t> &plain);

    /** Store a secret into fresh ghost memory; returns its address. */
    hw::Vaddr stashSecret(const std::vector<uint8_t> &secret);

    /** Fetch @p len bytes of a ghost-resident secret. */
    std::vector<uint8_t> fetchSecret(hw::Vaddr va, uint64_t len);

  private:
    hw::Vaddr bounce(uint64_t len);

    /** Seal @p plain under the app key and write the wire bytes to
     *  @p path. A @p versioned file is bound to the application's
     *  next counter value. */
    bool sealToFile(const std::string &path,
                    const std::vector<uint8_t> &plain, bool versioned);

    /** Read @p path's wire bytes and open them in place under the app
     *  key; a @p versioned file must carry the counter's current
     *  value. A file too short to hold a nonce and MAC is refused
     *  before any cost is charged. */
    bool openFromFile(const std::string &path, std::vector<uint8_t> &plain,
                      bool versioned);

    kern::UserApi &_api;
    GhostHeap _heap;
    std::optional<crypto::AesKey> _appKey;
    crypto::CtrDrbg _rng;
    hw::Vaddr _bounceVa = 0;
    uint64_t _bounceLen = 0;
};

} // namespace vg::ghost

#endif // VG_GHOST_RUNTIME_HH
