/**
 * @file
 * VGFS: a UFS-style filesystem on the simulated SSD.
 *
 * On-disk layout (4 KB blocks):
 *   block 0              superblock
 *   blocks [1, 1+B)      data-block bitmap
 *   blocks [.., ..+I)    inode table (32 inodes per block)
 *   remainder            data blocks
 *
 * Inodes have 10 direct, one single-indirect and one double-indirect
 * block pointer (max file size ~ 4 GB + change). Directories are files
 * of fixed 64-byte entries. All metadata traffic goes through the
 * buffer cache and charges instrumented kernel work, which is what
 * makes file create/delete expensive under Virtual Ghost (Tables 3/4).
 */

#ifndef VG_KERNEL_FS_HH
#define VG_KERNEL_FS_HH

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/bcache.hh"

namespace vg::kern
{

/** Inode number; 0 is invalid, 1 is the root directory. */
using Ino = uint32_t;

/** File types. */
enum class FileType : uint16_t
{
    Free = 0,
    Regular = 1,
    Directory = 2,
};

/** stat() result. */
struct FileStat
{
    Ino ino = 0;
    FileType type = FileType::Free;
    uint64_t size = 0;
    uint16_t nlink = 0;
};

/** Error codes (subset of errno). */
enum class FsStatus
{
    Ok,
    NotFound,
    Exists,
    NotDir,
    IsDir,
    NoSpace,
    NotEmpty,
    Invalid,
};

const char *fsStatusName(FsStatus status);

/** The filesystem. */
class Fs
{
  public:
    Fs(BufferCache &cache, sim::SimContext &ctx, uint64_t disk_blocks);

    /** Format the device (destroys everything). */
    void mkfs();

    /** Attach to an already-formatted device whose directory blocks
     *  are all on the platter (no dirty cached copies). */
    bool mount();

    // --- Path operations ---------------------------------------------
    /** Resolve an absolute path. */
    FsStatus lookup(const std::string &path, Ino &out);

    /** Create a regular file (parent directories must exist). */
    FsStatus create(const std::string &path, Ino &out);

    FsStatus mkdir(const std::string &path, Ino &out);

    /** Remove a file (or an empty directory). */
    FsStatus unlink(const std::string &path);

    /** List names in a directory. */
    FsStatus readdir(Ino dir, std::vector<std::string> &names);

    // --- Inode operations --------------------------------------------
    FsStatus stat(Ino ino, FileStat &out);

    /** Read up to @p len bytes at @p off; returns bytes read. */
    int64_t read(Ino ino, uint64_t off, void *buf, uint64_t len);

    /** Write @p len bytes at @p off, growing the file; bytes written
     *  (short when the disk fills mid-write) or -1 on no-space or when
     *  @p ino is not a regular file (directories change only through
     *  their entries). */
    int64_t write(Ino ino, uint64_t off, const void *buf, uint64_t len);

    /** Truncate to zero length, freeing data blocks; IsDir for a
     *  directory. */
    FsStatus truncate(Ino ino);

    /** Flush the buffer cache. */
    void sync();

    uint64_t freeDataBlocks() const { return _freeBlocks; }

  private:
    struct Super
    {
        uint64_t magic;
        uint64_t nblocks;
        uint64_t bitmapStart;
        uint64_t bitmapBlocks;
        uint64_t inodeStart;
        uint64_t inodeBlocks;
        uint64_t dataStart;
    };

    struct DiskInode
    {
        uint16_t type;
        uint16_t nlink;
        uint32_t pad;
        uint64_t size;
        uint64_t direct[10];
        uint64_t indirect;
        uint64_t dindirect;
        uint64_t reserved[2];
    };
    static_assert(sizeof(DiskInode) == 128, "inode must be 128 bytes");

    struct DirEnt
    {
        uint32_t ino;
        uint16_t nameLen;
        char name[58];
    };
    static_assert(sizeof(DirEnt) == 64, "dirent must be 64 bytes");

    static constexpr uint64_t inodesPerBlock = 4096 / 128;
    static constexpr uint64_t ptrsPerBlock = 4096 / 8;
    static constexpr uint64_t direntsPerBlock = 4096 / sizeof(DirEnt);
    static constexpr uint64_t bitsPerBlock = 8 * 4096;
    static constexpr uint64_t magicValue = 0x56474653'2e313030ull;

    /** Where a directory scan ended: the entry it stopped at and that
     *  entry's block, or no entry when the scan ran to the end or
     *  (hole) hit an unmapped directory block. */
    struct DirScan
    {
        Buf *buf = nullptr;
        DirEnt *ent = nullptr;
        bool hole = false;
        /** First slot the scan did not reach. */
        uint64_t end = 0;
    };

    /** A scan stop past every slot: walk the whole directory. */
    static constexpr uint64_t noSlot = ~0ull;

    /**
     * Host-only index of one directory's slots (DESIGN §21): where
     * each live name sits and which slots are free, so a scan knows
     * where it stops before it starts. It mirrors the entries exactly;
     * the slots of an unmapped block are in neither set.
     */
    struct DirIndex
    {
        /** Live name -> slot. A name held twice (only a foreign image
         *  can) keeps both slots; the lowest is the one a walk finds. */
        std::unordered_multimap<std::string, uint64_t> names;
        std::set<uint64_t> free;

        /** The lowest slot holding @p name, or names.end(). */
        std::unordered_multimap<std::string, uint64_t>::iterator
        find(const std::string &name);
    };

    /** Instrumented work of @p n inode-table accesses, cache gets
     *  aside. */
    void
    chargeInodeAccesses(uint64_t n)
    {
        _ctx.chargeKernelWork(16 * n, 8 * n, n);
    }

    /** Instrumented work of @p n bmap calls, cache gets aside. */
    void
    chargeBmaps(uint64_t n)
    {
        _ctx.chargeKernelWork(8 * n, 4 * n, n);
    }

    /** Charge one inode-table access and fetch the block holding
     *  @p ino. */
    Buf *inodeBlock(Ino ino);
    DiskInode loadInode(Ino ino);
    void storeInode(Ino ino, const DiskInode &inode);

    /** Start both allocation cursors at the front (mkfs, mount). */
    void resetCursors();
    Ino allocInode(FileType type);
    void freeInode(Ino ino);

    std::optional<uint64_t> allocBlock();
    void freeBlock(uint64_t block);

    /** Map a file byte offset to a data block, allocating if asked. */
    std::optional<uint64_t> bmap(DiskInode &inode, uint64_t file_block,
                                 bool allocate);
    void freeFileBlocks(DiskInode &inode);

    /**
     * Walk the entries of directory @p inode in order up to and
     * including slot @p stop (noSlot: to the end), charging (@p insts,
     * @p memops) of instrumented work per entry scanned. The simulated
     * cost is the per-entry walk's; the host work is one bmap and one
     * cache get per block (DESIGN §21).
     */
    DirScan scanDir(DiskInode &inode, uint64_t insts, uint64_t memops,
                    uint64_t stop);

    /** The index of directory @p dir, whose inode is @p inode. One not
     *  indexed since mount is read off the platter first. */
    DirIndex &dirIndex(Ino dir, const DiskInode &inode);

    /** The disk block behind @p file_block of @p inode (0: unmapped),
     *  read off the platter with no charge and no cache traffic. */
    uint64_t rawBmap(const DiskInode &inode, uint64_t file_block);

    FsStatus dirLookup(Ino dir, const std::string &name, Ino &out);
    FsStatus dirAdd(Ino dir, const std::string &name, Ino target);
    FsStatus dirRemove(Ino dir, const std::string &name);
    bool dirEmpty(Ino dir);

    /** Split "/a/b/c" into parent path and final name. */
    static bool splitPath(const std::string &path, std::string &parent,
                          std::string &name);
    FsStatus resolve(const std::string &path, Ino &out);

    BufferCache &_cache;
    sim::SimContext &_ctx;
    sim::StatHandle _hCreates;
    sim::StatHandle _hUnlinks;
    sim::StatHandle _hBytesRead;
    sim::StatHandle _hBytesWritten;
    Super _super{};
    uint64_t _freeBlocks = 0;
    /** Every inode below this one is in use (DESIGN §21, "Allocation
     *  cursors"): only allocInode and freeInode change an inode's type. */
    uint64_t _inodeCursor = 1;
    /** Every data block below this one is in use: only allocBlock and
     *  freeBlock change a bitmap bit. */
    uint64_t _blockCursor = 0;
    bool _mounted = false;
    /** Every directory's index, by inode; exact from mkfs or mkdir, or
     *  built on first use after mount. */
    std::unordered_map<Ino, DirIndex> _dirs;
};

} // namespace vg::kern

#endif // VG_KERNEL_FS_HH
