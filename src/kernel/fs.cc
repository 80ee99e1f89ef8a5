#include "kernel/fs.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/log.hh"

namespace vg::kern
{

namespace
{

bool
bitSet(const uint8_t *bits, uint64_t i)
{
    return bits[i / 8] & (1u << (i % 8));
}

uint64_t
word(const uint8_t *bits, uint64_t i)
{
    uint64_t w;
    std::memcpy(&w, bits + i / 8, sizeof(w));
    return w;
}

/** First clear bit of @p bits in [lo, hi), or hi if all are set. Full
 *  64-bit words are skipped whole. */
uint64_t
firstClearBit(const uint8_t *bits, uint64_t lo, uint64_t hi)
{
    for (uint64_t i = lo; i < hi; i++) {
        while (i % 64 == 0 && i + 64 <= hi && word(bits, i) == ~0ull)
            i += 64;
        if (i < hi && !bitSet(bits, i))
            return i;
    }
    return hi;
}

/** Number of set bits of @p bits in [lo, hi). */
uint64_t
countSetBits(const uint8_t *bits, uint64_t lo, uint64_t hi)
{
    uint64_t n = 0;
    uint64_t i = lo;
    for (; i < hi && i % 64; i++)
        n += bitSet(bits, i);
    for (; i + 64 <= hi; i += 64)
        n += std::popcount(word(bits, i));
    for (; i < hi; i++)
        n += bitSet(bits, i);
    return n;
}


} // namespace

const char *
fsStatusName(FsStatus status)
{
    switch (status) {
      case FsStatus::Ok:
        return "ok";
      case FsStatus::NotFound:
        return "not-found";
      case FsStatus::Exists:
        return "exists";
      case FsStatus::NotDir:
        return "not-a-directory";
      case FsStatus::IsDir:
        return "is-a-directory";
      case FsStatus::NoSpace:
        return "no-space";
      case FsStatus::NotEmpty:
        return "not-empty";
      case FsStatus::Invalid:
        return "invalid";
    }
    return "?";
}

Fs::Fs(BufferCache &cache, sim::SimContext &ctx, uint64_t disk_blocks)
    : _cache(cache), _ctx(ctx),
      _hCreates(ctx.stats().handle("fs.creates")),
      _hUnlinks(ctx.stats().handle("fs.unlinks")),
      _hBytesRead(ctx.stats().handle("fs.bytes_read")),
      _hBytesWritten(ctx.stats().handle("fs.bytes_written"))
{
    // Size the regions: ~1 inode per 8 data blocks, min 64 inodes.
    uint64_t inode_blocks =
        std::max<uint64_t>(2, disk_blocks / (8 * inodesPerBlock));
    uint64_t bitmap_blocks = (disk_blocks + 8 * 4096 - 1) / (8 * 4096);

    _super.magic = magicValue;
    _super.nblocks = disk_blocks;
    _super.bitmapStart = 1;
    _super.bitmapBlocks = bitmap_blocks;
    _super.inodeStart = 1 + bitmap_blocks;
    _super.inodeBlocks = inode_blocks;
    _super.dataStart = _super.inodeStart + inode_blocks;
}

void
Fs::mkfs()
{
    // Zero metadata regions.
    for (uint64_t b = 0; b < _super.dataStart; b++) {
        Buf *buf = _cache.get(b);
        std::memset(buf->data.data(), 0, buf->data.size());
        _cache.markDirty(buf);
    }

    // Superblock.
    Buf *sb = _cache.get(0);
    std::memcpy(sb->data.data(), &_super, sizeof(_super));
    _cache.markDirty(sb);

    _freeBlocks = _super.nblocks - _super.dataStart;
    _mounted = true;
    resetCursors();

    // Root directory (inode 1), empty.
    DiskInode root{};
    root.type = uint16_t(FileType::Directory);
    root.nlink = 1;
    storeInode(1, root);
    _dirs.clear();
    _dirs[1] = {};
    _cache.sync();
}

bool
Fs::mount()
{
    Buf *sb = _cache.get(0);
    Super on_disk{};
    std::memcpy(&on_disk, sb->data.data(), sizeof(on_disk));
    if (on_disk.magic != magicValue)
        return false;
    _super = on_disk;

    // Count free blocks from the bitmap, one cache block at a time;
    // the per-bit fetches after each block's first replay as hits.
    _freeBlocks = 0;
    for (uint64_t lo = _super.dataStart; lo < _super.nblocks;) {
        uint64_t base = lo - lo % bitsPerBlock;
        uint64_t hi = std::min(_super.nblocks, base + bitsPerBlock);
        Buf *bm = _cache.get(_super.bitmapStart + lo / bitsPerBlock);
        _cache.repeatHits(hi - lo - 1);
        _freeBlocks += hi - lo -
                       countSetBits(bm->data.data(), lo - base, hi - base);
        lo = hi;
    }
    _mounted = true;
    resetCursors(); // the image need not be the one this Fs last wrote
    _dirs.clear(); // each directory is indexed off the disk on first use
    return true;
}

// --------------------------------------------------------------------
// Inode table
// --------------------------------------------------------------------

Buf *
Fs::inodeBlock(Ino ino)
{
    chargeInodeAccesses(1);
    return _cache.get(_super.inodeStart + ino / inodesPerBlock);
}

Fs::DiskInode
Fs::loadInode(Ino ino)
{
    Buf *buf = inodeBlock(ino);
    DiskInode inode{};
    std::memcpy(&inode,
                buf->data.data() + (ino % inodesPerBlock) * 128,
                sizeof(inode));
    return inode;
}

void
Fs::storeInode(Ino ino, const DiskInode &inode)
{
    Buf *buf = inodeBlock(ino);
    std::memcpy(buf->data.data() + (ino % inodesPerBlock) * 128,
                &inode, sizeof(inode));
    _cache.markDirty(buf);
}

void
Fs::resetCursors()
{
    _inodeCursor = 1;
    _blockCursor = _super.dataStart;
}

Ino
Fs::allocInode(FileType type)
{
    // One real load per inode-table block; each later inode the
    // per-inode walk would have loaded from it replays in one charge.
    // The host reads types only from the cursor on: every inode below
    // it is in use.
    uint64_t max_ino = _super.inodeBlocks * inodesPerBlock;
    for (uint64_t first = 1; first < max_ino;) {
        uint64_t end = first - first % inodesPerBlock + inodesPerBlock;
        const uint8_t *slots = inodeBlock(Ino(first))->data.data();
        uint64_t ino = std::clamp<uint64_t>(_inodeCursor, first, end);
        for (; ino < end; ino++) {
            DiskInode inode;
            std::memcpy(&inode, slots + (ino % inodesPerBlock) * 128,
                        sizeof(inode));
            if (inode.type == uint16_t(FileType::Free))
                break;
        }
        uint64_t more = std::min(ino, end - 1) - first;
        chargeInodeAccesses(more);
        _cache.repeatHits(more);
        if (ino < end) {
            DiskInode fresh{};
            fresh.type = uint16_t(type);
            fresh.nlink = 1;
            storeInode(Ino(ino), fresh);
            _inodeCursor = ino + 1;
            return Ino(ino);
        }
        first = end;
    }
    _inodeCursor = max_ino;
    return 0;
}

void
Fs::freeInode(Ino ino)
{
    DiskInode inode{};
    storeInode(ino, inode);
    _inodeCursor = std::min<uint64_t>(_inodeCursor, ino);
}

// --------------------------------------------------------------------
// Block allocation
// --------------------------------------------------------------------

std::optional<uint64_t>
Fs::allocBlock()
{
    _ctx.chargeKernelWork(30, 16, 2);
    // One real get per bitmap block; every later bit the per-bit walk
    // would have fetched from that block replays as one cache hit. The
    // host searches only from the cursor on: every block below it is
    // in use.
    for (uint64_t lo = _super.dataStart; lo < _super.nblocks;) {
        uint64_t base = lo - lo % bitsPerBlock;
        uint64_t hi = std::min(_super.nblocks, base + bitsPerBlock);
        Buf *bm = _cache.get(_super.bitmapStart + lo / bitsPerBlock);
        uint64_t from = std::clamp(_blockCursor, lo, hi);
        uint64_t b =
            base + firstClearBit(bm->data.data(), from - base, hi - base);
        _cache.repeatHits(std::min(b, hi - 1) - lo);
        if (b < hi) {
            uint64_t bit = b - base;
            bm->data[bit / 8] |= uint8_t(1 << (bit % 8));
            _cache.markDirty(bm);
            _freeBlocks--;
            _blockCursor = b + 1;
            // Fresh blocks are zero-filled in the cache; no read.
            _cache.getZeroed(b);
            return b;
        }
        lo = hi;
    }
    _blockCursor = _super.nblocks;
    return std::nullopt;
}

void
Fs::freeBlock(uint64_t block)
{
    _ctx.chargeKernelWork(12, 6, 1);
    Buf *bm = _cache.get(_super.bitmapStart + block / bitsPerBlock);
    uint64_t bit = block % bitsPerBlock;
    bm->data[bit / 8] &= uint8_t(~(1 << (bit % 8)));
    _cache.markDirty(bm);
    _freeBlocks++;
    _blockCursor = std::min(_blockCursor, block);
}

// --------------------------------------------------------------------
// Block mapping
// --------------------------------------------------------------------

std::optional<uint64_t>
Fs::bmap(DiskInode &inode, uint64_t file_block, bool allocate)
{
    chargeBmaps(1);

    auto get_slot = [&](uint64_t *slot) -> std::optional<uint64_t> {
        if (*slot == 0) {
            if (!allocate)
                return std::nullopt;
            auto fresh = allocBlock();
            if (!fresh)
                return std::nullopt;
            *slot = *fresh;
        }
        return *slot;
    };

    if (file_block < 10)
        return get_slot(&inode.direct[file_block]);

    file_block -= 10;
    if (file_block < ptrsPerBlock) {
        auto ind = get_slot(&inode.indirect);
        if (!ind)
            return std::nullopt;
        Buf *buf = _cache.get(*ind);
        uint64_t *slots = reinterpret_cast<uint64_t *>(buf->data.data());
        uint64_t before = slots[file_block];
        auto result = get_slot(&slots[file_block]);
        if (slots[file_block] != before)
            _cache.markDirty(buf);
        return result;
    }

    file_block -= ptrsPerBlock;
    if (file_block < ptrsPerBlock * ptrsPerBlock) {
        auto dind = get_slot(&inode.dindirect);
        if (!dind)
            return std::nullopt;
        Buf *l1 = _cache.get(*dind);
        uint64_t *l1_slots =
            reinterpret_cast<uint64_t *>(l1->data.data());
        uint64_t idx1 = file_block / ptrsPerBlock;
        uint64_t before1 = l1_slots[idx1];
        auto mid = get_slot(&l1_slots[idx1]);
        if (l1_slots[idx1] != before1)
            _cache.markDirty(l1);
        if (!mid)
            return std::nullopt;
        Buf *l2 = _cache.get(*mid);
        uint64_t *l2_slots =
            reinterpret_cast<uint64_t *>(l2->data.data());
        uint64_t idx2 = file_block % ptrsPerBlock;
        uint64_t before2 = l2_slots[idx2];
        auto result = get_slot(&l2_slots[idx2]);
        if (l2_slots[idx2] != before2)
            _cache.markDirty(l2);
        return result;
    }
    return std::nullopt; // beyond max file size
}

void
Fs::freeFileBlocks(DiskInode &inode)
{
    for (uint64_t i = 0; i < 10; i++) {
        if (inode.direct[i]) {
            freeBlock(inode.direct[i]);
            inode.direct[i] = 0;
        }
    }
    if (inode.indirect) {
        Buf *buf = _cache.get(inode.indirect);
        uint64_t *slots = reinterpret_cast<uint64_t *>(buf->data.data());
        for (uint64_t i = 0; i < ptrsPerBlock; i++) {
            if (slots[i])
                freeBlock(slots[i]);
        }
        freeBlock(inode.indirect);
        inode.indirect = 0;
    }
    if (inode.dindirect) {
        Buf *l1 = _cache.get(inode.dindirect);
        std::vector<uint64_t> l1_copy(ptrsPerBlock);
        std::memcpy(l1_copy.data(), l1->data.data(), 4096);
        for (uint64_t i = 0; i < ptrsPerBlock; i++) {
            if (!l1_copy[i])
                continue;
            Buf *l2 = _cache.get(l1_copy[i]);
            uint64_t *slots =
                reinterpret_cast<uint64_t *>(l2->data.data());
            for (uint64_t j = 0; j < ptrsPerBlock; j++) {
                if (slots[j])
                    freeBlock(slots[j]);
            }
            freeBlock(l1_copy[i]);
        }
        freeBlock(inode.dindirect);
        inode.dindirect = 0;
    }
    inode.size = 0;
}

// --------------------------------------------------------------------
// Directories
// --------------------------------------------------------------------

std::unordered_multimap<std::string, uint64_t>::iterator
Fs::DirIndex::find(const std::string &name)
{
    auto [lo, hi] = names.equal_range(name);
    auto it = std::min_element(lo, hi, [](const auto &a, const auto &b) {
        return a.second < b.second;
    });
    return it == hi ? names.end() : it;
}

uint64_t
Fs::rawBmap(const DiskInode &inode, uint64_t file_block)
{
    auto ptr = [&](uint64_t table, uint64_t i) {
        uint64_t block = 0;
        if (table)
            std::memcpy(&block,
                        _cache.disk().rawBlock(table) + sizeof(block) * i,
                        sizeof(block));
        return block;
    };
    if (file_block < 10)
        return inode.direct[file_block];
    file_block -= 10;
    if (file_block < ptrsPerBlock)
        return ptr(inode.indirect, file_block);
    file_block -= ptrsPerBlock;
    if (file_block < ptrsPerBlock * ptrsPerBlock)
        return ptr(ptr(inode.dindirect, file_block / ptrsPerBlock),
                   file_block % ptrsPerBlock);
    return 0;
}

Fs::DirIndex &
Fs::dirIndex(Ino dir, const DiskInode &inode)
{
    auto [it, fresh] = _dirs.try_emplace(dir);
    DirIndex &index = it->second;
    if (!fresh)
        return index;
    // First use since mount. Only dirAdd and dirRemove write directory
    // blocks, and both index the directory first, so the platter still
    // holds these as mount found them.
    uint64_t entries = inode.size / sizeof(DirEnt);
    for (uint64_t first = 0; first < entries; first += direntsPerBlock) {
        uint64_t block = rawBmap(inode, first / direntsPerBlock);
        if (!block)
            continue; // a hole: every scan stops there
        const uint8_t *raw = _cache.disk().rawBlock(block);
        uint64_t last = std::min(first + direntsPerBlock, entries);
        for (uint64_t slot = first; slot < last; slot++) {
            DirEnt ent;
            std::memcpy(&ent, raw + (slot - first) * sizeof(DirEnt),
                        sizeof(ent));
            if (ent.ino == 0)
                index.free.insert(slot);
            else if (ent.nameLen <= sizeof(ent.name)) // else unnamable
                index.names.emplace(std::string(ent.name, ent.nameLen),
                                    slot);
        }
    }
    return index;
}

Fs::DirScan
Fs::scanDir(DiskInode &inode, uint64_t insts, uint64_t memops,
            uint64_t stop)
{
    uint64_t entries = inode.size / sizeof(DirEnt);
    for (uint64_t first = 0; first < entries; first += direntsPerBlock) {
        // The block's first entry is the real access: its work, its
        // bmap and its cache get land when the per-entry walk made
        // them, so any miss, writeback or stall stays put.
        uint64_t file_block = first / direntsPerBlock;
        _ctx.chargeKernelWork(insts, memops, 0);
        auto block = bmap(inode, file_block, false);
        if (!block)
            return {.hole = true, .end = first};
        Buf *buf = _cache.get(*block);
        uint64_t last = std::min(first + direntsPerBlock, entries);
        bool here = stop < last;
        // Every later entry of the block up to the stop reruns the
        // same bmap (its charge plus 0-2 indirect-block gets) and
        // data-block get, all hits: one linear charge stands for them.
        uint64_t more = (here ? stop + 1 : last) - first - 1;
        uint64_t depth = file_block < 10                 ? 0
                         : file_block < 10 + ptrsPerBlock ? 1
                                                          : 2;
        _ctx.chargeKernelWork(more * insts, more * memops);
        chargeBmaps(more);
        _cache.repeatHits(more * (1 + depth));
        if (here) {
            DirEnt *ents = reinterpret_cast<DirEnt *>(buf->data.data());
            return {.buf = buf, .ent = &ents[stop - first], .end = stop + 1};
        }
    }
    return {.end = entries};
}

FsStatus
Fs::dirLookup(Ino dir, const std::string &name, Ino &out)
{
    DiskInode inode = loadInode(dir);
    if (inode.type != uint16_t(FileType::Directory))
        return FsStatus::NotDir;

    // Each entry scanned is instrumented kernel work.
    DirIndex &index = dirIndex(dir, inode);
    auto it = index.find(name);
    DirScan scan = scanDir(inode, 7, 4,
                           it == index.names.end() ? noSlot : it->second);
    if (scan.hole)
        return FsStatus::Invalid;
    if (!scan.ent)
        return FsStatus::NotFound;
    out = scan.ent->ino;
    return FsStatus::Ok;
}

FsStatus
Fs::dirAdd(Ino dir, const std::string &name, Ino target)
{
    if (name.empty() || name.size() > 58)
        return FsStatus::Invalid;
    DiskInode inode = loadInode(dir);
    if (inode.type != uint16_t(FileType::Directory))
        return FsStatus::NotDir;

    DirEnt ent{};
    ent.ino = target;
    ent.nameLen = uint16_t(name.size());
    std::memcpy(ent.name, name.data(), name.size());

    // Reuse the lowest free slot if there is one.
    DirIndex &index = dirIndex(dir, inode);
    uint64_t slot = index.free.empty() ? noSlot : *index.free.begin();
    DirScan scan = scanDir(inode, 6, 3, slot);
    if (scan.hole)
        return FsStatus::Invalid;
    if (scan.ent) {
        *scan.ent = ent;
        _cache.markDirty(scan.buf);
        index.free.erase(slot);
        index.names.emplace(name, slot);
        return FsStatus::Ok;
    }

    // Append.
    uint64_t entries = inode.size / sizeof(DirEnt);
    auto block = bmap(inode, entries / direntsPerBlock, true);
    if (!block)
        return FsStatus::NoSpace;
    Buf *buf = _cache.get(*block);
    std::memcpy(buf->data.data() + (entries * sizeof(DirEnt)) % 4096,
                &ent, sizeof(ent));
    _cache.markDirty(buf);
    inode.size += sizeof(DirEnt);
    storeInode(dir, inode);
    index.names.emplace(name, entries);
    return FsStatus::Ok;
}

FsStatus
Fs::dirRemove(Ino dir, const std::string &name)
{
    DiskInode inode = loadInode(dir);
    if (inode.type != uint16_t(FileType::Directory))
        return FsStatus::NotDir;

    DirIndex &index = dirIndex(dir, inode);
    auto it = index.find(name);
    DirScan scan = scanDir(inode, 6, 3,
                           it == index.names.end() ? noSlot : it->second);
    if (scan.hole)
        return FsStatus::Invalid;
    if (!scan.ent)
        return FsStatus::NotFound;
    scan.ent->ino = 0;
    _cache.markDirty(scan.buf);
    index.free.insert(it->second);
    index.names.erase(it);
    return FsStatus::Ok;
}

bool
Fs::dirEmpty(Ino dir)
{
    DiskInode inode = loadInode(dir);
    // The scan stops at the first slot that is not free: a live entry,
    // or a hole, which ends it like the end of the directory does.
    uint64_t first_used = 0;
    for (uint64_t slot : dirIndex(dir, inode).free) {
        if (slot != first_used)
            break;
        first_used++;
    }
    return !scanDir(inode, 0, 0, first_used).ent;
}

// --------------------------------------------------------------------
// Paths
// --------------------------------------------------------------------

bool
Fs::splitPath(const std::string &path, std::string &parent,
              std::string &name)
{
    if (path.empty() || path[0] != '/')
        return false;
    size_t last = path.find_last_of('/');
    name = path.substr(last + 1);
    if (name.empty())
        return false;
    parent = last == 0 ? "/" : path.substr(0, last);
    return true;
}

FsStatus
Fs::resolve(const std::string &path, Ino &out)
{
    if (path.empty() || path[0] != '/')
        return FsStatus::Invalid;
    Ino cur = 1;
    size_t pos = 1;
    while (pos < path.size()) {
        size_t next = path.find('/', pos);
        if (next == std::string::npos)
            next = path.size();
        std::string comp = path.substr(pos, next - pos);
        if (!comp.empty()) {
            FsStatus s = dirLookup(cur, comp, cur);
            if (s != FsStatus::Ok)
                return s;
        }
        pos = next + 1;
    }
    out = cur;
    return FsStatus::Ok;
}

FsStatus
Fs::lookup(const std::string &path, Ino &out)
{
    return resolve(path, out);
}

FsStatus
Fs::create(const std::string &path, Ino &out)
{
    std::string parent_path, name;
    if (!splitPath(path, parent_path, name))
        return FsStatus::Invalid;
    Ino parent = 0;
    FsStatus s = resolve(parent_path, parent);
    if (s != FsStatus::Ok)
        return s;
    Ino existing = 0;
    if (dirLookup(parent, name, existing) == FsStatus::Ok)
        return FsStatus::Exists;

    Ino ino = allocInode(FileType::Regular);
    if (ino == 0)
        return FsStatus::NoSpace;
    s = dirAdd(parent, name, ino);
    if (s != FsStatus::Ok) {
        freeInode(ino);
        return s;
    }
    sim::StatSet::add(_hCreates);
    out = ino;
    return FsStatus::Ok;
}

FsStatus
Fs::mkdir(const std::string &path, Ino &out)
{
    std::string parent_path, name;
    if (!splitPath(path, parent_path, name))
        return FsStatus::Invalid;
    Ino parent = 0;
    FsStatus s = resolve(parent_path, parent);
    if (s != FsStatus::Ok)
        return s;
    Ino existing = 0;
    if (dirLookup(parent, name, existing) == FsStatus::Ok)
        return FsStatus::Exists;

    Ino ino = allocInode(FileType::Directory);
    if (ino == 0)
        return FsStatus::NoSpace;
    s = dirAdd(parent, name, ino);
    if (s != FsStatus::Ok) {
        freeInode(ino);
        return s;
    }
    _dirs[ino] = {};
    out = ino;
    return FsStatus::Ok;
}

FsStatus
Fs::unlink(const std::string &path)
{
    std::string parent_path, name;
    if (!splitPath(path, parent_path, name))
        return FsStatus::Invalid;
    Ino parent = 0;
    FsStatus s = resolve(parent_path, parent);
    if (s != FsStatus::Ok)
        return s;
    Ino ino = 0;
    s = dirLookup(parent, name, ino);
    if (s != FsStatus::Ok)
        return s;

    DiskInode inode = loadInode(ino);
    if (inode.type == uint16_t(FileType::Directory) && !dirEmpty(ino))
        return FsStatus::NotEmpty;

    s = dirRemove(parent, name);
    if (s != FsStatus::Ok)
        return s;
    freeFileBlocks(inode);
    freeInode(ino);
    _dirs.erase(ino);
    sim::StatSet::add(_hUnlinks);
    return FsStatus::Ok;
}

FsStatus
Fs::readdir(Ino dir, std::vector<std::string> &names)
{
    DiskInode inode = loadInode(dir);
    if (inode.type != uint16_t(FileType::Directory))
        return FsStatus::NotDir;
    // A hole ends the listing early.
    const DirIndex &index = dirIndex(dir, inode);
    uint64_t end = scanDir(inode, 6, 3, noSlot).end;
    std::vector<std::pair<uint64_t, const std::string *>> live;
    for (const auto &[name, slot] : index.names) {
        if (slot < end)
            live.emplace_back(slot, &name);
    }
    std::sort(live.begin(), live.end());
    for (const auto &[slot, name] : live)
        names.push_back(*name);
    return FsStatus::Ok;
}

FsStatus
Fs::stat(Ino ino, FileStat &out)
{
    DiskInode inode = loadInode(ino);
    if (inode.type == uint16_t(FileType::Free))
        return FsStatus::NotFound;
    out.ino = ino;
    out.type = FileType(inode.type);
    out.size = inode.size;
    out.nlink = inode.nlink;
    return FsStatus::Ok;
}

int64_t
Fs::read(Ino ino, uint64_t off, void *buf, uint64_t len)
{
    DiskInode inode = loadInode(ino);
    if (inode.type == uint16_t(FileType::Free))
        return -1;
    if (off >= inode.size)
        return 0;
    len = std::min(len, inode.size - off);
    _ctx.chargeKernelBulk(len);

    uint8_t *out = static_cast<uint8_t *>(buf);
    uint64_t done = 0;
    while (done < len) {
        uint64_t pos = off + done;
        auto block = bmap(inode, pos / 4096, false);
        uint64_t chunk = std::min(len - done, 4096 - pos % 4096);
        if (!block) {
            std::memset(out + done, 0, chunk); // hole
        } else {
            Buf *b = _cache.get(*block);
            std::memcpy(out + done, b->data.data() + pos % 4096, chunk);
        }
        done += chunk;
    }
    sim::StatSet::add(_hBytesRead, len);
    return int64_t(len);
}

int64_t
Fs::write(Ino ino, uint64_t off, const void *buf, uint64_t len)
{
    DiskInode inode = loadInode(ino);
    if (inode.type != uint16_t(FileType::Regular))
        return -1;
    _ctx.chargeKernelBulk(len);

    const uint8_t *in = static_cast<const uint8_t *>(buf);
    uint64_t done = 0;
    while (done < len) {
        uint64_t pos = off + done;
        auto block = bmap(inode, pos / 4096, true);
        if (!block)
            break;
        uint64_t chunk = std::min(len - done, 4096 - pos % 4096);
        Buf *b = _cache.get(*block);
        std::memcpy(b->data.data() + pos % 4096, in + done, chunk);
        _cache.markDirty(b);
        done += chunk;
    }
    // A short write on a full disk still records the blocks it
    // allocated and the bytes it placed.
    inode.size = std::max(inode.size, off + done);
    storeInode(ino, inode);
    if (done < len)
        return done ? int64_t(done) : -1;
    sim::StatSet::add(_hBytesWritten, len);
    return int64_t(len);
}

FsStatus
Fs::truncate(Ino ino)
{
    DiskInode inode = loadInode(ino);
    if (inode.type == uint16_t(FileType::Free))
        return FsStatus::NotFound;
    if (inode.type == uint16_t(FileType::Directory))
        return FsStatus::IsDir;
    freeFileBlocks(inode);
    storeInode(ino, inode);
    return FsStatus::Ok;
}

void
Fs::sync()
{
    _cache.sync();
}

} // namespace vg::kern
