/**
 * @file
 * VGFS and buffer-cache tests (directly over the simulated disk).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "golden.hh"
#include "kernel/fs.hh"
#include "kernel/system.hh"

using namespace vg;
using namespace vg::kern;

namespace
{

struct Rig
{
    sim::SimContext ctx;
    hw::PhysMem mem{16};
    hw::Iommu iommu{mem, ctx};
    hw::Disk disk{4096, iommu, ctx}; // 16 MB
    BufferCache cache{disk, ctx, 512};
    Fs fs{cache, ctx, 4096};

    Rig() { fs.mkfs(); }
};

} // namespace

TEST(Bcache, HitsAndMisses)
{
    sim::SimContext ctx;
    hw::PhysMem mem(16);
    hw::Iommu iommu(mem, ctx);
    hw::Disk disk(128, iommu, ctx);
    BufferCache cache(disk, ctx, 4);

    cache.get(1);
    cache.get(1);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    // Evict with a small cache.
    cache.get(2);
    cache.get(3);
    cache.get(4);
    cache.get(5);
    cache.get(1); // evicted by now
    EXPECT_GE(cache.misses(), 5u);
}

TEST(Bcache, WritebackPersists)
{
    sim::SimContext ctx;
    hw::PhysMem mem(16);
    hw::Iommu iommu(mem, ctx);
    hw::Disk disk(128, iommu, ctx);
    {
        BufferCache cache(disk, ctx, 4);
        Buf *b = cache.get(7);
        b->data[0] = 0x99;
        cache.markDirty(b);
        cache.sync();
    }
    EXPECT_EQ(disk.rawBlock(7)[0], 0x99);
}

namespace
{

/** A cache over its own 128-block disk. */
struct CacheRig
{
    sim::SimContext ctx;
    hw::PhysMem mem{16};
    hw::Iommu iommu{mem, ctx};
    hw::Disk disk{128, iommu, ctx};
    BufferCache cache{disk, ctx, 4};
};

} // namespace

TEST(Bcache, RepeatHitsMatchRepeatedGets)
{
    for (bool warm : {false, true}) {
        for (uint64_t n : {1, 2, 7}) {
            CacheRig gets, replay;
            if (warm) {
                // Block 9 cached, then pushed behind two others.
                for (CacheRig *r : {&gets, &replay})
                    for (uint64_t b : {9, 10, 11})
                        r->cache.get(b);
            }
            for (uint64_t i = 0; i < n; i++)
                gets.cache.get(9);
            replay.cache.get(9);
            replay.cache.repeatHits(n - 1);

            SCOPED_TRACE(testing::Message() << "warm " << warm << " n " << n);
            EXPECT_EQ(gets.ctx.clock().now(), replay.ctx.clock().now());
            EXPECT_EQ(gets.ctx.stats().all(), replay.ctx.stats().all());
            EXPECT_EQ(gets.cache.hits(), replay.cache.hits());
            EXPECT_EQ(gets.cache.misses(), replay.cache.misses());
        }
    }
}

TEST(BcacheDeathTest, CapacityBelowThreePanics)
{
    sim::SimContext ctx;
    hw::PhysMem mem(16);
    hw::Iommu iommu(mem, ctx);
    hw::Disk disk(128, iommu, ctx);
    EXPECT_DEATH(BufferCache(disk, ctx, 2), "bmap needs 3");
}

TEST(Fs, CreateWriteReadRoundtrip)
{
    Rig rig;
    Ino ino = 0;
    ASSERT_EQ(rig.fs.create("/hello.txt", ino), FsStatus::Ok);

    std::string msg = "hello virtual ghost";
    ASSERT_EQ(rig.fs.write(ino, 0, msg.data(), msg.size()),
              int64_t(msg.size()));

    char buf[64] = {};
    ASSERT_EQ(rig.fs.read(ino, 0, buf, sizeof(buf)),
              int64_t(msg.size()));
    EXPECT_EQ(std::string(buf, msg.size()), msg);

    FileStat st;
    ASSERT_EQ(rig.fs.stat(ino, st), FsStatus::Ok);
    EXPECT_EQ(st.size, msg.size());
    EXPECT_EQ(st.type, FileType::Regular);
}

TEST(Fs, LookupAndDuplicateCreate)
{
    Rig rig;
    Ino a = 0, b = 0;
    ASSERT_EQ(rig.fs.create("/f", a), FsStatus::Ok);
    EXPECT_EQ(rig.fs.create("/f", b), FsStatus::Exists);
    EXPECT_EQ(rig.fs.lookup("/f", b), FsStatus::Ok);
    EXPECT_EQ(a, b);
    EXPECT_EQ(rig.fs.lookup("/missing", b), FsStatus::NotFound);
}

TEST(Fs, DirectoriesNestAndList)
{
    Rig rig;
    Ino d = 0, f = 0;
    ASSERT_EQ(rig.fs.mkdir("/usr", d), FsStatus::Ok);
    ASSERT_EQ(rig.fs.mkdir("/usr/local", d), FsStatus::Ok);
    ASSERT_EQ(rig.fs.create("/usr/local/a.txt", f), FsStatus::Ok);
    ASSERT_EQ(rig.fs.create("/usr/local/b.txt", f), FsStatus::Ok);

    Ino dir = 0;
    ASSERT_EQ(rig.fs.lookup("/usr/local", dir), FsStatus::Ok);
    std::vector<std::string> names;
    ASSERT_EQ(rig.fs.readdir(dir, names), FsStatus::Ok);
    EXPECT_EQ(names.size(), 2u);

    // Lookup through components.
    Ino again = 0;
    EXPECT_EQ(rig.fs.lookup("/usr/local/a.txt", again), FsStatus::Ok);
}

TEST(Fs, UnlinkFreesSpaceAndName)
{
    Rig rig;
    Ino ino = 0;
    ASSERT_EQ(rig.fs.create("/tmp.bin", ino), FsStatus::Ok);
    // Baseline after create: the directory's entry block stays
    // allocated; unlink only releases the file's data blocks.
    uint64_t before = rig.fs.freeDataBlocks();
    std::vector<uint8_t> data(40960, 0xaa);
    ASSERT_EQ(rig.fs.write(ino, 0, data.data(), data.size()),
              int64_t(data.size()));
    EXPECT_LT(rig.fs.freeDataBlocks(), before);

    ASSERT_EQ(rig.fs.unlink("/tmp.bin"), FsStatus::Ok);
    EXPECT_EQ(rig.fs.freeDataBlocks(), before);
    Ino gone = 0;
    EXPECT_EQ(rig.fs.lookup("/tmp.bin", gone), FsStatus::NotFound);
}

TEST(Fs, UnlinkNonEmptyDirRefused)
{
    Rig rig;
    Ino d = 0, f = 0;
    ASSERT_EQ(rig.fs.mkdir("/d", d), FsStatus::Ok);
    ASSERT_EQ(rig.fs.create("/d/f", f), FsStatus::Ok);
    EXPECT_EQ(rig.fs.unlink("/d"), FsStatus::NotEmpty);
    ASSERT_EQ(rig.fs.unlink("/d/f"), FsStatus::Ok);
    EXPECT_EQ(rig.fs.unlink("/d"), FsStatus::Ok);
}

TEST(Fs, LargeFileThroughIndirectBlocks)
{
    Rig rig;
    Ino ino = 0;
    ASSERT_EQ(rig.fs.create("/big", ino), FsStatus::Ok);

    // 1 MB crosses from direct (40 KB) into the indirect range.
    std::vector<uint8_t> data(1 << 20);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = uint8_t(i * 131 + 7);
    ASSERT_EQ(rig.fs.write(ino, 0, data.data(), data.size()),
              int64_t(data.size()));

    std::vector<uint8_t> back(data.size());
    ASSERT_EQ(rig.fs.read(ino, 0, back.data(), back.size()),
              int64_t(back.size()));
    EXPECT_EQ(back, data);
}

TEST(Fs, SparseWriteAndHoleRead)
{
    Rig rig;
    Ino ino = 0;
    ASSERT_EQ(rig.fs.create("/sparse", ino), FsStatus::Ok);
    uint8_t byte = 0x42;
    ASSERT_EQ(rig.fs.write(ino, 100000, &byte, 1), 1);

    uint8_t hole[16] = {1, 1, 1};
    ASSERT_EQ(rig.fs.read(ino, 50000, hole, sizeof(hole)), 16);
    for (uint8_t b : hole)
        EXPECT_EQ(b, 0);
}

TEST(Fs, OffsetReadsAndShortReads)
{
    Rig rig;
    Ino ino = 0;
    ASSERT_EQ(rig.fs.create("/f", ino), FsStatus::Ok);
    std::string msg = "0123456789";
    rig.fs.write(ino, 0, msg.data(), msg.size());

    char buf[4] = {};
    EXPECT_EQ(rig.fs.read(ino, 8, buf, 4), 2); // short read at EOF
    EXPECT_EQ(buf[0], '8');
    EXPECT_EQ(rig.fs.read(ino, 100, buf, 4), 0);
}

TEST(Fs, TruncateReleasesBlocks)
{
    Rig rig;
    Ino ino = 0;
    ASSERT_EQ(rig.fs.create("/t", ino), FsStatus::Ok);
    uint64_t before = rig.fs.freeDataBlocks();
    std::vector<uint8_t> data(100000, 1);
    rig.fs.write(ino, 0, data.data(), data.size());
    ASSERT_EQ(rig.fs.truncate(ino), FsStatus::Ok);
    EXPECT_EQ(rig.fs.freeDataBlocks(), before);
    FileStat st;
    rig.fs.stat(ino, st);
    EXPECT_EQ(st.size, 0u);
}

TEST(Fs, ShortWriteOnFullDiskKeepsItsBlocks)
{
    Rig rig;
    Ino ino = 0;
    ASSERT_EQ(rig.fs.create("/fill", ino), FsStatus::Ok);
    uint64_t before = rig.fs.freeDataBlocks();

    // 64 MB cannot fit on the 16 MB disk: the write stops short.
    std::vector<uint8_t> data(64 << 20, 0x5a);
    int64_t wrote = rig.fs.write(ino, 0, data.data(), data.size());
    ASSERT_GT(wrote, 0);
    ASSERT_LT(uint64_t(wrote), data.size());
    EXPECT_EQ(rig.fs.freeDataBlocks(), 0u);

    FileStat st;
    ASSERT_EQ(rig.fs.stat(ino, st), FsStatus::Ok);
    EXPECT_EQ(st.size, uint64_t(wrote));
    std::vector<uint8_t> tail(16);
    ASSERT_EQ(rig.fs.read(ino, uint64_t(wrote) - 16, tail.data(),
                          tail.size()),
              16);
    EXPECT_EQ(tail, std::vector<uint8_t>(16, 0x5a));

    ASSERT_EQ(rig.fs.unlink("/fill"), FsStatus::Ok);
    EXPECT_EQ(rig.fs.freeDataBlocks(), before);
}

TEST(Fs, WriteToDirectoryRefused)
{
    // Direct: a directory's entries change only through its names.
    Rig rig;
    Ino d = 0, f = 0;
    ASSERT_EQ(rig.fs.mkdir("/d", d), FsStatus::Ok);
    ASSERT_EQ(rig.fs.create("/d/a", f), FsStatus::Ok);
    ASSERT_EQ(rig.fs.create("/d/b", f), FsStatus::Ok);
    uint64_t free_blocks = rig.fs.freeDataBlocks();
    std::vector<uint8_t> junk(8192, 0xee);
    EXPECT_EQ(rig.fs.write(d, 0, junk.data(), junk.size()), -1);
    EXPECT_EQ(rig.fs.truncate(d), FsStatus::IsDir);
    EXPECT_EQ(rig.fs.freeDataBlocks(), free_blocks);
    Ino again = 0;
    EXPECT_EQ(rig.fs.lookup("/d/a", again), FsStatus::Ok);
    EXPECT_EQ(rig.fs.lookup("/d/b", again), FsStatus::Ok);
    EXPECT_EQ(again, f);

    // Through the syscall layer: open() takes a directory, write()
    // on it fails and leaves every name in place.
    SystemConfig cfg;
    cfg.memFrames = 4096;
    cfg.diskBlocks = 4096;
    cfg.rsaBits = 384;
    System sys(cfg);
    sys.boot();
    int code = sys.runProcess("dirwriter", [](UserApi &api) {
        if (api.mkdir("/pm") != 0)
            return 1;
        for (const char *path : {"/pm/x", "/pm/y"}) {
            int fd = api.open(path, true);
            if (fd < 0 || api.close(fd) != 0)
                return 2;
        }
        int fd = api.open("/pm");
        if (fd < 0)
            return 3;
        hw::Vaddr buf = api.mmap(4096);
        std::vector<uint8_t> junk(4096, 0xee);
        if (!api.copyToUser(buf, junk.data(), junk.size()))
            return 4;
        if (api.write(fd, buf, junk.size()) != -1)
            return 5;
        FileStat st;
        for (const char *path : {"/pm", "/pm/x", "/pm/y"}) {
            if (api.stat(path, st) != 0)
                return 6;
        }
        return 0;
    });
    EXPECT_EQ(code, 0);
}

TEST(Fs, MountSeesPersistedData)
{
    sim::SimContext ctx;
    hw::PhysMem mem(16);
    hw::Iommu iommu(mem, ctx);
    hw::Disk disk(4096, iommu, ctx);
    {
        BufferCache cache(disk, ctx, 512);
        Fs fs(cache, ctx, 4096);
        fs.mkfs();
        Ino ino = 0;
        ASSERT_EQ(fs.create("/persist", ino), FsStatus::Ok);
        fs.write(ino, 0, "data", 4);
        fs.sync();
    }
    {
        BufferCache cache(disk, ctx, 512);
        Fs fs(cache, ctx, 4096);
        ASSERT_TRUE(fs.mount());
        Ino ino = 0;
        ASSERT_EQ(fs.lookup("/persist", ino), FsStatus::Ok);
        char buf[8] = {};
        EXPECT_EQ(fs.read(ino, 0, buf, 8), 4);
        EXPECT_EQ(std::string(buf, 4), "data");
    }
}

TEST(Fs, ManyFilesInOneDirectory)
{
    Rig rig;
    for (int i = 0; i < 200; i++) {
        Ino ino = 0;
        ASSERT_EQ(rig.fs.create("/file" + std::to_string(i), ino),
                  FsStatus::Ok)
            << i;
    }
    Ino dir = 0;
    rig.fs.lookup("/", dir);
    std::vector<std::string> names;
    rig.fs.readdir(dir, names);
    EXPECT_EQ(names.size(), 200u);

    // Delete half, names stay consistent.
    for (int i = 0; i < 100; i++)
        ASSERT_EQ(rig.fs.unlink("/file" + std::to_string(i)),
                  FsStatus::Ok);
    names.clear();
    rig.fs.readdir(dir, names);
    EXPECT_EQ(names.size(), 100u);
}

// --------------------------------------------------------------------
// Golden sweep: a scripted workload over every directory, bitmap and
// inode-table scan, digest-pinned at two cache sizes. The 4-block
// cache puts misses and evictions in the middle of the scans.
// --------------------------------------------------------------------

namespace
{

constexpr uint64_t kSweepBlocks = 64 * 1024; // 8,192 inodes

/** Digests recorded before the scans walked cache blocks; key is the
 *  cache capacity in blocks. */
const std::map<uint64_t, uint64_t> kFsGolden = {
    {512, 0xd213264596ee03b5ull},
    {4, 0xec8c1e2e89eb22b2ull},
};

/** Path calls that fold their status, inode and the clock after
 *  each call into one digest. */
struct FsScript
{
    sim::SimContext &ctx;
    Fs &fs;
    test::Golden &g;

    void
    fold(FsStatus s, Ino ino = 0)
    {
        g.u64(uint64_t(s)).u64(ino).u64(ctx.clock().now());
    }

    void
    create(const std::string &path)
    {
        Ino ino = 0;
        fold(fs.create(path, ino), ino);
    }

    void
    mkdir(const std::string &path)
    {
        Ino ino = 0;
        fold(fs.mkdir(path, ino), ino);
    }

    void
    lookup(const std::string &path)
    {
        Ino ino = 0;
        fold(fs.lookup(path, ino), ino);
    }

    FsStatus
    unlink(const std::string &path)
    {
        FsStatus s = fs.unlink(path);
        fold(s);
        return s;
    }

    /** Fold the listing of @p path in order; returns its length. */
    size_t
    list(const std::string &path)
    {
        Ino dir = 0;
        fold(fs.lookup(path, dir), dir);
        std::vector<std::string> names;
        fold(fs.readdir(dir, names));
        g.u64(names.size());
        for (const std::string &n : names)
            g.str(n);
        return names.size();
    }

    /** Sync, then fold the clock and every nonzero block of @p disk
     *  with its number. */
    void
    image(hw::Disk &disk)
    {
        fs.sync();
        g.u64(ctx.clock().now());
        for (uint64_t b = 0; b < disk.numBlocks(); b++) {
            const uint8_t *raw = disk.rawBlock(b);
            if (std::any_of(raw, raw + hw::Disk::blockSize,
                            [](uint8_t v) { return v != 0; }))
                g.u64(b).bytes(raw, hw::Disk::blockSize);
        }
    }
};

uint64_t
fsSweepDigest(uint64_t cache_blocks)
{
    sim::SimContext ctx;
    hw::PhysMem mem(16);
    hw::Iommu iommu(mem, ctx);
    hw::Disk disk(kSweepBlocks, iommu, ctx);
    BufferCache cache(disk, ctx, cache_blocks);
    Fs fs(cache, ctx, kSweepBlocks);
    fs.mkfs();

    test::Golden g;
    FsScript run{ctx, fs, g};
    auto stat = [&](const std::string &path) {
        Ino ino = 0;
        fs.lookup(path, ino);
        FileStat st;
        run.fold(fs.stat(ino, st), ino);
        g.u64(uint64_t(st.type)).u64(st.size).u64(st.nlink);
    };

    // Grow "/" to 700 entries: ten direct blocks hold 640, so the
    // last 60 land behind the directory's indirect block.
    for (int i = 0; i < 700; i++)
        run.create("/f" + std::to_string(i));
    run.create("/f7"); // duplicate: a full-directory hit

    // Nested directories with a few files each.
    run.mkdir("/d");
    run.mkdir("/d/e");
    run.mkdir("/d/e/g");
    run.create("/d/e/h");
    run.create("/d/e/g/x");
    run.create("/d/e/g/y");
    run.mkdir("/d/e"); // duplicate

    // Lookups at the first, middle and last entry of a direct block
    // and of the indirect block, through nested paths, and misses.
    for (int i : {0, 32, 63, 64, 100, 639, 640, 669, 699})
        run.lookup("/f" + std::to_string(i));
    run.lookup("/d/e/g/y");
    run.lookup("/nope");
    run.lookup("/d/e/nope");
    run.lookup("/f0/x"); // a regular file is not a directory
    run.lookup("relative");

    // Unlinks that leave holes, then creates that reuse them.
    for (int i : {5, 63, 64, 300, 640, 699})
        run.unlink("/f" + std::to_string(i));
    run.unlink("/f5"); // already gone
    for (int i = 0; i < 8; i++)
        run.create("/g" + std::to_string(i));
    run.lookup("/g7");

    // 700 files, less six holes, plus eight new files and "/d".
    EXPECT_EQ(run.list("/"), 703u);
    EXPECT_EQ(run.list("/d/e"), 2u);
    EXPECT_EQ(run.list("/d/e/g"), 2u);

    // rmdir of a non-empty directory, then of an emptied one whose
    // only slots are holes.
    run.unlink("/d/e");
    run.unlink("/d/e/g");
    run.unlink("/d/e/g/x");
    run.unlink("/d/e/g/y");
    run.unlink("/d/e/g");
    run.unlink("/d/e/h");
    run.unlink("/d/e");
    EXPECT_EQ(run.list("/d"), 0u);

    // File writes that spill into the indirect and double-indirect
    // ranges, with a hole between them.
    std::vector<uint8_t> data(600 * 1024);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = uint8_t(i * 37 + i / 4096);
    Ino big = 0;
    run.fold(fs.create("/d/big", big), big);
    g.u64(uint64_t(fs.write(big, 0, data.data(), data.size())));
    uint64_t far = (10 + 512) * 4096 + 1000;
    g.u64(uint64_t(fs.write(big, far, data.data(), 3 * 4096)));
    std::vector<uint8_t> back(3 * 4096);
    g.u64(uint64_t(fs.read(big, 590 * 1024, back.data(), back.size())));
    g.vec(back);
    g.u64(uint64_t(fs.read(big, 1024 * 1024, back.data(), back.size())));
    g.vec(back);
    g.u64(uint64_t(fs.read(big, far - 10, back.data(), back.size())));
    g.vec(back);
    stat("/d/big");
    stat("/d");
    stat("/");
    run.unlink("/f1");
    run.create("/f1");
    run.fold(fs.truncate(big));
    stat("/d/big");

    // Full simulated state, then the synced disk image.
    g.machine(ctx).u64(cache.hits()).u64(cache.misses());
    g.u64(fs.freeDataBlocks());
    run.image(disk);

    // Remount over the same disk: the free count walks the bitmap.
    BufferCache again(disk, ctx, cache_blocks);
    Fs remounted(again, ctx, kSweepBlocks);
    g.u64(remounted.mount()).u64(remounted.freeDataBlocks());
    g.machine(ctx).u64(again.hits()).u64(again.misses());
    return g.h;
}

} // namespace

TEST(FsGoldenSweep, Cache512Blocks)
{
    EXPECT_TRUE(test::matchesGolden(fsSweepDigest(512), kFsGolden.at(512)));
}

TEST(FsGoldenSweep, Cache4Blocks)
{
    EXPECT_TRUE(test::matchesGolden(fsSweepDigest(4), kFsGolden.at(4)));
}

// --------------------------------------------------------------------
// Golden sweep over one large directory: more entries than the ten
// direct blocks hold, seeded create/unlink churn that reuses freed
// slots, and a remount that must find every name again from the disk.
// --------------------------------------------------------------------

namespace
{

constexpr uint64_t kLargeDirBlocks = 8 * 1024; // 1,024 inodes

/** Digests recorded before directories had a name index; key is the
 *  cache capacity in blocks. */
const std::map<uint64_t, uint64_t> kLargeDirGolden = {
    {512, 0xd92b274249508fceull},
    {4, 0x5e5a4b771704eb67ull},
};

uint64_t
largeDirDigest(uint64_t cache_blocks)
{
    sim::SimContext ctx;
    hw::PhysMem mem(16);
    hw::Iommu iommu(mem, ctx);
    hw::Disk disk(kLargeDirBlocks, iommu, ctx);
    test::Golden g;

    // A fixed xorshift stream: the churn is the same on every host.
    uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&](uint64_t bound) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state % bound;
    };
    auto name = [](uint64_t i) { return "/big/n" + std::to_string(i); };

    {
        BufferCache cache(disk, ctx, cache_blocks);
        Fs fs(cache, ctx, kLargeDirBlocks);
        fs.mkfs();
        FsScript run{ctx, fs, g};

        // 760 entries: ten direct blocks hold 640, the other 120 sit
        // in two blocks behind the directory's indirect block.
        run.mkdir("/big");
        for (uint64_t i = 0; i < 760; i++)
            run.create(name(i));
        // A duplicate, found behind the indirect block.
        run.create(name(700));

        // Churn: each draw deletes a present name or creates an absent
        // one, so creates fill the lowest slots the unlinks freed.
        std::vector<bool> present(900, false);
        std::fill(present.begin(), present.begin() + 760, true);
        for (int round = 0; round < 600; round++) {
            uint64_t i = next(present.size());
            if (present[i])
                run.unlink(name(i));
            else
                run.create(name(i));
            present[i] = !present[i];
        }

        // Lookups of present and absent names, then the listing, whose
        // order shows which freed slots the creates took.
        for (int k = 0; k < 40; k++) {
            uint64_t i = next(present.size());
            run.lookup(name(i));
            run.lookup("/big/zz" + std::to_string(i));
        }
        EXPECT_EQ(run.list("/big"),
                  size_t(std::count(present.begin(), present.end(), true)));
        run.list("/");

        // rmdir: a non-empty directory is refused, an emptied one
        // (only free slots left) goes.
        run.mkdir("/big/sub");
        run.create("/big/sub/a");
        run.create("/big/sub/b");
        EXPECT_EQ(run.unlink("/big/sub"), FsStatus::NotEmpty);
        run.unlink("/big/sub/a");
        run.unlink("/big/sub/b");
        EXPECT_EQ(run.list("/big/sub"), 0u);
        EXPECT_EQ(run.unlink("/big/sub"), FsStatus::Ok);
        EXPECT_EQ(run.unlink("/big"), FsStatus::NotEmpty);
        run.lookup("/big/sub");

        g.machine(ctx).u64(cache.hits()).u64(cache.misses());
        g.u64(fs.freeDataBlocks());
        run.image(disk);
    }

    // Remount over the same disk: every directory is met cold.
    BufferCache cache(disk, ctx, cache_blocks);
    Fs fs(cache, ctx, kLargeDirBlocks);
    g.u64(fs.mount()).u64(fs.freeDataBlocks());
    FsScript run{ctx, fs, g};
    for (uint64_t i : {0, 63, 64, 639, 640, 700, 759, 800, 899})
        run.lookup(name(i));
    run.lookup("/big/zz1");
    for (uint64_t i = 0; i < 900; i += 7)
        run.unlink(name(i));
    for (uint64_t i = 0; i < 60; i++)
        run.create("/big/m" + std::to_string(i));
    run.mkdir("/big/sub2");
    run.create("/big/sub2/c");
    EXPECT_EQ(run.unlink("/big/sub2"), FsStatus::NotEmpty);
    run.unlink("/big/sub2/c");
    EXPECT_EQ(run.unlink("/big/sub2"), FsStatus::Ok);
    run.list("/big");
    g.machine(ctx).u64(cache.hits()).u64(cache.misses());
    g.u64(fs.freeDataBlocks());
    run.image(disk);
    return g.h;
}

} // namespace

TEST(FsGoldenSweep, LargeDirectory)
{
    for (uint64_t cache_blocks : {512, 4}) {
        SCOPED_TRACE(testing::Message() << "cache " << cache_blocks);
        EXPECT_TRUE(test::matchesGolden(largeDirDigest(cache_blocks),
                                        kLargeDirGolden.at(cache_blocks)));
    }
}
