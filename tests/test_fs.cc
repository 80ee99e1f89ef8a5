/**
 * @file
 * VGFS and buffer-cache tests (directly over the simulated disk).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "golden.hh"
#include "kernel/fs.hh"

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
    auto fold = [&](FsStatus s, Ino ino = 0) {
        g.u64(uint64_t(s)).u64(ino).u64(ctx.clock().now());
    };
    auto create = [&](const std::string &path) {
        Ino ino = 0;
        fold(fs.create(path, ino), ino);
    };
    auto mkdir = [&](const std::string &path) {
        Ino ino = 0;
        fold(fs.mkdir(path, ino), ino);
    };
    auto lookup = [&](const std::string &path) {
        Ino ino = 0;
        fold(fs.lookup(path, ino), ino);
    };
    auto list = [&](const std::string &path) {
        Ino dir = 0;
        fold(fs.lookup(path, dir), dir);
        std::vector<std::string> names;
        fold(fs.readdir(dir, names));
        g.u64(names.size());
        for (const std::string &n : names)
            g.str(n);
        return names.size();
    };
    auto stat = [&](const std::string &path) {
        Ino ino = 0;
        fs.lookup(path, ino);
        FileStat st;
        fold(fs.stat(ino, st), ino);
        g.u64(uint64_t(st.type)).u64(st.size).u64(st.nlink);
    };

    // Grow "/" to 700 entries: ten direct blocks hold 640, so the
    // last 60 land behind the directory's indirect block.
    for (int i = 0; i < 700; i++)
        create("/f" + std::to_string(i));
    create("/f7"); // duplicate: a full-directory hit

    // Nested directories with a few files each.
    mkdir("/d");
    mkdir("/d/e");
    mkdir("/d/e/g");
    create("/d/e/h");
    create("/d/e/g/x");
    create("/d/e/g/y");
    mkdir("/d/e"); // duplicate

    // Lookups at the first, middle and last entry of a direct block
    // and of the indirect block, through nested paths, and misses.
    for (int i : {0, 32, 63, 64, 100, 639, 640, 669, 699})
        lookup("/f" + std::to_string(i));
    lookup("/d/e/g/y");
    lookup("/nope");
    lookup("/d/e/nope");
    lookup("/f0/x"); // a regular file is not a directory
    lookup("relative");

    // Unlinks that leave holes, then creates that reuse them.
    for (int i : {5, 63, 64, 300, 640, 699})
        fold(fs.unlink("/f" + std::to_string(i)));
    fold(fs.unlink("/f5")); // already gone
    for (int i = 0; i < 8; i++)
        create("/g" + std::to_string(i));
    lookup("/g7");

    // 700 files, less six holes, plus eight new files and "/d".
    EXPECT_EQ(list("/"), 703u);
    EXPECT_EQ(list("/d/e"), 2u);
    EXPECT_EQ(list("/d/e/g"), 2u);

    // rmdir of a non-empty directory, then of an emptied one whose
    // only slots are holes.
    fold(fs.unlink("/d/e"));
    fold(fs.unlink("/d/e/g"));
    fold(fs.unlink("/d/e/g/x"));
    fold(fs.unlink("/d/e/g/y"));
    fold(fs.unlink("/d/e/g"));
    fold(fs.unlink("/d/e/h"));
    fold(fs.unlink("/d/e"));
    EXPECT_EQ(list("/d"), 0u);

    // File writes that spill into the indirect and double-indirect
    // ranges, with a hole between them.
    std::vector<uint8_t> data(600 * 1024);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = uint8_t(i * 37 + i / 4096);
    Ino big = 0;
    fold(fs.create("/d/big", big), big);
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
    fold(fs.unlink("/f1"));
    create("/f1");
    fold(fs.truncate(big));
    stat("/d/big");

    // Full simulated state, then the synced disk image.
    g.machine(ctx).u64(cache.hits()).u64(cache.misses());
    g.u64(fs.freeDataBlocks());
    fs.sync();
    g.u64(ctx.clock().now());
    for (uint64_t b = 0; b < kSweepBlocks; b++) {
        const uint8_t *raw = disk.rawBlock(b);
        if (std::any_of(raw, raw + hw::Disk::blockSize,
                        [](uint8_t v) { return v != 0; }))
            g.u64(b).bytes(raw, hw::Disk::blockSize);
    }

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
