// Hard-link tests (§5.5): the reference/attributes split, link-count
// lifecycle across links and unlinks, cross-server attribute reads, chmod
// (SetAttr) on linked files, and WAL recovery of split inodes.
#include <gtest/gtest.h>

#include "tests/switchfs_test_util.h"

namespace switchfs::core {
namespace {

Status Link(FsHarness& fs, const std::string& src, const std::string& dst) {
  Status out = InternalError("");
  fs.Run([](SwitchFsClient* c, std::string s, std::string d,
            Status* o) -> sim::Task<void> {
    *o = co_await c->Link(s, d);
  }(fs.client.get(), src, dst, &out));
  return out;
}

TEST(SwitchFsLinks, LinkSharesAttributesAndCountsReferences) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Mkdir("/b").ok());
  ASSERT_TRUE(fs.Create("/a/orig").ok());
  ASSERT_TRUE(Link(fs, "/a/orig", "/b/alias").ok());

  auto s1 = fs.Stat("/a/orig");
  auto s2 = fs.Stat("/b/alias");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->id, s2->id);    // same underlying file
  EXPECT_EQ(s1->nlink, 2u);
  EXPECT_EQ(s2->nlink, 2u);

  // Both parents observed the entry adds.
  auto da = fs.StatDir("/a");
  auto db = fs.StatDir("/b");
  ASSERT_TRUE(da.ok());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(da->size, 1u);
  EXPECT_EQ(db->size, 1u);
}

TEST(SwitchFsLinks, MultipleLinksIncrementCount) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/f").ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(Link(fs, "/d/f", "/d/link" + std::to_string(i)).ok()) << i;
  }
  auto st = fs.Stat("/d/link2");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->nlink, 5u);
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 5u);
}

TEST(SwitchFsLinks, UnlinkDropsCountUntilAttributesDie) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/f").ok());
  ASSERT_TRUE(Link(fs, "/d/f", "/d/l1").ok());
  ASSERT_TRUE(Link(fs, "/d/f", "/d/l2").ok());

  ASSERT_TRUE(fs.Unlink("/d/f").ok());  // the original name goes first
  auto st = fs.Stat("/d/l1");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->nlink, 2u);

  ASSERT_TRUE(fs.Unlink("/d/l1").ok());
  st = fs.Stat("/d/l2");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->nlink, 1u);

  ASSERT_TRUE(fs.Unlink("/d/l2").ok());
  EXPECT_EQ(fs.Stat("/d/l2").status().code(), StatusCode::kNotFound);
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 0u);
}

TEST(SwitchFsLinks, LinkErrors) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/f").ok());
  ASSERT_TRUE(fs.Create("/d/g").ok());
  EXPECT_EQ(Link(fs, "/d/missing", "/d/x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Link(fs, "/d/f", "/d/g").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Link(fs, "/d", "/d/x").code(), StatusCode::kIsADirectory);
}

TEST(SwitchFsLinks, ChmodOnLinkUpdatesSharedAttributes) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/f").ok());
  ASSERT_TRUE(Link(fs, "/d/f", "/d/l").ok());
  // chmod (SetAttr of the mode) through the link name lands in the shared
  // attributes object, so the original name sees it.
  Status set = InternalError("");
  fs.Run([](SwitchFsClient* c, Status* out) -> sim::Task<void> {
    AttrDelta delta;
    delta.set_mode = true;
    delta.mode = 0600;
    *out = co_await c->SetAttr("/d/l", delta);
  }(fs.client.get(), &set));
  ASSERT_TRUE(set.ok()) << set.ToString();
  auto st = fs.Stat("/d/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->mode, 0600u);
  EXPECT_EQ(st->nlink, 2u);

  // The mode is committed through the WAL: it survives every server
  // crashing and recovering.
  for (uint32_t s = 0; s < fs.cluster.ServerCount(); ++s) {
    fs.cluster.CrashServer(s);
    fs.Run(fs.cluster.RecoverServer(s));
  }
  st = fs.Stat("/d/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->mode, 0600u);
  st = fs.Stat("/d/l");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->mode, 0600u);
  EXPECT_EQ(st->nlink, 2u);
}

TEST(SwitchFsLinks, LinksSurviveCrashRecovery) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/f").ok());
  ASSERT_TRUE(Link(fs, "/d/f", "/d/l").ok());
  for (uint32_t s = 0; s < fs.cluster.ServerCount(); ++s) {
    fs.cluster.CrashServer(s);
    fs.Run(fs.cluster.RecoverServer(s));
  }
  auto st = fs.Stat("/d/l");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->nlink, 2u);
  ASSERT_TRUE(fs.Unlink("/d/f").ok());
  st = fs.Stat("/d/l");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->nlink, 1u);
}

}  // namespace
}  // namespace switchfs::core
