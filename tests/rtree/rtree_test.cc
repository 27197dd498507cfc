// Tests for the packed R-tree: structure invariants, k-NN and range
// queries against brute force, I/O accounting, and in-place inserts
// against a fresh bulk load.
#include "rtree/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "common/random.h"

namespace uvd {
namespace rtree {
namespace {

struct Fixture {
  Stats stats;
  storage::PageManager pm{4096, &stats};
  uncertain::ObjectStore store{&pm};
  std::vector<uncertain::UncertainObject> objects;
  std::vector<uncertain::ObjectPtr> ptrs;
  std::optional<RTree> tree;

  void Build(int n, uint64_t seed = 3, int fanout = 100, double radius_max = 25) {
    Rng rng(seed);
    objects.clear();
    for (int i = 0; i < n; ++i) {
      objects.push_back(uncertain::UncertainObject::WithGaussianPdf(
          i, geom::Circle({rng.Uniform(0, 10000), rng.Uniform(0, 10000)},
                          rng.Uniform(0.5, radius_max))));
    }
    UVD_CHECK_OK(store.BulkLoad(objects, &ptrs));
    auto t = RTree::BulkLoad(objects, ptrs, &pm, {fanout}, &stats);
    UVD_CHECK(t.ok()) << t.status().ToString();
    tree.emplace(std::move(t).value());
  }
};

TEST(RTreeTest, RejectsBadInput) {
  storage::PageManager pm;
  auto t1 = RTree::BulkLoad({}, {}, &pm, {}, nullptr);
  EXPECT_FALSE(t1.ok());
  const auto obj = uncertain::UncertainObject::WithGaussianPdf(0, {{1, 1}, 1});
  auto t2 = RTree::BulkLoad({obj}, {}, &pm, {}, nullptr);
  EXPECT_FALSE(t2.ok());  // size mismatch
  auto t3 = RTree::BulkLoad({obj}, {0}, &pm, {1}, nullptr);
  EXPECT_FALSE(t3.ok());  // fanout < 2
  auto t4 = RTree::BulkLoad({obj}, {0}, &pm, {10000}, nullptr);
  EXPECT_FALSE(t4.ok());  // fanout too large for the page
}

TEST(RTreeTest, StructureInvariants) {
  Fixture f;
  f.Build(1234);
  const RTree& tree = *f.tree;
  EXPECT_EQ(tree.num_objects(), 1234u);
  // Leaf pages hold at most fanout entries and at least 1.
  size_t total = 0;
  for (size_t i = 0; i < tree.num_leaf_pages(); ++i) {
    std::vector<LeafEntry> entries;
    ASSERT_TRUE(tree.ReadLeaf(tree.leaf_pages()[i], &entries).ok());
    EXPECT_GE(entries.size(), 1u);
    EXPECT_LE(entries.size(), 100u);
    total += entries.size();
    // Every entry's MBC box is inside the leaf MBR.
    for (const LeafEntry& e : entries) {
      EXPECT_TRUE(tree.leaf_mbrs()[i].ContainsBox(e.mbc.Mbr()));
    }
  }
  EXPECT_EQ(total, 1234u);
  // 1234 objects at 100 per page need at least 13 leaves; STR tiling may
  // leave a short page per slab, so allow a small surplus.
  EXPECT_GE(tree.num_leaf_pages(), 13u);
  EXPECT_LE(tree.num_leaf_pages(), 20u);
  EXPECT_EQ(tree.height(), 2);
  EXPECT_GT(tree.MemoryBytes(), 0u);
}

TEST(RTreeTest, NodeMbrsContainChildren) {
  Fixture f;
  f.Build(5000, 17, 10);  // small fanout -> several levels
  const RTree& tree = *f.tree;
  EXPECT_GE(tree.height(), 3);
  for (const RTree::Node& node : tree.nodes()) {
    for (uint32_t c : node.children) {
      const geom::Box& child =
          node.leaf_children ? tree.leaf_mbrs()[c] : tree.nodes()[c].mbr;
      EXPECT_TRUE(node.mbr.ContainsBox(child));
    }
  }
}

TEST(RTreeTest, KnnMatchesBruteForce) {
  Fixture f;
  f.Build(2000, 11);
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const geom::Point q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    const int k = 1 + static_cast<int>(rng.UniformInt(0, 30));
    const auto got = f.tree->KNearestByDistMin(q, k);
    ASSERT_EQ(got.size(), static_cast<size_t>(k));

    std::vector<double> brute;
    for (const auto& o : f.objects) brute.push_back(o.DistMin(q));
    std::sort(brute.begin(), brute.end());
    for (int i = 0; i < k; ++i) {
      EXPECT_NEAR(got[static_cast<size_t>(i)].mbc.DistMin(q),
                  brute[static_cast<size_t>(i)], 1e-9)
          << "trial " << trial << " i=" << i;
    }
  }
}

TEST(RTreeTest, KnnWithKLargerThanN) {
  Fixture f;
  f.Build(50);
  const auto got = f.tree->KNearestByDistMin({5000, 5000}, 500);
  EXPECT_EQ(got.size(), 50u);
}

TEST(RTreeTest, CentersInRangeMatchesBruteForce) {
  Fixture f;
  f.Build(3000, 23);
  Rng rng(29);
  for (int trial = 0; trial < 20; ++trial) {
    const geom::Point c{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    const double radius = rng.Uniform(50, 2000);
    auto got = f.tree->CentersInRange(c, radius);
    std::vector<int> got_ids;
    for (const auto& e : got) got_ids.push_back(e.id);
    std::sort(got_ids.begin(), got_ids.end());

    std::vector<int> want_ids;
    for (const auto& o : f.objects) {
      if (geom::Distance(o.center(), c) <= radius) want_ids.push_back(o.id());
    }
    EXPECT_EQ(got_ids, want_ids) << "trial " << trial;
  }
}

TEST(RTreeTest, LeafReadsCounted) {
  Fixture f;
  f.Build(500);
  f.stats.Reset();
  std::vector<LeafEntry> entries;
  ASSERT_TRUE(f.tree->ReadLeaf(f.tree->leaf_pages()[0], &entries).ok());
  EXPECT_EQ(f.stats.Get(Ticker::kRtreeLeafReads), 1u);
  EXPECT_EQ(f.stats.Get(Ticker::kPageReads), 1u);
}

TEST(RTreeTest, SingleObjectTree) {
  Fixture f;
  f.Build(1);
  EXPECT_EQ(f.tree->num_leaf_pages(), 1u);
  const auto got = f.tree->KNearestByDistMin({0, 0}, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 0);
}

// Walks the whole tree and checks every structural invariant an insert
// must keep: leaves all at depth height(), at most `fanout` children or
// entries per node/page, MBRs that are the exact union of their contents.
// Returns the ids found, in walk order.
std::vector<int> CheckStructure(const RTree& tree, size_t fanout) {
  std::vector<int> ids;
  std::set<uint32_t> seen_leaves;
  const std::function<void(uint32_t, int)> walk = [&](uint32_t idx, int depth) {
    const RTree::Node& node = tree.nodes()[idx];
    EXPECT_GE(node.children.size(), 1u);
    EXPECT_LE(node.children.size(), fanout);
    geom::Box children_union = geom::Box::Empty();
    for (uint32_t c : node.children) {
      const geom::Box& child =
          node.leaf_children ? tree.leaf_mbrs()[c] : tree.nodes()[c].mbr;
      EXPECT_TRUE(node.mbr.ContainsBox(child));
      children_union.ExpandToInclude(child);
      if (!node.leaf_children) {
        walk(c, depth + 1);
        continue;
      }
      EXPECT_EQ(depth + 1, tree.height()) << "leaf page " << c;
      EXPECT_TRUE(seen_leaves.insert(c).second) << "leaf page " << c << " twice";
      std::vector<LeafEntry> entries;
      ASSERT_TRUE(tree.ReadLeaf(tree.leaf_pages()[c], &entries).ok());
      EXPECT_GE(entries.size(), 1u);
      EXPECT_LE(entries.size(), fanout);
      geom::Box entries_union = geom::Box::Empty();
      for (const LeafEntry& e : entries) {
        entries_union.ExpandToInclude(e.mbc.Mbr());
        ids.push_back(e.id);
      }
      EXPECT_EQ(entries_union.lo, child.lo);
      EXPECT_EQ(entries_union.hi, child.hi);
    }
    EXPECT_EQ(children_union.lo, node.mbr.lo);
    EXPECT_EQ(children_union.hi, node.mbr.hi);
  };
  walk(tree.root(), 1);
  EXPECT_EQ(seen_leaves.size(), tree.num_leaf_pages());
  EXPECT_EQ(tree.leaf_mbrs().size(), tree.num_leaf_pages());
  EXPECT_EQ(ids.size(), tree.num_objects());
  return ids;
}

bool SameEntry(const LeafEntry& a, const LeafEntry& b) {
  return a.id == b.id && a.mbc.center == b.mbc.center &&
         a.mbc.radius == b.mbc.radius && a.ptr == b.ptr;
}

std::vector<int> SortedIds(const std::vector<LeafEntry>& entries) {
  std::vector<int> ids;
  for (const LeafEntry& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(RTreeTest, InsertKeepsInvariantsAndMatchesBulkLoad) {
  // Small fanouts so the inserts split leaves, split internal nodes and
  // grow the root; a single-object start grows from one leaf.
  struct Case {
    int initial;
    int fanout;
  };
  for (const Case c : {Case{1, 2}, Case{20, 4}, Case{60, 7}}) {
    SCOPED_TRACE("initial " + std::to_string(c.initial) + " fanout " +
                 std::to_string(c.fanout));
    Fixture f;
    f.Build(c.initial, 41, c.fanout);
    RTree& tree = *f.tree;
    const int height_before = tree.height();
    const size_t leaves_before = tree.num_leaf_pages();
    const size_t nodes_before = tree.nodes().size();

    Rng rng(43);
    constexpr int kInserts = 400;
    for (int k = 0; k < kInserts; ++k) {
      const int id = static_cast<int>(f.objects.size());
      // Every fifth object repeats an earlier center: ties on the split
      // axis must break by id.
      const geom::Point center =
          k % 5 == 4 ? f.objects[rng.UniformInt(0, id - 1)].center()
                     : geom::Point{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
      f.objects.push_back(uncertain::UncertainObject::WithGaussianPdf(
          id, geom::Circle(center, rng.Uniform(0.5, 25))));
      const auto ptr = f.store.Append(f.objects.back());
      ASSERT_TRUE(ptr.ok());
      f.ptrs.push_back(ptr.value());
      ASSERT_TRUE(tree.Insert({id, f.objects.back().Mbc(), ptr.value()}).ok());
    }
    EXPECT_GT(tree.num_leaf_pages(), leaves_before) << "no leaf split";
    EXPECT_GT(tree.nodes().size(), nodes_before + 1) << "no internal split";
    EXPECT_GT(tree.height(), height_before) << "the root never grew";
    EXPECT_EQ(tree.num_objects(), f.objects.size());

    std::vector<int> ids = CheckStructure(tree, static_cast<size_t>(c.fanout));
    std::sort(ids.begin(), ids.end());
    std::vector<int> want(f.objects.size());
    for (size_t i = 0; i < want.size(); ++i) want[i] = static_cast<int>(i);
    EXPECT_EQ(ids, want) << "every id exactly once";

    storage::PageManager fresh_pm(4096);
    const RTree fresh =
        RTree::BulkLoad(f.objects, f.ptrs, &fresh_pm, {c.fanout}).ValueOrDie();
    for (int trial = 0; trial < 200; ++trial) {
      const geom::Point q{rng.Uniform(-500, 10500), rng.Uniform(-500, 10500)};
      const int k = 1 + static_cast<int>(rng.UniformInt(0, 40));
      const auto got = tree.KNearestByDistMin(q, k);
      const auto want_knn = fresh.KNearestByDistMin(q, k);
      ASSERT_EQ(got.size(), want_knn.size()) << "trial " << trial;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(SameEntry(got[i], want_knn[i])) << "trial " << trial << " i=" << i;
      }
      const double radius = rng.Uniform(10, 1500);
      EXPECT_EQ(SortedIds(tree.CentersInRange(q, radius)),
                SortedIds(fresh.CentersInRange(q, radius)))
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace rtree
}  // namespace uvd
