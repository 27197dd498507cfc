// Tests for incremental insertion (paper Sec. VII future work): after any
// mix of bulk construction and live inserts, both query paths must answer
// exactly like brute force over the full population.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/random.h"
#include "core/uv_diagram.h"
#include "datagen/generators.h"
#include "datagen/workload.h"

namespace uvd {
namespace core {
namespace {

std::vector<int> BruteAnswers(const std::vector<uncertain::UncertainObject>& objs,
                              const geom::Point& q) {
  double d_minmax = std::numeric_limits<double>::infinity();
  for (const auto& o : objs) d_minmax = std::min(d_minmax, o.DistMax(q));
  std::vector<int> ids;
  for (const auto& o : objs) {
    if (o.DistMin(q) <= d_minmax) ids.push_back(o.id());
  }
  return ids;
}

TEST(LiveInsertTest, AnswersStayExactAfterInserts) {
  datagen::DatasetOptions opts;
  opts.count = 400;
  opts.seed = 3;
  auto diagram =
      UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts))
          .ValueOrDie();
  Rng rng(7);
  for (int k = 0; k < 40; ++k) {
    const int id = static_cast<int>(diagram.objects().size());
    ASSERT_TRUE(diagram
                    .InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                        id, {{rng.Uniform(0, 10000), rng.Uniform(0, 10000)}, 20}))
                    .ok());
  }
  EXPECT_EQ(diagram.objects().size(), 440u);
  for (const auto& q : datagen::UniformQueryPoints(40, diagram.domain(), 99)) {
    EXPECT_EQ(diagram.AnswerObjectIds(q).ValueOrDie(),
              BruteAnswers(diagram.objects(), q));
  }
}

TEST(LiveInsertTest, BothPathsAgreeAfterInserts) {
  datagen::DatasetOptions opts;
  opts.count = 300;
  opts.seed = 5;
  auto diagram =
      UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts))
          .ValueOrDie();
  Rng rng(9);
  for (int k = 0; k < 20; ++k) {
    const int id = static_cast<int>(diagram.objects().size());
    ASSERT_TRUE(diagram
                    .InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                        id, {{rng.Uniform(0, 10000), rng.Uniform(0, 10000)}, 30}))
                    .ok());
  }
  for (const auto& q : datagen::UniformQueryPoints(20, diagram.domain(), 11)) {
    const auto uv = diagram.QueryPnn(q).ValueOrDie();
    const auto rt = diagram.QueryPnnWithRtree(q).ValueOrDie();
    ASSERT_EQ(uv.size(), rt.size());
    for (size_t i = 0; i < uv.size(); ++i) {
      EXPECT_EQ(uv[i].id, rt[i].id);
      EXPECT_NEAR(uv[i].probability, rt[i].probability, 1e-12);
    }
  }
}

TEST(LiveInsertTest, InsertedObjectBecomesAnswerAtItsLocation) {
  datagen::DatasetOptions opts;
  opts.count = 200;
  opts.seed = 13;
  auto diagram =
      UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts))
          .ValueOrDie();
  const geom::Point spot{7777, 2222};
  ASSERT_TRUE(diagram
                  .InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                      200, {spot, 25}))
                  .ok());
  const auto ids = diagram.AnswerObjectIds(spot).ValueOrDie();
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), 200) != ids.end())
      << "a freshly inserted object must answer at its own center";
}

TEST(LiveInsertTest, RejectsBadIds) {
  datagen::DatasetOptions opts;
  opts.count = 50;
  auto diagram =
      UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts))
          .ValueOrDie();
  EXPECT_FALSE(diagram
                   .InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                       7, {{100, 100}, 10}))
                   .ok());
  EXPECT_FALSE(diagram
                   .InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                       50, {{-5, 100}, 10}))
                   .ok());
}

TEST(LiveInsertTest, PatternQueriesSeeInsertedObjects) {
  datagen::DatasetOptions opts;
  opts.count = 150;
  opts.seed = 17;
  auto diagram =
      UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts))
          .ValueOrDie();
  ASSERT_TRUE(diagram
                  .InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                      150, {{5000, 5000}, 20}))
                  .ok());
  const auto summary = diagram.QueryUvCellSummary(150);
  ASSERT_TRUE(summary.ok());
  EXPECT_GE(summary.value().num_leaves, 1u);
}

TEST(LiveInsertTest, ManyInsertsLengthenLeafChains) {
  // The frozen grid absorbs inserts as page-chain growth, not splits.
  datagen::DatasetOptions opts;
  opts.count = 300;
  opts.seed = 19;
  auto diagram =
      UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts))
          .ValueOrDie();
  const int nonleaf_before = diagram.index().num_nonleaf();
  const size_t pages_before = diagram.index().total_leaf_pages();
  Rng rng(23);
  for (int k = 0; k < 150; ++k) {
    const int id = static_cast<int>(diagram.objects().size());
    ASSERT_TRUE(diagram
                    .InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                        id, {{rng.Uniform(4000, 6000), rng.Uniform(4000, 6000)}, 20}))
                    .ok());
  }
  EXPECT_EQ(diagram.index().num_nonleaf(), nonleaf_before) << "no live splits";
  EXPECT_GE(diagram.index().total_leaf_pages(), pages_before);
}

TEST(LiveInsertTest, FileBackedInsertsAddOnlyAFewPages) {
  // The R-tree that InsertObject rebuilds lives on its own in-RAM page
  // manager: each insert may append an object record and lengthen a few
  // leaf chains, but must not bulk-load another R-tree into the file.
  datagen::DatasetOptions opts;
  opts.count = 2000;
  opts.seed = 29;
  UVDiagram::Options options;
  const std::string path = ::testing::TempDir() + "/uvd_live_insert_growth";
  std::remove(path.c_str());
  options.storage_path = path;
  options.buffer_pool_pages = 64;
  auto diagram = UVDiagram::Build(datagen::GenerateUniform(opts),
                                  datagen::DomainFor(opts), options)
                     .ValueOrDie();
  const size_t rtree_pages = diagram.rtree().num_leaf_pages();
  const uint64_t bytes_before = diagram.page_manager().bytes_on_disk();
  Rng rng(31);
  constexpr int kInserts = 30;
  for (int k = 0; k < kInserts; ++k) {
    const int id = static_cast<int>(diagram.objects().size());
    ASSERT_TRUE(diagram
                    .InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                        id, {{rng.Uniform(0, 10000), rng.Uniform(0, 10000)}, 20}))
                    .ok());
  }
  const double pages_per_insert =
      static_cast<double>(diagram.page_manager().bytes_on_disk() - bytes_before) /
      static_cast<double>(diagram.page_manager().page_size()) / kInserts;
  EXPECT_LE(pages_per_insert, 3.0) << "R-tree leaf pages: " << rtree_pages;
  EXPECT_LT(pages_per_insert, static_cast<double>(rtree_pages));
  ASSERT_TRUE(diagram.CloseStorage().ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace core
}  // namespace uvd
