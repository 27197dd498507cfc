// Tests for incremental insertion (paper Sec. VII future work): after any
// mix of bulk construction and live inserts, both query paths must answer
// exactly like brute force over the full population.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
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
  // The R-tree that InsertObject grows in place lives on its own in-RAM
  // page manager: each insert may append an object record and lengthen a
  // few leaf chains, but must not write any R-tree page into the file.
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

// Every answer both UV-index query paths give at `probes`, flattened so
// two diagrams compare bitwise with one EXPECT_EQ.
struct ProbeAnswers {
  std::vector<std::vector<int>> ids;
  std::vector<std::vector<int>> pnn_ids;
  std::vector<std::vector<double>> pnn_probabilities;
  bool operator==(const ProbeAnswers& o) const {
    return ids == o.ids && pnn_ids == o.pnn_ids &&
           pnn_probabilities == o.pnn_probabilities;
  }
};

ProbeAnswers AnswersAt(const UVDiagram& diagram, const std::vector<geom::Point>& probes) {
  ProbeAnswers out;
  for (const geom::Point& q : probes) {
    out.ids.push_back(diagram.AnswerObjectIds(q).ValueOrDie());
    std::vector<int> ids;
    std::vector<double> probabilities;
    for (const auto& a : diagram.QueryPnn(q).ValueOrDie()) {
      ids.push_back(a.id);
      probabilities.push_back(a.probability);
    }
    out.pnn_ids.push_back(std::move(ids));
    out.pnn_probabilities.push_back(std::move(probabilities));
  }
  return out;
}

TEST(LiveInsertTest, RejectsInvalidObjectsBeforeAnyChange) {
  datagen::DatasetOptions opts;
  opts.count = 200;
  opts.seed = 37;
  auto diagram =
      UVDiagram::Build(datagen::GenerateUniform(opts), datagen::DomainFor(opts))
          .ValueOrDie();
  const auto probes = datagen::UniformQueryPoints(20, diagram.domain(), 41);
  const ProbeAnswers before = AnswersAt(diagram, probes);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int id = 200;

  const std::vector<std::pair<std::string, uncertain::UncertainObject>> bad = {
      {"NaN center",
       uncertain::UncertainObject::WithGaussianPdf(id, {{nan, 5000}, 20})},
      {"infinite center",
       uncertain::UncertainObject::WithGaussianPdf(
           id, {{5000, std::numeric_limits<double>::infinity()}, 20})},
      {"negative radius",
       uncertain::UncertainObject(id, {{5000, 5000}, -3},
                                  uncertain::RadialHistogramPdf::Gaussian(3))},
      {"NaN radius",
       uncertain::UncertainObject(id, {{5000, 5000}, nan},
                                  uncertain::RadialHistogramPdf::Gaussian(3))},
      {"pdf mass 0.9",
       uncertain::UncertainObject(
           id, {{5000, 5000}, 20},
           uncertain::RadialHistogramPdf(uncertain::PdfKind::kGaussian, 20,
                                         {0.5, 0.4}))},
      {"negative bar",
       uncertain::UncertainObject(
           id, {{5000, 5000}, 20},
           uncertain::RadialHistogramPdf(uncertain::PdfKind::kGaussian, 20,
                                         {1.5, -0.5}))},
  };
  for (const auto& [what, object] : bad) {
    const Status s = diagram.InsertObject(object);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << what << ": " << s.ToString();
    EXPECT_EQ(diagram.objects().size(), 200u) << what;
    EXPECT_EQ(diagram.rtree().num_objects(), 200u) << what;
  }
  EXPECT_TRUE(AnswersAt(diagram, probes) == before);
  // Nothing was consumed: the same id is still the next one.
  EXPECT_TRUE(diagram
                  .InsertObject(uncertain::UncertainObject::WithGaussianPdf(
                      id, {{5000, 5000}, 20}))
                  .ok());
}

TEST(LiveInsertTest, InPlaceRtreeMatchesReopenBeforeEveryInsert) {
  // B checkpoints and reopens before every insert, so each of its inserts
  // starts from an R-tree bulk-loaded over the whole population (the lazy
  // first-use load after Open). A grows one tree in place throughout. The
  // R-tree's shape must not leak into anything the diagram serves.
  datagen::DatasetOptions opts;
  opts.count = 1200;
  opts.seed = 43;
  const std::vector<datagen::ClusterSpec> clusters = {{{3000, 3000}, 600, 10},
                                                      {{7000, 6500}, 900, 1}};
  const auto objects = datagen::GenerateClusters(opts, clusters);
  const geom::Box domain = datagen::DomainFor(opts);
  // A small R-tree fanout, so A's inserts split pages and nodes.
  UVDiagram::Options options;
  options.rtree.fanout = 6;
  auto a = UVDiagram::Build(objects, domain, options).ValueOrDie();
  const size_t rtree_leaves_before = a.rtree().num_leaf_pages();
  const std::string path = ::testing::TempDir() + "/uvd_live_insert_oracle";
  std::remove(path.c_str());
  options.storage_path = path;
  auto b = std::make_unique<UVDiagram>(
      UVDiagram::Build(objects, domain, options).ValueOrDie());

  Rng rng(47);
  constexpr int kInserts = 40;
  for (int k = 0; k < kInserts; ++k) {
    const int id = static_cast<int>(a.objects().size());
    const auto& spec = clusters[k % 4 == 3 ? 1 : 0];
    const geom::Point center{
        std::clamp(rng.Gaussian(spec.center.x, spec.sigma), 0.0, 10000.0),
        std::clamp(rng.Gaussian(spec.center.y, spec.sigma), 0.0, 10000.0)};
    const auto object = uncertain::UncertainObject::WithGaussianPdf(id, {center, 20});
    ASSERT_TRUE(a.InsertObject(object).ok());
    ASSERT_TRUE(b->Checkpoint().ok());
    b.reset();
    b = std::make_unique<UVDiagram>(UVDiagram::Open(path, options).ValueOrDie());
    ASSERT_TRUE(b->InsertObject(object).ok());
  }
  ASSERT_EQ(a.rtree().num_objects(), opts.count + kInserts);
  EXPECT_GT(a.rtree().num_leaf_pages(), rtree_leaves_before);

  // Same leaves, same member ids in the same order: the cr sets agree.
  for (uint32_t n = 0; n < a.index().nodes().size(); ++n) {
    if (!a.index().nodes()[n].is_leaf) continue;
    const geom::Box& region = a.index().nodes()[n].region;
    const uint32_t bn = b->index().LocateLeaf(region.Center());
    EXPECT_EQ(b->index().nodes()[bn].region.lo, region.lo);
    EXPECT_EQ(b->index().nodes()[bn].region.hi, region.hi);
    EXPECT_EQ(b->index().LeafObjectIds(bn), a.index().LeafObjectIds(n)) << "leaf " << n;
  }

  auto probes = datagen::UniformQueryPoints(60, domain, 53);
  for (int k = 0; k < 60; ++k) {  // and where the inserts landed
    const size_t inserted = opts.count + static_cast<size_t>(k % kInserts);
    probes.push_back(a.objects()[inserted].center());
  }
  EXPECT_TRUE(AnswersAt(a, probes) == AnswersAt(*b, probes));
  for (const geom::Point& q : probes) {
    std::vector<int> rt;
    for (const auto& ans : a.QueryPnnWithRtree(q).ValueOrDie()) rt.push_back(ans.id);
    std::sort(rt.begin(), rt.end());
    EXPECT_EQ(rt, BruteAnswers(a.objects(), q));
  }
  ASSERT_TRUE(b->CloseStorage().ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace core
}  // namespace uvd
