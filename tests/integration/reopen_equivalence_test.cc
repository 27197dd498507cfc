// Reopen equivalence (the persistence acceptance gate): a diagram built
// into a paged file, checkpointed, closed and reopened COLD in the same
// process must serve PNN and answer-id results bitwise-identical to the
// in-RAM build it mirrors — same ids, same probability bits, same digest —
// across build thread counts and shard counts, with and without a buffer
// pool smaller than the working set. Also pins the typed-error contract:
// opening a missing or non-diagram file yields a clean Status, never a
// garbage diagram.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/uv_diagram.h"
#include "core/uv_index_io.h"
#include "datagen/generators.h"
#include "query/query_batch.h"
#include "query/query_engine.h"
#include "query/result_digest.h"
#include "shard/shard_router.h"
#include "shard/sharded_uv_diagram.h"
#include "storage/file_page_manager.h"
#include "storage/paged_file.h"

namespace uvd {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/uvd_reopen_" + name;
}

void RemoveShardFiles(const std::string& prefix, int num_shards) {
  for (int s = 0; s < num_shards; ++s) {
    std::remove(shard::ShardedUVDiagram::ShardFilePath(prefix, s).c_str());
  }
}

datagen::DatasetOptions DataOptions(size_t n, uint64_t seed) {
  datagen::DatasetOptions opts;
  opts.count = n;
  opts.seed = seed;
  return opts;
}

/// Probe points spread over the domain plus its corners and max edges.
std::vector<geom::Point> Probes(const geom::Box& domain, size_t count,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<geom::Point> probes;
  probes.reserve(count + 4);
  for (size_t i = 0; i < count; ++i) {
    probes.push_back({rng.Uniform(domain.lo.x, domain.hi.x),
                      rng.Uniform(domain.lo.y, domain.hi.y)});
  }
  probes.push_back(domain.lo);
  probes.push_back(domain.hi);
  probes.push_back({domain.lo.x, domain.hi.y});
  probes.push_back({domain.hi.x, domain.lo.y});
  return probes;
}

query::QueryBatch PointBatch(const std::vector<geom::Point>& points) {
  query::QueryBatch batch;
  batch.reserve(points.size() * 2);
  for (const auto& p : points) {
    batch.push_back(query::Query::Pnn(p));
    batch.push_back(query::Query::AnswerIds(p));
  }
  return batch;
}

uint64_t DigestDiagram(const core::UVDiagram& diagram,
                       const std::vector<geom::Point>& probes) {
  query::QueryEngine engine(diagram);
  return query::DigestPointAnswers(engine.ExecuteBatch(PointBatch(probes)));
}

uint64_t DigestSharded(const shard::ShardedUVDiagram& diagram,
                       const std::vector<geom::Point>& probes) {
  shard::ShardRouter router(diagram);
  return query::DigestPointAnswers(router.ExecuteBatch(PointBatch(probes)));
}

TEST(ReopenEquivalenceTest, UnshardedReopenServesIdenticalAnswers) {
  const size_t n = 500;
  for (int build_threads : {1, 8}) {
    SCOPED_TRACE("build_threads=" + std::to_string(build_threads));
    const auto data = DataOptions(n, 71);
    const geom::Box domain = datagen::DomainFor(data);
    const auto probes = Probes(domain, 160, 73);

    core::UVDiagramOptions ram_options;
    ram_options.build_threads = build_threads;
    const auto reference =
        core::UVDiagram::Build(datagen::GenerateUniform(data), domain,
                               ram_options)
            .ValueOrDie();
    const uint64_t want = DigestDiagram(reference, probes);

    const std::string path =
        TempPath("unsharded_t" + std::to_string(build_threads));
    std::remove(path.c_str());
    core::UVDiagramOptions file_options = ram_options;
    file_options.storage_path = path;
    {
      auto built = core::UVDiagram::Build(datagen::GenerateUniform(data),
                                          domain, file_options)
                       .ValueOrDie();
      ASSERT_TRUE(built.persistent());
      // The file-backed build must already serve identical bits.
      EXPECT_EQ(DigestDiagram(built, probes), want);
      UVD_CHECK_OK(built.CloseStorage());
    }

    // Cold reopen, once pool-less and once with a pool smaller than the
    // file, must both reproduce the digest bitwise.
    for (size_t pool_pages : {size_t{0}, size_t{8}}) {
      SCOPED_TRACE("pool_pages=" + std::to_string(pool_pages));
      core::UVDiagramOptions open_options;
      open_options.buffer_pool_pages = pool_pages;
      auto reopened = core::UVDiagram::Open(path, open_options).ValueOrDie();
      ASSERT_TRUE(reopened.persistent());
      ASSERT_EQ(reopened.objects().size(), n);
      EXPECT_EQ(DigestDiagram(reopened, probes), want);
      // The R-tree path is rebuilt lazily from the reloaded objects and
      // must agree with the UV-index path on a spot check.
      const auto via_rtree =
          reopened.QueryPnnWithRtree(probes.front()).ValueOrDie();
      const auto via_index = reopened.QueryPnn(probes.front()).ValueOrDie();
      ASSERT_EQ(via_rtree.size(), via_index.size());
      for (size_t k = 0; k < via_rtree.size(); ++k) {
        EXPECT_EQ(via_rtree[k].id, via_index[k].id);
      }
      UVD_CHECK_OK(reopened.CloseStorage());
    }
    std::remove(path.c_str());
  }
}

TEST(ReopenEquivalenceTest, ShardedReopenServesIdenticalAnswers) {
  const size_t n = 400;
  for (int num_shards : {1, 4}) {
    for (int build_threads : {1, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(num_shards) +
                   " build_threads=" + std::to_string(build_threads));
      const auto data = DataOptions(n, 77);
      const geom::Box domain = datagen::DomainFor(data);
      const auto probes = Probes(domain, 120, 79);

      shard::ShardedUVDiagramOptions options;
      options.num_shards = num_shards;
      options.diagram.build_threads = build_threads;
      const auto reference =
          shard::ShardedUVDiagram::Build(datagen::GenerateUniform(data),
                                         domain, options)
              .ValueOrDie();
      const uint64_t want = DigestSharded(reference, probes);

      const std::string prefix =
          TempPath("sharded_k" + std::to_string(num_shards) + "_t" +
                   std::to_string(build_threads));
      RemoveShardFiles(prefix, num_shards);
      shard::ShardedUVDiagramOptions file_options = options;
      file_options.diagram.storage_path = prefix;
      {
        auto built =
            shard::ShardedUVDiagram::Build(datagen::GenerateUniform(data),
                                           domain, file_options)
                .ValueOrDie();
        ASSERT_TRUE(built.persistent());
        EXPECT_EQ(DigestSharded(built, probes), want);
        UVD_CHECK_OK(built.CloseStorage());
      }

      shard::ShardedUVDiagramOptions open_options;
      open_options.diagram.buffer_pool_pages = 8;
      auto reopened =
          shard::ShardedUVDiagram::Open(prefix, open_options).ValueOrDie();
      ASSERT_TRUE(reopened.persistent());
      ASSERT_EQ(reopened.num_shards(), static_cast<size_t>(num_shards));
      ASSERT_EQ(reopened.objects().size(), n);
      for (size_t k = 0; k < n; ++k) {
        ASSERT_EQ(reopened.objects()[k].id(), static_cast<int>(k));
      }
      EXPECT_EQ(DigestSharded(reopened, probes), want);
      UVD_CHECK_OK(reopened.CloseStorage());
      RemoveShardFiles(prefix, num_shards);
    }
  }
}

TEST(ReopenEquivalenceTest, OpenRejectsMissingAndForeignFiles) {
  // Missing file: a typed error, not a crash.
  const auto missing = core::UVDiagram::Open(TempPath("does_not_exist"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);

  // A valid paged file that is not a diagram: InvalidArgument from the
  // bootstrap magic, not garbage answers.
  const std::string path = TempPath("foreign");
  std::remove(path.c_str());
  {
    auto file = storage::PagedFile::Create(path, 256).ValueOrDie();
    std::vector<uint8_t> bootstrap(24, 0xAB);
    UVD_CHECK_OK(file->SetBootstrap(bootstrap));
    UVD_CHECK_OK(file->Close());
  }
  const auto foreign = core::UVDiagram::Open(path);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ReopenEquivalenceTest, OpenRejectsShortManifests) {
  // A checkpointed store whose bootstrap is re-sealed with a shorter
  // declared manifest size: checksums pass, and Open must return
  // Corruption instead of decoding past the manifest's end. The manifest
  // holds magic + version (8 bytes), the domain (32), the object-store
  // state (16 + 4 per data page) and the index handle (8).
  const std::string path = TempPath("short_manifest");
  std::remove(path.c_str());
  auto options = DataOptions(300, 5);
  core::UVDiagram::Options diagram_options;
  diagram_options.storage_path = path;
  {
    auto diagram = core::UVDiagram::Build(datagen::GenerateUniform(options),
                                          datagen::DomainFor(options), diagram_options)
                       .ValueOrDie();
    UVD_CHECK_OK(diagram.CloseStorage());
  }
  std::vector<uint8_t> original;
  {
    auto file = storage::FilePageManager::Open(path).ValueOrDie();
    original = file->bootstrap();
    UVD_CHECK_OK(file->Close());
  }
  ASSERT_EQ(original.size(), 20u);
  uint32_t full_bytes = 0;
  std::memcpy(&full_bytes, original.data() + 16, sizeof(full_bytes));
  ASSERT_GT(full_bytes, 68u) << "needs at least two data pages";

  for (uint32_t bytes : {12u, 40u, 52u, 60u, full_bytes - 4}) {
    std::vector<uint8_t> bootstrap = original;
    std::memcpy(bootstrap.data() + 16, &bytes, sizeof(bytes));
    {
      auto file = storage::FilePageManager::Open(path).ValueOrDie();
      UVD_CHECK_OK(file->SetBootstrap(bootstrap));
      UVD_CHECK_OK(file->Close());
    }
    const auto reopened = core::UVDiagram::Open(path);
    ASSERT_FALSE(reopened.ok()) << "manifest_bytes " << bytes;
    EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
        << "manifest_bytes " << bytes << ": " << reopened.status().ToString();
  }

  // The original bootstrap still opens.
  {
    auto file = storage::FilePageManager::Open(path).ValueOrDie();
    UVD_CHECK_OK(file->SetBootstrap(original));
    UVD_CHECK_OK(file->Close());
  }
  auto reopened = core::UVDiagram::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().objects().size(), 300u);
  UVD_CHECK_OK(reopened.value().CloseStorage());
  std::remove(path.c_str());
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(f),
                              std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamoff>(bytes.size()));
}

/// Reads a shard file's manifest, lets `edit` change its bytes and its
/// declared length, then writes it to fresh pages and re-seals the
/// bootstrap to point there: every checksum passes, so only the manifest
/// decoder stands between the edit and the diagram.
void EditShardManifest(
    const std::string& path,
    const std::function<void(std::vector<uint8_t>*, uint32_t*)>& edit) {
  auto file = storage::FilePageManager::Open(path).ValueOrDie();
  std::vector<uint8_t> bootstrap = file->bootstrap();
  ASSERT_EQ(bootstrap.size(), 20u);
  core::SavedIndexHandle handle;
  uint32_t declared = 0;
  std::memcpy(&handle.first_page, bootstrap.data() + 8, 4);
  std::memcpy(&handle.page_count, bootstrap.data() + 12, 4);
  std::memcpy(&declared, bootstrap.data() + 16, 4);
  std::vector<uint8_t> manifest;
  UVD_CHECK_OK(core::ReadPagesToStream(*file, handle, &manifest));
  manifest.resize(declared);
  edit(&manifest, &declared);
  handle = core::WriteStreamToPages(manifest, file.get()).ValueOrDie();
  std::memcpy(bootstrap.data() + 8, &handle.first_page, 4);
  std::memcpy(bootstrap.data() + 12, &handle.page_count, 4);
  std::memcpy(bootstrap.data() + 16, &declared, 4);
  UVD_CHECK_OK(file->SetBootstrap(bootstrap));
  UVD_CHECK_OK(file->Close());
}

TEST(ReopenEquivalenceTest, OpenRejectsShortShardManifests) {
  // Shard manifests re-sealed with a shorter declared size or damaged
  // fields: checksums pass, and ShardedUVDiagram::Open must return
  // Corruption instead of decoding past the manifest's end, aborting, or
  // allocating by an unchecked count. A shard manifest holds magic +
  // version (8 bytes), shard index, fleet size and object count (12), the
  // domain (32), the shard box (32), the id count and ids (4 + 4 per id),
  // the object-store state (16 + 4 per data page) and the index handle (8).
  constexpr int kShards = 2;
  const std::string prefix = TempPath("short_shard_manifest");
  RemoveShardFiles(prefix, kShards);
  const auto data = DataOptions(300, 9);
  shard::ShardedUVDiagramOptions options;
  options.num_shards = kShards;
  options.diagram.storage_path = prefix;
  {
    auto diagram = shard::ShardedUVDiagram::Build(datagen::GenerateUniform(data),
                                                  datagen::DomainFor(data), options)
                       .ValueOrDie();
    UVD_CHECK_OK(diagram.CloseStorage());
  }
  std::vector<std::vector<uint8_t>> pristine;
  for (int s = 0; s < kShards; ++s) {
    pristine.push_back(
        ReadBytes(shard::ShardedUVDiagram::ShardFilePath(prefix, s)));
  }
  const auto restore = [&] {
    for (int s = 0; s < kShards; ++s) {
      WriteBytes(shard::ShardedUVDiagram::ShardFilePath(prefix, s), pristine[s]);
    }
  };

  constexpr size_t kIdsAt = 88;  // the first registered id
  uint32_t registered = 0;
  uint32_t full_bytes = 0;
  EditShardManifest(shard::ShardedUVDiagram::ShardFilePath(prefix, 0),
                    [&](std::vector<uint8_t>* manifest, uint32_t* declared) {
                      std::memcpy(&registered, manifest->data() + kIdsAt - 4, 4);
                      full_bytes = *declared;
                    });
  restore();
  ASSERT_GT(registered, 0u);
  ASSERT_GT(full_bytes, kIdsAt + 4 * registered + 16 + 8);
  const uint32_t ids_end = static_cast<uint32_t>(kIdsAt + 4 * registered);

  const auto put_u32 = [](size_t at, uint32_t v) {
    return [at, v](std::vector<uint8_t>* manifest, uint32_t*) {
      std::memcpy(manifest->data() + at, &v, 4);
    };
  };
  const auto put_double = [](size_t at, double v) {
    return [at, v](std::vector<uint8_t>* manifest, uint32_t*) {
      std::memcpy(manifest->data() + at, &v, 8);
    };
  };
  const auto declare = [](uint32_t bytes) {
    return [bytes](std::vector<uint8_t>*, uint32_t* declared) {
      *declared = bytes;
    };
  };
  struct Case {
    std::string name;
    int shard;
    std::function<void(std::vector<uint8_t>*, uint32_t*)> edit;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Case> cases = {
      {"mid header", 0, declare(12)},
      {"mid domain", 0, declare(40)},
      {"before the id count", 0, declare(84)},
      {"mid id list", 0, declare(ids_end - 4)},
      {"mid store state", 0, declare(ids_end + 8)},
      {"mid index handle", 0, declare(full_bytes - 4)},
      {"shard 1 before the id count", 1, declare(84)},
      {"id count past the manifest", 0, put_u32(kIdsAt - 4, 0x40000000u)},
      {"NaN domain", 0, put_double(20, nan)},
      {"infinite domain", 0, put_double(44, inf)},
      {"NaN shard box", 1, put_double(52, nan)},
      {"inverted shard box", 0, put_double(52, 1e12)},  // lo.x past hi.x
      {"huge object count", -1, put_u32(16, 0xffffffffu)},
      {"registered id past the object count", 0, put_u32(kIdsAt, 1u << 30)},
      {"registered id not in the store", 0, put_u32(kIdsAt, 299u)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    for (int s = 0; s < kShards; ++s) {
      if (c.shard == s || c.shard == -1) {
        EditShardManifest(shard::ShardedUVDiagram::ShardFilePath(prefix, s),
                          c.edit);
      }
    }
    const auto reopened = shard::ShardedUVDiagram::Open(prefix);
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
        << reopened.status().ToString();
    restore();
  }

  // The pristine fleet still opens.
  auto reopened = shard::ShardedUVDiagram::Open(prefix);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().objects().size(), 300u);
  UVD_CHECK_OK(reopened.value().CloseStorage());
  RemoveShardFiles(prefix, kShards);
}

}  // namespace
}  // namespace uvd
