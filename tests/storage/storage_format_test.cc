// Byte-pinned on-disk format test: tests/storage/testdata/golden_v2.uvpf
// is a checked-in v2 paged file (page_size 128, three patterned pages,
// a known bootstrap blob) whose every structural byte this test asserts at
// its FIXED offset — magic, version, page size, durable count, bootstrap,
// metapage checksum, per-frame checksums/ids/payloads and the total file
// size — with the checksums as literals, so a change to PageChecksum fails
// here too. The negative half mutates COPIES of the fixture and pins each
// defect to its distinct typed Status: bad magic -> InvalidArgument, a
// version other than 2 (including the checked-in v1 file
// golden_v1.uvpf, kept only for this) -> NotImplemented, file shorter
// than a metapage -> IOError, a re-sealed page size outside [64, 16M],
// truncated data or checksum damage -> Corruption. Regenerate the fixture
// only with a deliberate format-version bump (see docs/STORAGE.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "storage/paged_file.h"

namespace uvd {
namespace storage {
namespace {

constexpr size_t kGoldenPageSize = 128;
constexpr uint32_t kGoldenPages = 3;
constexpr size_t kFrameSize = kPageFrameHeaderSize + kGoldenPageSize;
constexpr char kGoldenBootstrap[] = "golden-bootstrap-v2";
// Offset of the metapage checksum: magic(4) + version(4) + page_size(4) +
// page_count(4) + bootstrap_len(4) + bootstrap capacity.
constexpr size_t kChecksumOffset = 20 + kBootstrapCapacity;

// PageChecksum of the fixture's metapage bytes [0, 276) and of its three
// frames, as stored at offsets 276 and 512 + p * 144.
constexpr uint64_t kGoldenMetaChecksum = 0xb96bec73067dce6full;
constexpr uint64_t kGoldenFrameChecksums[kGoldenPages] = {
    0x26e9dfcf28aa07b4ull, 0xd9ef2099e69942c3ull, 0x50f5cae2c6ebd41aull};

std::string TestdataPath(const std::string& name) {
  return std::string(UVD_SOURCE_DIR) + "/tests/storage/testdata/" + name;
}

std::string GoldenPath() { return TestdataPath("golden_v2.uvpf"); }

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(f),
                              std::istreambuf_iterator<char>());
}

uint32_t U32At(const std::vector<uint8_t>& bytes, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + offset, 4);
  return v;
}

uint64_t U64At(const std::vector<uint8_t>& bytes, size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + offset, 8);
  return v;
}

std::vector<uint8_t> GoldenPayload(uint32_t page) {
  std::vector<uint8_t> data(kGoldenPageSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((page * 31 + i) & 0xff);
  }
  return data;
}

/// Writes a mutated copy of the fixture and returns its path.
std::string WriteCopy(const std::string& name,
                      const std::vector<uint8_t>& bytes) {
  const std::string path = ::testing::TempDir() + "/uvd_format_" + name;
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamoff>(bytes.size()));
  return path;
}

/// Recomputes the metapage checksum of a mutated fixture, so Open gets
/// past the checksum to the field under test.
void Reseal(std::vector<uint8_t>* bytes) {
  const uint64_t checksum =
      PageChecksum(bytes->data(), kChecksumOffset, kMetapageChecksumId);
  std::memcpy(bytes->data() + kChecksumOffset, &checksum, 8);
}

TEST(StorageFormatTest, GoldenFileBytesArePinned) {
  const std::vector<uint8_t> bytes = ReadFile(GoldenPath());
  ASSERT_EQ(bytes.size(), kMetaBlockSize + kGoldenPages * kFrameSize);

  // Metapage fields at their frozen offsets.
  EXPECT_EQ(U32At(bytes, 0), kPagedFileMagic);  // "UVPF"
  EXPECT_EQ(U32At(bytes, 4), 2u);
  EXPECT_EQ(kPagedFileVersion, 2u);
  EXPECT_EQ(U32At(bytes, 8), kGoldenPageSize);
  EXPECT_EQ(U32At(bytes, 12), kGoldenPages);
  const size_t bootstrap_len = std::strlen(kGoldenBootstrap);
  EXPECT_EQ(U32At(bytes, 16), bootstrap_len);
  EXPECT_EQ(std::memcmp(bytes.data() + 20, kGoldenBootstrap, bootstrap_len),
            0);
  // Unused bootstrap capacity is zeroed (no uninitialized bytes on disk).
  for (size_t i = 20 + bootstrap_len; i < kChecksumOffset; ++i) {
    ASSERT_EQ(bytes[i], 0u) << "metapage byte " << i;
  }
  EXPECT_EQ(U64At(bytes, kChecksumOffset), kGoldenMetaChecksum);
  EXPECT_EQ(PageChecksum(bytes.data(), kChecksumOffset, kMetapageChecksumId),
            kGoldenMetaChecksum);
  // Metapage padding past the checksum is zeroed too.
  for (size_t i = kChecksumOffset + 8; i < kMetaBlockSize; ++i) {
    ASSERT_EQ(bytes[i], 0u) << "metapage byte " << i;
  }

  // Every data frame: checksum of the payload bound to the page id, the id
  // itself, zeroed reserved bytes, then the payload.
  for (uint32_t p = 0; p < kGoldenPages; ++p) {
    SCOPED_TRACE("page " + std::to_string(p));
    const size_t frame = kMetaBlockSize + p * kFrameSize;
    const std::vector<uint8_t> payload = GoldenPayload(p);
    EXPECT_EQ(U64At(bytes, frame), kGoldenFrameChecksums[p]);
    EXPECT_EQ(PageChecksum(payload.data(), payload.size(), p),
              kGoldenFrameChecksums[p]);
    EXPECT_EQ(U32At(bytes, frame + 8), p);
    EXPECT_EQ(U32At(bytes, frame + 12), 0u);  // reserved
    EXPECT_EQ(std::memcmp(bytes.data() + frame + kPageFrameHeaderSize,
                          payload.data(), payload.size()),
              0);
  }
}

TEST(StorageFormatTest, GoldenFileOpensAndServesItsPages) {
  // Open a copy (the checked-in fixture must never be written to).
  const std::string path = WriteCopy("pristine", ReadFile(GoldenPath()));
  auto file = PagedFile::Open(path).ValueOrDie();
  EXPECT_EQ(file->page_size(), kGoldenPageSize);
  EXPECT_EQ(file->page_count(), kGoldenPages);
  EXPECT_EQ(file->durable_page_count(), kGoldenPages);
  const std::string bootstrap(file->bootstrap().begin(),
                              file->bootstrap().end());
  EXPECT_EQ(bootstrap, kGoldenBootstrap);
  std::vector<uint8_t> out;
  for (uint32_t p = 0; p < kGoldenPages; ++p) {
    UVD_CHECK_OK(file->ReadPage(p, &out));
    EXPECT_EQ(out, GoldenPayload(p));
  }
  EXPECT_EQ(file->ReadPage(kGoldenPages, &out).code(), StatusCode::kNotFound);
  UVD_CHECK_OK(file->Close());
  std::remove(path.c_str());
}

TEST(StorageFormatTest, EachDefectGetsItsDistinctTypedStatus) {
  const std::vector<uint8_t> golden = ReadFile(GoldenPath());

  {  // Bad magic: not one of ours.
    auto bytes = golden;
    bytes[0] ^= 0xff;
    const std::string path = WriteCopy("bad_magic", bytes);
    const auto r = PagedFile::Open(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    std::remove(path.c_str());
  }
  {  // Other format versions: ours, but not the version this build reads.
     // Version is checked before the checksum, so such a file is refused
     // by version, not misreported as corrupt; the re-sealed copies show
     // the version alone decides.
    for (const uint32_t version : {0u, 1u, 3u, 99u}) {
      SCOPED_TRACE("version " + std::to_string(version));
      for (const bool reseal : {false, true}) {
        auto bytes = golden;
        std::memcpy(bytes.data() + 4, &version, 4);
        if (reseal) Reseal(&bytes);
        const std::string path = WriteCopy("other_version", bytes);
        const auto r = PagedFile::Open(path);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::kNotImplemented);
        EXPECT_NE(r.status().message().find("version " + std::to_string(version)),
                  std::string::npos)
            << r.status().ToString();
        std::remove(path.c_str());
      }
    }
  }
  {  // The checked-in v1 file (byte-serial FNV checksums): rebuild, not read.
    const std::string path =
        WriteCopy("v1", ReadFile(TestdataPath("golden_v1.uvpf")));
    const auto r = PagedFile::Open(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kNotImplemented);
    EXPECT_NE(r.status().message().find("version 1"), std::string::npos)
        << r.status().ToString();
    std::remove(path.c_str());
  }
  {  // A checksum-valid metapage declaring a page size Create refuses:
     // Corruption before anything is sized by it (0xffffffff would make
     // every ReadPage allocate a 4 GiB frame).
    for (const uint32_t page_size :
         {0u, 1u, 63u, (1u << 24) + 1, 0x7fffffffu, 0xffffffffu}) {
      SCOPED_TRACE("page_size " + std::to_string(page_size));
      auto bytes = golden;
      std::memcpy(bytes.data() + 8, &page_size, 4);
      Reseal(&bytes);
      const std::string path = WriteCopy("page_size", bytes);
      const auto r = PagedFile::Open(path);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
      std::remove(path.c_str());
    }
  }
  {  // Shorter than a metapage: not a page store at all.
    auto bytes = golden;
    bytes.resize(100);
    const std::string path = WriteCopy("stub", bytes);
    const auto r = PagedFile::Open(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
    std::remove(path.c_str());
  }
  {  // Valid metapage, data truncated below the durable count.
    auto bytes = golden;
    bytes.resize(kMetaBlockSize + kFrameSize);  // 1 of 3 pages survive
    const std::string path = WriteCopy("truncated", bytes);
    const auto r = PagedFile::Open(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    std::remove(path.c_str());
  }
  {  // Metapage checksum mismatch (a flipped page-count bit).
    auto bytes = golden;
    bytes[12] ^= 0x01;
    const std::string path = WriteCopy("meta_flip", bytes);
    const auto r = PagedFile::Open(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    std::remove(path.c_str());
  }
  {  // Data-frame damage: the file opens, the damaged page refuses to
     // read, its neighbors stay servable.
    auto bytes = golden;
    bytes[kMetaBlockSize + kFrameSize + kPageFrameHeaderSize + 5] ^= 0x80;
    const std::string path = WriteCopy("frame_flip", bytes);
    auto file = PagedFile::Open(path).ValueOrDie();
    std::vector<uint8_t> out;
    EXPECT_EQ(file->ReadPage(1, &out).code(), StatusCode::kCorruption);
    UVD_CHECK_OK(file->ReadPage(0, &out));
    UVD_CHECK_OK(file->ReadPage(2, &out));
    UVD_CHECK_OK(file->Close());
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace storage
}  // namespace uvd
