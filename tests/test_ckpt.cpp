// Tests for vpic::ckpt (src/ckpt) and its Simulation integration
// (core/checkpoint.cpp, docs/CHECKPOINT.md):
//
//   * CRC-32 values against the bytewise reference loop,
//   * View serializer round trips (prefix encoding, shape validation),
//   * checkpoint file envelope + typed corruption detection — every
//     FaultInjector mode is pinned to the RestoreError kind restore must
//     classify it as — and the reader's read-on-first-access,
//   * generation ring naming/pruning and corrupt-newest fallback,
//   * bit-identical resume: 50 steps + checkpoint + restore + 50 steps
//     equals 100 uninterrupted steps on the LPI deck,
//   * async snapshots: file bytes identical to a sync checkpoint taken at
//     the same step, isolated from subsequent stepping,
//   * config-driven periodic checkpointing, resume at another thread
//     count, and files of the retired tiled step (tests/data/tiled),
//   * coordinated DistributedSimulation checkpoint/restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "core/core.hpp"
#include "elastic/elastic.hpp"
#include "minimpi/minimpi.hpp"
#include "prof/prof.hpp"

namespace core = vpic::core;
namespace ckpt = vpic::ckpt;
namespace mpi = vpic::mpi;
namespace pk = vpic::pk;
namespace prof = vpic::prof;
namespace fs = std::filesystem;
using pk::index_t;

namespace {

class PkEnv : public ::testing::Environment {
 public:
  // One kernel thread: the bit-identity suites compare raw bytes, and
  // with >1 OpenMP threads the float-atomic current deposits are
  // nondeterministic even between two sequential runs. The async
  // checkpoint writer's thread runs no kernels, so it ignores this.
  void SetUp() override { pk::initialize(1); }
};
[[maybe_unused]] const auto* const env =
    ::testing::AddGlobalTestEnvironment(new PkEnv);

/// Fresh unique scratch directory under the gtest temp dir.
fs::path scratch(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("vpic_ckpt_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Small LPI deck (the issue's bit-identity workload) with energy
/// diagnostics on, cheap enough for 100-step test runs.
core::Simulation make_lpi_small(std::uint64_t seed = 42) {
  core::decks::LpiParams p;
  p.nx = 12;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 2;
  p.sort_interval = 10;
  p.seed = seed;
  auto sim = core::decks::make_lpi(p);
  sim.config().energy_interval = 5;
  return sim;
}

/// The live particle records of a species.
std::vector<core::Particle> canon_particles(const core::Species& sp) {
  std::vector<core::Particle> out(static_cast<std::size_t>(sp.np));
  std::copy_n(sp.p.data(), sp.np, out.data());
  return out;
}

std::vector<std::byte> view_bytes(const pk::View<float, 1>& v) {
  std::vector<std::byte> b(static_cast<std::size_t>(v.size()) *
                           sizeof(float));
  std::memcpy(b.data(), v.data(), b.size());
  return b;
}

void expect_bit_identical(core::Simulation& a, core::Simulation& b) {
  EXPECT_EQ(a.step_count(), b.step_count());
  const auto& fa = a.fields();
  const auto& fb = b.fields();
  EXPECT_EQ(view_bytes(fa.ex), view_bytes(fb.ex));
  EXPECT_EQ(view_bytes(fa.ey), view_bytes(fb.ey));
  EXPECT_EQ(view_bytes(fa.ez), view_bytes(fb.ez));
  EXPECT_EQ(view_bytes(fa.bx), view_bytes(fb.bx));
  EXPECT_EQ(view_bytes(fa.by), view_bytes(fb.by));
  EXPECT_EQ(view_bytes(fa.bz), view_bytes(fb.bz));
  EXPECT_EQ(view_bytes(fa.jx), view_bytes(fb.jx));
  EXPECT_EQ(view_bytes(fa.jy), view_bytes(fb.jy));
  EXPECT_EQ(view_bytes(fa.jz), view_bytes(fb.jz));
  ASSERT_EQ(a.num_species(), b.num_species());
  for (std::size_t s = 0; s < a.num_species(); ++s) {
    const auto& sa = a.species(s);
    const auto& sb = b.species(s);
    ASSERT_EQ(sa.np, sb.np) << "species " << sa.name;
    const auto pa = canon_particles(sa);
    const auto pb = canon_particles(sb);
    EXPECT_EQ(std::memcmp(pa.data(), pb.data(),
                          static_cast<std::size_t>(sa.np) *
                              sizeof(core::Particle)),
              0)
        << "species " << sa.name << " particle bytes differ";
  }
  EXPECT_EQ(a.energy_history().to_csv(), b.energy_history().to_csv());
}

std::vector<std::byte> slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::vector<char> c((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  std::vector<std::byte> b(c.size());
  std::memcpy(b.data(), c.data(), c.size());
  return b;
}

/// Write a small standalone checkpoint file (no simulation needed) for
/// the envelope / corruption tests.
void write_sample(const std::string& path, std::uint64_t fingerprint = 7,
                  std::int64_t step = 3) {
  ckpt::FileWriter w;
  pk::View<float, 1> v("v", 64);
  for (index_t i = 0; i < v.size(); ++i)
    v(i) = static_cast<float>(i) * 0.5f;
  w.add_view("alpha", v);
  std::vector<double> d(32, 1.25);
  w.add_vector("beta", d);
  w.add_pod("gamma", std::int64_t{42});
  w.commit(path, fingerprint, step);
}

/// Run `f`, expecting it to throw RestoreError; return the kind.
template <class F>
ckpt::RestoreErrorKind thrown_kind(F&& f) {
  try {
    f();
  } catch (const ckpt::RestoreError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a ckpt::RestoreError";
  return ckpt::RestoreErrorKind::IoError;
}

}  // namespace

// ---- CRC-32 ----------------------------------------------------------

namespace {

/// The bytewise table loop: the definition of every CRC on disk, which
/// ckpt::crc32's sliced loop must reproduce exactly.
std::uint32_t crc32_bytewise(const void* data, std::size_t n,
                             std::uint32_t seed = 0) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i)
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace

TEST(Crc32, StandardCheckValue) {
  EXPECT_EQ(ckpt::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32_bytewise("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(ckpt::crc32(nullptr, 0), 0u);
}

TEST(Crc32, FoldingPathEqualsTheTableLoop) {
  // crc32 folds with carry-less multiplies where the CPU has them; it
  // must give the slicing-by-8 loop's values at every length 0-4096 and
  // misalignment 0-15, from any seed, and over one 22 MiB buffer.
  std::vector<unsigned char> buf(4096 + 16);
  std::uint64_t rng = 0xC0FFEEull;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<unsigned char>(rng >> 56);
  };
  for (auto& b : buf) b = next();
  for (std::size_t off = 0; off < 16; ++off) {
    const unsigned char* p = buf.data() + off;
    for (std::size_t n = 0; n <= 4096; ++n) {
      ASSERT_EQ(ckpt::crc32(p, n), ckpt::crc32_portable(p, n))
          << "offset " << off << " length " << n;
      if (n % 61 == 0) {
        const std::uint32_t seed = 0x9E3779B9u * static_cast<std::uint32_t>(n);
        ASSERT_EQ(ckpt::crc32(p, n, seed), ckpt::crc32_portable(p, n, seed))
            << "offset " << off << " length " << n << " seed " << seed;
      }
    }
  }
  std::vector<unsigned char> big(22u << 20);
  for (auto& b : big) b = next();
  EXPECT_EQ(ckpt::crc32(big.data(), big.size()),
            ckpt::crc32_portable(big.data(), big.size()));
  EXPECT_EQ(ckpt::crc32(big.data() + 3, big.size() - 3),
            ckpt::crc32_portable(big.data() + 3, big.size() - 3));
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  std::vector<unsigned char> buf(300 + 8);
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  for (auto& b : buf) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<unsigned char>(rng >> 56);
  }
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t n = 0; n <= 300; ++n) {
      const unsigned char* p = buf.data() + off;
      const std::uint32_t want = crc32_bytewise(p, n);
      ASSERT_EQ(ckpt::crc32(p, n), want) << "offset " << off << " length " << n;
      // Split seeds: a CRC extended over two pieces equals the whole.
      for (const std::size_t cut : {std::size_t{1}, n / 3, n / 2, n - n / 5}) {
        if (cut > n) continue;
        ASSERT_EQ(ckpt::crc32(p + cut, n - cut, ckpt::crc32(p, cut)), want)
            << "offset " << off << " length " << n << " cut " << cut;
      }
      const std::uint32_t seed = 0x01234567u * static_cast<std::uint32_t>(n + 1);
      ASSERT_EQ(ckpt::crc32(p, n, seed), crc32_bytewise(p, n, seed))
          << "offset " << off << " length " << n << " seed " << seed;
    }
  }
}

// ---- serializer ------------------------------------------------------

TEST(Serialize, Rank1RoundTrip) {
  pk::View<float, 1> v("v", 17);
  for (index_t i = 0; i < v.size(); ++i) v(i) = 3.0f * static_cast<float>(i);
  const auto s = ckpt::encode_view("v", v);
  EXPECT_EQ(s.elem_size, sizeof(float));
  EXPECT_EQ(s.rank, 1u);
  EXPECT_EQ(s.extents[0], 17);
  const auto back = ckpt::decode_view<float, 1>(s);
  ASSERT_EQ(back.size(), v.size());
  for (index_t i = 0; i < v.size(); ++i) EXPECT_EQ(back(i), v(i));
}

TEST(Serialize, Rank2RoundTripBothLayouts) {
  pk::View<double, 2> r("r", 5, 7);
  pk::View<double, 2, pk::LayoutLeft> l("l", 5, 7);
  for (index_t i = 0; i < 5; ++i)
    for (index_t j = 0; j < 7; ++j) {
      r(i, j) = static_cast<double>(10 * i + j);
      l(i, j) = static_cast<double>(10 * i + j);
    }
  const auto sr = ckpt::encode_view("r", r);
  const auto sl = ckpt::encode_view("l", l);
  EXPECT_EQ(sr.layout, ckpt::kLayoutRight);
  EXPECT_EQ(sl.layout, ckpt::kLayoutLeft);
  const auto br = ckpt::decode_view<double, 2>(sr);
  const auto bl = ckpt::decode_view<double, 2, pk::LayoutLeft>(sl);
  for (index_t i = 0; i < 5; ++i)
    for (index_t j = 0; j < 7; ++j) {
      EXPECT_EQ(br(i, j), r(i, j));
      EXPECT_EQ(bl(i, j), l(i, j));
    }
}

TEST(Serialize, PrefixEncodingAndLargerDestination) {
  pk::View<std::int32_t, 1> v("v", 100);
  for (index_t i = 0; i < v.size(); ++i) v(i) = static_cast<std::int32_t>(i);
  const auto s = ckpt::encode_view("v", v, /*count=*/10);
  EXPECT_EQ(s.extents[0], 10);
  EXPECT_EQ(s.payload.size(), 10 * sizeof(std::int32_t));
  // A rank-1 destination may be larger than the encoded prefix.
  pk::View<std::int32_t, 1> dst("dst", 50);
  ckpt::decode_view_into(s, dst);
  for (index_t i = 0; i < 10; ++i) EXPECT_EQ(dst(i), i);
}

TEST(Serialize, ShapeMismatchesAreTyped) {
  pk::View<float, 1> v("v", 8);
  const auto s = ckpt::encode_view("v", v);
  // Wrong element type.
  EXPECT_EQ(thrown_kind([&] { (void)ckpt::decode_view<double, 1>(s); }),
            ckpt::RestoreErrorKind::ShapeMismatch);
  // Wrong rank.
  EXPECT_EQ(thrown_kind([&] { (void)ckpt::decode_view<float, 2>(s); }),
            ckpt::RestoreErrorKind::ShapeMismatch);
  // Destination too small.
  pk::View<float, 1> tiny("tiny", 4);
  EXPECT_EQ(thrown_kind([&] { ckpt::decode_view_into(s, tiny); }),
            ckpt::RestoreErrorKind::ShapeMismatch);
}

// ---- file envelope ---------------------------------------------------

TEST(File, WriterReaderRoundTrip) {
  const auto dir = scratch("file_roundtrip");
  const std::string path = (dir / "a.ckpt").string();
  write_sample(path, /*fingerprint=*/99, /*step=*/123);

  ckpt::FileReader f(path);
  EXPECT_EQ(f.fingerprint(), 99u);
  EXPECT_EQ(f.step(), 123);
  EXPECT_EQ(f.section_count(), 3u);
  EXPECT_TRUE(f.has("alpha"));
  EXPECT_FALSE(f.has("nope"));
  const auto v = f.view<float, 1>("alpha");
  ASSERT_EQ(v.size(), 64);
  EXPECT_EQ(v(10), 5.0f);
  EXPECT_EQ(f.vector<double>("beta").size(), 32u);
  EXPECT_EQ(f.pod<std::int64_t>("gamma"), 42);
  EXPECT_NO_THROW(f.require_fingerprint(99));
  EXPECT_EQ(thrown_kind([&] { f.require_fingerprint(100); }),
            ckpt::RestoreErrorKind::FingerprintMismatch);
  EXPECT_EQ(thrown_kind([&] { (void)f.section("nope"); }),
            ckpt::RestoreErrorKind::MissingSection);
}

TEST(File, ReaderReadsEachPayloadOnFirstAccess) {
  const auto dir = scratch("file_lazy");
  const std::string path = (dir / "a.ckpt").string();
  write_sample(path);
  const auto read = [] { return prof::counter_value("ckpt.read_bytes"); };

  const std::uint64_t before = read();
  ckpt::FileReader f(path);
  // Open reads the header and the section table, no payload.
  const std::uint64_t envelope =
      sizeof(ckpt::FileHeader) + 3 * sizeof(ckpt::SectionRecord);
  EXPECT_EQ(read() - before, envelope);
  EXPECT_EQ(f.pod<std::int64_t>("gamma"), 42);
  EXPECT_EQ(read() - before, envelope + sizeof(std::int64_t));
  // A second access serves the validated copy.
  EXPECT_EQ(f.pod<std::int64_t>("gamma"), 42);
  const auto alpha = f.view<float, 1>("alpha");
  EXPECT_EQ(alpha(10), 5.0f);
  EXPECT_EQ(read() - before,
            envelope + sizeof(std::int64_t) + 64 * sizeof(float));
}

TEST(File, StagedWriterMatchesAFreshOne) {
  // A writer staging in a committed writer's buffers, one section shrunk,
  // one grown, one the same size, one more than the spent set held,
  // commits the bytes a fresh writer commits.
  const auto dir = scratch("file_staged");
  const auto fill = [](ckpt::FileWriter& w, float base, index_t n0,
                       index_t n1, bool extra) {
    pk::View<float, 1> a("a", n0), b("b", n1);
    for (index_t i = 0; i < n0; ++i) a(i) = base + static_cast<float>(i);
    for (index_t i = 0; i < n1; ++i) b(i) = base - static_cast<float>(i);
    w.add_view("a", a);
    w.add_view("b", b);
    w.add_pod("c", static_cast<std::int64_t>(base));
    if (extra) w.add_vector("d", std::vector<double>(9, base));
  };
  ckpt::FileWriter first;
  fill(first, 1.0f, 100, 40, false);
  first.commit((dir / "first.ckpt").string(), 5, 1);
  ckpt::FileWriter staged(first.release_sections());
  EXPECT_EQ(first.section_count(), 0u);
  fill(staged, 7.0f, 60, 80, true);
  staged.commit((dir / "staged.ckpt").string(), 5, 2);
  ckpt::FileWriter fresh;
  fill(fresh, 7.0f, 60, 80, true);
  fresh.commit((dir / "fresh.ckpt").string(), 5, 2);
  EXPECT_EQ(slurp(dir / "staged.ckpt"), slurp(dir / "fresh.ckpt"));
}

TEST(File, DeferredSectionsCommitTheBytesOfCopiedOnes) {
  // A view added through defer_view is read when the writer is sealed:
  // the file equals one whose view was copied when added, and a change to
  // the view after sealing does not reach it.
  const auto dir = scratch("file_deferred");
  pk::View<float, 1> v("v", 3000);
  for (index_t i = 0; i < v.size(); ++i) v(i) = 0.25f * static_cast<float>(i);
  ckpt::FileWriter copied;
  copied.add_view("a", v);
  copied.add_pod("b", std::int64_t{9});
  copied.commit((dir / "copied.ckpt").string(), 5, 1);
  ckpt::FileWriter deferred;
  deferred.defer_view("a", v);
  deferred.add_pod("b", std::int64_t{9});
  deferred.seal();
  v(0) = -1.0f;
  deferred.commit((dir / "deferred.ckpt").string(), 5, 1);
  EXPECT_EQ(slurp(dir / "deferred.ckpt"), slurp(dir / "copied.ckpt"));
  ASSERT_EQ(deferred.sealed().size(), 2u);
  const auto& a = copied.sections()[0].payload;
  EXPECT_EQ(deferred.sealed()[0].bytes, a.size());
  EXPECT_EQ(deferred.sealed()[0].crc, ckpt::crc32_portable(a.data(), a.size()));
}

TEST(File, DuplicateSectionNameRejected) {
  ckpt::FileWriter w;
  w.add_pod("x", 1);
  EXPECT_THROW(w.add_pod("x", 2), std::invalid_argument);
}

TEST(File, CommitIsAtomicNoTmpLeftBehind) {
  const auto dir = scratch("file_atomic");
  const std::string path = (dir / "a.ckpt").string();
  write_sample(path);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(File, UnwritableDirectoryIsIoError) {
  EXPECT_EQ(thrown_kind([&] {
              ckpt::FileWriter w;
              w.add_pod("x", 1);
              w.commit("/nonexistent_vpic_dir/a.ckpt", 0, 0);
            }),
            ckpt::RestoreErrorKind::IoError);
}

// ---- corruption modes: every injected fault -> its typed kind --------

TEST(Corruption, MissingFileIsIoError) {
  EXPECT_EQ(thrown_kind([&] { ckpt::FileReader f("/no/such/file.ckpt"); }),
            ckpt::RestoreErrorKind::IoError);
}

TEST(Corruption, TruncatedTailDetected) {
  const auto dir = scratch("trunc");
  const std::string path = (dir / "a.ckpt").string();
  write_sample(path);
  ckpt::FaultInjector::truncate_tail(path, 16);
  EXPECT_EQ(thrown_kind([&] { ckpt::FileReader f(path); }),
            ckpt::RestoreErrorKind::Truncated);
}

TEST(Corruption, TruncatedBelowHeaderDetected) {
  const auto dir = scratch("trunc_hdr");
  const std::string path = (dir / "a.ckpt").string();
  write_sample(path);
  const auto sz = fs::file_size(path);
  ckpt::FaultInjector::truncate_tail(path, sz - 20);
  EXPECT_EQ(thrown_kind([&] { ckpt::FileReader f(path); }),
            ckpt::RestoreErrorKind::Truncated);
}

TEST(Corruption, CorruptMagicDetected) {
  const auto dir = scratch("magic");
  const std::string path = (dir / "a.ckpt").string();
  write_sample(path);
  ckpt::FaultInjector::corrupt_magic(path);
  EXPECT_EQ(thrown_kind([&] { ckpt::FileReader f(path); }),
            ckpt::RestoreErrorKind::BadMagic);
}

TEST(Corruption, HeaderBitFlipDetected) {
  const auto dir = scratch("hdr_flip");
  const std::string path = (dir / "a.ckpt").string();
  write_sample(path);
  // Byte 20 is inside the header's fingerprint field: the header CRC
  // catches the flip before the fingerprint is ever believed.
  ckpt::FaultInjector::flip_bit(path, 20);
  EXPECT_EQ(thrown_kind([&] { ckpt::FileReader f(path); }),
            ckpt::RestoreErrorKind::HeaderCorrupt);
}

TEST(Corruption, StaleFormatVersionDetected) {
  const auto dir = scratch("version");
  const std::string path = (dir / "a.ckpt").string();
  write_sample(path);
  // set_version recomputes the header CRC: the file presents as a valid
  // checkpoint of another format era, not as damage.
  ckpt::FaultInjector::set_version(path, ckpt::kFormatVersion + 7);
  EXPECT_EQ(thrown_kind([&] { ckpt::FileReader f(path); }),
            ckpt::RestoreErrorKind::BadVersion);
}

TEST(Corruption, TableBitFlipDetected) {
  const auto dir = scratch("table_flip");
  const std::string path = (dir / "a.ckpt").string();
  write_sample(path);
  ckpt::FaultInjector::flip_bit(path, sizeof(ckpt::FileHeader) + 10);
  EXPECT_EQ(thrown_kind([&] { ckpt::FileReader f(path); }),
            ckpt::RestoreErrorKind::TableCorrupt);
}

TEST(Corruption, TornSectionDetectedLazily) {
  const auto dir = scratch("torn");
  const std::string path = (dir / "a.ckpt").string();
  write_sample(path);
  ckpt::FaultInjector::torn_section(path, 0);
  ckpt::FileReader f(path);  // envelope still validates
  EXPECT_EQ(thrown_kind([&] { (void)f.section("alpha"); }),
            ckpt::RestoreErrorKind::SectionCorrupt);
  // Other sections are unaffected.
  EXPECT_NO_THROW((void)f.pod<std::int64_t>("gamma"));
}

TEST(Corruption, PayloadBitFlipDetected) {
  const auto dir = scratch("payload_flip");
  const std::string path = (dir / "a.ckpt").string();
  write_sample(path);
  ckpt::FaultInjector::flip_payload_bit(path, 1);
  ckpt::FileReader f(path);
  EXPECT_EQ(thrown_kind([&] { f.validate_all(); }),
            ckpt::RestoreErrorKind::SectionCorrupt);
}

namespace {

/// Patch a file's header (and optionally its first section record) and
/// recompute the table/header CRCs, so the result presents as a *valid*
/// checkpoint rather than as damage. CRCs are attacker-controlled, so
/// they are no defense against a crafted file — only bounds checks are.
void rewrite_crafted(const std::string& path,
                     const std::function<void(ckpt::FileHeader&,
                                              ckpt::SectionRecord&)>& mutate) {
  auto blob = slurp(path);
  ckpt::FileHeader h;
  std::memcpy(&h, blob.data(), sizeof(h));
  ckpt::SectionRecord rec;
  std::byte* table = blob.data() + h.table_offset;
  std::memcpy(&rec, table, sizeof(rec));
  mutate(h, rec);
  std::memcpy(table, &rec, sizeof(rec));
  h.table_crc = ckpt::crc32(
      table, h.section_count * sizeof(ckpt::SectionRecord));
  h.header_crc = ckpt::crc32(&h, ckpt::kHeaderCrcBytes);
  std::memcpy(blob.data(), &h, sizeof(h));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
}

}  // namespace

TEST(Corruption, WrappingPayloadBoundsDetected) {
  const auto dir = scratch("wrap_payload");
  const std::string path = (dir / "a.ckpt").string();
  write_sample(path);
  // offset + bytes wraps uint64 to a small value below total_bytes: the
  // naive "offset + bytes > total" bound passes and crc32()/memcpy read
  // out of bounds. The overflow-safe form must reject it.
  rewrite_crafted(path, [](ckpt::FileHeader&, ckpt::SectionRecord& rec) {
    rec.payload_offset = 0xFFFFFFFFFFFFFF00ull;
    rec.payload_bytes = 0x200;
  });
  EXPECT_EQ(thrown_kind([&] { ckpt::FileReader f(path); }),
            ckpt::RestoreErrorKind::TableCorrupt);
}

TEST(Corruption, WrappingTableOffsetDetected) {
  const auto dir = scratch("wrap_table");
  const std::string path = (dir / "a.ckpt").string();
  write_sample(path);
  // Same wrap in the header's table bound, which is checked *before* the
  // table CRC is read — without the overflow-safe form the CRC pass
  // itself reads out of bounds.
  rewrite_crafted(path, [](ckpt::FileHeader& h, ckpt::SectionRecord&) {
    h.table_offset = 0xFFFFFFFFFFFFFF00ull;
  });
  EXPECT_EQ(thrown_kind([&] { ckpt::FileReader f(path); }),
            ckpt::RestoreErrorKind::TableCorrupt);
}

// ---- generation ring -------------------------------------------------

TEST(Ring, NamingAndNextGeneration) {
  const auto dir = scratch("ring_names");
  ckpt::GenerationRing ring((dir / "ck").string(), 3);
  EXPECT_EQ(ring.path_for(0), (dir / "ck.g0").string());
  EXPECT_EQ(ring.path_for(12), (dir / "ck.g12").string());
  EXPECT_TRUE(ring.generations().empty());
  EXPECT_EQ(ring.next_generation(), 0u);
  write_sample(ring.path_for(0));
  write_sample(ring.path_for(3));
  EXPECT_EQ(ring.generations(), (std::vector<std::uint64_t>{0, 3}));
  EXPECT_EQ(ring.next_generation(), 4u);
}

TEST(Ring, PruneKeepsNewestAndRemovesStaleTmp) {
  const auto dir = scratch("ring_prune");
  ckpt::GenerationRing ring((dir / "ck").string(), 2);
  for (std::uint64_t g = 0; g < 5; ++g) write_sample(ring.path_for(g));
  {
    std::ofstream tmp(ring.path_for(9) + ".tmp");
    tmp << "stale";
  }
  // prune() touches only committed generations: a .tmp file (possibly an
  // async commit in flight) must survive it...
  ring.prune();
  EXPECT_EQ(ring.generations(), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_TRUE(fs::exists(ring.path_for(9) + ".tmp"));
  // ...and the explicit stale sweep (run only at quiescence) removes it.
  ring.remove_stale_tmp();
  EXPECT_FALSE(fs::exists(ring.path_for(9) + ".tmp"));
  EXPECT_EQ(ring.generations(), (std::vector<std::uint64_t>{3, 4}));
}

// A farm job cancelled mid-async-snapshot leaves a dangling
// "<base>.g<N>.tmp" that never got its rename-commit. restore_latest must
// not even consider it: the newest *committed* generation restores, and
// the wreck is left for the explicit quiescent sweep.
TEST(Ring, RestoreLatestIgnoresDanglingTmpFromCancelledSnapshot) {
  const auto dir = scratch("dangling_tmp");
  const std::string base = (dir / "ck").string();
  ckpt::GenerationRing ring(base, 3);

  auto ref = make_lpi_small();
  auto victim = make_lpi_small();
  ref.run(20);
  victim.run(20);
  victim.checkpoint(ring.path_for(0));
  {
    std::ofstream tmp(ring.path_for(1) + ".tmp", std::ios::binary);
    tmp << "half-written snapshot of a cancelled job";
  }

  auto resumed = make_lpi_small();
  const std::string used = resumed.restore_latest(base);
  EXPECT_EQ(used, ring.path_for(0));
  EXPECT_EQ(resumed.step_count(), 20);
  ref.run(20);
  resumed.run(20);
  expect_bit_identical(resumed, ref);
  EXPECT_TRUE(fs::exists(ring.path_for(1) + ".tmp"));  // restore won't sweep
}

// Two farm jobs parking to distinct rings under one shared directory:
// ownership is per base path, so one ring's prune/purge never touches a
// sibling's generations — even when one base name is a strict prefix of
// the other ("a" vs "ab").
TEST(Ring, SiblingRingsInOneDirectoryAreIsolated) {
  const auto dir = scratch("siblings");
  ckpt::GenerationRing a((dir / "a").string(), 2);
  ckpt::GenerationRing ab((dir / "ab").string(), 2);
  for (std::uint64_t g = 0; g < 5; ++g) {
    write_sample(a.path_for(g));
    write_sample(ab.path_for(g));
  }
  {
    std::ofstream tmp(a.path_for(7) + ".tmp");
    tmp << "stale";
  }

  a.prune();
  EXPECT_EQ(a.generations(), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(ab.generations(), (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));

  // Purging "a" removes its 2 generations + 1 stale tmp, nothing of "ab".
  EXPECT_EQ(a.purge(), 2u);
  EXPECT_TRUE(a.generations().empty());
  EXPECT_FALSE(fs::exists(a.path_for(7) + ".tmp"));
  EXPECT_EQ(ab.generations(), (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));

  EXPECT_EQ(ab.purge(), 5u);
  EXPECT_TRUE(ab.generations().empty());
  EXPECT_EQ(ab.purge(), 0u);  // idempotent on an empty ring
}

// ---- Simulation integration -----------------------------------------

TEST(SimCkpt, FingerprintSeparatesDecks) {
  auto a = make_lpi_small(42);
  auto b = make_lpi_small(42);
  auto c = make_lpi_small(43);
  EXPECT_EQ(a.config_fingerprint(), b.config_fingerprint());
  EXPECT_NE(a.config_fingerprint(), c.config_fingerprint());
}

TEST(SimCkpt, BitIdenticalResumeOnLpi) {
  const auto dir = scratch("resume");
  const std::string path = (dir / "mid.ckpt").string();

  // Reference: 100 uninterrupted steps.
  auto ref = make_lpi_small();
  ref.run(100);

  // Interrupted: 50 steps, checkpoint, 50 more — checkpointing must not
  // perturb the run.
  auto victim = make_lpi_small();
  victim.run(50);
  const auto bytes = victim.checkpoint(path);
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(victim.checkpoints_written(), 1);
  victim.run(50);
  expect_bit_identical(victim, ref);

  // Resumed: a fresh same-deck simulation restored from the file.
  auto resumed = make_lpi_small();
  resumed.restore(path);
  EXPECT_EQ(resumed.step_count(), 50);
  resumed.run(50);
  expect_bit_identical(resumed, ref);
}

TEST(SimCkpt, RestoreRejectsWrongDeck) {
  const auto dir = scratch("wrong_deck");
  const std::string path = (dir / "a.ckpt").string();
  auto a = make_lpi_small(42);
  a.run(3);
  a.checkpoint(path);
  auto b = make_lpi_small(43);
  EXPECT_EQ(thrown_kind([&] { b.restore(path); }),
            ckpt::RestoreErrorKind::FingerprintMismatch);
}

TEST(SimCkpt, RestoreGrowsParticleCapacity) {
  const auto dir = scratch("grow");
  const std::string path = (dir / "a.ckpt").string();
  core::SimulationConfig cfg;
  cfg.grid = core::Grid(4, 4, 4, 4, 4, 4, 0);
  cfg.grid.dt = core::Grid::courant_dt(1, 1, 1, 0.6f);
  core::Simulation big(cfg);
  big.add_species("e", -1.0f, 1.0f, 2000);
  big.load_uniform_plasma(0, 4, 0.1f);
  big.run(2);
  big.checkpoint(path);

  core::Simulation small(cfg);
  small.add_species("e", -1.0f, 1.0f, 8);  // capacity << live count
  small.restore(path);
  EXPECT_EQ(small.species(0).np, big.species(0).np);
  EXPECT_GE(small.species(0).capacity(), small.species(0).np);
  expect_bit_identical(small, big);
}

TEST(SimCkpt, RestoreThatGrowsAStoreReleasesTheSortSpares) {
  // A spare of the capacity a restore replaced must not linger: the next
  // sort sizes one spare at the new capacity.
  const auto dir = scratch("grow_spares");
  const std::string path = (dir / "a.ckpt").string();
  core::SimulationConfig cfg;
  cfg.grid = core::Grid(4, 4, 4, 4, 4, 4, 0);
  cfg.grid.dt = core::Grid::courant_dt(1, 1, 1, 0.6f);
  core::Simulation big(cfg);
  big.add_species("e", -1.0f, 1.0f, 2000);
  big.load_uniform_plasma(0, 4, 0.1f);
  big.checkpoint(path);

  core::Simulation small(cfg);
  small.add_species("e", -1.0f, 1.0f, 8);
  core::Species& sp = small.species(0);
  for (index_t i = 0; i < 8; ++i) sp.p.set(i, big.species(0).p.get(i));
  sp.np = 8;
  const index_t nv = small.grid().nv();
  core::sort_particles(sp, vpic::sort::SortOrder::Standard, 0, 0, nv);
  ASSERT_EQ(sp.scratch->spares.size(), 1u);
  EXPECT_EQ(sp.scratch->spares[0].size(), 8);

  small.restore(path);
  EXPECT_TRUE(sp.scratch->spares.empty());
  core::sort_particles(sp, vpic::sort::SortOrder::Standard, 0, 0, nv);
  ASSERT_EQ(sp.scratch->spares.size(), 1u);
  EXPECT_EQ(sp.scratch->spares[0].size(), sp.capacity());
}

TEST(SimCkpt, CorruptRestoreLeavesStateUntouched) {
  const auto dir = scratch("no_mutate");
  const std::string path = (dir / "a.ckpt").string();
  auto sim = make_lpi_small();
  sim.run(10);
  sim.checkpoint(path);
  sim.run(5);  // sim is now *past* the checkpoint
  const auto before = view_bytes(sim.fields().ex);
  ckpt::FaultInjector::flip_payload_bit(path, 0);
  EXPECT_EQ(thrown_kind([&] { sim.restore(path); }),
            ckpt::RestoreErrorKind::SectionCorrupt);
  // Validate-then-mutate: the failed restore changed nothing.
  EXPECT_EQ(view_bytes(sim.fields().ex), before);
  EXPECT_EQ(sim.step_count(), 15);
}

TEST(SimCkpt, RestoreRejectsAParticleSectionShorterThanItsCount) {
  // A file whose CRCs all hold, but whose species meta counts one record
  // more than the particle section holds, must not restore: the slot past
  // the section would keep a stale record.
  const auto dir = scratch("np_mismatch");
  const std::string good = (dir / "good.ckpt").string();
  const std::string bad = (dir / "bad.ckpt").string();
  auto sim = make_lpi_small();
  sim.run(10);
  sim.checkpoint(good);

  ckpt::FileReader in(good);
  ckpt::FileWriter out;
  for (const std::string& name : in.section_names()) {
    ckpt::EncodedSection s = in.section(name);
    if (name == "sp0.meta") {
      std::int64_t np;  // the first field of the species meta pod
      std::memcpy(&np, s.payload.data(), sizeof(np));
      ++np;
      std::memcpy(s.payload.data(), &np, sizeof(np));
    }
    out.add(std::move(s));
  }
  out.commit(bad, in.fingerprint(), in.step());
  ckpt::FileReader(bad).validate_all();  // a consistent file, CRCs and all

  sim.run(5);
  const auto before = view_bytes(sim.fields().ex);
  EXPECT_EQ(thrown_kind([&] { sim.restore(bad); }),
            ckpt::RestoreErrorKind::ShapeMismatch);
  // The shape is checked before any state changes.
  EXPECT_EQ(view_bytes(sim.fields().ex), before);
  EXPECT_EQ(sim.step_count(), 15);
  sim.restore(good);
  EXPECT_EQ(sim.step_count(), 10);
}

TEST(SimCkpt, RestoreLatestFallsBackPastCorruptGeneration) {
  const auto dir = scratch("fallback");
  const std::string base = (dir / "ck").string();
  ckpt::GenerationRing ring(base, 3);

  auto sim = make_lpi_small();
  sim.run(10);
  sim.checkpoint(ring.path_for(0));
  sim.run(10);
  sim.checkpoint(ring.path_for(1));
  // Corrupt the newest generation; restore_latest must fall back to g0.
  ckpt::FaultInjector::flip_payload_bit(ring.path_for(1), 2);

  auto fresh = make_lpi_small();
  const std::string used = fresh.restore_latest(base);
  EXPECT_EQ(used, ring.path_for(0));
  EXPECT_EQ(fresh.step_count(), 10);

  // With every generation corrupt, the newest failure surfaces.
  ckpt::FaultInjector::truncate_tail(ring.path_for(0), 64);
  auto fresh2 = make_lpi_small();
  EXPECT_EQ(thrown_kind([&] { fresh2.restore_latest(base); }),
            ckpt::RestoreErrorKind::SectionCorrupt);
}

TEST(SimCkpt, MalformedModuleIndexIsTypedAndChangesNothing) {
  const auto dir = scratch("bad_mod_index");
  const std::string base = (dir / "ck").string();
  ckpt::GenerationRing ring(base, 3);
  auto sim = make_lpi_small();
  sim.run(10);
  sim.checkpoint(ring.path_for(0));
  sim.run(10);
  sim.checkpoint(ring.path_for(1));
  sim.run(5);  // sim is now *past* both checkpoints
  auto twin = make_lpi_small();
  twin.run(25);
  // A CRC-valid newest generation whose manifest does not parse: a
  // non-numeric version, then one past 2^32.
  for (const std::string bad : {"collide:abc\n", "collide:4294967296\n"}) {
    SCOPED_TRACE(bad);
    {
      ckpt::FileReader in(ring.path_for(1));
      ckpt::FileWriter out;
      for (const std::string& name : in.section_names()) {
        ckpt::EncodedSection sec = in.section(name);
        if (name == "mod.index") {
          sec.payload.resize(bad.size());
          std::memcpy(sec.payload.data(), bad.data(), bad.size());
          sec.extents[0] = static_cast<std::int64_t>(bad.size());
        }
        out.add(std::move(sec));
      }
      out.commit(ring.path_for(2), in.fingerprint(), in.step());
    }
    EXPECT_EQ(thrown_kind([&] { sim.restore(ring.path_for(2)); }),
              ckpt::RestoreErrorKind::SectionCorrupt);
    // Validate-then-mutate: the failed restore changed nothing.
    expect_bit_identical(sim, twin);
    auto fresh = make_lpi_small();
    EXPECT_EQ(fresh.restore_latest(base), ring.path_for(1));
    EXPECT_EQ(fresh.step_count(), 20);
  }
}

TEST(SimCkpt, AsyncMatchesSyncBytesAndIsolatesSnapshot) {
  const auto dir = scratch("async");
  const std::string sync_path = (dir / "sync.ckpt").string();
  const std::string async_path = (dir / "async.ckpt").string();

  auto sim = make_lpi_small();
  sim.run(7);
  sim.checkpoint(sync_path);
  sim.checkpoint_async(async_path);
  // Stepping continues while the background write is (possibly) still in
  // flight; the snapshot was deep-copied at submission.
  sim.run(3);
  sim.checkpoint_wait();
  EXPECT_EQ(sim.checkpoints_written(), 2);
  EXPECT_EQ(slurp(async_path), slurp(sync_path));

  auto restored = make_lpi_small();
  restored.restore(async_path);
  EXPECT_EQ(restored.step_count(), 7);
}

TEST(SimCkpt, AsyncWriteFailureSurfacesAtWait) {
  auto sim = make_lpi_small();
  sim.run(1);
  sim.checkpoint_async("/nonexistent_vpic_dir/a.ckpt");
  EXPECT_THROW(sim.checkpoint_wait(), ckpt::RestoreError);
}

TEST(SimCkpt, PeriodicRing) {
  const auto dir = scratch("periodic");
  auto sim = make_lpi_small();
  sim.config().checkpoint_every = 5;
  sim.config().checkpoint_path = (dir / "ck").string();
  sim.config().checkpoint_keep_last = 2;
  sim.run(22);  // checkpoints at steps 5, 10, 15, 20
  sim.checkpoint_wait();
  EXPECT_EQ(sim.checkpoints_written(), 4);
  ckpt::GenerationRing ring((dir / "ck").string(), 2);
  EXPECT_EQ(ring.generations(), (std::vector<std::uint64_t>{2, 3}));

  auto fresh = make_lpi_small();
  const auto used = fresh.restore_latest((dir / "ck").string());
  EXPECT_EQ(used, ring.path_for(3));
  EXPECT_EQ(fresh.step_count(), 20);
}

TEST(SimCkpt, PeriodicRingAsyncKeepsEveryGenerationDistinct) {
  // Async periodic checkpointing stresses two ring invariants at once:
  // generation numbers come from the in-memory counter (a directory
  // re-scan cannot see an async generation not yet renamed into place,
  // so it would hand out the same number twice and overwrite a retained
  // generation), and the stale-.tmp sweep never runs while a background
  // commit is in flight (it would unlink the writer's tmp file, fail the
  // rename, and surface a deferred IoError at the next wait).
  const auto dir = scratch("periodic_async");
  auto sim = make_lpi_small();
  sim.config().checkpoint_every = 1;  // submissions outpace commits
  sim.config().checkpoint_path = (dir / "ck").string();
  sim.config().checkpoint_keep_last = 100;  // retention out of the way
  sim.config().checkpoint_async = true;
  sim.run(10);
  EXPECT_NO_THROW(sim.checkpoint_wait());  // no deferred write failure
  EXPECT_EQ(sim.checkpoints_written(), 10);

  // Every submitted generation landed as its own committed file.
  ckpt::GenerationRing ring((dir / "ck").string(), 100);
  EXPECT_EQ(ring.generations(),
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));

  auto fresh = make_lpi_small();
  const auto used = fresh.restore_latest((dir / "ck").string());
  EXPECT_EQ(used, ring.path_for(9));
  EXPECT_EQ(fresh.step_count(), 10);
}

TEST(SimCkpt, StagedRingCheckpointMatchesAFreshOne) {
  // A ring that checkpointed at steps 5 and 10 stages its step-15 snapshot
  // in an earlier snapshot's buffers; its file must equal a fresh
  // simulation's only checkpoint at step 15, byte for byte.
  for (const bool async : {false, true}) {
    const std::string mode = async ? "async" : "sync";
    SCOPED_TRACE(mode);
    const auto dir = scratch("staged_ring_" + mode);
    const auto run = [&](const std::string& base, int every) {
      auto sim = make_lpi_small();
      sim.config().checkpoint_every = every;
      sim.config().checkpoint_path = (dir / base).string();
      sim.config().checkpoint_async = async;
      sim.run(15);
      sim.checkpoint_wait();
      return ckpt::GenerationRing((dir / base).string(), 3);
    };
    const ckpt::GenerationRing ring = run("ring", 5);
    const ckpt::GenerationRing fresh = run("fresh", 15);
    ASSERT_EQ(ring.generations(), (std::vector<std::uint64_t>{0, 1, 2}));
    ASSERT_EQ(fresh.generations(), (std::vector<std::uint64_t>{0}));
    const auto staged = slurp(ring.path_for(2));
    ASSERT_FALSE(staged.empty());
    EXPECT_EQ(staged, slurp(fresh.path_for(0)));
  }
}

TEST(SimCkpt, StagedPayloadsAreReusedFromTheThirdCheckpointOn) {
  // Each snapshot stages in the last committed one's buffers: once the
  // first two checkpoints have run, no later one allocates a payload.
  // Energy diagnostics stay off: the history gains a row per diagnostic
  // step, so its four sections grow (geometrically) with it, while every
  // other payload keeps its size.
  for (const bool async : {false, true}) {
    const std::string mode = async ? "async" : "sync";
    SCOPED_TRACE(mode);
    const auto dir = scratch("staged_reuse_" + mode);
    auto sim = make_lpi_small();
    sim.config().energy_interval = 0;
    sim.config().checkpoint_every = 5;
    sim.config().checkpoint_path = (dir / "ck").string();
    sim.config().checkpoint_async = async;
    const std::uint64_t before = prof::counter_value("ckpt.stage_alloc");
    std::vector<std::uint64_t> allocs;  // cumulative, after each checkpoint
    for (int step = 1; step <= 30; ++step) {
      sim.step();
      if (step % 5 != 0) continue;
      sim.checkpoint_wait();  // the commit has handed its sections back
      allocs.push_back(prof::counter_value("ckpt.stage_alloc"));
    }
    ASSERT_EQ(allocs.size(), 6u);
    EXPECT_GT(allocs[0], before) << "the first snapshot stages afresh";
    for (std::size_t k = 2; k < allocs.size(); ++k)
      EXPECT_EQ(allocs[k], allocs[1]) << "checkpoint " << k + 1;
  }
}

TEST(SimCkpt, AsyncCommitsNestUnderTheSubmittingStep) {
  // The writer thread commits under the region path the snapshot was
  // taken in, so no ckpt_commit lands at the top level of its row.
  const auto dir = scratch("commit_regions");
  prof::enable(prof::Mode::Summary);
  prof::reset();
  {
    auto sim = make_lpi_small();
    sim.config().checkpoint_every = 5;
    sim.config().checkpoint_path = (dir / "ck").string();
    sim.config().checkpoint_async = true;
    sim.run(10);
    sim.checkpoint_wait();
  }
  const prof::Report r = prof::report();
  prof::disable();
  std::uint64_t nested = 0;
  for (const prof::RegionStats& s : r.regions) {
    EXPECT_NE(s.path, "ckpt_commit");
    EXPECT_NE(s.path, "ckpt_write_file");
    if (s.path == "step/ckpt/ckpt_ring/ckpt_async/ckpt_commit")
      nested += s.count;
  }
  EXPECT_EQ(nested, 2u);
}

TEST(SimCkpt, CkptPhaseResumeIsBitIdentical) {
  // The "ckpt" phase (declared read set, validated race-free by
  // StepGraph::validate inside step()) must capture exactly the state at
  // the end of its step: resume from a mid-run periodic checkpoint and
  // land bit-identical to an uninterrupted run.
  const auto dir = scratch("ckpt_phase_resume");
  auto ref = make_lpi_small();
  ref.run(40);

  auto victim = make_lpi_small();
  victim.config().checkpoint_every = 20;
  victim.config().checkpoint_path = (dir / "ck").string();
  victim.run(25);

  auto resumed = make_lpi_small();
  const auto used = resumed.restore_latest((dir / "ck").string());
  EXPECT_EQ(used, (dir / "ck.g0").string());
  EXPECT_EQ(resumed.step_count(), 20);
  resumed.run(20);
  expect_bit_identical(resumed, ref);
}

TEST(SimCkpt, ResumeAtAnotherThreadCountIsBitIdentical) {
  // Checkpointed at step 23, past the first Standard sort (step 10): every
  // later push is in exact cell order, whose bits do not depend on the
  // thread count, so a one-thread run resumed at four threads lands
  // bit-identical to the uninterrupted one-thread run.
  const auto dir = scratch("thread_resume");
  const std::string path = (dir / "t23.ckpt").string();
  auto ref = make_lpi_small();
  ref.run(30);
  auto victim = make_lpi_small();
  victim.run(23);
  victim.checkpoint(path);
  pk::initialize(4);
  auto resumed = make_lpi_small();
  resumed.restore(path);
  resumed.run(7);
  pk::initialize(1);
  expect_bit_identical(resumed, ref);
}

TEST(SimCkpt, TiledFixturesRestoreIntoTheOneStep) {
  // tests/data/tiled: make_lpi_small written by the retired tiled step (4
  // tiles, 2 workers, one kernel thread): "plain", a plain file at step
  // 6, and "chain.g0"/"chain.g1", an incremental ring (checkpoints every 4
  // steps, DeltaPack, full base every 3) whose particles are chunked by
  // tile. Each holds its species' tile ranges ("sp<i>.tiles"), which the
  // restore ignores; the restored state holds exactly the files' field
  // and particle bytes, and the one step runs on from it.
  const fs::path data = fs::path(VPIC_TEST_DATA_DIR) / "tiled";
  const auto dir = scratch("tiled_fixtures");
  const std::string base = (dir / "chain").string();
  ckpt::GenerationRing ring(base, 8);
  for (const std::uint64_t g : {0, 1})
    fs::copy_file(data / ("chain.g" + std::to_string(g)), ring.path_for(g));

  const auto expect_restores = [](const std::string& path,
                                  ckpt::SectionSource& file,
                                  std::int64_t step) {
    SCOPED_TRACE(path);
    ASSERT_TRUE(file.has("sp0.tiles"));
    auto sim = make_lpi_small();
    sim.restore(path);
    EXPECT_EQ(sim.step_count(), step);
    EXPECT_EQ(view_bytes(sim.fields().ex), file.section("f.ex").payload);
    EXPECT_EQ(view_bytes(sim.fields().by), file.section("f.by").payload);
    EXPECT_EQ(view_bytes(sim.fields().jz), file.section("f.jz").payload);
    for (std::size_t s = 0; s < sim.num_species(); ++s) {
      const auto& sp = sim.species(s);
      std::vector<std::byte> b(static_cast<std::size_t>(sp.np) *
                               sizeof(core::Particle));
      std::memcpy(b.data(), sp.p.data(), b.size());
      EXPECT_EQ(b, file.section("sp" + std::to_string(s) + ".p").payload)
          << sp.name;
    }
    sim.run(4);
    EXPECT_EQ(sim.step_count(), step + 4);
    EXPECT_TRUE(std::isfinite(sim.energies().total()));
  };
  const std::string plain = (data / "plain").string();
  ckpt::FileReader plain_file(plain);
  expect_restores(plain, plain_file, 6);
  ckpt::FileReader g1(ring.path_for(1));
  vpic::elastic::ChainReader chain(g1, ring.path_for(1));
  EXPECT_EQ(chain.sources(), (std::vector<std::int64_t>{0, 1}));
  expect_restores(ring.path_for(1), chain, 8);
}

// ---- DistributedSimulation ------------------------------------------

namespace {

core::DomainConfig dist_config() {
  core::DomainConfig cfg;
  cfg.nx = 4;
  cfg.ny = 4;
  cfg.nz = 8;
  cfg.lx = 4;
  cfg.ly = 4;
  cfg.lz = 8;
  cfg.seed = 7;
  // Fenced; both overlap settings give the same bits at one kernel
  // thread (docs/ASYNC.md).
  cfg.overlap = false;
  return cfg;
}

}  // namespace

TEST(DistCkpt, CoordinatedRoundTripIsBitIdentical) {
  const auto dir = scratch("dist");
  const std::string ckdir = (dir / "set").string();
  mpi::run(2, [&](mpi::Comm& comm) {
    auto cfg = dist_config();
    core::DistributedSimulation sim(cfg, comm);
    sim.add_species("e", -1.0f, 1.0f, 8000);
    sim.load_uniform_plasma(0, 2, 0.2f, 0.0f, 0.0f, 0.1f);
    sim.run(10);
    sim.checkpoint(ckdir);
    sim.run(10);

    core::DistributedSimulation fresh(cfg, comm);
    fresh.add_species("e", -1.0f, 1.0f, 8000);
    fresh.restore(ckdir);
    EXPECT_EQ(fresh.step_count(), 10);
    fresh.run(10);

    // Byte-compare this rank's slab state.
    const auto& sa = sim.species(0);
    const auto& sb = fresh.species(0);
    ASSERT_EQ(sa.np, sb.np);
    EXPECT_EQ(std::memcmp(sa.p.data(), sb.p.data(),
                          static_cast<std::size_t>(sa.np) *
                              sizeof(core::Particle)),
              0);
    EXPECT_EQ(view_bytes(sim.fields().ex), view_bytes(fresh.fields().ex));
    EXPECT_EQ(view_bytes(sim.fields().by), view_bytes(fresh.fields().by));
    EXPECT_EQ(sim.exchanged_particles(), fresh.exchanged_particles());
  });
  EXPECT_TRUE(fs::exists(ckdir + "/manifest.ckpt"));
  EXPECT_TRUE(fs::exists(ckdir + "/rank0.ckpt"));
  EXPECT_TRUE(fs::exists(ckdir + "/rank1.ckpt"));
}

TEST(DistCkpt, ManifestStepDisagreementRejected) {
  const auto dir = scratch("dist_manifest");
  const std::string ck_a = (dir / "a").string();
  const std::string ck_b = (dir / "b").string();
  mpi::run(2, [&](mpi::Comm& comm) {
    auto cfg = dist_config();
    core::DistributedSimulation sim(cfg, comm);
    sim.add_species("e", -1.0f, 1.0f, 8000);
    sim.load_uniform_plasma(0, 2, 0.2f);
    sim.run(2);
    sim.checkpoint(ck_a);
    sim.run(3);
    sim.checkpoint(ck_b);
    comm.barrier();
    if (comm.rank() == 0) {
      // Splice b's manifest over a's: rank files now disagree with it.
      fs::copy_file(ck_b + "/manifest.ckpt", ck_a + "/manifest.ckpt",
                    fs::copy_options::overwrite_existing);
    }
    comm.barrier();
    core::DistributedSimulation fresh(cfg, comm);
    fresh.add_species("e", -1.0f, 1.0f, 8000);
    EXPECT_EQ(thrown_kind([&] { fresh.restore(ck_a); }),
              ckpt::RestoreErrorKind::ManifestMismatch);
  });
}

TEST(DistCkpt, MissingManifestRejectsPartialSet) {
  const auto dir = scratch("dist_partial");
  const std::string ckdir = (dir / "set").string();
  mpi::run(2, [&](mpi::Comm& comm) {
    auto cfg = dist_config();
    core::DistributedSimulation sim(cfg, comm);
    sim.add_species("e", -1.0f, 1.0f, 8000);
    sim.load_uniform_plasma(0, 2, 0.2f);
    sim.checkpoint(ckdir);
    comm.barrier();
    if (comm.rank() == 0) fs::remove(ckdir + "/manifest.ckpt");
    comm.barrier();
    core::DistributedSimulation fresh(cfg, comm);
    fresh.add_species("e", -1.0f, 1.0f, 8000);
    EXPECT_EQ(thrown_kind([&] { fresh.restore(ckdir); }),
              ckpt::RestoreErrorKind::IoError);
  });
}
