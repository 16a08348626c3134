#include "src/btds/io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/btds/generators.hpp"
#include "src/fault/status.hpp"
#include "src/la/random.hpp"

namespace ardbt::btds {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Io, MatrixRoundTripIsExact) {
  la::Rng rng = la::make_rng(81);
  const Matrix m = la::random_uniform(7, 5, rng, -1e9, 1e9);
  const std::string path = temp_path("matrix.ardbt");
  save_matrix(path, m);
  const Matrix back = load_matrix(path);
  EXPECT_TRUE(m == back);  // bitwise
  std::remove(path.c_str());
}

TEST(Io, EmptyAndSingleElementMatrices) {
  const std::string path = temp_path("tiny.ardbt");
  for (const Matrix& m : {Matrix(0, 0), Matrix(1, 1), Matrix(0, 5)}) {
    save_matrix(path, m);
    const Matrix back = load_matrix(path);
    EXPECT_TRUE(m == back);
  }
  std::remove(path.c_str());
}

TEST(Io, BlockTridiagRoundTripIsExact) {
  const BlockTridiag t = make_problem(ProblemKind::kDiagDominant, 6, 3, /*seed=*/5);
  const std::string path = temp_path("system.ardbt");
  save_block_tridiag(path, t);
  const BlockTridiag back = load_block_tridiag(path);
  ASSERT_EQ(back.num_blocks(), 6);
  ASSERT_EQ(back.block_size(), 3);
  for (la::index_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(back.diag(i) == t.diag(i));
    if (i > 0) {
      EXPECT_TRUE(back.lower(i) == t.lower(i));
    }
    if (i + 1 < 6) {
      EXPECT_TRUE(back.upper(i) == t.upper(i));
    }
  }
  std::remove(path.c_str());
}

TEST(Io, SingleBlockRowSystem) {
  const BlockTridiag t = make_problem(ProblemKind::kToeplitz, 1, 4);
  const std::string path = temp_path("onerow.ardbt");
  save_block_tridiag(path, t);
  const BlockTridiag back = load_block_tridiag(path);
  EXPECT_TRUE(back.diag(0) == t.diag(0));
  std::remove(path.c_str());
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW(load_matrix("/nonexistent/nowhere.ardbt"), std::runtime_error);
  EXPECT_THROW(load_block_tridiag("/nonexistent/nowhere.ardbt"), std::runtime_error);
}

TEST(Io, FileErrorsAreTypedAndNameThePath) {
  const std::string path = "/nonexistent/nowhere.ardbt";
  for (const auto& io : {+[](const std::string& p) { (void)load_matrix(p); },
                           +[](const std::string& p) { (void)load_block_tridiag(p); },
                           +[](const std::string& p) { save_matrix(p, Matrix(1, 1)); },
                           +[](const std::string& p) { save_matrix_csv(p, Matrix(1, 1)); }}) {
    try {
      io(path);
      FAIL() << "an unopenable path must throw";
    } catch (const fault::IoError& e) {
      EXPECT_EQ(e.code(), fault::ErrorCode::kIo);
      EXPECT_EQ(e.path(), path);
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
      EXPECT_FALSE(fault::is_transient(e.code()));
    }
  }
}

TEST(Io, BadMagicThrows) {
  const std::string path = temp_path("garbage.ardbt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTAFILEATALL_____";
  }
  EXPECT_THROW(load_matrix(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Io, WrongKindMagicThrows) {
  la::Rng rng = la::make_rng(83);
  const Matrix m = la::random_uniform(2, 2, rng);
  const std::string path = temp_path("kind.ardbt");
  save_matrix(path, m);
  EXPECT_THROW(load_block_tridiag(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Io, TruncatedFileThrows) {
  la::Rng rng = la::make_rng(87);
  const Matrix m = la::random_uniform(8, 8, rng);
  const std::string path = temp_path("trunc.ardbt");
  save_matrix(path, m);
  // Chop the file in half.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size() / 2));
  out.close();
  EXPECT_THROW(load_matrix(path), std::runtime_error);
  std::remove(path.c_str());
}

/// Writes `magic` followed by raw int64 header words and `doubles`
/// zero-valued payload doubles: a hand-built (possibly hostile) file.
void write_raw(const std::string& path, const char* magic,
               std::initializer_list<std::int64_t> words, std::size_t doubles = 0) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(magic, 8);
  for (const std::int64_t w : words) out.write(reinterpret_cast<const char*>(&w), sizeof(w));
  const std::vector<double> payload(doubles, 0.0);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size() * sizeof(double)));
}

TEST(Io, HeaderClaimingMoreBlocksThanTheFileHoldsThrowsBeforeAllocating) {
  // A 40-byte file claiming 2^62 block rows of order 2 (or one block of
  // order 2^31): neither may reach an allocation.
  const std::string path = temp_path("huge_header.ardbt");
  write_raw(path, "ARDBT1T\n", {std::int64_t{1} << 62, 2}, 2);
  EXPECT_THROW(load_block_tridiag(path), fault::IoError);
  write_raw(path, "ARDBT1T\n", {1, std::int64_t{1} << 31}, 2);
  EXPECT_THROW(load_block_tridiag(path), fault::IoError);
  // A system one block row short of its claimed N still fails cheaply.
  write_raw(path, "ARDBT1T\n", {3, 2, 2, 2}, 4);
  EXPECT_THROW(load_block_tridiag(path), fault::IoError);
  std::remove(path.c_str());
}

TEST(Io, NonSquareBlockBodyIsRejected) {
  // N = 1, M = 2, but the diagonal body claims 3 x 5 (and holds it).
  const std::string path = temp_path("bad_block.ardbt");
  write_raw(path, "ARDBT1T\n", {1, 2, 3, 5}, 15);
  try {
    (void)load_block_tridiag(path);
    FAIL() << "a 3x5 diagonal block of an M = 2 system must throw";
  } catch (const fault::IoError& e) {
    EXPECT_EQ(e.path(), path);
    EXPECT_NE(std::string(e.what()).find("2x2"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(Io, OverflowingBodyDimensionsThrow) {
  // 2^32 x 2^32 wraps to 0 elements in 64-bit arithmetic; the loader must
  // reject the header, not build a matrix with no storage.
  const std::string path = temp_path("overflow.ardbt");
  write_raw(path, "ARDBT1M\n", {std::int64_t{1} << 32, std::int64_t{1} << 32});
  EXPECT_THROW(load_matrix(path), fault::IoError);
  write_raw(path, "ARDBT1T\n", {1, 2, std::int64_t{1} << 32, std::int64_t{1} << 32}, 4);
  EXPECT_THROW(load_block_tridiag(path), fault::IoError);
  std::remove(path.c_str());
}

TEST(Io, CsvValuesRoundTripThroughParsing) {
  la::Rng rng = la::make_rng(91);
  const Matrix m = la::random_uniform(3, 4, rng);
  const std::string path = temp_path("matrix.csv");
  save_matrix_csv(path, m);
  std::ifstream in(path);
  Matrix back(3, 4);
  std::string cell;
  for (la::index_t i = 0; i < 3; ++i) {
    for (la::index_t j = 0; j < 4; ++j) {
      std::getline(in, cell, j + 1 < 4 ? ',' : '\n');
      back(i, j) = std::stod(cell);
    }
  }
  EXPECT_TRUE(m == back);  // %.17g preserves doubles exactly
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ardbt::btds
