#include "src/btds/io.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "src/fault/status.hpp"

namespace ardbt::btds {
namespace {

constexpr char kMagicMatrix[8] = {'A', 'R', 'D', 'B', 'T', '1', 'M', '\n'};
constexpr char kMagicTridiag[8] = {'A', 'R', 'D', 'B', 'T', '1', 'T', '\n'};
/// Every stored field is an int64 or a double.
constexpr std::int64_t kWord = 8;

void write_exact(std::ofstream& out, const void* data, std::size_t bytes,
                 const std::string& path) {
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
  if (!out) throw fault::IoError("write failed", path);
}

void read_exact(std::ifstream& in, void* data, std::size_t bytes, const std::string& path) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (in.gcount() != static_cast<std::streamsize>(bytes)) {
    throw fault::IoError("truncated file", path);
  }
}

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw fault::IoError("cannot open for writing", path);
  return out;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw fault::IoError("cannot open for reading", path);
  return in;
}

void write_matrix_body(std::ofstream& out, const Matrix& m, const std::string& path) {
  const std::int64_t dims[2] = {m.rows(), m.cols()};
  write_exact(out, dims, sizeof(dims), path);
  write_exact(out, m.data().data(), static_cast<std::size_t>(m.size()) * sizeof(double), path);
}

/// Bytes between the read position and the end of the file.
std::int64_t bytes_left(std::ifstream& in) {
  const std::streampos here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  return static_cast<std::int64_t>(end - here);
}

/// Reads one matrix body. A corrupt or hostile header never allocates
/// more than the file holds: with `order` > 0 only an order x order block
/// is accepted (the caller has bounded `order`), otherwise the dimensions
/// must fit in the rest of the file.
Matrix read_matrix_body(std::ifstream& in, const std::string& path, index_t order = 0) {
  std::int64_t dims[2];
  read_exact(in, dims, sizeof(dims), path);
  if (dims[0] < 0 || dims[1] < 0) throw fault::IoError("corrupt dimensions", path);
  if (order > 0) {
    if (dims[0] != order || dims[1] != order) {
      throw fault::IoError("block is not " + std::to_string(order) + "x" + std::to_string(order),
                           path);
    }
  } else if (dims[1] > 0 && dims[0] > bytes_left(in) / kWord / dims[1]) {
    throw fault::IoError("dimensions exceed file size", path);
  }
  Matrix m(dims[0], dims[1]);
  read_exact(in, m.data().data(), static_cast<std::size_t>(m.size()) * sizeof(double), path);
  return m;
}

void check_magic(std::ifstream& in, const char (&magic)[8], const std::string& path) {
  char got[8];
  read_exact(in, got, sizeof(got), path);
  if (std::memcmp(got, magic, sizeof(got)) != 0) {
    throw fault::IoError("bad magic (wrong format?)", path);
  }
}

}  // namespace

void save_matrix(const std::string& path, const Matrix& m) {
  std::ofstream out = open_out(path);
  write_exact(out, kMagicMatrix, sizeof(kMagicMatrix), path);
  write_matrix_body(out, m, path);
}

Matrix load_matrix(const std::string& path) {
  std::ifstream in = open_in(path);
  check_magic(in, kMagicMatrix, path);
  return read_matrix_body(in, path);
}

void save_block_tridiag(const std::string& path, const BlockTridiag& t) {
  require_rows(t, 0, t.num_blocks(), "btds::save_block_tridiag");
  std::ofstream out = open_out(path);
  write_exact(out, kMagicTridiag, sizeof(kMagicTridiag), path);
  const std::int64_t shape[2] = {t.num_blocks(), t.block_size()};
  write_exact(out, shape, sizeof(shape), path);
  for (index_t i = 0; i < t.num_blocks(); ++i) {
    if (i > 0) write_matrix_body(out, t.lower(i), path);
    write_matrix_body(out, t.diag(i), path);
    if (i + 1 < t.num_blocks()) write_matrix_body(out, t.upper(i), path);
  }
}

BlockTridiag load_block_tridiag(const std::string& path) {
  std::ifstream in = open_in(path);
  check_magic(in, kMagicTridiag, path);
  std::int64_t shape[2];
  read_exact(in, shape, sizeof(shape), path);
  if (shape[0] < 1 || shape[1] < 1) throw fault::IoError("corrupt shape", path);
  // The 3N - 2 blocks must fit in the file before any is allocated: each
  // is a 16-byte header plus M^2 doubles.
  const std::int64_t left = bytes_left(in);
  const std::int64_t m = shape[1];
  if (m > left / kWord / m) {
    throw fault::IoError("shape exceeds file size", path);
  }
  const std::int64_t block_bytes = (2 + m * m) * kWord;
  if (shape[0] > (left / block_bytes + 2) / 3) {
    throw fault::IoError("shape exceeds file size", path);
  }
  BlockTridiag t(shape[0], m);
  for (index_t i = 0; i < t.num_blocks(); ++i) {
    if (i > 0) t.lower(i) = read_matrix_body(in, path, m);
    t.diag(i) = read_matrix_body(in, path, m);
    if (i + 1 < t.num_blocks()) t.upper(i) = read_matrix_body(in, path, m);
  }
  return t;
}

void save_matrix_csv(const std::string& path, const Matrix& m) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw fault::IoError("cannot open for writing", path);
  for (index_t i = 0; i < m.rows(); ++i) {
    for (index_t j = 0; j < m.cols(); ++j) {
      std::fprintf(out, j + 1 < m.cols() ? "%.17g," : "%.17g\n", m(i, j));
    }
  }
  if (std::fclose(out) != 0) throw fault::IoError("close failed", path);
}

}  // namespace ardbt::btds
