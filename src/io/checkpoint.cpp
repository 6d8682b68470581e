#include "rshc/io/checkpoint.hpp"

#include <cstdint>
#include <fstream>
#include <string>

#include "rshc/common/error.hpp"
#include "rshc/obs/journal.hpp"

namespace rshc::io {
namespace {

struct Header {
  std::uint32_t magic = kCheckpointMagic;
  std::uint32_t version = kCheckpointVersion;
  std::int32_t ndim = 0;
  std::int32_t nvar_cons = 0;
  std::int32_t num_blocks = 0;
  std::int32_t nvar_prim = 0;
  std::int64_t nx = 0;
  std::int64_t ny = 0;
  std::int64_t nz = 0;
  double time = 0.0;
};
static_assert(sizeof(Header) == 56);

template <typename T>
void write_raw(std::ofstream& f, const T& v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <typename T>
void read_raw(std::ifstream& f, T& v) {
  f.read(reinterpret_cast<char*>(&v), sizeof(T));
}

/// The payload of one block: every variable of `cons`, then every variable
/// of `prim`, each over the interior in (k, j, i) order. An interior row
/// is contiguous in a FieldArray, so each row is one stream call; `io`
/// writes or reads the `n` doubles at its first argument.
template <typename Fields, typename Io>
void for_each_interior_row(const mesh::Block& blk, Fields& cons,
                           Fields& prim, const Io& io) {
  const auto n = static_cast<std::streamsize>(blk.end(0) - blk.begin(0));
  for (Fields* a : {&cons, &prim}) {
    for (int v = 0; v < a->nvar(); ++v) {
      for (int k = blk.begin(2); k < blk.end(2); ++k) {
        for (int j = blk.begin(1); j < blk.end(1); ++j) {
          io(a->var(v).data() + a->cell_index(k, j, blk.begin(0)), n);
        }
      }
    }
  }
}

/// Journal and throw a restore failure. Every validation below funnels
/// through here so a malformed file leaves (a) one "checkpoint_error"
/// journal line and (b) an rshc::Error naming the path and rule — and,
/// because all checks run before any solver field is written, the caller's
/// solver state is untouched.
[[noreturn]] void fail_read(const std::string& path, const std::string& why) {
  obs::journal::Journal::global().event(
      "checkpoint_error",
      {obs::journal::Field("path", path), obs::journal::Field("error", why)});
  throw rshc::Error("checkpoint " + path + ": " + why, __FILE__, __LINE__);
}

}  // namespace

template <typename Physics>
void write_checkpoint(const std::string& path,
                      const solver::FvSolver<Physics>& s) {
  std::ofstream f(path, std::ios::binary);
  RSHC_REQUIRE(f.good(), "cannot open checkpoint for writing: " + path);
  Header h;
  h.ndim = s.grid().ndim();
  h.nvar_cons = Physics::kNumCons;
  h.num_blocks = s.num_blocks();
  h.nvar_prim = Physics::kNumPrim;
  h.nx = s.grid().extent(0);
  h.ny = s.grid().extent(1);
  h.nz = s.grid().extent(2);
  h.time = s.time();
  write_raw(f, h);
  for (int b = 0; b < s.num_blocks(); ++b) {
    const auto& blk = s.block(b);
    for_each_interior_row(blk, blk.cons(), blk.prim(),
                          [&f](const double* row, std::streamsize n) {
                            f.write(reinterpret_cast<const char*>(row),
                                    n * static_cast<std::streamsize>(
                                            sizeof(double)));
                          });
  }
  RSHC_REQUIRE(f.good(), "checkpoint write failed: " + path);
  obs::journal::checkpoint(path, s.time());
}

template <typename Physics>
void read_checkpoint(const std::string& path,
                     solver::FvSolver<Physics>& s) {
  // Validate everything — header sanity, compatibility with the target
  // solver, and the exact payload size — before writing a single byte of
  // solver state. Preempt/resume makes truncated files a real scenario
  // (a preemption checkpoint raced by a crash), and a partial restore
  // would silently corrupt the resumed run.
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f.good()) fail_read(path, "cannot open for reading");
  const auto file_size = static_cast<std::int64_t>(f.tellg());
  f.seekg(0);
  if (file_size < static_cast<std::int64_t>(sizeof(Header))) {
    fail_read(path, "truncated header (" + std::to_string(file_size) +
                        " bytes, need " + std::to_string(sizeof(Header)) +
                        ")");
  }
  Header h;
  read_raw(f, h);
  if (!f.good() || h.magic != kCheckpointMagic) {
    fail_read(path, "bad magic (not an rshc checkpoint)");
  }
  if (h.version != kCheckpointVersion) {
    fail_read(path,
              "unsupported version " + std::to_string(h.version) +
                  " (expected " + std::to_string(kCheckpointVersion) + ")" +
                  (h.version == 1 ? ": version 1 holds no primitives, "
                                    "which a bitwise restart needs"
                                  : ""));
  }
  if (h.ndim < 1 || h.ndim > 3 || h.nvar_cons <= 0 || h.nvar_prim <= 0 ||
      h.num_blocks <= 0 || h.nx <= 0 || h.ny <= 0 || h.nz <= 0) {
    fail_read(path, "corrupt header (implausible shape fields)");
  }
  if (h.ndim != s.grid().ndim() || h.nx != s.grid().extent(0) ||
      h.ny != s.grid().extent(1) || h.nz != s.grid().extent(2)) {
    fail_read(path, "grid shape mismatch");
  }
  if (h.nvar_cons != Physics::kNumCons || h.nvar_prim != Physics::kNumPrim) {
    fail_read(path, "physics mismatch (file has " +
                        std::to_string(h.nvar_cons) + " conserved and " +
                        std::to_string(h.nvar_prim) +
                        " primitive variables, solver expects " +
                        std::to_string(Physics::kNumCons) + " and " +
                        std::to_string(Physics::kNumPrim) + ")");
  }
  if (h.num_blocks != s.num_blocks()) {
    fail_read(path, "block layout mismatch");
  }
  std::int64_t payload = 0;
  for (int b = 0; b < s.num_blocks(); ++b) {
    const auto& blk = s.block(b);
    std::int64_t zones = 1;
    for (int a = 0; a < 3; ++a) zones *= blk.end(a) - blk.begin(a);
    payload += zones * (Physics::kNumCons + Physics::kNumPrim) *
               static_cast<std::int64_t>(sizeof(double));
  }
  const std::int64_t expected =
      static_cast<std::int64_t>(sizeof(Header)) + payload;
  if (file_size < expected) {
    fail_read(path, "truncated payload (" + std::to_string(file_size) +
                        " bytes, need " + std::to_string(expected) + ")");
  }
  if (file_size > expected) {
    fail_read(path, "size mismatch (" + std::to_string(file_size) +
                        " bytes, expected " + std::to_string(expected) + ")");
  }
  for (int b = 0; b < s.num_blocks(); ++b) {
    auto& blk = s.block(b);
    for_each_interior_row(blk, blk.cons(), blk.prim(),
                          [&f](double* row, std::streamsize n) {
                            f.read(reinterpret_cast<char*>(row),
                                   n * static_cast<std::streamsize>(
                                           sizeof(double)));
                          });
  }
  if (!f.good()) fail_read(path, "read failed mid-payload");
  s.set_time(h.time);
  s.finish_restore();
  obs::journal::Journal::global().event(
      "restore", {obs::journal::Field("path", path),
                  obs::journal::Field("time", h.time)});
}

template void write_checkpoint<solver::SrhdPhysics>(
    const std::string&, const solver::FvSolver<solver::SrhdPhysics>&);
template void write_checkpoint<solver::SrmhdPhysics>(
    const std::string&, const solver::FvSolver<solver::SrmhdPhysics>&);
template void read_checkpoint<solver::SrhdPhysics>(
    const std::string&, solver::FvSolver<solver::SrhdPhysics>&);
template void read_checkpoint<solver::SrmhdPhysics>(
    const std::string&, solver::FvSolver<solver::SrmhdPhysics>&);

}  // namespace rshc::io
