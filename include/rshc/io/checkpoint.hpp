#pragma once
// Binary checkpoint / restart for FvSolver states: a small header (magic,
// version, grid shape, variable counts, time) followed by each block's
// conservative interior and then its primitive interior. Restart restores
// both exactly: con2prim starts from the prims it overwrites, so a resumed
// run steps bit for bit like an uninterrupted one only if those prims come
// back too. Version 1 files (cons only) are rejected.

#include <string>

#include "rshc/solver/fv_solver.hpp"

namespace rshc::io {

inline constexpr std::uint32_t kCheckpointMagic = 0x52534843;  // "RSHC"
inline constexpr std::uint32_t kCheckpointVersion = 2;

template <typename Physics>
void write_checkpoint(const std::string& path,
                      const solver::FvSolver<Physics>& s);

/// Restore state into a solver constructed with the SAME grid, options and
/// block layout. The file is fully validated before any solver field is
/// written — magic, version, header sanity, grid/physics/block-layout
/// compatibility, and the exact payload size — so a truncated or
/// mismatched-physics file throws rshc::Error (after a "checkpoint_error"
/// journal event) and leaves the solver state untouched. A successful
/// restore journals a "restore" event.
template <typename Physics>
void read_checkpoint(const std::string& path, solver::FvSolver<Physics>& s);

extern template void write_checkpoint<solver::SrhdPhysics>(
    const std::string&, const solver::FvSolver<solver::SrhdPhysics>&);
extern template void write_checkpoint<solver::SrmhdPhysics>(
    const std::string&, const solver::FvSolver<solver::SrmhdPhysics>&);
extern template void read_checkpoint<solver::SrhdPhysics>(
    const std::string&, solver::FvSolver<solver::SrhdPhysics>&);
extern template void read_checkpoint<solver::SrmhdPhysics>(
    const std::string&, solver::FvSolver<solver::SrmhdPhysics>&);

}  // namespace rshc::io
