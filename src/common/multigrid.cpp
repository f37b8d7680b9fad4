#include "common/multigrid.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "common/vec2.hpp"
#include "obs/trace.hpp"

namespace aqua {

namespace {

/// The 2x2x1-coarsened shape of `shape`.
GridShape coarsened(const GridShape& shape) {
  return {(shape.nx + 1) / 2, (shape.ny + 1) / 2, shape.layers};
}

/// Coarse node that fine node `node` restricts into.
std::size_t parent_of(const GridShape& fine, const GridShape& coarse,
                      std::size_t node) {
  const std::size_t plane_n = fine.nx * fine.ny;
  const std::size_t layer = node / plane_n;
  const std::size_t iy = node % plane_n / fine.nx;
  const std::size_t ix = node % fine.nx;
  return layer * coarse.nx * coarse.ny + (iy / 2) * coarse.nx + ix / 2;
}

/// Galerkin triple product R A R^T with piecewise-constant restriction:
/// A_c[I, J] = sum of A[i, j] over children i of I, j of J. Assembled
/// through SparseBuilder from the fine entries in CSR order.
StencilOperator galerkin_coarse(const StencilOperator& fine) {
  const GridShape& shape = fine.shape();
  const GridShape coarse = coarsened(shape);
  SparseBuilder builder(coarse.nodes(), coarse.nodes());
  fine.for_each_entry([&](std::size_t r, std::size_t c, double v) {
    builder.add(parent_of(shape, coarse, r), parent_of(shape, coarse, c), v);
  });
  return StencilOperator::from_csr(builder.build(), coarse);
}

/// The coarse face that fine entry (node at ix, iy; `face`) sums into: an
/// in-plane neighbour with the same parent lands on the diagonal.
Face coarse_face(Face face, std::size_t ix, std::size_t iy) {
  switch (face) {
    case Face::kSouth: return iy % 2 == 0 ? Face::kSouth : Face::kDiag;
    case Face::kWest: return ix % 2 == 0 ? Face::kWest : Face::kDiag;
    case Face::kEast: return ix % 2 == 1 ? Face::kEast : Face::kDiag;
    case Face::kNorth: return iy % 2 == 1 ? Face::kNorth : Face::kDiag;
    default: return face;
  }
}

/// Recomputes the Galerkin sums of `coarse` in place: every coarse entry
/// starts at 0 and adds its fine entries in CSR order.
void accumulate_galerkin(const StencilOperator& fine,
                         StencilOperator& coarse) {
  std::array<std::span<const double>, kFaces> from;
  std::array<std::span<double>, kFaces> to;
  for (std::size_t f = 0; f < kFaces; ++f) {
    from[f] = fine.plane(static_cast<Face>(f));
    to[f] = coarse.plane(static_cast<Face>(f));
    std::fill(to[f].begin(), to[f].end(), 0.0);
  }
  const GridShape& fs = fine.shape();
  const GridShape& cs = coarse.shape();
  std::size_t row = 0;
  for (std::size_t l = 0; l < fs.layers; ++l) {
    for (std::size_t iy = 0; iy < fs.ny; ++iy) {
      for (std::size_t ix = 0; ix < fs.nx; ++ix, ++row) {
        const std::size_t parent =
            l * cs.nx * cs.ny + (iy / 2) * cs.nx + ix / 2;
        for (std::size_t f = 0; f < kFaces; ++f) {
          const Face face = static_cast<Face>(f);
          if (!fine.has(face, l, iy, ix)) continue;
          const auto cf =
              static_cast<std::size_t>(coarse_face(face, ix, iy));
          to[cf][parent] += from[f][row];
        }
      }
    }
  }
}

/// jacobi_weight * (1 / a_ii) per node: the smoother's scale, computed as
/// the weight times the inverted diagonal.
std::vector<double> scaled_inverse_diagonal(const StencilOperator& a,
                                            double weight) {
  std::vector<double> wd = a.diagonal();
  for (double& d : wd) {
    ensure(d > 0.0, "multigrid: non-positive diagonal on a level");
    d = weight * (1.0 / d);
  }
  return wd;
}

}  // namespace

void jacobi_sweep(const StencilOperator& a, std::span<const double> wd,
                  std::span<const double> rhs, std::span<const double> src,
                  std::span<double> dst) {
  const GridShape& s = a.shape();
  require(wd.size() == s.nodes() && rhs.size() == s.nodes() &&
              src.size() == s.nodes() && dst.size() == s.nodes(),
          "jacobi_sweep: dimension mismatch");
  std::size_t base = 0;
  for (std::size_t l = 0; l < s.layers; ++l) {
    for (std::size_t iy = 0; iy < s.ny; ++iy, base += s.nx) {
      double* out = dst.data() + base;
      a.apply_row(l, iy, src.data(), out);
      const double* x = src.data() + base;
      const double* w = wd.data() + base;
      const double* b = rhs.data() + base;
      for_each_pair(s.nx, [&](std::size_t ix, auto load, auto store) {
        store(out + ix,
              load(x + ix) + load(w + ix) * (load(b + ix) - load(out + ix)));
      });
    }
  }
}

void restrict_residual(const StencilOperator& a, std::span<const double> rhs,
                       std::span<const double> x, std::span<double> scratch,
                       std::span<double> coarse) {
  const GridShape& s = a.shape();
  const GridShape cs = coarsened(s);
  require(rhs.size() == s.nodes() && x.size() == s.nodes() &&
              scratch.size() == s.nodes() && coarse.size() == cs.nodes(),
          "restrict_residual: dimension mismatch");
  std::fill(coarse.begin(), coarse.end(), 0.0);
  std::size_t base = 0;
  for (std::size_t l = 0; l < s.layers; ++l) {
    for (std::size_t iy = 0; iy < s.ny; ++iy, base += s.nx) {
      double* ax = scratch.data() + base;
      a.apply_row(l, iy, x.data(), ax);
      double* parents = coarse.data() + l * cs.nx * cs.ny + (iy / 2) * cs.nx;
      for (std::size_t ix = 0; ix < s.nx; ++ix) {
        parents[ix / 2] += rhs[base + ix] - ax[ix];
      }
    }
  }
}

MultigridPreconditioner::MultigridPreconditioner(const StencilOperator& fine,
                                                 MultigridOptions options)
    : fine_(&fine), options_(options) {
  AQUA_TRACE_SCOPE_C("multigrid.build", "solver");
  const GridShape& shape = fine.shape();
  require(shape.nx >= 1 && shape.ny >= 1 && shape.layers >= 1,
          "multigrid: degenerate grid shape");
  require(options_.smooth_sweeps >= 1, "multigrid: need >= 1 smoothing sweep");

  levels_.emplace_back();  // level 0 is the fine operator itself
  while (levels_.size() < options_.max_levels) {
    const StencilOperator& top = level_operator(levels_.size() - 1);
    if (top.shape().nx <= options_.coarsest_extent &&
        top.shape().ny <= options_.coarsest_extent) {
      break;
    }
    Level next;
    next.a = galerkin_coarse(top);
    levels_.push_back(std::move(next));
  }

  for (std::size_t d = 0; d < levels_.size(); ++d) {
    Level& level = levels_[d];
    const StencilOperator& a = level_operator(d);
    level.wd = scaled_inverse_diagonal(a, options_.jacobi_weight);
    if (d + 1 < levels_.size()) level.tmp.resize(a.rows());
    if (d > 0) {
      level.x.resize(a.rows());
      level.rhs.resize(a.rows());
    }
  }
  factor_coarsest();
}

const StencilOperator& MultigridPreconditioner::level_operator(
    std::size_t depth) const {
  require(depth < levels_.size(), "multigrid: level out of range");
  return depth == 0 ? *fine_ : levels_[depth].a;
}

void MultigridPreconditioner::refresh_values() {
  AQUA_TRACE_SCOPE_C("multigrid.refresh_values", "solver");
  for (std::size_t d = 1; d < levels_.size(); ++d) {
    accumulate_galerkin(level_operator(d - 1), levels_[d].a);
  }
  for (std::size_t d = 0; d < levels_.size(); ++d) {
    levels_[d].wd =
        scaled_inverse_diagonal(level_operator(d), options_.jacobi_weight);
  }
  factor_coarsest();
}

void MultigridPreconditioner::factor_coarsest() {
  const StencilOperator& a = level_operator(levels_.size() - 1);
  const std::size_t n = a.rows();
  std::vector<double> lu(n * n, 0.0);
  a.for_each_entry(
      [&](std::size_t r, std::size_t c, double v) { lu[r * n + c] = v; });
  // In-place LU with partial pivoting.
  pivots_.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    std::size_t pivot = c;
    double best = std::abs(lu[c * n + c]);
    for (std::size_t r = c + 1; r < n; ++r) {
      const double mag = std::abs(lu[r * n + c]);
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    ensure(best > 0.0, "multigrid: singular coarsest operator");
    pivots_[c] = pivot;
    if (pivot != c) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(lu[c * n + j], lu[pivot * n + j]);
      }
    }
    const double inv_pivot = 1.0 / lu[c * n + c];
    for (std::size_t r = c + 1; r < n; ++r) {
      const double factor = lu[r * n + c] * inv_pivot;
      lu[r * n + c] = factor;
      if (factor == 0.0) continue;
      for (std::size_t j = c + 1; j < n; ++j) {
        lu[r * n + j] -= factor * lu[c * n + j];
      }
    }
  }
  // Keep each row from its first nonzero L entry to its last nonzero U
  // entry; the substitutions skip only exact zeros outside that extent.
  lu_.clear();
  lu_offset_.resize(n);
  lu_begin_.resize(n);
  lu_end_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const double* row = lu.data() + r * n;
    std::size_t begin = 0;
    while (begin < r && row[begin] == 0.0) ++begin;
    std::size_t end = n;
    while (end > r + 1 && row[end - 1] == 0.0) --end;
    lu_offset_[r] = lu_.size();
    lu_begin_[r] = begin;
    lu_end_[r] = end;
    lu_.insert(lu_.end(), row + begin, row + end);
  }
}

void MultigridPreconditioner::solve_coarsest(std::span<const double> rhs,
                                             std::span<double> x) const {
  const std::size_t n = pivots_.size();
  require(rhs.size() == n && x.size() == n,
          "multigrid coarsest solve: dimension mismatch");
  std::copy(rhs.begin(), rhs.end(), x.begin());
  for (std::size_t c = 0; c < n; ++c) {
    if (pivots_[c] != c) std::swap(x[c], x[pivots_[c]]);
  }
  for (std::size_t r = 1; r < n; ++r) {
    const double* row = lu_.data() + lu_offset_[r];
    const std::size_t begin = lu_begin_[r];
    double acc = x[r];
    for (std::size_t c = begin; c < r; ++c) acc -= row[c - begin] * x[c];
    x[r] = acc;
  }
  for (std::size_t r = n; r-- > 0;) {
    const double* row = lu_.data() + lu_offset_[r];
    const std::size_t begin = lu_begin_[r];
    double acc = x[r];
    for (std::size_t c = r + 1; c < lu_end_[r]; ++c) {
      acc -= row[c - begin] * x[c];
    }
    x[r] = acc / row[r - begin];
  }
}

std::span<double> MultigridPreconditioner::smooth(
    std::size_t depth, std::span<const double> rhs, std::span<double> from,
    std::span<double> other, std::size_t sweeps) const {
  // Each sweep reads one buffer and writes the other; the result is in
  // whichever the last sweep wrote.
  for (std::size_t s = 0; s < sweeps; ++s) {
    jacobi_sweep(level_operator(depth), levels_[depth].wd, rhs, from, other);
    std::swap(from, other);
  }
  return from;
}

void MultigridPreconditioner::cycle(std::size_t depth,
                                    std::span<const double> rhs,
                                    std::span<double> x) const {
  if (depth + 1 == levels_.size()) {
    solve_coarsest(rhs, x);
    return;
  }
  const Level& level = levels_[depth];
  const StencilOperator& a = level_operator(depth);
  const Level& coarse = levels_[depth + 1];
  const std::span<double> tmp(level.tmp);

  // Pre-smoothing from a zero guess: the first sweep is a diagonal scale.
  for_each_pair(x.size(), [&](std::size_t i, auto load, auto store) {
    store(x.data() + i, load(level.wd.data() + i) * load(rhs.data() + i));
  });
  std::span<double> smoothed =
      smooth(depth, rhs, x, tmp, options_.smooth_sweeps - 1);
  if (smoothed.data() != x.data()) {
    std::copy(smoothed.begin(), smoothed.end(), x.begin());
  }

  restrict_residual(a, rhs, x, tmp, coarse.rhs);
  cycle(depth + 1, coarse.rhs, coarse.x);

  // Prolong (inject the parent correction into each child) into tmp, so
  // the post-smoother's first sweep writes x.
  const GridShape& fs = a.shape();
  const GridShape& cs = coarse.a.shape();
  std::size_t base = 0;
  for (std::size_t l = 0; l < fs.layers; ++l) {
    for (std::size_t iy = 0; iy < fs.ny; ++iy, base += fs.nx) {
      const double* parents =
          coarse.x.data() + l * cs.nx * cs.ny + (iy / 2) * cs.nx;
      const double* xr = x.data() + base;
      double* out = tmp.data() + base;
      std::size_t ix = 0;
      for (; ix + 2 <= fs.nx; ix += 2) {  // children 2k and 2k+1 share parent k
        const double p = parents[ix / 2];
        store2(out + ix, load2(xr + ix) + Vec2{p, p});
      }
      if (ix < fs.nx) out[ix] = xr[ix] + parents[ix / 2];
    }
  }
  smoothed = smooth(depth, rhs, tmp, x, options_.smooth_sweeps);
  if (smoothed.data() != x.data()) {
    std::copy(smoothed.begin(), smoothed.end(), x.begin());
  }
}

void MultigridPreconditioner::apply(std::span<const double> r,
                                    std::span<double> z) const {
  const std::size_t n = fine_->rows();
  require(r.size() == n && z.size() == n,
          "multigrid apply: dimension mismatch");
  cycle(0, r, z);
  ++vcycles_;
}

}  // namespace aqua
