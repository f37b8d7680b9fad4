#pragma once

/// Geometric multigrid V-cycle preconditioner for the structured thermal
/// grids (common/solvers.hpp `Preconditioner` interface).
///
/// The stack thermal matrix lives on an nx x ny x layers box grid. Levels
/// are built by 2x2x1 structured coarsening (the die plane is coarsened,
/// the layer axis is kept — stacks are at most ~17 layers tall and the
/// weak glue interfaces make vertical coupling the *weaker* direction, so
/// plane coarsening follows the strong couplings). Each coarse operator is
/// the Galerkin triple product R A R^T with piecewise-constant restriction
/// R (children sum into their parent cell), which keeps every level
/// symmetric positive-definite and on the 7-point pattern. Smoothing is
/// damped (weighted) Jacobi with equal pre-/post-counts so the V-cycle is a
/// symmetric operator — a requirement for use inside CG. The coarsest
/// level is solved directly by a cached LU factorization, stored and
/// substituted over each row's nonzero extent only (the factors of the
/// 4x4xL coarsest grid are banded).
///
/// Every level is a StencilOperator (common/stencil.hpp). Level 0 is the
/// caller's operator itself, not a copy. The smoother and the residual
/// restriction each make one fused pass over the grid. All kernels do the
/// floating-point operations of the textbook CSR formulation in the same
/// order, so results are bit-identical to it.
///
/// The hierarchy's *structure* depends only on the grid shape;
/// `refresh_values` re-runs the Galerkin sums and re-factors the coarse LU
/// after the fine operator's values changed in place (the thermal model's
/// boundary swap).

#include <cstddef>
#include <span>
#include <vector>

#include "common/solvers.hpp"
#include "common/stencil.hpp"

namespace aqua {

/// Tuning knobs for the V-cycle.
struct MultigridOptions {
  std::size_t smooth_sweeps = 1;   ///< pre == post sweeps (symmetry)
  double jacobi_weight = 0.7;      ///< damping for the Jacobi smoother
  std::size_t coarsest_extent = 4; ///< stop coarsening at nx,ny <= this
  std::size_t max_levels = 10;     ///< hierarchy depth cap
};

/// One damped-Jacobi sweep fused with the stencil apply:
/// dst[i] = src[i] + wd[i] * (rhs[i] - (A src)[i]), where wd[i] is the
/// damping weight times 1 / a_ii. `dst` must not alias `src`.
void jacobi_sweep(const StencilOperator& a, std::span<const double> wd,
                  std::span<const double> rhs, std::span<const double> src,
                  std::span<double> dst);

/// The residual rhs - A x restricted to the 2x2x1-coarsened grid in one
/// pass: `coarse` is zeroed, then coarse[parent(i)] += rhs[i] - (A x)[i]
/// over increasing i. `scratch` (a.rows() values) is overwritten.
void restrict_residual(const StencilOperator& a, std::span<const double> rhs,
                       std::span<const double> x, std::span<double> scratch,
                       std::span<double> coarse);

/// V-cycle preconditioner over a cached grid hierarchy.
///
/// Not thread-safe: apply() uses per-level scratch buffers. Each thread
/// must own its preconditioner (the repo convention — thermal models are
/// never shared across threads).
class MultigridPreconditioner final : public Preconditioner {
 public:
  /// Builds the hierarchy below `fine`, which serves as level 0 by
  /// reference: it must outlive the preconditioner and keep its shape.
  explicit MultigridPreconditioner(const StencilOperator& fine,
                                   MultigridOptions options = {});

  /// z = V-cycle(r): one V-cycle on A z = r from a zero initial guess.
  void apply(std::span<const double> r, std::span<double> z) const override;

  /// Recomputes every coarse operator and the coarsest LU from the current
  /// values of the fine operator, summing fine entries in CSR order.
  void refresh_values();

  /// Number of levels including the coarsest (>= 1).
  [[nodiscard]] std::size_t level_count() const { return levels_.size(); }

  /// Operator of level `depth`; level 0 is the fine operator.
  [[nodiscard]] const StencilOperator& level_operator(std::size_t depth) const;

  /// Direct solve on the coarsest level through the cached LU.
  void solve_coarsest(std::span<const double> rhs, std::span<double> x) const;

  /// Total V-cycles applied since construction (for SolverStats).
  [[nodiscard]] std::size_t vcycles() const { return vcycles_; }

  [[nodiscard]] const GridShape& fine_shape() const { return fine_->shape(); }

 private:
  struct Level {
    StencilOperator a;        ///< Galerkin operator (empty on level 0)
    std::vector<double> wd;   ///< jacobi_weight * (1 / a_ii)
    // V-cycle scratch (apply() is const but stateful; see class comment).
    // Level 0 reads r and writes z directly, so it has no x and rhs.
    mutable std::vector<double> x, rhs, tmp;
  };

  void cycle(std::size_t depth, std::span<const double> rhs,
             std::span<double> x) const;
  std::span<double> smooth(std::size_t depth, std::span<const double> rhs,
                           std::span<double> from, std::span<double> other,
                           std::size_t sweeps) const;
  void factor_coarsest();

  const StencilOperator* fine_;
  MultigridOptions options_;
  std::vector<Level> levels_;
  // LU of the coarsest operator with partial pivoting, packed by row: row
  // r keeps columns [lu_begin_[r], lu_end_[r]) at lu_[lu_offset_[r]...].
  // The columns left out are exact zeros of the dense factors.
  std::vector<double> lu_;
  std::vector<std::size_t> lu_offset_;
  std::vector<std::size_t> lu_begin_;
  std::vector<std::size_t> lu_end_;
  std::vector<std::size_t> pivots_;
  mutable std::size_t vcycles_ = 0;
};

}  // namespace aqua
