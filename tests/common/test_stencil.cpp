// Bitwise gate for the 7-point stencil solver path: the stencil SpMV, the
// Galerkin levels, the fused V-cycle kernels, the banded coarsest solve and
// a whole CG solve must give exactly the bits of the CSR formulation they
// replace, on every thermal model the Fig. 7/8/14/15 sweeps assemble.

#include "common/stencil.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/multigrid.hpp"
#include "common/rng.hpp"
#include "common/solvers.hpp"
#include "core/cooling.hpp"
#include "power/chip_model.hpp"
#include "thermal/grid_model.hpp"

namespace aqua {
namespace {

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<double> seeded_vector(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

std::vector<double> csr_multiply(const SparseMatrix& a,
                                 const std::vector<double>& x) {
  std::vector<double> y(a.rows());
  a.multiply(x, y);
  return y;
}

std::vector<double> stencil_multiply(const StencilOperator& a,
                                     const std::vector<double>& x) {
  std::vector<double> y(a.rows());
  a.multiply(x, y);
  return y;
}

GridShape coarsened(const GridShape& s) {
  return {(s.nx + 1) / 2, (s.ny + 1) / 2, s.layers};
}

std::vector<std::uint32_t> parent_map(const GridShape& s) {
  const GridShape c = coarsened(s);
  std::vector<std::uint32_t> parent(s.nodes());
  for (std::size_t l = 0; l < s.layers; ++l) {
    for (std::size_t iy = 0; iy < s.ny; ++iy) {
      for (std::size_t ix = 0; ix < s.nx; ++ix) {
        parent[l * s.nx * s.ny + iy * s.nx + ix] = static_cast<std::uint32_t>(
            l * c.nx * c.ny + (iy / 2) * c.nx + ix / 2);
      }
    }
  }
  return parent;
}

/// The Galerkin coarse operator as the CSR hierarchy built it.
SparseMatrix csr_galerkin(const SparseMatrix& fine, const GridShape& s) {
  const std::vector<std::uint32_t> parent = parent_map(s);
  const std::size_t nc = coarsened(s).nodes();
  SparseBuilder builder(nc, nc);
  for (std::size_t r = 0; r < fine.rows(); ++r) {
    for (std::size_t k = fine.row_ptr()[r]; k < fine.row_ptr()[r + 1]; ++k) {
      builder.add(parent[r], parent[fine.col_idx()[k]], fine.values()[k]);
    }
  }
  return builder.build();
}

/// The coarse values the CSR hierarchy's refresh produced: zero, then add
/// every fine entry in CSR order into its coarse entry.
std::vector<double> csr_refreshed_values(const SparseMatrix& fine,
                                         const GridShape& s,
                                         const SparseMatrix& coarse) {
  const std::vector<std::uint32_t> parent = parent_map(s);
  std::vector<double> values(coarse.nonzeros(), 0.0);
  for (std::size_t r = 0; r < fine.rows(); ++r) {
    for (std::size_t k = fine.row_ptr()[r]; k < fine.row_ptr()[r + 1]; ++k) {
      const std::size_t cr = parent[r];
      const std::size_t cc = parent[fine.col_idx()[k]];
      std::size_t pos = coarse.row_ptr()[cr];
      while (coarse.col_idx()[pos] != cc) ++pos;
      values[pos] += fine.values()[k];
    }
  }
  return values;
}

std::vector<double> values_of(const SparseMatrix& m) {
  return {m.values().begin(), m.values().end()};
}

/// Dense LU with partial pivoting and full forward/back substitution: the
/// coarsest solve as it ran before the banded one.
struct DenseLu {
  std::size_t n = 0;
  std::vector<double> lu;
  std::vector<std::size_t> pivots;

  explicit DenseLu(const SparseMatrix& a) : n(a.rows()), lu(n * n, 0.0) {
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
        lu[r * n + a.col_idx()[k]] = a.values()[k];
      }
    }
    pivots.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
      std::size_t pivot = c;
      double best = std::abs(lu[c * n + c]);
      for (std::size_t r = c + 1; r < n; ++r) {
        if (std::abs(lu[r * n + c]) > best) {
          best = std::abs(lu[r * n + c]);
          pivot = r;
        }
      }
      pivots[c] = pivot;
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
  }

  void solve(const std::vector<double>& rhs, std::vector<double>& x) const {
    x = rhs;
    for (std::size_t c = 0; c < n; ++c) {
      if (pivots[c] != c) std::swap(x[c], x[pivots[c]]);
    }
    for (std::size_t r = 1; r < n; ++r) {
      double acc = x[r];
      for (std::size_t c = 0; c < r; ++c) acc -= lu[r * n + c] * x[c];
      x[r] = acc;
    }
    for (std::size_t r = n; r-- > 0;) {
      double acc = x[r];
      for (std::size_t c = r + 1; c < n; ++c) acc -= lu[r * n + c] * x[c];
      x[r] = acc / lu[r * n + r];
    }
  }
};

/// The V-cycle on CSR levels with separate SpMV, smoother, residual,
/// restriction and prolongation passes: the formulation the stencil
/// kernels must reproduce bit for bit. Levels are taken from `mg`.
class CsrVcycle final : public Preconditioner {
 public:
  explicit CsrVcycle(const MultigridPreconditioner& mg) {
    for (std::size_t d = 0; d < mg.level_count(); ++d) {
      Level level;
      level.a = mg.level_operator(d).to_csr();
      level.shape = mg.level_operator(d).shape();
      level.inv_diag = level.a.diagonal();
      for (double& v : level.inv_diag) v = 1.0 / v;
      level.parent = parent_map(level.shape);
      levels_.push_back(std::move(level));
    }
    lu_ = std::make_unique<DenseLu>(levels_.back().a);
  }

  void apply(std::span<const double> r, std::span<double> z) const override {
    std::vector<double> rhs(r.begin(), r.end());
    std::vector<double> x(rhs.size());
    cycle(0, rhs, x);
    std::copy(x.begin(), x.end(), z.begin());
  }

  void cycle(std::size_t depth, const std::vector<double>& rhs,
             std::vector<double>& x) const {
    const Level& level = levels_[depth];
    if (depth + 1 == levels_.size()) {
      lu_->solve(rhs, x);
      return;
    }
    const double w = 0.7;
    const std::size_t n = rhs.size();
    std::vector<double> res(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = w * level.inv_diag[i] * rhs[i];
    level.a.multiply(x, res);
    std::vector<double> coarse_rhs(levels_[depth + 1].a.rows(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      coarse_rhs[level.parent[i]] += rhs[i] - res[i];
    }
    std::vector<double> coarse_x(coarse_rhs.size());
    cycle(depth + 1, coarse_rhs, coarse_x);
    for (std::size_t i = 0; i < n; ++i) x[i] += coarse_x[level.parent[i]];
    level.a.multiply(x, res);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += w * level.inv_diag[i] * (rhs[i] - res[i]);
    }
  }

 private:
  struct Level {
    SparseMatrix a;
    GridShape shape;
    std::vector<double> inv_diag;
    std::vector<std::uint32_t> parent;
  };
  std::vector<Level> levels_;
  std::unique_ptr<DenseLu> lu_;
};

/// Every level's SpMV against its CSR form, and every coarse level against
/// the CSR hierarchy's construction (fresh=true) or refresh (fresh=false).
void expect_levels_match_csr(const MultigridPreconditioner& mg, bool fresh,
                             const std::string& what) {
  for (std::size_t d = 0; d < mg.level_count(); ++d) {
    const StencilOperator& level = mg.level_operator(d);
    const SparseMatrix csr = level.to_csr();
    const std::vector<double> x = seeded_vector(level.rows(), 17 + d);
    EXPECT_TRUE(same_bits(stencil_multiply(level, x), csr_multiply(csr, x)))
        << what << " level " << d;
    if (d + 1 == mg.level_count()) break;
    const SparseMatrix coarse = mg.level_operator(d + 1).to_csr();
    const SparseMatrix built = csr_galerkin(csr, level.shape());
    ASSERT_TRUE(std::equal(coarse.col_idx().begin(), coarse.col_idx().end(),
                           built.col_idx().begin(), built.col_idx().end()))
        << what << " level " << d + 1;
    const std::vector<double> expected =
        fresh ? values_of(built)
              : csr_refreshed_values(csr, level.shape(), built);
    EXPECT_TRUE(same_bits(values_of(coarse), expected))
        << what << " level " << d + 1;
  }
}

/// The fused kernels, the banded coarsest solve and one V-cycle against
/// their CSR formulations.
void expect_cycle_matches_csr(const MultigridPreconditioner& mg,
                              const std::string& what) {
  const CsrVcycle reference(mg);
  const double w = 0.7;
  for (std::size_t d = 0; d + 1 < mg.level_count(); ++d) {
    const StencilOperator& a = mg.level_operator(d);
    const SparseMatrix csr = a.to_csr();
    const std::size_t n = a.rows();
    const std::vector<double> rhs = seeded_vector(n, 3 + d);
    const std::vector<double> x = seeded_vector(n, 5 + d);
    std::vector<double> inv = csr.diagonal();
    std::vector<double> wd(n);
    for (std::size_t i = 0; i < n; ++i) {
      inv[i] = 1.0 / inv[i];
      wd[i] = w * inv[i];
    }
    const std::vector<double> ax = csr_multiply(csr, x);

    std::vector<double> smoothed = x;
    for (std::size_t i = 0; i < n; ++i) {
      smoothed[i] += w * inv[i] * (rhs[i] - ax[i]);
    }
    std::vector<double> fused(n);
    jacobi_sweep(a, wd, rhs, x, fused);
    EXPECT_TRUE(same_bits(fused, smoothed)) << what << " smoother " << d;

    const std::vector<std::uint32_t> parent = parent_map(a.shape());
    std::vector<double> restricted(coarsened(a.shape()).nodes(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      restricted[parent[i]] += rhs[i] - ax[i];
    }
    std::vector<double> scratch(n);
    std::vector<double> fused_restricted(restricted.size(), 1.0);
    restrict_residual(a, rhs, x, scratch, fused_restricted);
    EXPECT_TRUE(same_bits(fused_restricted, restricted))
        << what << " restriction " << d;
  }

  const SparseMatrix coarsest =
      mg.level_operator(mg.level_count() - 1).to_csr();
  const DenseLu dense(coarsest);
  const std::vector<double> b = seeded_vector(coarsest.rows(), 11);
  std::vector<double> full;
  dense.solve(b, full);
  std::vector<double> banded(b.size());
  mg.solve_coarsest(b, banded);
  EXPECT_TRUE(same_bits(banded, full)) << what << " coarsest solve";

  const std::vector<double> r = seeded_vector(mg.fine_shape().nodes(), 23);
  std::vector<double> z(r.size());
  std::vector<double> z_ref(r.size());
  mg.apply(r, z);
  reference.apply(r, z_ref);
  EXPECT_TRUE(same_bits(z, z_ref)) << what << " V-cycle";
}

std::vector<ThermalBoundary> figure_boundaries(const PackageConfig& pkg) {
  std::vector<ThermalBoundary> boundaries;
  for (const CoolingOption& cooling : all_cooling_options()) {
    boundaries.push_back(cooling.boundary(pkg));
  }
  // A Fig. 14 point: one swept coefficient on both wetted paths.
  ThermalBoundary htc;
  htc.ambient_c = pkg.ambient_c;
  htc.top_htc = HeatTransferCoefficient(3000.0);
  htc.bottom_htc = HeatTransferCoefficient(3000.0);
  htc.film_on_bottom = true;
  boundaries.push_back(htc);
  return boundaries;
}

TEST(StencilGate, EveryFigureModelMatchesCsrBitwise) {
  const PackageConfig pkg;
  const std::vector<ThermalBoundary> boundaries = figure_boundaries(pkg);
  for (const ChipModel& chip :
       {make_low_power_cmp(), make_high_frequency_cmp()}) {
    for (std::size_t chips = 1; chips <= 15; ++chips) {
      for (FlipPolicy flip : {FlipPolicy::kNone, FlipPolicy::kFlipEven}) {
        const Stack3d stack(chip.floorplan(), chips, flip);
        StackThermalModel model(stack, pkg, boundaries.front());
        MultigridPreconditioner mg(model.conductance());
        const std::string what = chip.name() + " chips=" +
                                 std::to_string(chips) + " " +
                                 to_string(flip);
        expect_levels_match_csr(mg, /*fresh=*/true, what);
        for (std::size_t b = 1; b < boundaries.size(); ++b) {
          model.set_boundary(boundaries[b]);
          mg.refresh_values();
          expect_levels_match_csr(mg, /*fresh=*/false,
                                  what + " boundary " + std::to_string(b));
        }
      }
    }
  }
}

TEST(StencilGate, FusedCycleMatchesCsrOnFigureModels) {
  const PackageConfig pkg;
  const std::vector<ThermalBoundary> boundaries = figure_boundaries(pkg);
  for (const ChipModel& chip :
       {make_low_power_cmp(), make_high_frequency_cmp()}) {
    for (std::size_t chips : {1u, 4u, 15u}) {
      const Stack3d stack(chip.floorplan(), chips, FlipPolicy::kNone);
      StackThermalModel model(stack, pkg, boundaries.front());
      MultigridPreconditioner mg(model.conductance());
      const std::string what = chip.name() + " chips=" + std::to_string(chips);
      expect_cycle_matches_csr(mg, what);
      model.set_boundary(boundaries.back());
      mg.refresh_values();
      expect_cycle_matches_csr(mg, what + " refreshed");
    }
  }
}

TEST(StencilGate, DegenerateShapesMatchCsr) {
  const PackageConfig pkg;
  const ChipModel chip = make_low_power_cmp();
  const Stack3d stack(chip.floorplan(), 3, FlipPolicy::kNone);
  const ThermalBoundary water =
      CoolingOption(CoolingKind::kWaterImmersion).boundary(pkg);
  bool saw_single_column = false;
  for (const auto& [nx, ny] : {std::pair<std::size_t, std::size_t>{2, 64},
                               {7, 5},
                               {33, 17},
                               {5, 2}}) {
    GridOptions grid;
    grid.nx = nx;
    grid.ny = ny;
    const StackThermalModel model(stack, pkg, water, grid);
    const MultigridPreconditioner mg(model.conductance());
    for (std::size_t d = 0; d < mg.level_count(); ++d) {
      saw_single_column |= mg.level_operator(d).shape().nx == 1;
    }
    const std::string what =
        "grid " + std::to_string(nx) + "x" + std::to_string(ny);
    expect_levels_match_csr(mg, /*fresh=*/true, what);
    expect_cycle_matches_csr(mg, what);
  }
  EXPECT_TRUE(saw_single_column);
}

TEST(StencilGate, MultigridCgMatchesCsrReferenceBitwise) {
  const PackageConfig pkg;
  const ChipModel chip = make_high_frequency_cmp();
  const Stack3d stack(chip.floorplan(), 6, FlipPolicy::kFlipEven);
  StackThermalModel model(
      stack, pkg, CoolingOption(CoolingKind::kMineralOil).boundary(pkg));
  std::vector<std::vector<double>> powers;
  for (std::size_t l = 0; l < stack.layer_count(); ++l) {
    powers.push_back(chip.block_powers(stack.layer(l), chip.max_frequency()));
  }
  const std::vector<double> rhs = model.power_vector(powers);
  const MultigridPreconditioner mg(model.conductance());
  const CsrVcycle reference(mg);
  const SparseMatrix csr = model.conductance().to_csr();

  const SolveResult stencil = solve_cg(model.conductance(), rhs, {}, {}, &mg);
  const SolveResult csr_solve = solve_cg(csr, rhs, {}, {}, &reference);
  ASSERT_TRUE(stencil.converged);
  EXPECT_EQ(stencil.iterations, csr_solve.iterations);
  EXPECT_TRUE(same_bits(stencil.x, csr_solve.x));

  // Jacobi-CG, the default preconditioner, takes the stencil's diagonal.
  const SolveResult jacobi = solve_cg(model.conductance(), rhs);
  const SolveResult jacobi_csr = solve_cg(csr, rhs);
  EXPECT_EQ(jacobi.iterations, jacobi_csr.iterations);
  EXPECT_TRUE(same_bits(jacobi.x, jacobi_csr.x));
}

TEST(StencilOperator, CsrRoundTripKeepsStructureAndValues) {
  const GridShape g{5, 3, 2};
  SparseBuilder b(g.nodes(), g.nodes());
  Xoshiro256 rng(9);
  StencilOperator pattern(g);
  pattern.for_each_entry([&](std::size_t r, std::size_t c, double) {
    b.add(r, c, rng.uniform(-1.0, 1.0));
  });
  const SparseMatrix csr = b.build();
  const SparseMatrix back = StencilOperator::from_csr(csr, g).to_csr();
  EXPECT_TRUE(std::equal(csr.row_ptr().begin(), csr.row_ptr().end(),
                         back.row_ptr().begin(), back.row_ptr().end()));
  EXPECT_TRUE(std::equal(csr.col_idx().begin(), csr.col_idx().end(),
                         back.col_idx().begin(), back.col_idx().end()));
  EXPECT_TRUE(same_bits(values_of(csr), values_of(back)));
  // 30 nodes: 30 diagonals + 2 * (24 x-pairs + 20 y-pairs + 15 z-pairs).
  EXPECT_EQ(csr.nonzeros(), 30u + 2u * (24u + 20u + 15u));
}

TEST(StencilOperator, FromCsrRejectsEntriesOffThePattern) {
  const GridShape g{4, 4, 2};
  const auto with_extra = [&](std::size_t r, std::size_t c) {
    SparseBuilder b(g.nodes(), g.nodes());
    StencilOperator(g).for_each_entry(
        [&](std::size_t i, std::size_t j, double) { b.add(i, j, 1.0); });
    b.add(r, c, 1.0);
    return b.build();
  };
  EXPECT_NO_THROW((void)StencilOperator::from_csr(with_extra(0, 0), g));
  // A diagonal neighbour, a wrap-around across a row end, a two-layer jump.
  EXPECT_THROW((void)StencilOperator::from_csr(with_extra(0, 5), g), Error);
  EXPECT_THROW((void)StencilOperator::from_csr(with_extra(3, 4), g), Error);
  EXPECT_THROW((void)StencilOperator::from_csr(with_extra(0, 31), g), Error);
  // A pattern entry the CSR lacks.
  SparseBuilder diag_only(g.nodes(), g.nodes());
  for (std::size_t i = 0; i < g.nodes(); ++i) diag_only.add(i, i, 1.0);
  EXPECT_THROW((void)StencilOperator::from_csr(diag_only.build(), g), Error);
  // A shape that does not match the dimension.
  EXPECT_THROW((void)StencilOperator::from_csr(with_extra(0, 0),
                                               GridShape{4, 4, 3}),
               Error);
}

}  // namespace
}  // namespace aqua
