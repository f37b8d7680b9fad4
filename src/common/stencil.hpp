#pragma once

/// Seven-point stencil operator on a structured box grid.
///
/// The thermal stack matrix and every multigrid level below it couple a
/// node only to its six face neighbours, so they are stored as seven
/// coefficient planes on a GridShape (below, south, west, diag, east,
/// north, above) instead of as CSR: 56 B per row and no index arrays. The
/// apply walks the grid row by row and runs its interior on 2-wide vectors.
///
/// Bit-identity rule: a row sums its present neighbours in ascending column
/// order, starting from +0.0, which is the order SparseMatrix::multiply
/// walks a CSR row. A stencil converted by `from_csr` therefore gives the
/// same bits as the CSR it came from. An absent neighbour (a grid edge)
/// reads a zero coefficient against a zero row; it never multiplies a real
/// x value.

#include <cstddef>
#include <span>
#include <vector>

#include "common/sparse.hpp"

namespace aqua {

/// Shape of a structured box grid: nodes are indexed
/// layer * nx * ny + iy * nx + ix.
struct GridShape {
  std::size_t nx = 0;
  std::size_t ny = 0;
  std::size_t layers = 0;

  [[nodiscard]] std::size_t nodes() const { return nx * ny * layers; }
};

/// The seven stencil entries of a row, in ascending column order.
enum class Face : std::size_t {
  kBelow,  ///< layer - 1
  kSouth,  ///< iy - 1
  kWest,   ///< ix - 1
  kDiag,
  kEast,   ///< ix + 1
  kNorth,  ///< iy + 1
  kAbove,  ///< layer + 1
};
inline constexpr std::size_t kFaces = 7;

class StencilOperator final : public LinearOperator {
 public:
  StencilOperator() = default;

  /// All-zero operator on `shape`.
  explicit StencilOperator(GridShape shape);

  /// Converts an assembled CSR matrix whose rows are laid out on `shape`.
  /// Throws unless every entry lies on the 7-point pattern and every
  /// in-grid neighbour of every row is present.
  [[nodiscard]] static StencilOperator from_csr(const SparseMatrix& m,
                                                GridShape shape);

  /// The same matrix as CSR, assembled through SparseBuilder (for tests
  /// and the Gauss-Seidel reference solver).
  [[nodiscard]] SparseMatrix to_csr() const;

  [[nodiscard]] const GridShape& shape() const { return shape_; }
  [[nodiscard]] std::size_t rows() const override { return shape_.nodes(); }
  [[nodiscard]] std::size_t cols() const override { return shape_.nodes(); }

  void multiply(std::span<const double> x,
                std::span<double> y) const override;
  [[nodiscard]] std::vector<double> diagonal() const override;

  /// out[ix] = (A x)[row (layer, iy), ix] for ix in [0, nx). `x` holds the
  /// whole grid; `out` must not alias it.
  void apply_row(std::size_t layer, std::size_t iy, const double* x,
                 double* out) const;

  /// Whether node (layer, iy, ix) has an entry across `face`.
  [[nodiscard]] bool has(Face face, std::size_t layer, std::size_t iy,
                         std::size_t ix) const;

  /// Column offset of `face` from the row's own index.
  [[nodiscard]] std::ptrdiff_t offset(Face face) const;

  /// One coefficient per node (0 where the face is absent; keep it so).
  [[nodiscard]] std::span<double> plane(Face face);
  [[nodiscard]] std::span<const double> plane(Face face) const;

  /// Calls fn(row, col, value) for every present entry in CSR order:
  /// rows ascending, columns ascending within a row.
  template <class Fn>
  void for_each_entry(Fn&& fn) const {
    const std::size_t nx = shape_.nx;
    std::size_t row = 0;
    for (std::size_t l = 0; l < shape_.layers; ++l) {
      for (std::size_t iy = 0; iy < shape_.ny; ++iy) {
        for (std::size_t ix = 0; ix < nx; ++ix, ++row) {
          for (std::size_t f = 0; f < kFaces; ++f) {
            const Face face = static_cast<Face>(f);
            if (!has(face, l, iy, ix)) continue;
            fn(row,
               static_cast<std::size_t>(static_cast<std::ptrdiff_t>(row) +
                                        offset(face)),
               coef_[f * shape_.nodes() + row]);
          }
        }
      }
    }
  }

 private:
  GridShape shape_;
  std::vector<double> coef_;      // kFaces planes of nodes() values
  std::vector<double> zero_row_;  // nx zeros: an absent face's coef and x
};

}  // namespace aqua
