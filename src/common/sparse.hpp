#pragma once

/// The linear-operator interface the CG solver runs on, a compressed-
/// sparse-row matrix and a COO-style assembler.
///
/// The thermal grid model assembles its conductance matrix by accumulating
/// pairwise conductances (classic finite-volume stamping); SparseBuilder
/// supports duplicate-coordinate accumulation and converts to CSR once.
/// The thermal solve itself runs on the 7-point StencilOperator converted
/// from that CSR (common/stencil.hpp); SparseMatrix serves general
/// matrices: the Gauss-Seidel reference solver, the Galerkin coarse-level
/// assembly and the tests. Column indices are stored as 32 bits.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace aqua {

class SparseBuilder;

/// What the CG solver and the Jacobi preconditioner need of a matrix.
class LinearOperator {
 public:
  LinearOperator() = default;
  LinearOperator(const LinearOperator&) = default;
  LinearOperator(LinearOperator&&) = default;
  LinearOperator& operator=(const LinearOperator&) = default;
  LinearOperator& operator=(LinearOperator&&) = default;
  virtual ~LinearOperator() = default;

  [[nodiscard]] virtual std::size_t rows() const = 0;
  [[nodiscard]] virtual std::size_t cols() const = 0;

  /// y = A * x. `y` must already have rows() elements and not alias `x`.
  virtual void multiply(std::span<const double> x,
                        std::span<double> y) const = 0;

  /// Diagonal entries (0 where a row has no diagonal).
  [[nodiscard]] virtual std::vector<double> diagonal() const = 0;
};

/// Immutable CSR sparse matrix, built by SparseBuilder.
class SparseMatrix final : public LinearOperator {
 public:
  SparseMatrix() = default;

  [[nodiscard]] std::size_t rows() const override {
    return row_ptr_.empty() ? 0 : row_ptr_.size() - 1;
  }
  [[nodiscard]] std::size_t cols() const override { return cols_; }
  [[nodiscard]] std::size_t nonzeros() const { return values_.size(); }

  void multiply(std::span<const double> x,
                std::span<double> y) const override;

  [[nodiscard]] std::vector<double> diagonal() const override;

  /// One Gauss-Seidel forward sweep in place on x for A x = b.
  void gauss_seidel_sweep(std::span<const double> b,
                          std::span<double> x) const;

  /// Access to the raw CSR arrays (read-only, for tests and diagnostics).
  [[nodiscard]] std::span<const std::size_t> row_ptr() const { return row_ptr_; }
  [[nodiscard]] std::span<const std::uint32_t> col_idx() const { return col_idx_; }
  [[nodiscard]] std::span<const double> values() const { return values_; }

 private:
  friend class SparseBuilder;

  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;
};

/// Accumulating coordinate-format assembler.
///
/// Typical finite-volume usage: for every pair of adjacent control volumes
/// (i, j) with conductance g, call `add(i, i, g); add(j, j, g);
/// add(i, j, -g); add(j, i, -g);` and finally `build()`.
class SparseBuilder {
 public:
  SparseBuilder(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols) {
    require(rows_ <= UINT32_MAX && cols_ <= UINT32_MAX,
            "sparse matrix limited to 2^32 rows and columns");
  }

  /// Accumulates `value` into entry (row, col). Duplicate coordinates sum.
  void add(std::size_t row, std::size_t col, double value) {
    require(row < rows_ && col < cols_, "sparse entry out of range");
    entries_.push_back({std::uint64_t{row} << 32 | col, value});
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Converts accumulated entries into CSR (duplicates summed, entries with
  /// per-row sorted column order, exact zeros kept — the thermal assembly
  /// never produces structural zeros worth pruning).
  [[nodiscard]] SparseMatrix build() const;

 private:
  // (row, col) packed as row << 32 | col: one integer compare orders
  // entries by row, then column.
  struct Entry {
    std::uint64_t key;
    double value;
  };

  std::size_t rows_;
  std::size_t cols_;
  std::vector<Entry> entries_;
};

}  // namespace aqua
