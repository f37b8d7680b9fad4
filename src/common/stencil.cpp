#include "common/stencil.hpp"

#include "common/error.hpp"
#include "common/vec2.hpp"

namespace aqua {

StencilOperator::StencilOperator(GridShape shape)
    : shape_(shape),
      coef_(kFaces * shape.nodes(), 0.0),
      zero_row_(shape.nx, 0.0) {}

bool StencilOperator::has(Face face, std::size_t layer, std::size_t iy,
                          std::size_t ix) const {
  switch (face) {
    case Face::kBelow: return layer > 0;
    case Face::kSouth: return iy > 0;
    case Face::kWest: return ix > 0;
    case Face::kDiag: return true;
    case Face::kEast: return ix + 1 < shape_.nx;
    case Face::kNorth: return iy + 1 < shape_.ny;
    case Face::kAbove: return layer + 1 < shape_.layers;
  }
  return false;
}

std::ptrdiff_t StencilOperator::offset(Face face) const {
  const auto nx = static_cast<std::ptrdiff_t>(shape_.nx);
  const auto plane_n = static_cast<std::ptrdiff_t>(shape_.nx * shape_.ny);
  switch (face) {
    case Face::kBelow: return -plane_n;
    case Face::kSouth: return -nx;
    case Face::kWest: return -1;
    case Face::kDiag: return 0;
    case Face::kEast: return 1;
    case Face::kNorth: return nx;
    case Face::kAbove: return plane_n;
  }
  return 0;
}

std::span<double> StencilOperator::plane(Face face) {
  return std::span<double>(coef_).subspan(
      static_cast<std::size_t>(face) * shape_.nodes(), shape_.nodes());
}

std::span<const double> StencilOperator::plane(Face face) const {
  return std::span<const double>(coef_).subspan(
      static_cast<std::size_t>(face) * shape_.nodes(), shape_.nodes());
}

StencilOperator StencilOperator::from_csr(const SparseMatrix& m,
                                          GridShape shape) {
  require(m.rows() == shape.nodes() && m.cols() == shape.nodes(),
          "stencil: shape does not match matrix dimension");
  StencilOperator s(shape);
  const std::span<const std::size_t> row_ptr = m.row_ptr();
  const std::span<const std::uint32_t> col_idx = m.col_idx();
  const std::span<const double> values = m.values();
  const std::size_t n = shape.nodes();
  // Present faces have strictly ascending offsets, so a row matches the
  // pattern exactly when its sorted CSR columns are those offsets in turn.
  std::size_t row = 0;
  for (std::size_t l = 0; l < shape.layers; ++l) {
    for (std::size_t iy = 0; iy < shape.ny; ++iy) {
      for (std::size_t ix = 0; ix < shape.nx; ++ix, ++row) {
        std::size_t k = row_ptr[row];
        for (std::size_t f = 0; f < kFaces; ++f) {
          const Face face = static_cast<Face>(f);
          if (!s.has(face, l, iy, ix)) continue;
          const auto col = static_cast<std::size_t>(
              static_cast<std::ptrdiff_t>(row) + s.offset(face));
          require(k < row_ptr[row + 1] && col_idx[k] == col,
                  "stencil: CSR row is not on the 7-point pattern");
          s.coef_[f * n + row] = values[k];
          ++k;
        }
        require(k == row_ptr[row + 1],
                "stencil: CSR row is not on the 7-point pattern");
      }
    }
  }
  return s;
}

SparseMatrix StencilOperator::to_csr() const {
  SparseBuilder builder(rows(), cols());
  for_each_entry([&builder](std::size_t r, std::size_t c, double v) {
    builder.add(r, c, v);
  });
  return builder.build();
}

std::vector<double> StencilOperator::diagonal() const {
  const std::span<const double> d = plane(Face::kDiag);
  return {d.begin(), d.end()};
}

void StencilOperator::apply_row(std::size_t layer, std::size_t iy,
                                const double* x, double* out) const {
  const std::size_t nx = shape_.nx;
  const std::size_t n = shape_.nodes();
  const std::size_t plane_n = nx * shape_.ny;
  const std::size_t base = layer * plane_n + iy * nx;
  const double* zero = zero_row_.data();
  const double* c = coef_.data() + base;

  // Below, south, north and above are present or absent for the whole row.
  // An absent one reads the zero row as coefficient and as x: +0 * +0 adds
  // +0, which leaves a sum that started at +0.0 unchanged.
  const bool below = layer > 0;
  const bool south = iy > 0;
  const bool north = iy + 1 < shape_.ny;
  const bool above = layer + 1 < shape_.layers;
  const double* cb = below ? c : zero;
  const double* xb = below ? x + base - plane_n : zero;
  const double* cs = south ? c + n : zero;
  const double* xs = south ? x + base - nx : zero;
  const double* cw = c + 2 * n;
  const double* cd = c + 3 * n;
  const double* ce = c + 4 * n;
  const double* cn = north ? c + 5 * n : zero;
  const double* xn = north ? x + base + nx : zero;
  const double* ca = above ? c + 6 * n : zero;
  const double* xa = above ? x + base + plane_n : zero;
  const double* xr = x + base;

  if (nx == 1) {
    out[0] = 0.0 + cb[0] * xb[0] + cs[0] * xs[0] + cd[0] * xr[0] +
             cn[0] * xn[0] + ca[0] * xa[0];
    return;
  }
  // ix = 0 has no west face, ix = nx - 1 no east face; the interior has
  // all three in-row faces.
  out[0] = 0.0 + cb[0] * xb[0] + cs[0] * xs[0] + cd[0] * xr[0] +
           ce[0] * xr[1] + cn[0] * xn[0] + ca[0] * xa[0];
  const std::size_t last = nx - 1;
  std::size_t ix = 1;
  for (; ix + 2 <= last; ix += 2) {
    Vec2 acc = Vec2{0.0, 0.0} + load2(cb + ix) * load2(xb + ix);
    acc += load2(cs + ix) * load2(xs + ix);
    acc += load2(cw + ix) * load2(xr + ix - 1);
    acc += load2(cd + ix) * load2(xr + ix);
    acc += load2(ce + ix) * load2(xr + ix + 1);
    acc += load2(cn + ix) * load2(xn + ix);
    acc += load2(ca + ix) * load2(xa + ix);
    store2(out + ix, acc);
  }
  for (; ix < last; ++ix) {
    out[ix] = 0.0 + cb[ix] * xb[ix] + cs[ix] * xs[ix] +
              cw[ix] * xr[ix - 1] + cd[ix] * xr[ix] + ce[ix] * xr[ix + 1] +
              cn[ix] * xn[ix] + ca[ix] * xa[ix];
  }
  out[last] = 0.0 + cb[last] * xb[last] + cs[last] * xs[last] +
              cw[last] * xr[last - 1] + cd[last] * xr[last] +
              cn[last] * xn[last] + ca[last] * xa[last];
}

void StencilOperator::multiply(std::span<const double> x,
                               std::span<double> y) const {
  require(x.size() == cols(), "SpMV: x dimension mismatch");
  require(y.size() == rows(), "SpMV: y dimension mismatch");
  std::size_t base = 0;
  for (std::size_t l = 0; l < shape_.layers; ++l) {
    for (std::size_t iy = 0; iy < shape_.ny; ++iy, base += shape_.nx) {
      apply_row(l, iy, x.data(), y.data() + base);
    }
  }
}

}  // namespace aqua
