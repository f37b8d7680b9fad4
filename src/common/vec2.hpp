#pragma once

/// Two-double vectors for the thermal solver's grid loops.
///
/// Two lanes is the SIMD width every 64-bit target has without -march flags
/// (SSE2, NEON). Operations are lane-wise IEEE multiply and add, so each
/// lane computes exactly the scalar expression: loops written with Vec2
/// give the same bits as their scalar form. GCC and Clang vectorise such
/// loops at -O3 but not at the default -O2 build; Vec2 states the
/// vectorisation instead of depending on the optimisation level.

#include <cstddef>
#include <cstring>

namespace aqua {

using Vec2 = double __attribute__((vector_size(16)));

inline Vec2 load2(const double* p) {
  Vec2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store2(double* p, Vec2 v) { std::memcpy(p, &v, sizeof v); }

/// Runs kernel(i, load, store) over i in [0, n): on Vec2 pairs, then on a
/// scalar tail. `load(const double*)` and `store(double*, value)` read and
/// write a Vec2 or a double, so one generic kernel body serves both forms.
template <class Kernel>
void for_each_pair(std::size_t n, Kernel&& kernel) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    kernel(i, [](const double* p) { return load2(p); },
           [](double* p, Vec2 v) { store2(p, v); });
  }
  for (; i < n; ++i) {
    kernel(i, [](const double* p) { return *p; },
           [](double* p, double v) { *p = v; });
  }
}

}  // namespace aqua
