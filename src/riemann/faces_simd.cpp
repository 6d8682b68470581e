// Vectorized face-kernel variants; compiled -O3 (-march=native when enabled).
#define RSHC_KERNEL_NS simd
#define RSHC_KERNEL_VECTORIZE 1
#include "faces_impl.inc"
