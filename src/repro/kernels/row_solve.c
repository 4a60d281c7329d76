/*
 * Row-independent solve for the ADMM line 6 (paper Algorithm 1):
 *
 *     x <- x * A^-1        for every row x of an n x f matrix, in place,
 *
 * where A^-1 = (G + rho I)^-1 is formed once per mode update by the
 * caller.  Every output entry is
 *
 *     y[c] = x[0] * A^-1[0][c] + x[1] * A^-1[1][c] + ...
 *            + x[f-1] * A^-1[f-1][c]
 *
 * summed sequentially in j, starting from the first product (no +0.0
 * term), with each multiply and add rounded on its own.  That is the
 * order of the NumPy replay in row_solve.py (np.multiply by the first
 * column, then `+= x[:, j:j+1] * A^-1[j]`), so the result is byte-equal
 * to it, and a row's result never depends on which other rows share the
 * call.  Build with -ffp-contract=off (no fused multiply-add) and
 * without fast-math so the compiler keeps this exact order.
 *
 * Register blocking: 4 rows x 8 columns of accumulators per tile, one
 * broadcast x[r][j] times one 8-wide slice of A^-1 row j per step.  Each
 * ISA gets its own vector width (AVX-512F: 1 x 8, AVX2: 2 x 4, baseline:
 * 4 x 2), because a 512-bit vector type compiled for AVX2 is split into
 * slow halves.  The variants differ only in how many columns one
 * instruction covers, never in the order of the operations on an entry,
 * so all of them return the same bytes.  Columns past the last multiple
 * of 8 run a scalar loop in the same order; rows past the last multiple
 * of 4 run the tile one row at a time.
 *
 * A row group is copied to a 4 x f scratch before its outputs are
 * written, which makes the update in place safe.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define RB 4 /* rows per register tile */
#define CB 8 /* columns per register tile */

enum { ROWS_OK = 0, ROWS_NO_MEMORY = 3, ROWS_BAD_VARIANT = 6 };

/* Variant ids; repro_row_solve_variants() returns a bit mask of them. */
enum { VARIANT_BASELINE = 0, VARIANT_AVX2 = 1, VARIANT_AVX512F = 2 };

/*
 * One variant: NAME##_rows(n, f, x, a, xs) with W doubles per vector.
 * The tile's row and vector loops have constant bounds after inlining,
 * so the accumulators live in registers.
 */
#define DEFINE_VARIANT(NAME, ATTR, W)                                      \
typedef double NAME##_vec                                                  \
    __attribute__((vector_size(8 * (W)), aligned(8), may_alias));          \
                                                                           \
ATTR static inline __attribute__((always_inline)) void                     \
NAME##_tile(const int nr, int64_t f, const double *xs, const double *a,    \
            double *y, int64_t c)                                          \
{                                                                          \
    NAME##_vec acc[RB][CB / (W)];                                          \
    for (int r = 0; r < nr; r++)                                           \
        for (int v = 0; v < CB / (W); v++)                                 \
            acc[r][v] = xs[r * f]                                          \
                * *(const NAME##_vec *)(a + c + v * (W));                  \
    for (int64_t j = 1; j < f; j++) {                                      \
        const double *aj = a + j * f + c;                                  \
        for (int r = 0; r < nr; r++)                                       \
            for (int v = 0; v < CB / (W); v++)                             \
                acc[r][v] = acc[r][v] + xs[r * f + j]                      \
                    * *(const NAME##_vec *)(aj + v * (W));                 \
    }                                                                      \
    for (int r = 0; r < nr; r++)                                           \
        for (int v = 0; v < CB / (W); v++)                                 \
            *(NAME##_vec *)(y + r * f + c + v * (W)) = acc[r][v];          \
}                                                                          \
                                                                           \
ATTR static void                                                           \
NAME##_rows(int64_t n, int64_t f, double *x, const double *a, double *xs)  \
{                                                                          \
    const int64_t full = f - f % CB;                                       \
    for (int64_t i = 0; i < n; i += RB) {                                  \
        const int64_t nr = n - i < RB ? n - i : RB;                        \
        double *y = x + i * f;                                             \
        memcpy(xs, y, (size_t)(nr * f) * sizeof(double));                  \
        for (int64_t c = 0; c < full; c += CB) {                           \
            if (nr == RB)                                                  \
                NAME##_tile(RB, f, xs, a, y, c);                           \
            else                                                           \
                for (int64_t r = 0; r < nr; r++)                           \
                    NAME##_tile(1, f, xs + r * f, a, y + r * f, c);        \
        }                                                                  \
        for (int64_t r = 0; r < nr; r++)                                   \
            for (int64_t c = full; c < f; c++) {                           \
                double s = xs[r * f] * a[c];                               \
                for (int64_t j = 1; j < f; j++)                            \
                    s = s + xs[r * f + j] * a[j * f + c];                  \
                y[r * f + c] = s;                                          \
            }                                                              \
    }                                                                      \
}

#if defined(__x86_64__) || defined(__i386__)
#define ROWS_X86 1
DEFINE_VARIANT(avx512f, __attribute__((target("avx512f"))), 8)
DEFINE_VARIANT(avx2, __attribute__((target("avx2"))), 4)
#endif
DEFINE_VARIANT(baseline, , 2)

/* Bit mask of the variants this CPU can run (bit i = variant id i). */
int64_t repro_row_solve_variants(void)
{
    int64_t mask = 1 << VARIANT_BASELINE;
#ifdef ROWS_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        mask |= 1 << VARIANT_AVX2;
    if (__builtin_cpu_supports("avx512f"))
        mask |= 1 << VARIANT_AVX512F;
#endif
    return mask;
}

/*
 * x (n x f, C order) <- x * a (f x f, C order) with variant `variant`,
 * which the caller has checked against repro_row_solve_variants().
 */
int repro_row_solve(int64_t variant, int64_t n, int64_t f, double *x,
                    const double *a)
{
    if (n <= 0 || f <= 0)
        return ROWS_OK;
    if (variant < 0 || variant > VARIANT_AVX512F
            || !(repro_row_solve_variants() >> variant & 1))
        return ROWS_BAD_VARIANT;
    double *xs = malloc((size_t)(RB * f) * sizeof(double));
    if (!xs)
        return ROWS_NO_MEMORY;
    switch (variant) {
#ifdef ROWS_X86
    case VARIANT_AVX512F: avx512f_rows(n, f, x, a, xs); break;
    case VARIANT_AVX2: avx2_rows(n, f, x, a, xs); break;
#endif
    default: baseline_rows(n, f, x, a, xs); break;
    }
    free(xs);
    return ROWS_OK;
}
