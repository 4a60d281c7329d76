/*
 * The ADMM inner loop (paper Algorithm 1) for row-separable proxes.
 *
 * 1. Row-independent solve for line 6:
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
 *
 * 2. The fused block loop: Algorithm 1 on each row block of bs rows in
 * turn, until that block's own residuals meet the tolerance or it
 * reaches the iteration cap (paper Section IV-B).  The block's H and U
 * rows are updated in place; one bs x f scratch holds H_tilde.  Each
 * iteration does, in the order of the NumPy code in admm/blocked.py:
 *
 *     w  = (h + u) * rho + k          (built straight into the 4 x f
 *                                      scratch of the solve)
 *     w  = w * A^-1                   (the solve above)
 *     h' = prox(w - u)
 *     u' = (u + h') - w
 *
 * and the residual sums of admm/residuals.py: per column, the squares
 * of (h' - w), h', (h' - h) and u' summed sequentially down the block's
 * rows (np.einsum or np.add.reduce over a non-innermost axis), then
 * each set of f column partials summed sequentially, then
 * r = |h' - w|^2 / max(|h'|^2, 1e-30) and s = |h' - h|^2 / max(|u'|^2,
 * 1e-30).  The prox kinds replay NumPy's rules bit for bit:
 *
 *     nonneg     np.maximum(v, 0.0): NaN stays, -0.0 becomes +0.0
 *     nonneg_l1  np.maximum(v - t, 0.0)
 *
 * with t = weight * (1 / rho) computed by the caller.  The elementwise
 * pass runs W columns per vector, rows inner, with the four column
 * partials of a column slice held in registers.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define RB 4 /* rows per register tile */
#define CB 8 /* columns per register tile */
#define TINY 1e-30 /* residual denominator floor (admm/residuals.py) */

enum { ROWS_OK = 0, ROWS_NO_MEMORY = 3, ROWS_BAD_VARIANT = 6,
       ROWS_BAD_PROX = 7 };

/* Variant ids; repro_row_solve_variants() returns a bit mask of them. */
enum { VARIANT_BASELINE = 0, VARIANT_AVX2 = 1, VARIANT_AVX512F = 2 };

/* Prox kinds of repro_admm_blocks (PROX_KINDS in row_solve.py). */
enum { PROX_NONNEG = 0, PROX_NONNEG_L1 = 1 };

static inline double max_zero(double x)
{
    return x > 0.0 || x != x ? x : 0.0;
}

static inline double prox_scalar(const int kind, double v, double t)
{
    return max_zero(kind == PROX_NONNEG ? v : v - t);
}

static inline double floored(double x)
{
    return x > TINY || x != x ? x : TINY;
}

/*
 * One variant: NAME##_rows(...) (the solve) and NAME##_blocks(...) (the
 * fused loop) with W doubles per vector.  The tile's row and vector
 * loops have constant bounds after inlining, so the accumulators live
 * in registers.
 */
#define DEFINE_VARIANT(NAME, ATTR, W)                                      \
typedef double NAME##_vec                                                  \
    __attribute__((vector_size(8 * (W)), aligned(8), may_alias));          \
typedef int64_t NAME##_mask __attribute__((vector_size(8 * (W))));         \
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
/* xs[0:len] <- (h + u) * rho + k */                                       \
ATTR static inline void                                                    \
NAME##_rhs(int64_t len, const double *h, const double *u, const double *k, \
           double rho, double *xs)                                         \
{                                                                          \
    int64_t i = 0;                                                         \
    for (; i + (W) <= len; i += (W))                                       \
        *(NAME##_vec *)(xs + i) = (*(const NAME##_vec *)(h + i)            \
            + *(const NAME##_vec *)(u + i)) * rho                          \
            + *(const NAME##_vec *)(k + i);                                \
    for (; i < len; i++)                                                   \
        xs[i] = (h[i] + u[i]) * rho + k[i];                                \
}                                                                          \
                                                                           \
/*                                                                         \
 * y (n x f) <- x * a, where x is y itself (h == NULL) or the line-6       \
 * right-hand side (h + u) * rho + k.                                      \
 */                                                                        \
ATTR static void                                                           \
NAME##_rows(int64_t n, int64_t f, double *y0, const double *a, double *xs, \
            const double *h, const double *u, const double *k, double rho) \
{                                                                          \
    const int64_t full = f - f % CB;                                       \
    for (int64_t i = 0; i < n; i += RB) {                                  \
        const int64_t nr = n - i < RB ? n - i : RB;                        \
        double *y = y0 + i * f;                                            \
        if (h)                                                             \
            NAME##_rhs(nr * f, h + i * f, u + i * f, k + i * f, rho, xs);  \
        else                                                               \
            memcpy(xs, y, (size_t)(nr * f) * sizeof(double));              \
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
}                                                                          \
                                                                           \
ATTR static inline __attribute__((always_inline)) NAME##_vec               \
NAME##_max_zero(NAME##_vec x)                                              \
{                                                                          \
    const NAME##_vec zero = {0};                                           \
    return (NAME##_vec)((NAME##_mask)x & ~(x <= zero)); /* > 0 or NaN */   \
}                                                                          \
                                                                           \
ATTR static inline __attribute__((always_inline)) NAME##_vec               \
NAME##_prox(const int kind, NAME##_vec v, double t)                        \
{                                                                          \
    if (kind == PROX_NONNEG)                                               \
        return NAME##_max_zero(v);                                         \
    return NAME##_max_zero(v - t);                                         \
}                                                                          \
                                                                           \
/*                                                                         \
 * Lines 8-11 over one block's m rows: h, u updated in place from the      \
 * solved w; part[q * f + c] gets the column partials of the q-th          \
 * residual sum (|h' - w|^2, |h'|^2, |h' - h|^2, |u'|^2).                  \
 */                                                                        \
ATTR static inline __attribute__((always_inline)) void                     \
NAME##_pass(const int kind, int64_t m, int64_t f, const double *w,         \
            double *h, double *u, double t, double *part)                  \
{                                                                          \
    const int64_t full = f - f % (W);                                      \
    for (int64_t c = 0; c < full; c += (W)) {                              \
        NAME##_vec p0 = {0}, p1 = {0}, p2 = {0}, p3 = {0};                 \
        for (int64_t r = 0; r < m; r++) {                                  \
            const int64_t o = r * f + c;                                   \
            const NAME##_vec a = *(const NAME##_vec *)(w + o);             \
            const NAME##_vec ho = *(const NAME##_vec *)(h + o);            \
            const NAME##_vec uo = *(const NAME##_vec *)(u + o);            \
            const NAME##_vec hn = NAME##_prox(kind, a - uo, t);            \
            const NAME##_vec un = (uo + hn) - a;                           \
            const NAME##_vec d1 = hn - a, d2 = hn - ho;                    \
            p0 = p0 + d1 * d1;                                             \
            p1 = p1 + hn * hn;                                             \
            p2 = p2 + d2 * d2;                                             \
            p3 = p3 + un * un;                                             \
            *(NAME##_vec *)(h + o) = hn;                                   \
            *(NAME##_vec *)(u + o) = un;                                   \
        }                                                                  \
        *(NAME##_vec *)(part + c) = p0;                                    \
        *(NAME##_vec *)(part + f + c) = p1;                                \
        *(NAME##_vec *)(part + 2 * f + c) = p2;                            \
        *(NAME##_vec *)(part + 3 * f + c) = p3;                            \
    }                                                                      \
    for (int64_t c = full; c < f; c++) {                                   \
        double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;                     \
        for (int64_t r = 0; r < m; r++) {                                  \
            const int64_t o = r * f + c;                                   \
            const double a = w[o], ho = h[o], uo = u[o];                   \
            const double hn = prox_scalar(kind, a - uo, t);                \
            const double un = (uo + hn) - a;                               \
            const double d1 = hn - a, d2 = hn - ho;                        \
            p0 = p0 + d1 * d1;                                             \
            p1 = p1 + hn * hn;                                             \
            p2 = p2 + d2 * d2;                                             \
            p3 = p3 + un * un;                                             \
            h[o] = hn;                                                     \
            u[o] = un;                                                     \
        }                                                                  \
        part[c] = p0;                                                      \
        part[f + c] = p1;                                                  \
        part[2 * f + c] = p2;                                              \
        part[3 * f + c] = p3;                                              \
    }                                                                      \
}                                                                          \
                                                                           \
ATTR static inline __attribute__((always_inline)) void                     \
NAME##_blocks_of(const int kind, int64_t n, int64_t f, int64_t bs,         \
                 double *h, double *u, const double *k, const double *a,   \
                 double rho, double t, double tol, int64_t max_iter,       \
                 int64_t *iters, int64_t *conv, double *res, double *work, \
                 double *xs, double *part)                                 \
{                                                                          \
    for (int64_t b = 0, lo = 0; lo < n; b++, lo += bs) {                   \
        const int64_t m = n - lo < bs ? n - lo : bs;                       \
        double *hb = h + lo * f, *ub = u + lo * f;                         \
        const double *kb = k + lo * f;                                     \
        int64_t it = 0, ok = 0;                                            \
        double r = INFINITY, s = INFINITY;                                 \
        while (it < max_iter) {                                            \
            it++;                                                          \
            NAME##_rows(m, f, work, a, xs, hb, ub, kb, rho);               \
            NAME##_pass(kind, m, f, work, hb, ub, t, part);                \
            double sums[4];                                                \
            for (int q = 0; q < 4; q++) {                                  \
                double acc = part[q * f];                                  \
                for (int64_t c = 1; c < f; c++)                            \
                    acc = acc + part[q * f + c];                           \
                sums[q] = acc;                                             \
            }                                                              \
            r = sums[0] / floored(sums[1]);                                \
            s = sums[2] / floored(sums[3]);                                \
            if (r < tol && s < tol) {                                      \
                ok = 1;                                                    \
                break;                                                     \
            }                                                              \
        }                                                                  \
        iters[b] = it;                                                     \
        conv[b] = ok;                                                      \
        res[2 * b] = r;                                                    \
        res[2 * b + 1] = s;                                                \
    }                                                                      \
}                                                                          \
                                                                           \
ATTR static void                                                           \
NAME##_blocks(int kind, int64_t n, int64_t f, int64_t bs, double *h,       \
              double *u, const double *k, const double *a, double rho,     \
              double t, double tol, int64_t max_iter, int64_t *iters,      \
              int64_t *conv, double *res, double *work, double *xs,        \
              double *part)                                                \
{                                                                          \
    switch (kind) {                                                        \
    case PROX_NONNEG:                                                      \
        NAME##_blocks_of(PROX_NONNEG, n, f, bs, h, u, k, a, rho, t, tol,   \
                         max_iter, iters, conv, res, work, xs, part);      \
        break;                                                             \
    default:                                                               \
        NAME##_blocks_of(PROX_NONNEG_L1, n, f, bs, h, u, k, a, rho, t,     \
                         tol, max_iter, iters, conv, res, work, xs, part); \
        break;                                                             \
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

static int bad_variant(int64_t variant)
{
    return variant < 0 || variant > VARIANT_AVX512F
        || !(repro_row_solve_variants() >> variant & 1);
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
    if (bad_variant(variant))
        return ROWS_BAD_VARIANT;
    double *xs = malloc((size_t)(RB * f) * sizeof(double));
    if (!xs)
        return ROWS_NO_MEMORY;
    switch (variant) {
#ifdef ROWS_X86
    case VARIANT_AVX512F:
        avx512f_rows(n, f, x, a, xs, NULL, NULL, NULL, 0.0);
        break;
    case VARIANT_AVX2:
        avx2_rows(n, f, x, a, xs, NULL, NULL, NULL, 0.0);
        break;
#endif
    default: baseline_rows(n, f, x, a, xs, NULL, NULL, NULL, 0.0); break;
    }
    free(xs);
    return ROWS_OK;
}

/*
 * Algorithm 1 on every bs-row block of h and u (n x f, C order, updated
 * in place) in turn, with k (n x f, C order) the MTTKRP and a (f x f, C
 * order) = (G + rho I)^-1.  The last block may be short.  Per block b:
 * iters[b] = iterations run, conv[b] = 1 when it met `tol` (0 when it
 * stopped at max_iter), res[2b], res[2b + 1] = its last r and s
 * (INFINITY when max_iter is 0).
 */
int repro_admm_blocks(int64_t variant, int64_t n, int64_t f, int64_t bs,
                      double *h, double *u, const double *k,
                      const double *a, double rho, int64_t kind, double t,
                      double tol, int64_t max_iter, int64_t *iters,
                      int64_t *conv, double *res)
{
    if (n <= 0 || f <= 0 || bs <= 0)
        return ROWS_OK;
    if (bad_variant(variant))
        return ROWS_BAD_VARIANT;
    if (kind < PROX_NONNEG || kind > PROX_NONNEG_L1)
        return ROWS_BAD_PROX;
    const int64_t m = bs < n ? bs : n;
    double *work = malloc((size_t)((m + RB + 4) * f) * sizeof(double));
    if (!work)
        return ROWS_NO_MEMORY;
    double *xs = work + m * f, *part = xs + RB * f;
    switch (variant) {
#ifdef ROWS_X86
    case VARIANT_AVX512F:
        avx512f_blocks((int)kind, n, f, bs, h, u, k, a, rho, t, tol,
                       max_iter, iters, conv, res, work, xs, part);
        break;
    case VARIANT_AVX2:
        avx2_blocks((int)kind, n, f, bs, h, u, k, a, rho, t, tol,
                    max_iter, iters, conv, res, work, xs, part);
        break;
#endif
    default:
        baseline_blocks((int)kind, n, f, bs, h, u, k, a, rho, t, tol,
                        max_iter, iters, conv, res, work, xs, part);
        break;
    }
    free(work);
    return ROWS_OK;
}
