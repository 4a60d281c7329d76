/*
 * Fused root-mode CSF MTTKRP (paper Algorithm 3, any tensor order).
 *
 * One recursive per-fiber loop: a node's row is the sum of its
 * children's rows, each child row scaled by the child's factor row (leaf
 * rows are the leaf factor row scaled by the non-zero's value).  The
 * children of the node being reduced live in a per-level scratch of
 * max-fan-out x rank doubles, so no nnz x rank intermediate is ever
 * written.  Root rows go straight into the output.
 *
 * Bit identity with the NumPy sweep (np.add.reduceat along axis 0) is
 * the contract, so every segment is summed in NumPy's order:
 *
 *     seg = x[0] + pairwise(x[1:])
 *
 * where pairwise() replays NumPy's pairwise summation: below 8 rows a
 * sequential sum from `init` (NumPy's starting value, -0.0 or 0.0
 * depending on its version, probed by the loader); up to 128 rows 8
 * strided accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
 * plus the remainder in order; above that a split at n/2 rounded down to
 * a multiple of 8.  Build with -ffp-contract=off (no fused multiply-add)
 * and without fast-math so the compiler keeps this exact order.
 *
 * Sparse leaf stage (paper Section IV-C, the modified line 9 of
 * Algorithm 3).  When the deep factor is CSR or CSR-H (`leaf` below), a
 * fiber's row (a level nmodes-2 node) is instead the sequential sum,
 * starting at +0.0 and in tree order, of a * (row k of the deep factor)
 * over the fiber's non-zeros, where runs of equal leaf ids k are first
 * folded into one value a = v0 + v1 + ... in order.  Row k is read as
 * its dense-prefix columns, then its CSR-tail entries, each placed at
 * output column perm[j].  That is exactly SciPy's path through the leaf
 * aggregator S (COO->CSR duplicate summing, then csr_matvecs for the
 * dense prefix and csr_matmat for the tail, both accumulating from zero
 * in S's row order), so only stored entries are touched and no
 * nnz x rank or fibers x rank temporary is written.  It relies on
 * S's rows being in tree order: SciPy sorts them by leaf id, which is
 * the tree order of every CSF tree built from COO, so a fiber whose ids
 * decrease returns CSF_UNSORTED instead.  The levels above reuse the
 * dense code unchanged.
 *
 * ISA variants.  The loop is compiled once per ISA (AVX-512F, AVX2 and
 * baseline on x86, baseline only elsewhere) from one C body, and the
 * caller picks a variant the CPU runs.  Every inner loop runs across the
 * rank columns, with each column's operations in the order above, so the
 * compiler vectorizes them at the variant's width without reordering any
 * column's sum: every variant returns the same bytes.
 *
 * Every index is bounds-checked in the loop: a malformed tree returns an
 * error code instead of reading out of bounds.  All scratch is allocated
 * per call, so concurrent calls share no state.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define PW_BLOCK 128

enum { CSF_OK = 0, CSF_BAD_FID = 1, CSF_BAD_FPTR = 2, CSF_NO_MEMORY = 3,
       CSF_UNSORTED = 4, CSF_BAD_LEAF = 5, CSF_BAD_VARIANT = 6 };

/* Variant ids, those of row_solve.c. */
enum { VARIANT_BASELINE = 0, VARIANT_AVX2 = 1, VARIANT_AVX512F = 2 };

/* A CSR (ndense = 0) or CSR-H deep factor with rows = dims[nmodes-1]. */
typedef struct {
    int64_t ndense;                 /* dense-prefix columns */
    int64_t ntail;                  /* stored CSR-tail entries */
    const double *dense;            /* rows x ndense */
    const int64_t *indptr;          /* rows + 1 tail row pointers */
    const int64_t *indices;         /* tail columns in [0, rank - ndense) */
    const double *data;             /* tail values */
    const int64_t *perm;            /* output column of each column j */
} leaf_rep_t;

typedef struct {
    int64_t nmodes, rank;
    const int64_t *dims;            /* row bound of each level's ids */
    const int64_t *const *fptr;     /* levels 0 .. nmodes-2 */
    const int64_t *const *fids;     /* levels 0 .. nmodes-1 */
    const double *vals;
    const double *const *factors;   /* factor of each level's mode */
    double **children;              /* per level: max-fan-out x rank */
    double *acc8;                   /* 8 x rank pairwise accumulators */
    double *split;                  /* one row per pairwise split depth */
    double init;
    const leaf_rep_t *leaf;         /* sparse deep factor, or NULL */
} sweep_t;

/* One variant: NAME##_node_row(...) and the functions it calls, compiled
 * with the ISA attribute ATTR. */
#define DEFINE_VARIANT(NAME, ATTR)                                         \
/* dst = NumPy pairwise sum of the n rows at a (row stride = rank). */     \
ATTR static void                                                           \
NAME##_pairwise(const sweep_t *t, const double *a, int64_t n, double *dst, \
                double *split)                                             \
{                                                                          \
    const int64_t F = t->rank;                                             \
    int64_t i, j, f;                                                       \
    if (n < 8) {                                                           \
        for (f = 0; f < F; f++)                                            \
            dst[f] = t->init;                                              \
        for (i = 0; i < n; i++)                                            \
            for (f = 0; f < F; f++)                                        \
                dst[f] += a[i * F + f];                                    \
    } else if (n <= PW_BLOCK) {                                            \
        double *r = t->acc8;                                               \
        memcpy(r, a, (size_t)(8 * F) * sizeof(double));                    \
        for (i = 8; i < n - (n % 8); i += 8)                               \
            for (j = 0; j < 8; j++)                                        \
                for (f = 0; f < F; f++)                                    \
                    r[j * F + f] += a[(i + j) * F + f];                    \
        for (f = 0; f < F; f++)                                            \
            dst[f] = ((r[f] + r[F + f]) + (r[2 * F + f] + r[3 * F + f]))   \
                   + ((r[4 * F + f] + r[5 * F + f])                        \
                      + (r[6 * F + f] + r[7 * F + f]));                    \
        for (; i < n; i++)                                                 \
            for (f = 0; f < F; f++)                                        \
                dst[f] += a[i * F + f];                                    \
    } else {                                                               \
        int64_t n2 = n / 2;                                                \
        n2 -= n2 % 8;                                                      \
        NAME##_pairwise(t, a, n2, dst, split + F);                         \
        NAME##_pairwise(t, a + n2 * F, n - n2, split, split + F);          \
        for (f = 0; f < F; f++)                                            \
            dst[f] += split[f];                                            \
    }                                                                      \
}                                                                          \
                                                                           \
/* dst = row of fiber `node` (level nmodes-2) through the sparse leaf. */  \
ATTR static int                                                            \
NAME##_fiber_row(const sweep_t *t, int64_t node, double *dst)              \
{                                                                          \
    const leaf_rep_t *L = t->leaf;                                         \
    const int64_t F = t->rank, nd = L->ndense, level = t->nmodes - 2;      \
    const int64_t hi = t->fptr[level][node + 1], rows = t->dims[level + 1];\
    const int64_t *ids = t->fids[level + 1], *perm = L->perm;              \
    int64_t c = t->fptr[level][node], e, f;                                \
    for (f = 0; f < F; f++)                                                \
        dst[f] = 0.0;                                                      \
    while (c < hi) {                                                       \
        const int64_t k = ids[c];                                          \
        const double *drow;                                                \
        double a = t->vals[c];                                             \
        if (k < 0 || k >= rows)                                            \
            return CSF_BAD_FID;                                            \
        for (c++; c < hi && ids[c] == k; c++)                              \
            a += t->vals[c];                                               \
        if (c < hi && ids[c] < k)                                          \
            return ids[c] < 0 ? CSF_BAD_FID : CSF_UNSORTED;                \
        drow = L->dense + k * nd;                                          \
        for (f = 0; f < nd; f++)                                           \
            dst[perm[f]] += a * drow[f];                                   \
        for (e = L->indptr[k]; e < L->indptr[k + 1]; e++)                  \
            dst[perm[nd + L->indices[e]]] += a * L->data[e];               \
    }                                                                      \
    return CSF_OK;                                                         \
}                                                                          \
                                                                           \
/* dst = row of `node` at `level`: the reduceat of its children's rows,    \
 * excluding the factor of `level` itself. */                              \
ATTR static int                                                            \
NAME##_node_row(const sweep_t *t, int64_t level, int64_t node, double *dst)\
{                                                                          \
    const int64_t F = t->rank, child = level + 1;                          \
    const int64_t lo = t->fptr[level][node], hi = t->fptr[level][node + 1];\
    const int64_t *ids = t->fids[child];                                   \
    const double *factor = t->factors[child];                              \
    double *rows = t->children[child];                                     \
    int64_t c, f;                                                          \
    if (t->leaf != NULL && child == t->nmodes - 1)                         \
        return NAME##_fiber_row(t, node, dst);                             \
    for (c = lo; c < hi; c++) {                                            \
        const int64_t id = ids[c];                                         \
        double *row = rows + (c - lo) * F;                                 \
        const double *frow;                                                \
        if (id < 0 || id >= t->dims[child])                                \
            return CSF_BAD_FID;                                            \
        frow = factor + id * F;                                            \
        if (child == t->nmodes - 1) {                                      \
            const double v = t->vals[c];                                   \
            for (f = 0; f < F; f++)                                        \
                row[f] = frow[f] * v;                                      \
        } else {                                                           \
            int err = NAME##_node_row(t, child, c, row);                   \
            if (err)                                                       \
                return err;                                                \
            for (f = 0; f < F; f++)                                        \
                row[f] *= frow[f];                                         \
        }                                                                  \
    }                                                                      \
    memcpy(dst, rows, (size_t)F * sizeof(double));                         \
    if (hi - lo > 1) {                                                     \
        NAME##_pairwise(t, rows + F, hi - lo - 1, t->split, t->split + F); \
        for (f = 0; f < F; f++)                                            \
            dst[f] += t->split[f];                                         \
    }                                                                      \
    return CSF_OK;                                                         \
}

#if defined(__x86_64__) || defined(__i386__)
#define CSF_X86 1
DEFINE_VARIANT(avx512f, __attribute__((target("avx512f"))))
DEFINE_VARIANT(avx2, __attribute__((target("avx2"))))
#endif
DEFINE_VARIANT(baseline, )

/* Bit mask of the variants this CPU can run (row_solve.c: same library,
 * same CPU, same variant ids). */
int64_t repro_row_solve_variants(void);

/* Rows of a split chain for n rows (pairwise recursion depth + 2). */
static int64_t split_rows(int64_t n)
{
    int64_t depth = 2;
    while (n > PW_BLOCK) {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        n -= n2;              /* the larger half bounds the depth */
        depth++;
    }
    return depth;
}

/* CSF_OK when the sparse leaf's pointers, columns and perm are sound:
 * indptr starts at 0, never decreases and ends at ntail, every tail
 * column lies in [0, rank - ndense), and perm is a permutation. */
static int check_leaf(const leaf_rep_t *L, int64_t rows, int64_t rank)
{
    int64_t i;
    char *seen;
    if (L->ndense < 0 || L->ndense > rank || L->ntail < 0
            || L->indptr[0] != 0 || L->indptr[rows] != L->ntail)
        return CSF_BAD_LEAF;
    for (i = 0; i < rows; i++)
        if (L->indptr[i + 1] < L->indptr[i])
            return CSF_BAD_LEAF;
    for (i = 0; i < L->ntail; i++)
        if (L->indices[i] < 0 || L->indices[i] >= rank - L->ndense)
            return CSF_BAD_LEAF;
    seen = (char *)calloc((size_t)rank, 1);
    if (seen == NULL)
        return CSF_NO_MEMORY;
    for (i = 0; i < rank; i++) {
        const int64_t j = L->perm[i];
        if (j < 0 || j >= rank || seen[j]) {
            free(seen);
            return CSF_BAD_LEAF;
        }
        seen[j] = 1;
    }
    free(seen);
    return CSF_OK;
}

/*
 * out[fids[0][r], :] = row of root r, for every root r.
 *
 * nnodes[l] is the node count of level l (nnodes[nmodes-1] = nnz);
 * dims[l] bounds the ids at level l (dims[0] = rows of out); factors[l]
 * is the C-contiguous dims[l] x rank factor of level l's mode
 * (factors[0] is unused).  With a non-NULL `leaf`, the deep factor is
 * read from it instead of factors[nmodes-1] (unused then).  `variant`
 * must be one of repro_row_solve_variants().  Returns a CSF_* code.
 */
int repro_csf_root(int64_t variant, int64_t nmodes, int64_t rank,
                   const int64_t *nnodes,
                   const int64_t *dims, const int64_t *const *fptr,
                   const int64_t *const *fids, const double *vals,
                   const double *const *factors, double *out, double init,
                   const leaf_rep_t *leaf)
{
    sweep_t t;
    double *children[64];
    int64_t offset[64];
    int64_t maxfan = 1, total = 0, level, node;
    double *pool;
    int err = CSF_OK;
    int (*node_row)(const sweep_t *, int64_t, int64_t, double *);

    if (variant < 0 || variant > VARIANT_AVX512F
            || !(repro_row_solve_variants() >> variant & 1))
        return CSF_BAD_VARIANT;
    switch (variant) {
#ifdef CSF_X86
    case VARIANT_AVX512F: node_row = avx512f_node_row; break;
    case VARIANT_AVX2: node_row = avx2_node_row; break;
#endif
    default: node_row = baseline_node_row; break;
    }
    if (nmodes < 2 || nmodes > 64 || rank < 1)
        return CSF_BAD_FPTR;
    /* Validate every pointer array: starts at 0, strictly increasing
     * (every node has a child), ends at the child count.  By induction
     * every entry is then in [0, child count] and no difference
     * overflows. */
    for (level = 0; level < nmodes - 1; level++) {
        const int64_t *p = fptr[level];
        int64_t fan = 0;
        if (p[0] != 0 || p[nnodes[level]] != nnodes[level + 1])
            return CSF_BAD_FPTR;
        for (node = 0; node < nnodes[level]; node++) {
            const int64_t k = p[node + 1] - p[node];
            if (k < 1)
                return CSF_BAD_FPTR;
            if (k > fan)
                fan = k;
        }
        offset[level + 1] = total;
        total += fan * rank;
        if (fan > maxfan)
            maxfan = fan;
    }
    if (leaf != NULL) {
        err = check_leaf(leaf, dims[nmodes - 1], rank);
        if (err)
            return err;
    }
    pool = (double *)malloc((size_t)(total + (8 + split_rows(maxfan))
                                      * rank) * sizeof(double));
    if (pool == NULL)
        return CSF_NO_MEMORY;
    for (level = 1; level < nmodes; level++)
        children[level] = pool + offset[level];

    t.nmodes = nmodes;
    t.rank = rank;
    t.dims = dims;
    t.fptr = fptr;
    t.fids = fids;
    t.vals = vals;
    t.factors = factors;
    t.children = children;
    t.acc8 = pool + total;
    t.split = t.acc8 + 8 * rank;
    t.init = init;
    t.leaf = leaf;

    for (node = 0; node < nnodes[0] && !err; node++) {
        const int64_t id = fids[0][node];
        if (id < 0 || id >= dims[0])
            err = CSF_BAD_FID;
        else
            err = node_row(&t, 0, node, out + id * rank);
    }
    free(pool);
    return err;
}
