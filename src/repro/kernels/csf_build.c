/*
 * CSF tree construction from tree 0's permutation (paper Section II-B,
 * the one-time sort the factorization amortizes).
 *
 * A tree rooted at mode r with levels (r, other modes ascending) orders
 * its non-zeros lexicographically by those levels.  Tree 0's permutation
 * perm0 already orders them by (0, 1, ..., N-1), so a stable sort of
 * perm0 by the root coordinate alone yields the tree's order: ties keep
 * perm0's order, which with the root set aside is (other modes
 * ascending), duplicates in input order.  A stable order is unique, so
 * every tree built here is the tree of the NumPy construction byte for
 * byte.
 *
 * Two calls build one tree, so the caller can allocate its level arrays
 * at their exact sizes in between:
 *
 *   repro_csf_plan   a stable LSD counting sort of perm0 by the root
 *                    coordinate, one pass per 16-bit digit into a bucket
 *                    array the caller provides (none for tree 0 or an
 *                    extent of 1); then one pass in tree order that
 *                    writes the leaf ids and values, finds each
 *                    non-zero's first level whose id differs from the
 *                    previous non-zero's and counts every level's nodes.
 *   repro_csf_fill   fids and fptr of the levels above the leaves, each
 *                    node's id read at its first non-zero.
 *
 * Integer work only (values are moved, never combined): no ISA variants.
 * The loops over levels are compiled once per common order (2 to 4
 * modes) so they unroll.  Nothing is allocated here, so concurrent calls
 * share no state.  Every permutation entry and every coordinate is
 * checked before it is used as an index, so a malformed input returns an
 * error code instead of reading out of bounds.
 */
#include <stdint.h>

#define BUILD_MAX_MODES 64
#define DIGIT_BITS 16
/* Non-zeros ahead whose data is prefetched before a random read. */
#define AHEAD 16

#if defined(__GNUC__)
#define PREFETCH(addr) __builtin_prefetch(addr)
#define INLINE static inline __attribute__((always_inline))
#else
#define PREFETCH(addr) ((void)0)
#define INLINE static inline
#endif

/* Run BODY(n) with n a constant for 2 to 4 modes, else nmodes. */
#define BY_ORDER(nmodes, BODY)                                             \
    switch (nmodes) {                                                      \
    case 2: BODY(2); break;                                                \
    case 3: BODY(3); break;                                                \
    case 4: BODY(4); break;                                                \
    default: BODY(nmodes);                                                 \
    }

enum { BUILD_OK = 0, BUILD_BAD_COORD = 1, BUILD_BAD_PERM = 2,
       BUILD_BAD_PLAN = 3 };

/* c outside [0, extent), in one unsigned comparison. */
static inline int64_t outside(int64_t c, int64_t extent)
{
    return (uint64_t)c >= (uint64_t)extent;
}

/*
 * Visit the non-zeros in the order of idx: write the leaf ids and the
 * values, each non-zero's first changed level, and counts[f] = the
 * non-zeros whose first changed level is f.
 */
INLINE int scan_levels(const int64_t nmodes, int64_t nnz,
                       const int64_t *const *coords, const int64_t *extents,
                       const double *vals, const int64_t *idx,
                       int64_t *leaf_ids, double *out_vals, uint8_t *first,
                       int64_t *counts)
{
    const int64_t leaf = nmodes - 1;
    const int64_t *row[BUILD_MAX_MODES];
    int64_t extent[BUILD_MAX_MODES], prev[BUILD_MAX_MODES];
    int64_t p, l, bad = 0;

    /* No coordinate is -1, so non-zero 0 starts a node at every level. */
    for (l = 0; l < nmodes; l++) {
        row[l] = coords[l];
        extent[l] = extents[l];
        counts[l] = 0;
        prev[l] = -1;
    }
    for (p = 0; p < nnz; p++) {
        const int64_t q = idx[p];
        int64_t f = leaf, c;
        if (outside(q, nnz))
            return BUILD_BAD_PERM;
        if (p + AHEAD < nnz && !outside(idx[p + AHEAD], nnz)) {
            for (l = 0; l < nmodes; l++)
                PREFETCH(row[l] + idx[p + AHEAD]);
            PREFETCH(vals + idx[p + AHEAD]);
        }
        /* Deepest first, so the shallowest change wins. */
        for (l = leaf - 1; l >= 0; l--) {
            c = row[l][q];
            bad |= outside(c, extent[l]);
            f = c != prev[l] ? l : f;
            prev[l] = c;
        }
        c = row[leaf][q];
        bad |= outside(c, extent[leaf]);
        leaf_ids[p] = c;
        out_vals[p] = vals[q];
        first[p] = (uint8_t)f;
        counts[f]++;
    }
    return bad ? BUILD_BAD_COORD : BUILD_OK;
}

/*
 * nmodes, nnz  tensor order and non-zero count (nnz >= 1).
 * coords       per level of the tree, its mode's coordinate row.
 * extents      per level of the tree, its mode's extent.
 * vals         the values, in input order.
 * perm0        tree 0's permutation.
 * nbits        bits of the root coordinates to sort by: 0 (tree 0, or
 *              an extent of 1) keeps perm0's order, and then idx must be
 *              perm0 and tmp and buckets are unused.
 * idx, tmp     nnz entries each: idx (out: the tree's order) when
 *              nbits > 0, tmp when nbits > 16.
 * buckets      1 << min(nbits, 16) entries.
 * leaf_ids     out: the leaf level's nnz ids; out_vals the values.
 * first        out: each non-zero's first changed level (nnz).
 * counts       out: nodes per level (nmodes).
 */
int repro_csf_plan(int64_t nmodes, int64_t nnz,
                   const int64_t *const *coords, const int64_t *extents,
                   const double *vals, const int64_t *perm0, int64_t nbits,
                   int64_t *idx, int64_t *tmp, int64_t *buckets,
                   int64_t *leaf_ids, double *out_vals, uint8_t *first,
                   int64_t *counts)
{
    const int64_t npasses = (nbits + DIGIT_BITS - 1) / DIGIT_BITS;
    const int64_t *root = coords[0];
    const int64_t *src = perm0;
    int64_t p, l, k, code = 0, bad = 0;

    if (nmodes < 1 || nmodes > BUILD_MAX_MODES || nnz < 1
            || nbits < 0 || nbits > 63
            || (npasses == 0 ? idx != perm0 : npasses > 1 && tmp == 0))
        return BUILD_BAD_PLAN;
    /* Every root coordinate indexes the buckets: check them all first. */
    if (npasses)
        for (p = 0; p < nnz; p++)
            bad |= outside(root[p], extents[0]);
    if (bad)
        return BUILD_BAD_COORD;
    for (k = 0; k < npasses; k++) {
        /* Ping-pong so that the last pass writes idx. */
        int64_t *dst = (npasses - 1 - k) % 2 == 0 ? idx : tmp;
        const int64_t shift = k * DIGIT_BITS;
        const int64_t bits = nbits - shift < DIGIT_BITS
            ? nbits - shift : DIGIT_BITS;
        const int64_t mask = ((int64_t)1 << bits) - 1;
        int64_t sum = 0;
        for (l = 0; l <= mask; l++)
            buckets[l] = 0;
        /* A digit's histogram does not depend on the order. */
        for (p = 0; p < nnz; p++)
            buckets[(root[p] >> shift) & mask]++;
        for (l = 0; l <= mask; l++) {
            const int64_t n = buckets[l];
            buckets[l] = sum;
            sum += n;
        }
        for (p = 0; p < nnz; p++) {
            const int64_t q = src[p];
            if (outside(q, nnz))
                return BUILD_BAD_PERM;
            if (p + AHEAD < nnz && !outside(src[p + AHEAD], nnz))
                PREFETCH(root + src[p + AHEAD]);
            dst[buckets[(root[q] >> shift) & mask]++] = q;
        }
        src = dst;
    }
#define SCAN(n) code = scan_levels(n, nnz, coords, extents, vals, idx, \
                                   leaf_ids, out_vals, first, counts)
    BY_ORDER(nmodes, SCAN)
#undef SCAN
    if (code)
        return code;
    /* A new node at level f starts a new node at every deeper level. */
    for (l = 1; l < nmodes; l++)
        counts[l] += counts[l - 1];
    return BUILD_OK;
}

/*
 * Branch-free over the non-zeros: every non-zero writes the pointer slot
 * of the next node of each level, and only a non-zero that starts that
 * node moves the slot on (fptr holds one slot more than the level's
 * nodes, so the slot is always in bounds).  Then each node's id is read
 * at its first non-zero.
 */
INLINE int fill_levels(const int64_t nmodes, int64_t nnz,
                       const int64_t *const *coords, const int64_t *idx,
                       const uint8_t *first, const int64_t *counts,
                       int64_t *const *fids, int64_t *const *fptr)
{
    const int64_t leaf = nmodes - 1;
    int64_t node[BUILD_MAX_MODES];
    int64_t p, l, i, bad = 0;

    for (l = 0; l < nmodes; l++)
        node[l] = 0;
    for (p = 0; p < nnz; p++) {
        const int64_t f = first[p];
        node[leaf] = p;
        for (l = 0; l < leaf; l++) {
            /* The node's first child starts here too. */
            fptr[l][node[l]] = node[l + 1];
            node[l] += f <= l;
            bad |= node[l] > counts[l];
        }
        if (bad)
            return BUILD_BAD_PLAN;
    }
    node[leaf] = nnz;
    for (l = 0; l < leaf; l++) {
        if (node[l] != counts[l])
            return BUILD_BAD_PLAN;
        fptr[l][node[l]] = node[l + 1];
    }
    /* A node's first non-zero: follow first children down to a fiber,
     * whose pointer is a position. */
    for (l = 0; l < leaf; l++)
        for (i = 0; i < counts[l]; i++) {
            int64_t at = i, m;
            for (m = l; m < leaf; m++)
                at = fptr[m][at];
            at = idx[at];
            if (outside(at, nnz))
                return BUILD_BAD_PERM;
            fids[l][i] = coords[l][at];
        }
    return BUILD_OK;
}

/*
 * fids[l] (counts[l] ids) and fptr[l] (counts[l] + 1 pointers) of every
 * level l above the leaves, from the coordinate rows in level order, the
 * tree's order idx (repro_csf_plan's), first and counts.
 */
int repro_csf_fill(int64_t nmodes, int64_t nnz,
                   const int64_t *const *coords, const int64_t *idx,
                   const uint8_t *first, const int64_t *counts,
                   int64_t *const *fids, int64_t *const *fptr)
{
    if (nmodes < 1 || nmodes > BUILD_MAX_MODES || nnz < 1
            || counts[nmodes - 1] != nnz || first[0] != 0)
        return BUILD_BAD_PLAN;
#define FILL(n) return fill_levels(n, nnz, coords, idx, first, counts, \
                                   fids, fptr)
    BY_ORDER(nmodes, FILL)
#undef FILL
}
