/* Exact kernels: the sums of squares under scipy's pdist and cdist, and
 * lexicase's filter over distinct phenotype rows.
 *
 * The distance kernels only add squares: each pair adds its squared
 * differences in dimension order, starting from 0, the order in which
 * scipy sums them. The caller hands them zeros and takes the square
 * roots. Vectors run across pairs, never across dimensions, so every pair
 * keeps that order, and -ffp-contract=off, which fuses no multiply and
 * add, is the one flag that decides their bits. The filter only compares
 * values, so no flag changes its result. Each function is cloned for
 * AVX-512F, AVX2 and the baseline, and the loader picks one for the
 * machine it runs on.
 *
 * Blocks come transposed, one contiguous row per dimension (per case, for
 * the filter), so the values every pass reads lie side by side.
 */

#include <stdint.h>

#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))

/* Rows per pass: each value read from a dimension's row serves this many
 * rows' sums. */
#define ROWS 4

/* out[r][j] += (x[r] - row[j])^2 for r < rows and j < len; rows is 1 to
 * ROWS. Fewer than ROWS rows go one at a time. */
static inline void add_squares(const double *x, intptr_t rows, const double *restrict row,
                               double **out, intptr_t len)
{
    if (rows == ROWS) {
        double *restrict o0 = out[0], *restrict o1 = out[1];
        double *restrict o2 = out[2], *restrict o3 = out[3];
        for (intptr_t j = 0; j < len; ++j) {
            double v = row[j];
            double d0 = x[0] - v, d1 = x[1] - v, d2 = x[2] - v, d3 = x[3] - v;
            o0[j] += d0 * d0;
            o1[j] += d1 * d1;
            o2[j] += d2 * d2;
            o3[j] += d3 * d3;
        }
        return;
    }
    for (intptr_t r = 0; r < rows; ++r) {
        double *restrict o = out[r]; /* out[r][j] would keep the loop scalar */
        for (intptr_t j = 0; j < len; ++j) {
            double diff = x[r] - row[j];
            o[j] += diff * diff;
        }
    }
}

/* The squared sums under pdist's condensed block of the n rows whose
 * transpose is t (d x n): out[k] for pair (i, j), i < j, at
 * k = i*n - i*(i+1)/2 + j - i - 1. */
CLONES void pair_distances(const double *t, intptr_t n, intptr_t d, double *out)
{
    for (intptr_t i = 0; i < n; i += ROWS) {
        /* Row i+r's pairs start at (i+r, i+r+1): first those within the
         * block, one row at a time, then the block's rows at once with
         * every row after it. */
        intptr_t rows = n - i < ROWS ? n - i : ROWS;
        double *start[ROWS], *tail[ROWS];
        for (intptr_t r = 0; r < rows; ++r) {
            start[r] = out + (i + r) * n - (i + r) * (i + r + 1) / 2;
            tail[r] = start[r] + (rows - r - 1);
        }
        for (intptr_t k = 0; k < d; ++k) {
            const double *row = t + k * n;
            for (intptr_t r = 0; r < rows; ++r)
                add_squares(row + i + r, 1, row + i + r + 1, start + r, rows - r - 1);
            add_squares(row + i, rows, row + i + rows, tail, n - i - rows);
        }
    }
}

/* The squared sums under cdist(a, b): out[i*nb + j] for row i of a
 * (na x d, row-major) and row j of b, whose transpose is bt (d x nb). */
CLONES void cross_distances(const double *a, const double *bt, intptr_t na, intptr_t nb,
                            intptr_t d, double *out)
{
    for (intptr_t i = 0; i < na; i += ROWS) {
        intptr_t rows = na - i < ROWS ? na - i : ROWS;
        double *block[ROWS];
        for (intptr_t r = 0; r < rows; ++r)
            block[r] = out + (i + r) * nb;
        for (intptr_t k = 0; k < d; ++k) {
            double x[ROWS];
            for (intptr_t r = 0; r < rows; ++r)
                x[r] = a[(i + r) * d + k];
            add_squares(x, rows, bt + k * nb, block, nb);
        }
    }
}

/* Keeps, in place and in order, the k rows of left[] whose value in col
 * equals the largest among them; returns how many. */
static inline intptr_t keep_best(const double *col, int64_t *left, intptr_t k)
{
    double best = col[left[0]];
    intptr_t kept = 0;
    for (intptr_t j = 0; j < k; ++j) {
        double v = col[left[j]];
        if (v > best) {
            best = v;
            kept = 0;
        }
        left[kept] = left[j]; /* kept only if counted: no branch on a tie */
        kept += v == best;
    }
    return kept;
}

/* Lexicase's filter. For each of the n picks, walks the pick's d cases
 * (row p of orders) over the m rows whose transpose is t (d x m), keeping
 * the rows equal to the best value on each case, until one row is left or
 * the cases run out; out[p] is the lowest row left. A case constant over
 * all m rows keeps every row, so it is skipped. work holds m + d entries. */
CLONES void lexicase_filter(const double *t, intptr_t m, intptr_t d, const int64_t *orders,
                            intptr_t n, int64_t *work, int64_t *out)
{
    int64_t *left = work, *varies = work + m;
    for (intptr_t c = 0; c < d; ++c) {
        const double *col = t + c * m;
        varies[c] = 0;
        for (intptr_t r = 1; r < m && !varies[c]; ++r)
            varies[c] = col[r] != col[0];
    }
    for (intptr_t p = 0; p < n; ++p) {
        const int64_t *order = orders + p * d;
        intptr_t k = m;
        for (intptr_t r = 0; r < m; ++r)
            left[r] = r;
        for (intptr_t i = 0; i < d && k > 1; ++i)
            if (varies[order[i]])
                k = keep_best(t + order[i] * m, left, k);
        out[p] = left[0];
    }
}
