/* Exact kernels: the sums of squares under scipy's pdist and cdist, the
 * gather of a condensed pair block into square rows, and lexicase's filter
 * over distinct phenotype rows.
 *
 * The distance kernels only add squares: each pair adds its squared
 * differences in dimension order, starting from 0, the order in which
 * scipy sums them. The caller hands them zeros and takes the square
 * roots. Vectors run across pairs, never across dimensions, so every pair
 * keeps that order, and -ffp-contract=off, which fuses no multiply and
 * add, is the one flag that decides their bits. The gather and the filter
 * only copy and compare values, so no flag changes their results; every
 * sum over the gathered rows is numpy's. Each function is cloned for
 * AVX-512F, AVX2 and the baseline, and the loader picks one for the
 * machine it runs on.
 *
 * The filter takes its block transposed, one contiguous row per case, so
 * the values each pass reads lie side by side. The distance kernels take
 * rows packed in panels, COLS rows at a time: panel[k*COLS + lane] holds
 * dimension k of the panel's row lane, and the last panel is padded with
 * zeros. A register tile of ROWS x COLS pair sums then reads each
 * dimension's COLS values from one run of them, and the pairs that go row
 * by row read the same panels. Neither reads one value every n doubles, a
 * stride that at n = 512 is 4 KiB and aliases in the L1 cache.
 */

#include <stdint.h>

#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))

/* Rows per pass: each value read from a panel serves this many rows'
 * sums. A tile holds ROWS x COLS sums in registers, one vector of COLS
 * lanes per row. */
#define ROWS 4
#define COLS 8

typedef double lanes __attribute__((vector_size(COLS * sizeof(double)), aligned(sizeof(double))));

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

/* One register tile: out[r][0..COLS) = the sums over k < d, from 0 and in
 * that order, of (x[r*step + k*kstep] - panel[k*COLS + lane])^2, for the
 * ROWS rows r. Each tile is stored once. */
static inline void tile(const double *x, intptr_t step, intptr_t kstep,
                        const double *restrict panel, intptr_t d, double **out)
{
    lanes s0 = {0}, s1 = {0}, s2 = {0}, s3 = {0};
    for (intptr_t k = 0; k < d; ++k) {
        lanes v = *(const lanes *)(panel + k * COLS);
        const double *xk = x + k * kstep;
        lanes d0 = xk[0] - v, d1 = xk[step] - v, d2 = xk[2 * step] - v, d3 = xk[3 * step] - v;
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    *(lanes *)out[0] = s0;
    *(lanes *)out[1] = s1;
    *(lanes *)out[2] = s2;
    *(lanes *)out[3] = s3;
}

/* The position of pair (i, j), i < j, in pdist's condensed block of n rows. */
static inline intptr_t pair_index(intptr_t i, intptr_t j, intptr_t n)
{
    return i * n - i * (i + 1) / 2 + j - i - 1;
}

/* The squared sums under pdist's condensed block of the n rows that
 * panels packs, the last panel padded: out[pair_index(i, j, n)] for pair
 * (i, j), i < j. */
CLONES void pair_distances(const double *panels, intptr_t n, intptr_t d, double *out)
{
    intptr_t full = n - n % COLS;
    const double *last = panels + full * d;
    for (intptr_t i = 0; i < n; i += ROWS) {
        /* Row i+r's pairs start at (i+r, i+r+1): first those within the
         * block, one row at a time, then the block's rows at once with
         * every row after it. The whole panels after the block go by
         * tiles; the columns before them, in the block's own panel, and
         * those after them, in the last panel, row by row. */
        intptr_t rows = n - i < ROWS ? n - i : ROWS;
        intptr_t first = (i + rows + COLS - 1) / COLS * COLS;
        intptr_t lead = first < n ? first : n, tail = first <= full ? full : n;
        const double *home = panels + (i / COLS) * d * COLS + i % COLS;
        double *start[ROWS], *next[ROWS], *tails[ROWS];
        for (intptr_t r = 0; r < rows; ++r) {
            start[r] = out + pair_index(i + r, i + r + 1, n);
            next[r] = start[r] + (rows - r - 1);
            tails[r] = next[r] + (tail - i - rows);
        }
        for (intptr_t k = 0; k < d; ++k) {
            const double *x = home + k * COLS;
            for (intptr_t r = 0; r < rows; ++r)
                add_squares(x + r, 1, x + r + 1, start + r, rows - r - 1);
            add_squares(x, rows, x + rows, next, lead - i - rows);
            add_squares(x, rows, last + k * COLS, tails, n - tail);
        }
        for (intptr_t j = first; j < full; j += COLS) {
            double *at[ROWS];
            for (intptr_t r = 0; r < ROWS; ++r)
                at[r] = next[r] + (j - i - ROWS);
            tile(home, 1, COLS, panels + j * d, d, at);
        }
    }
}

/* The squared sums under cdist(a, b): out[i*nb + j] for row i of a
 * (na x d, row-major) and row j of b, whose rows panels packs, the last
 * panel padded. */
CLONES void cross_distances(const double *a, const double *panels, intptr_t na, intptr_t nb,
                            intptr_t d, double *out)
{
    intptr_t full = nb - nb % COLS;
    for (intptr_t i = 0; i < na; i += ROWS) {
        /* A whole block of rows tiles the whole panels; the last panel,
         * and every panel for a short block, go row by row. */
        intptr_t rows = na - i < ROWS ? na - i : ROWS;
        intptr_t from = rows == ROWS ? full : 0;
        for (intptr_t j = from; j < nb; j += COLS) {
            double *block[ROWS];
            for (intptr_t r = 0; r < rows; ++r)
                block[r] = out + (i + r) * nb + j;
            for (intptr_t k = 0; k < d; ++k) {
                double x[ROWS];
                for (intptr_t r = 0; r < rows; ++r)
                    x[r] = a[(i + r) * d + k];
                add_squares(x, rows, panels + j * d + k * COLS, block, nb - j < COLS ? nb - j : COLS);
            }
        }
        for (intptr_t j = 0; j < from; j += COLS) {
            double *at[ROWS];
            for (intptr_t r = 0; r < ROWS; ++r)
                at[r] = out + (i + r) * nb + j;
            tile(a + i * d, d, 1, panels + j * d, d, at);
        }
    }
}

/* Rows of the square built per pass of gather_pairs. */
#define GATHER 8

/* out[a*len + c] = the square's (a, members[c]) for a < m and c < len:
 * values[pair_index(a, b, m)] at (a, b) and (b, a), a < b, and diagonal at
 * (a, a). work holds GATHER x m entries. Column b < a0 of a pass's rows
 * a0.. is GATHER values side by side in the condensed block, so the
 * strided half of the square reads one cache line per column. */
CLONES void gather_pairs(const double *values, double diagonal, intptr_t m,
                         const int64_t *members, intptr_t len, double *work, double *out)
{
    for (intptr_t a0 = 0; a0 < m; a0 += GATHER) {
        intptr_t rows = m - a0 < GATHER ? m - a0 : GATHER;
        for (intptr_t b = 0; b < a0; ++b) {
            const double *v = values + pair_index(b, a0, m);
            for (intptr_t r = 0; r < rows; ++r)
                work[r * m + b] = v[r];
        }
        for (intptr_t r = 0; r < rows; ++r) {
            intptr_t a = a0 + r;
            double *row = work + r * m;
            for (intptr_t b = a0; b < a; ++b)
                row[b] = values[pair_index(b, a, m)];
            row[a] = diagonal;
            for (intptr_t b = a + 1; b < m; ++b)
                row[b] = values[pair_index(a, a + 1, m) + b - a - 1];
        }
        for (intptr_t r = 0; r < rows; ++r) {
            const double *row = work + r * m;
            double *o = out + (a0 + r) * len;
            for (intptr_t c = 0; c < len; ++c)
                o[c] = row[members[c]];
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
