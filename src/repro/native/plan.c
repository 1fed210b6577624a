/* A group's walk plan in one call: the native lane of FlexCoreDetector._build_plan
 * (repro/flexcore/detector.py), which documents the fields.  Each double is that
 * lane's operation in its order — re / d, (d * d) * scale2, 1 / (d * scale) — so
 * the plans are bit-equal.  Compiled into walk.c's object; complex is (re, im). */
#include <stdint.h>

/* The triangle LUT, and so the path fields, is int8 up to 1024-QAM, else int16. */
#define GET(a, i) (item == 1 ? ((const int8_t *)(a))[i] : ((const int16_t *)(a))[i])
#define PUT(a, i, x) (item == 1 ? (((int8_t *)(a))[i] = (x)) : (((int16_t *)(a))[i] = (x)))
#define TILE 64

/* dims: C G Nr Nt P, the stride of positions' rows, the LUT's item size and its
 * rows (max_rank + 1: a rank outside 1..max_rank takes the last, the sentinel).
 * members (G) are rows of the block's q (C, Nr, Nt), r (C, Nt, Nt), diag and
 * permutation (C, Nt) and, unless NULL, positions (C, stride, Nt) 1-based ranks.
 * Writes q_conj (G, Nr, Nt), inverse (G, Nt), to_grid (G, Nt), rows (G, Nt, 2,
 * 2 Nt), weights (G, Nt) and, with positions, the first P paths' offsets and
 * swap_delta (Nt, G, 2, P): (du, dv) and (dv - du, du - dv).  scratch holds each
 * LUT row as those four, 16 bits apiece, then a TILE x Nt tile.  Returns -1,
 * the plan meaningless, if a member is not a row or a permutation entry not a column. */
int64_t flexcore_build_plan(const int64_t *dims, const int64_t *members, const double *q,
                            const double *r, const double *diag, const int64_t *permutation,
                            const int64_t *positions, const void *lut, double scale,
                            double scale2, double *restrict q_conj, int64_t *restrict inverse,
                            double *restrict to_grid, double *restrict rows,
                            double *restrict weights, void *restrict offsets,
                            void *restrict swap_delta, uint64_t *restrict scratch)
{
    const int64_t C = dims[0], G = dims[1], Nr = dims[2], Nt = dims[3], P = dims[4];
    const int64_t stride = dims[5], item = dims[6], sentinel = dims[7] - 1;
    uint64_t *quad = scratch, *tile = scratch + sentinel + 1;
    for (int64_t i = 0; positions && i <= sentinel; i++) {
        const uint64_t du = (uint16_t)GET(lut, 2 * i), dv = (uint16_t)GET(lut, 2 * i + 1);
        quad[i] = du | dv << 16 | (uint64_t)(uint16_t)(dv - du) << 32 |
                  (uint64_t)(uint16_t)(du - dv) << 48;
    }
    for (int64_t g = 0; g < G; g++) {
        const int64_t c = members[g];
        if (c < 0 || c >= C)
            return -1;
        const double *qc = q + 2 * c * Nr * Nt, *rc = r + 2 * c * Nt * Nt;
        for (int64_t i = 0; i < 2 * Nr * Nt; i++)
            q_conj[2 * g * Nr * Nt + i] = i % 2 ? -qc[i] : qc[i];
        for (int64_t k = 0; k < Nt; k++) {
            const int64_t column = permutation[c * Nt + k];
            if (column < 0 || column >= Nt)
                return -1;
            inverse[g * Nt + column] = k;
        }
        for (int64_t l = 0; l < Nt; l++) {
            const double d = diag[c * Nt + l], *from = rc + 2 * l * Nt;
            double *row = rows + (g * Nt + l) * 4 * Nt;
            to_grid[g * Nt + l] = 1.0 / (d * scale);
            weights[g * Nt + l] = d * d * scale2;
            /* Negated, as the walk adds it: (-re, im) over (-im, -re). */
            for (int64_t i = 0; i < 2 * Nt; i++)
                row[i] = i % 2 ? from[i] / d : -(from[i] / d);
            for (int64_t i = 0; i < 2 * Nt; i++)
                row[2 * Nt + i] = i % 2 ? row[i - 1] : -row[i + 1];
        }
        /* TILE paths at a time: their ranks become a level-major tile of
         * quads, from which each level's four rows are cut in one pass. */
        for (int64_t first = 0; positions && first < P; first += TILE) {
            const int64_t width = P - first < TILE ? P - first : TILE;
            for (int64_t l = 0; l < Nt; l++)
                for (int64_t p = 0, at = (c * stride + first) * Nt + l; p < width; p++, at += Nt)
                    tile[l * TILE + p] = quad[positions[at] >= 1 && positions[at] <= sentinel
                                                  ? positions[at] - 1 : sentinel];
            for (int64_t l = 0; l < Nt; l++)
                for (int64_t p = 0, at = (l * G + g) * 2 * P + first; p < width; p++, at++) {
                    const uint64_t four = tile[l * TILE + p];
                    PUT(offsets, at, (int16_t)four), PUT(offsets, at + P, (int16_t)(four >> 16));
                    PUT(swap_delta, at, (int16_t)(four >> 32));
                    PUT(swap_delta, at + P, (int16_t)(four >> 48));
                }
        }
    }
    return 0;
}
