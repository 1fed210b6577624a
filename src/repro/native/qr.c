/* Wübben et al.'s sorted QR ([13] in the paper) of a block of channels in one
 * call: the native lane of stacked_sorted_qr (repro/mimo/qr.py), its numpy
 * recursion's steps in the same order; compiled into walk.c's object.  Complex
 * numbers are (re, im) pairs of doubles.  For each column k: the remaining
 * column of least residual norm (the first on a tie; a NaN norm is never
 * picked over column k) swaps into place in work, R and the permutation; r_kk =
 * sqrt(norm), q_k = work_k / r_kk, left zero unless r_kk > 0; every later
 * column loses its projection on q_k (modified Gram-Schmidt). */
#include <math.h>
#include <stdint.h>

static inline void swap(double *a, double *b)
{
    const double re = a[0], im = a[1];
    a[0] = b[0], a[1] = b[1], b[0] = re, b[1] = im;
}

/* dims: C Nr Nt.  work (C, Nr, Nt) holds the channels and is overwritten with
 * the residuals; q (C, Nr, Nt) and r (C, Nt, Nt) are zero on entry;
 * permutation (C, Nt) is written in full. */
void flexcore_sorted_qr(const int64_t *dims, double *restrict work, double *restrict q,
                        double *restrict r, int64_t *restrict permutation)
{
    const int64_t C = dims[0], Nr = dims[1], Nt = dims[2];
    for (int64_t c = 0; c < C; c++) {
        double *w = work + 2 * c * Nr * Nt, *qc = q + 2 * c * Nr * Nt, *rc = r + 2 * c * Nt * Nt;
        int64_t *perm = permutation + c * Nt;
        for (int64_t j = 0; j < Nt; j++)
            perm[j] = j;
        for (int64_t k = 0; k < Nt; k++) {
            int64_t pick = k;
            double least = 0.0;
            for (int64_t j = k; j < Nt; j++) {
                double norm = 0.0;
                for (int64_t i = 0; i < Nr; i++) {
                    const double *z = w + 2 * (i * Nt + j);
                    norm += z[0] * z[0] + z[1] * z[1];
                }
                if (j == k || norm < least)
                    least = norm, pick = j;
            }
            if (pick != k) {
                for (int64_t i = 0; i < Nr; i++)
                    swap(w + 2 * (i * Nt + k), w + 2 * (i * Nt + pick));
                for (int64_t i = 0; i < k; i++)
                    swap(rc + 2 * (i * Nt + k), rc + 2 * (i * Nt + pick));
                const int64_t moved = perm[k];
                perm[k] = perm[pick], perm[pick] = moved;
            }
            const double rkk = sqrt(least);
            rc[2 * (k * Nt + k)] = rkk;
            for (int64_t i = 0; rkk > 0 && i < Nr; i++)
                for (int64_t part = 0; part < 2; part++)
                    qc[2 * (i * Nt + k) + part] = w[2 * (i * Nt + k) + part] / rkk;
            for (int64_t j = k + 1; j < Nt; j++) {
                double re = 0.0, im = 0.0;
                for (int64_t i = 0; i < Nr; i++) {
                    const double *u = qc + 2 * (i * Nt + k), *z = w + 2 * (i * Nt + j);
                    re += u[0] * z[0] + u[1] * z[1], im += u[0] * z[1] - u[1] * z[0];
                }
                rc[2 * (k * Nt + j)] = re, rc[2 * (k * Nt + j) + 1] = im;
                for (int64_t i = 0; i < Nr; i++) {
                    const double *u = qc + 2 * (i * Nt + k);
                    double *z = w + 2 * (i * Nt + j);
                    z[0] -= u[0] * re - u[1] * im, z[1] -= u[0] * im + u[1] * re;
                }
            }
        }
    }
}
