/* FlexCore's level loop over one (G, F, P) tile, as a single call: the
 * native lane of FlexCoreDetector._walk (repro/flexcore/detector.py), which
 * documents the layout and the arithmetic.  Every operation is the portable
 * lane's, in its order; only the interference product sums in another order
 * than BLAS (increasing j, no FMA).  Built by repro/native — never with
 * fast-math flags: banker's rint, the sign of zero through copysign, inf
 * distances and NaN => dead all carry meaning. */
#include <math.h>
#include <stdint.h>

typedef int64_t i64;

/* numpy's clip: NaN stays; (x > lo ? x : lo), then (t < hi ? t : hi) — with
 * lo = -0.0, hi = +0.0 every zero comes out positive. */
static inline double clip(double x, double lo, double hi)
{
    double t = x <= lo ? lo : x;
    return t >= hi ? hi : t;
}

/* Plan offsets are small integers: int8 up to 1024-QAM, else int16. */
static void widen(double *restrict out, const char *in, i64 size, i64 n)
{
    for (i64 p = 0; p < n; p++)
        out[p] = size == 1 ? ((const int8_t *)in)[p] : ((const int16_t *)in)[p];
}

/* dims: G F Nt P, the byte strides of offsets and swap_delta (Nt, G, 1, 2, P)
 * along level, subcarrier and plane — a plan clamped along P and cut along G
 * is passed as the views it is — and their item size.  half (G, F, Nt, 2),
 * rows (G, Nt, 2, 2 Nt), weights (G, Nt), symbols (G, F, 2 Nt, P), ped and
 * dead (G, F, P) are contiguous; scratch holds (3 + 4 Nt) P doubles. */
void flexcore_walk_tile(const i64 *dims, const double *half, const double *rows,
                        const double *weights, const char *offsets,
                        const char *swap_delta, double clamp, double edge,
                        double *restrict symbols, double *restrict ped,
                        uint8_t *restrict dead, double *restrict scratch)
{
    const i64 G = dims[0], F = dims[1], Nt = dims[2], P = dims[3];
    double *restrict z0 = scratch, *restrict z1 = z0 + P;
    /* The dead mask as a double lane: a byte in the fused pass stops the
     * vectoriser. */
    double *restrict gone = z1 + P, *restrict wide = gone + P;

    for (i64 g = 0; g < G; g++) {
        /* Offsets do not depend on the frame: widen them once per
         * subcarrier, level-major (du, dv, swap du, swap dv). */
        for (i64 k = 0; k < 2 * Nt; k++) {
            const i64 at = k / 2 * dims[4] + g * dims[5] + k % 2 * dims[6];
            widen(wide + (2 * k - k % 2) * P, offsets + at, dims[7], P);
            widen(wide + (2 * k - k % 2 + 2) * P, swap_delta + at, dims[7], P);
        }
        for (i64 f = 0; f < F; f++) {
            const i64 at = g * F + f;
            double *restrict sym = symbols + at * 2 * Nt * P;
            double *restrict acc = ped + at * P;
            for (i64 p = 0; p < P; p++)
                acc[p] = gone[p] = 0.0;
            for (i64 level = Nt - 1; level >= 0; level--) {
                /* Eq. 5 in half-grid units: row `level` of -R / diag against
                 * the decided levels' symbols, a (u, v) pair at a time. */
                const double *r0 = rows + (g * Nt + level) * 4 * Nt;
                const double *r1 = r0 + 2 * Nt;
                for (i64 p = 0; p < P; p++)
                    z0[p] = z1[p] = 0.0;
                for (i64 j = 2 * level + 2; j < 2 * Nt; j += 2) {
                    const double *restrict su = sym + j * P, *restrict sv = su + P;
                    for (i64 p = 0; p < P; p++) {
                        z0[p] = z0[p] + r0[j] * su[p] + r0[j + 1] * sv[p];
                        z1[p] = z1[p] + r1[j] * su[p] + r1[j + 1] * sv[p];
                    }
                }
                const double *h = half + (at * Nt + level) * 2;
                const double h0 = h[0], h1 = h[1], w = weights[g * Nt + level];
                const double *restrict du = wide + 4 * level * P;
                const double *restrict dv = du + P, *restrict tu = dv + P;
                const double *restrict tv = tu + P;
                double *restrict u = sym + 2 * level * P, *restrict v = u + P;
                for (i64 p = 0; p < P; p++) {
                    double a = z0[p] + h0, b = z1[p] + h1;
                    /* Detection-square centre, then the triangle: a sign
                     * per plane, the diagonal swap a 0/1 weight. */
                    const double ca = clip(rint(a), -clamp, clamp);
                    const double cb = clip(rint(b), -clamp, clamp);
                    const double wa = a - ca, wb = b - cb;
                    const double swap = fabs(wb) > fabs(wa) ? 1.0 : 0.0;
                    const double ta = (tu[p] * swap + du[p]) * copysign(0.5, wa) + ca;
                    const double tb = (tv[p] * swap + dv[p]) * copysign(0.5, wb) + cb;
                    const double pa = clip(ta, -edge, edge);
                    const double pb = clip(tb, -edge, edge);
                    /* Deactivated: the clip moved the pick (or it is NaN). */
                    gone[p] = (pa != ta) | (pb != tb) ? 1.0 : gone[p];
                    u[p] = pa;
                    v[p] = pb;
                    a -= pa;
                    b -= pb;
                    acc[p] += (a * a + b * b) * w;
                }
            }
            /* Half units squared are a quarter of Eq. 1's. */
            for (i64 p = 0; p < P; p++) {
                acc[p] = gone[p] != 0.0 ? INFINITY : acc[p] * 4.0;
                dead[at * P + p] = gone[p] != 0.0;
            }
        }
    }
}
