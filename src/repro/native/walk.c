/* FlexCore's level loop and the decisions taken from it, as one call per
 * (G, F, P) group: the native lane of FlexCoreDetector
 * (repro/flexcore/detector.py), which documents the layout and the
 * arithmetic.  Every operation is the portable lane's, in its order; only the
 * interference product sums in another order than BLAS (increasing j, no
 * FMA).  Built by repro/native — never with fast-math flags: banker's rint,
 * the sign of zero through copysign, inf distances and NaN => dead all carry
 * meaning.  The subcarrier loop must stay coupling-free — no state carried
 * from g to g + 1 but the scratch it rewrites — because the detectors cut a
 * group along G into runs that separate threads walk at once. */
#include <math.h>
#include <stdint.h>

typedef int64_t i64;
typedef uint64_t u64;
typedef union { double d; u64 k; } bits64;

/* numpy's clip: NaN stays; (x > lo ? x : lo), then (t < hi ? t : hi) — with
 * lo = -0.0, hi = +0.0 every zero comes out positive. */
static inline double clip(double x, double lo, double hi)
{
    double t = x <= lo ? lo : x;
    return t >= hi ? hi : t;
}

/* Offsets do not depend on the frame: widen subcarrier g's once into 4 Nt P
 * doubles, level-major (du, dv, swap du, swap dv).  They are small integers:
 * int8 up to 1024-QAM, else int16. */
static void widen_plan(const i64 *dims, i64 g, const char *offsets,
                       const char *swap_delta, double *restrict wide)
{
    for (i64 k = 0; k < 4 * dims[2]; k++) {
        const char *in = (k % 4 < 2 ? offsets : swap_delta) + k / 4 * dims[4] +
                         g * dims[5] + k % 2 * dims[6];
        for (i64 p = 0; p < dims[3]; p++)
            wide[k * dims[3] + p] =
                dims[7] == 1 ? ((const int8_t *)in)[p] : ((const int16_t *)in)[p];
    }
}

/* The one level loop: P paths of one (subcarrier, frame) down the tree into
 * sym (2 Nt, P) and acc (P).  h (Nt, 2) is the frame's point, rows (Nt, 2,
 * 2 Nt) and weights (Nt) its subcarrier's; scratch holds z0, z1, gone — the
 * dead mask as a double lane (a byte in the fused pass stops the vectoriser),
 * left for the caller — and widen_plan's 4 Nt P. */
static inline void walk_frame(i64 Nt, i64 P, const double *h, const double *rows,
                              const double *weights, double clamp, double edge,
                              double *restrict sym, double *restrict acc,
                              double *restrict scratch)
{
    double *restrict z0 = scratch, *restrict z1 = z0 + P;
    double *restrict gone = z1 + P, *restrict wide = gone + P;
    for (i64 p = 0; p < P; p++)
        acc[p] = gone[p] = 0.0;
    for (i64 level = Nt - 1; level >= 0; level--) {
        /* Eq. 5 in half-grid units: row `level` of -R / diag against the
         * decided levels' symbols, a (u, v) pair at a time. */
        const double *r0 = rows + level * 4 * Nt, *r1 = r0 + 2 * Nt;
        for (i64 p = 0; p < P; p++)
            z0[p] = z1[p] = 0.0;
        for (i64 j = 2 * level + 2; j < 2 * Nt; j += 2) {
            const double *restrict su = sym + j * P, *restrict sv = su + P;
            for (i64 p = 0; p < P; p++) {
                z0[p] = z0[p] + r0[j] * su[p] + r0[j + 1] * sv[p];
                z1[p] = z1[p] + r1[j] * su[p] + r1[j + 1] * sv[p];
            }
        }
        const double h0 = h[2 * level], h1 = h[2 * level + 1], w = weights[level];
        const double *restrict du = wide + 4 * level * P, *restrict dv = du + P;
        const double *restrict tu = dv + P, *restrict tv = tu + P;
        double *restrict u = sym + 2 * level * P, *restrict v = u + P;
        for (i64 p = 0; p < P; p++) {
            double a = z0[p] + h0, b = z1[p] + h1;
            /* Detection-square centre, then the triangle: a sign per
             * plane, the diagonal swap a 0/1 weight. */
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
    for (i64 p = 0; p < P; p++)
        acc[p] = gone[p] != 0.0 ? INFINITY : acc[p] * 4.0;
}

/* A PED is >= +0, +inf or NaN, so its bit pattern orders as it does (NaN
 * last, where a stable argsort puts it) — and an integer minimum, unlike
 * `c < m ? c : m` on doubles, vectorises without fast-math. */
#define order_of(x) ((bits64){.d = (x)}.k)

/* FlexCoreDetector._cells in the same doubles, then what numpy's
 * take(mode="clip") makes of a stray cell (a dead path's NaN is cell 0). */
static inline i64 cell_of(double u, double v, double side, i64 cells)
{
    const double c = u * side + v + 0.5 * (double)(cells - 1);
    return c >= 0.0 ? (c < (double)cells ? (i64)c : cells - 1) : 0;
}

/* dims: G F Nt P, the byte strides of offsets and swap_delta (Nt, G, 1, 2, P)
 * along level, subcarrier and plane — a plan clamped along P and cut along G
 * is passed as the views it is — their item size, side and bits per symbol.
 * half (G, F, Nt, 2), rows (G, Nt, 2, 2 Nt) and weights (G, Nt) are
 * contiguous.  Each frame is walked into scratch — (6 + 6 Nt) P doubles — and
 * reduced there: indices (G, F, Nt) are table[cell] of its arg-min path,
 * stream s being level inverse[g, s]; counts (G) its subcarrier's dead paths.
 * With llrs (G, F, Nt * bits) the reduction is
 * SoftFlexCoreDetector._list_llrs': per bit, MSB first, the two hypothesis
 * minima over the P PEDs, (one - zero) / noise_var, +-llr_clip where no
 * finite candidate holds a hypothesis (zero's wins), the clip; counts is
 * then the clamped bits. */
void flexcore_detect_group(const i64 *dims, const double *half, const double *rows,
                           const double *weights, const char *offsets,
                           const char *swap_delta, double clamp, double edge,
                           const i64 *inverse, const i64 *table, double noise_var,
                           double llr_clip, i64 *restrict indices,
                           double *restrict llrs, i64 *restrict counts,
                           double *restrict scratch)
{
    const i64 G = dims[0], F = dims[1], Nt = dims[2], P = dims[3];
    const i64 cells = dims[8] * dims[8], bits = dims[9];
    const double side = (double)dims[8], *gone = scratch + 2 * P;
    const u64 inf = order_of(INFINITY);
    double *restrict sym = scratch + (3 + 4 * Nt) * P;
    double *restrict acc = sym + 2 * Nt * P;
    u64 *restrict label = (u64 *)(acc + P);
    for (i64 g = 0; g < G; g++) {
        widen_plan(dims, g, offsets, swap_delta, scratch + 3 * P);
        counts[g] = 0;
        for (i64 f = 0; f < F; f++) {
            const i64 at = g * F + f;
            walk_frame(Nt, P, half + at * Nt * 2, rows + g * Nt * 4 * Nt,
                       weights + g * Nt, clamp, edge, sym, acc, scratch);
            i64 head = 0;
            if (llrs) { /* the head of the stable order */
                for (i64 p = 1; p < P; p++)
                    head = order_of(acc[p]) < order_of(acc[head]) ? p : head;
            } else { /* numpy's argmin: the first NaN, else the first minimum */
                for (i64 p = 1; p < P && acc[head] == acc[head]; p++)
                    head = acc[p] >= acc[head] ? head : p;
                for (i64 p = 0; p < P; p++)
                    counts[g] += gone[p] != 0.0;
            }
            for (i64 s = 0; s < Nt; s++) {
                const double *u = sym + 2 * inverse[g * Nt + s] * P, *v = u + P;
                indices[at * Nt + s] = table[cell_of(u[head], v[head], side, cells)];
                if (!llrs)
                    continue;
                /* A symbol index spelled in binary is its bit label. */
                for (i64 p = 0; p < P; p++)
                    label[p] = (u64)table[cell_of(u[p], v[p], side, cells)];
                for (i64 b = 0; b < bits; b++) {
                    u64 one = UINT64_MAX, zero = UINT64_MAX;
                    for (i64 p = 0; p < P; p++) {
                        const u64 set = -(label[p] >> (bits - 1 - b) & 1);
                        const u64 k = order_of(acc[p]), k1 = k | ~set, k0 = k | set;
                        one = k1 < one ? k1 : one;
                        zero = k0 < zero ? k0 : zero;
                    }
                    const double hi = (bits64){.k = one}.d, lo = (bits64){.k = zero}.d;
                    double llr = one >= inf ? llr_clip : (hi - lo) / noise_var;
                    llr = zero >= inf ? -llr_clip : llr;
                    llrs[(at * Nt + s) * bits + b] = clip(llr, -llr_clip, llr_clip);
                    counts[g] += one >= inf || zero >= inf;
                }
            }
        }
    }
}
