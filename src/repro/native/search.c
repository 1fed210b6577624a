/* FlexCore's pre-processing tree search (§3.1.1, Fig. 5) as one call for a
 * block of channels: the native lane of find_promising_paths_block
 * (repro/flexcore/preprocessing.py), bit-identical to the scalar heap run once
 * per channel (tests/reference/path_search.py).  Compiled with walk.c.
 *
 * Per channel, a binary min-heap of (key = -Pc, serial) entries: the heap's
 * order is heapq's on (-Pc, serial), and serials are unique, so any correct
 * heap pops the same sequence.  A node's serial is its slab slot, 1 + i Nt + w
 * for the w-th child of the channel's i-th selected node and 0 for the root:
 * children are pushed in (selection, level) order, so slot order is push
 * order, and the slot alone names the parent row and the level incremented.
 * Position rows exist for popped nodes only, each built at pop time as its
 * parent's row plus one unit step.
 *
 * Order is one unsigned 128-bit compare of (~key bits << 64 | serial): Pe lies
 * in [0, 1] (the Python entry checks), so every key is <= 0 or -0.0, and among
 * those a larger bit pattern is the lesser key.  Child keys come from mul():
 * IEEE's round-to-nearest product, formed in integers where it underflows — at
 * Pe's 1e-300 floor most do — so no product takes the FPU's subnormal assist. */
#include <stdint.h>
#include <string.h>

typedef struct { double key; int64_t serial; } entry;
typedef unsigned __int128 u128;

static inline u128 order(entry e)
{
    uint64_t bits;
    memcpy(&bits, &e.key, sizeof bits);
    return (u128)~bits << 64 | (uint64_t)e.serial;
}

static inline int before(entry a, entry b) { return order(a) < order(b); }

/* a * b, bit for bit.  Biased exponents summing to >= 1024 make a normal
 * product: the hardware's.  Below that, the exact 106-bit product of the
 * significands is rounded to nearest-even in units of 2^-1074; the encoding is
 * linear there, so a carry into exponent 1 (or 2) encodes as itself. */
static inline double mul(double a, double b)
{
    uint64_t x, y, n = 0, unit = (uint64_t)1 << 52;
    memcpy(&x, &a, sizeof x), memcpy(&y, &b, sizeof y);
    const int64_t ex = x >> 52 & 0x7ff, ey = y >> 52 & 0x7ff;
    if (ex + ey >= 1024)
        return a * b;
    const uint64_t mx = (x & (unit - 1)) | (ex ? unit : 0), my = (y & (unit - 1)) | (ey ? unit : 0);
    const u128 m = (u128)mx * my;
    const int64_t shift = 1076 - (ex ? ex : 1) - (ey ? ey : 1);
    if (shift < 107) {  /* else m < 2^106 <= half a unit: zero */
        const u128 rest = m & (((u128)1 << shift) - 1), half = (u128)1 << (shift - 1);
        n = (uint64_t)(m >> shift);
        n += rest > half || (rest == half && (n & 1));
    }
    n |= (x ^ y) & (uint64_t)1 << 63;
    memcpy(&a, &n, sizeof a);
    return a;
}

static void push(entry *heap, int64_t size, entry e)
{
    int64_t at = size;
    while (at > 0 && before(e, heap[(at - 1) / 2])) {
        heap[at] = heap[(at - 1) / 2];
        at = (at - 1) / 2;
    }
    heap[at] = e;
}

/* Removes the least of heap[0 .. size) and returns it. */
static entry pop(entry *heap, int64_t size)
{
    const entry top = heap[0], last = heap[--size];
    int64_t at = 0;
    for (int64_t child = 1; child < size; child = 2 * at + 1) {
        child += child + 1 < size && before(heap[child + 1], heap[child]);
        if (!before(heap[child], last))
            break;
        heap[at] = heap[child];
        at = child;
    }
    heap[at] = last;
    return top;
}

/* dims: C Nt P max_rank batch_size.  pe (C, Nt), root (C) = -prod(1 - pe) and
 * thresholds (C) — or NULL, never stop; a disabled entry is +inf — are read;
 * positions (C, P, Nt) and probabilities (C, P) are written up to each
 * channel's count, tally (C, 4) in full: paths selected, children pushed,
 * peak frontier, stopped early.  scratch holds 1 + P (Nt + 1) entries: the
 * heap, then a round's pops. */
void flexcore_tree_search(const int64_t *dims, const double *pe, const double *root,
                          const double *thresholds, int64_t *restrict positions,
                          double *restrict probabilities, int64_t *restrict tally,
                          entry *restrict scratch)
{
    const int64_t C = dims[0], Nt = dims[1], P = dims[2], max_rank = dims[3];
    const int64_t batch_size = dims[4];
    entry *restrict heap = scratch, *restrict popped = scratch + 1 + P * Nt;
    for (int64_t c = 0; c < C; c++) {
        const double *level_pe = pe + c * Nt;
        int64_t *rows = positions + c * P * Nt;
        int64_t size = 1, count = 0, pushed = 0, peak = 1, stopped = 0;
        double cumulative = 0.0;
        heap[0] = (entry){root[c], 0};
        while (size > 0 && count < P) {
            int64_t width = batch_size < P - count ? batch_size : P - count;
            width = width < size ? width : size;
            /* Every pop of the round before any push, like heapq's batch. */
            for (int64_t b = 0; b < width; b++)
                popped[b] = pop(heap, size--);
            for (int64_t b = 0; b < width; b++, count++) {
                const int64_t slot = popped[b].serial;
                const int64_t last = slot ? (slot - 1) % Nt : Nt - 1;
                int64_t *row = rows + count * Nt;
                for (int64_t l = 0; l < Nt; l++)
                    row[l] = slot ? rows[(slot - 1) / Nt * Nt + l] : 1;
                row[last] += slot != 0;
                const double key = popped[b].key;
                probabilities[c * P + count] = -key;
                cumulative += -key;
                /* Children w <= last (the dedup rule) still below max_rank;
                 * mul(key, pe[w]) is bit-equal to the heap's -(Pc * Pe). */
                for (int64_t w = 0; w <= last; w++) {
                    if (row[w] >= max_rank)
                        continue;
                    pushed++;
                    push(heap, size++, (entry){mul(key, level_pe[w]), 1 + count * Nt + w});
                }
            }
            peak = size > peak ? size : peak;
            if (thresholds && cumulative >= thresholds[c]) {
                stopped = 1;
                break;
            }
        }
        int64_t *out = tally + 4 * c;
        out[0] = count, out[1] = pushed, out[2] = peak, out[3] = stopped;
    }
}
