/* The compiled DFS walker: a port of enumeration._python_walk, the
 * reference it is tested against.  It visits the same nodes, makes the same
 * cuts and writes the same bases in the same order; the docstrings of
 * enumeration._python_walk and of the enumeration module say why each cut
 * is exact.
 *
 * Bit vectors are W words of 64 bits.  An admissible basis of length L has
 * elements at most L(L+1)/2, since a prefix of m elements has at most
 * m(m+1)/2 sums, so coverage fits in L(L+1) + 1 bits, and the range target
 * T takes T + 1.  The walker is instantiated for W = 2, 4, 6 and 8 by
 * including this file into itself, and walk_new picks the smallest width
 * that holds a stream; it returns NULL for a stream that none holds, so
 * that the caller walks it in Python.  walk_next skips a stem with an
 * element past the bound: such a stem extends to nothing, since the first
 * gap of its other elements' sums is at most L(L+1)/2, below its last
 * element, so the Python walk gives it no leaf and no child.  It skips an
 * empty, too long or not increasing stem too, which no caller passes.
 *
 * The walk is resumable: walk_stems hands it a batch of stems, and each
 * walk_next call writes at most `cap` bases into `out`, stopping wherever
 * the buffer fills, also between the final elements of one node.
 *
 * Build: cc -O2 -shared -fPIC _walk.c -o _walk.so
 */
#ifndef W

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define CAT2(a, b) a##b
#define CAT(a, b) CAT2(a, b)
/* the longest stream whose coverage, L(L+1) + 1 bits, fits in 8 words */
#define MAX_LENGTH 22
#define NEVER 0x7fffffff

/* Python's a // 2, which rounds toward minus infinity */
static int floor_half(int a) { return a >= 0 ? a / 2 : -((1 - a) / 2); }

/* what every width shares: the stream, the stem batch and the counter */
struct common {
    long (*next)(void *, int *, long);
    int length, kp1, two_short, min_range, prune, bound;
    int spare[MAX_LENGTH + 2];
    int run_below, cap_from;
    int nfloors, floors[MAX_LENGTH];
    const int *lens, *elems;
    int nstems, stem, offset;
    long long nodes;
};

#define W 2
#include __FILE__
#undef W
#define W 4
#include __FILE__
#undef W
#define W 6
#include __FILE__
#undef W
#define W 8
#include __FILE__
#undef W

/* A walker for the stream of `length` with range target min_range and, when
 * nfloors == length, one least range per depth 1..length; NULL when no
 * width holds it. */
void *walk_new(int length, int min_range, int prune, const int *floors, int nfloors)
{
    if (length < 1 || length > MAX_LENGTH || min_range < 0 || (nfloors && nfloors != length))
        return NULL;
    int bits = length * (length + 1) + 1;
    if (min_range + 1 > bits)
        bits = min_range + 1;
    for (int d = 0; d < nfloors; d++)
        if (floors[d] < 0 || floors[d] > min_range)
            return NULL;
    struct common *c;
    if (bits <= 2 * 64)
        c = new2(length, min_range, floors, nfloors);
    else if (bits <= 4 * 64)
        c = new4(length, min_range, floors, nfloors);
    else if (bits <= 6 * 64)
        c = new6(length, min_range, floors, nfloors);
    else if (bits <= 8 * 64)
        c = new8(length, min_range, floors, nfloors);
    else
        return NULL;
    if (!c)
        return NULL;
    int kp1 = length + 1;
    c->length = length;
    c->kp1 = kp1;
    c->two_short = kp1 - 2;
    c->min_range = min_range;
    c->prune = prune != 0;
    c->bound = length * (length + 1) / 2;
    /* spare[n]: the holes in [0, min_range] that the counting bound lets a
     * node with n elements leave open */
    for (int n = 0; n <= kp1; n++) {
        int m = kp1 - n;
        c->spare[n] = prune ? m * n + m * (m + 1) / 2 : min_range + 1;
    }
    c->run_below = prune ? floor_half(min_range - 2) : -1;
    c->cap_from = prune ? (min_range + 1) / 2 : NEVER;
    c->nfloors = nfloors;
    if (nfloors)
        memcpy(c->floors, floors, sizeof(int) * nfloors);
    return c;
}

/* The next batch of stems: stem i has lens[i] elements, stored one stem
 * after another in elems.  Both arrays must stay alive until walk_next
 * returns 0. */
void walk_stems(void *walk, const int *lens, const int *elems, int count)
{
    struct common *c = walk;
    c->lens = lens;
    c->elems = elems;
    c->nstems = count;
    c->stem = 0;
    c->offset = 0;
}

/* At most cap bases of the batch, each length + 1 ints, into out: the
 * number written, 0 once the batch is done. */
long walk_next(void *walk, int *out, long cap)
{
    return ((struct common *)walk)->next(walk, out, cap);
}

/* The nodes popped so far: stem roots, interior nodes and nodes two short. */
long long walk_nodes(void *walk)
{
    return ((struct common *)walk)->nodes;
}

void walk_free(void *walk)
{
    free(walk);
}

#else /* one width: W words per bit vector */

#define B CAT(bits, W)
#define F(name) CAT(name, W)

typedef struct { uint64_t w[W]; } B;

static inline B F(zero)(void) { B r; memset(&r, 0, sizeof r); return r; }

static inline B F(bit)(int i)
{
    B r = F(zero)();
    r.w[i >> 6] = (uint64_t)1 << (i & 63);
    return r;
}

/* bits 0..n-1, for 0 <= n <= 64 W */
static inline B F(low)(int n)
{
    B r;
    for (int k = 0; k < W; k++) {
        int b = n - 64 * k;
        r.w[k] = b >= 64 ? ~(uint64_t)0 : b <= 0 ? 0 : ((uint64_t)1 << b) - 1;
    }
    return r;
}

static inline B F(or)(B a, B b) { for (int k = 0; k < W; k++) a.w[k] |= b.w[k]; return a; }
static inline B F(and)(B a, B b) { for (int k = 0; k < W; k++) a.w[k] &= b.w[k]; return a; }
/* a & ~b */
static inline B F(andnot)(B a, B b) { for (int k = 0; k < W; k++) a.w[k] &= ~b.w[k]; return a; }

static inline int F(any)(B a)
{
    uint64_t r = 0;
    for (int k = 0; k < W; k++) r |= a.w[k];
    return r != 0;
}

static inline int F(count)(B a)
{
    int n = 0;
    for (int k = 0; k < W; k++) n += __builtin_popcountll(a.w[k]);
    return n;
}

/* the lowest set bit of a nonzero a */
static inline int F(lowest)(B a)
{
    int k = 0;
    while (!a.w[k]) k++;
    return 64 * k + __builtin_ctzll(a.w[k]);
}

/* the highest set bit of a nonzero a */
static inline int F(highest)(B a)
{
    int k = W - 1;
    while (!a.w[k]) k--;
    return 64 * k + 63 - __builtin_clzll(a.w[k]);
}

/* the lowest clear bit of a, which has one */
static inline int F(first_gap)(B a)
{
    int k = 0;
    while (!~a.w[k]) k++;
    return 64 * k + __builtin_ctzll(~a.w[k]);
}

/* a << s, dropping the bits past 64 W, for 0 <= s */
static inline B F(shl)(B a, int s)
{
    B r = F(zero)();
    int q = s >> 6, b = s & 63;
    for (int k = W - 1; k >= q; k--) {
        r.w[k] = a.w[k - q] << b;
        if (b && k - q - 1 >= 0)
            r.w[k] |= a.w[k - q - 1] >> (64 - b);
    }
    return r;
}

/* a >> s, for 0 <= s */
static inline B F(shr)(B a, int s)
{
    B r = F(zero)();
    int q = s >> 6, b = s & 63;
    for (int k = 0; k + q < W; k++) {
        r.w[k] = a.w[k + q] >> b;
        if (b && k + q + 1 < W)
            r.w[k] |= a.w[k + q + 1] << (64 - b);
    }
    return r;
}

/* a node: its elements (mask), their sums (cov), rev with bit lo - 1 - e
 * for each element e, and its next elements [lo, hi] */
struct F(node) {
    B mask, cov, rev;
    int lo, hi, depth;
};

struct F(walk) {
    struct common c;
    B tmask;
    /* floor_mask[d] = [0, floor of depth d], or 0 where that floor is 0 */
    B floor_mask[MAX_LENGTH + 1];
    /* the node two short whose x are being tried, and the current x */
    int active;
    struct F(node) two;
    B below, xs;
    int spare_child;
    B m1, holes, ys;
    int x;
    int top;
    struct F(node) stack[];
};

static long F(next)(void *, int *, long);

static struct common *F(new)(int length, int min_range, const int *floors, int nfloors)
{
    /* each depth holds at most the bound + 1 siblings, one stem root
     * aside, since a node's next elements lie in [0, bound] */
    int bound = length * (length + 1) / 2;
    size_t cap = (size_t)length * (bound + 1) + 1;
    struct F(walk) *s = calloc(1, sizeof *s + cap * sizeof s->stack[0]);
    if (!s)
        return NULL;
    s->c.next = F(next);
    s->tmask = F(low)(min_range + 1);
    for (int d = 0; d < nfloors; d++)
        if (floors[d])
            s->floor_mask[d + 1] = F(low)(floors[d] + 1);
    return &s->c;
}

/* The floor step: the next elements a in [lo, hi] that can cover both the
 * first hole g of below and its largest h, with bit a - lo set for each. */
static inline B F(floor_step)(B below, B rev, int lo, int hi)
{
    if (hi < lo)
        return F(zero)();
    int g = F(lowest)(below), h = F(highest)(below);
    B cand = F(shl)(rev, h - lo + 1);
    if (!(h & 1))
        cand = F(or)(cand, F(bit)(h >> 1));
    cand = F(shr)(F(and)(F(shl)(rev, g - lo + 1), cand), lo);
    return F(and)(cand, F(low)(hi - lo + 1));
}

/* The next elements of a node to try, as a mask with bit a - lo for a:
 * the floor step's where the node has holes under its children's floor,
 * else every a in [lo, hi]. */
static inline B F(candidates)(struct F(walk) *s, B below, struct F(node) *n)
{
    if (F(any)(below) && s->c.prune)
        return F(floor_step)(below, n->rev, n->lo, n->hi);
    return n->hi < n->lo ? F(zero)() : F(low)(n->hi - n->lo + 1);
}

/* Push the children of an interior node, largest first. */
static void F(push_children)(struct F(walk) *s, struct F(node) *n)
{
    int spare_child = s->c.spare[n->depth + 1];
    B below = F(andnot)(s->floor_mask[n->depth], n->cov);
    B cand = F(candidates)(s, below, n);
    while (F(any)(cand)) {
        int i = F(highest)(cand);
        cand.w[i >> 6] ^= (uint64_t)1 << (i & 63);
        int a = n->lo + i;
        B m2 = F(or)(n->mask, F(bit)(a));
        B c2 = F(or)(n->cov, F(shl)(m2, a));
        if (F(any)(F(andnot)(below, c2)) || F(count)(F(andnot)(s->tmask, c2)) > spare_child)
            continue;
        struct F(node) *child = &s->stack[s->top++];
        child->mask = m2;
        child->cov = c2;
        child->rev = F(shl)(n->rev, i + 1);
        child->rev.w[0] |= 1;
        child->lo = a + 1;
        child->hi = F(first_gap)(c2);
        child->depth = n->depth + 1;
    }
}

/* Start trying the x of a node two short: the run bound, then its
 * candidates. */
static void F(start_two_short)(struct F(walk) *s, struct F(node) *n)
{
    s->two = *n;
    n = &s->two;
    s->spare_child = s->c.spare[n->depth + 1];
    s->below = F(andnot)(s->floor_mask[n->depth], n->cov);
    if (n->lo < s->c.run_below) {
        /* the longest run of consecutive elements */
        int run = 0;
        B m = n->mask;
        while (F(any)(m)) {
            m = F(and)(m, F(shr)(m, 1));
            run++;
        }
        int start = floor_half(s->c.min_range - run - 1);
        if (start > n->lo) {
            n->rev = F(shl)(n->rev, start - n->lo);
            n->lo = start;
        }
    }
    s->xs = F(candidates)(s, s->below, n);
    s->ys = F(zero)();
    s->active = 1;
}

/* Move to the next x of the node two short that passes its cuts, with its
 * final elements y in s->ys (bit i for y = x + 1 + i); 0 when none is
 * left. */
static int F(next_x)(struct F(walk) *s)
{
    struct F(node) *n = &s->two;
    int T = s->c.min_range;
    while (F(any)(s->xs)) {
        int i = F(lowest)(s->xs);
        s->xs.w[i >> 6] &= s->xs.w[i >> 6] - 1;
        int x = n->lo + i;
        B m1 = F(or)(n->mask, F(bit)(x));
        B c1 = F(or)(n->cov, F(shl)(m1, x));
        if (F(any)(F(andnot)(s->below, c1)))
            continue;
        B holes = F(andnot)(s->tmask, c1);
        int count = F(count)(holes);
        if (count > s->spare_child)
            continue;
        /* bit x - a of r1 is set for each element a, x included */
        B r1 = F(shl)(n->rev, x - n->lo + 1);
        r1.w[0] |= 1;
        if (x >= s->c.cap_from && count > F(count)(F(shr)(r1, 2 * x + 1 - T)))
            continue;
        B ys;
        if (s->c.prune && F(any)(holes)) {
            int g = F(lowest)(holes), h = F(highest)(holes);
            B hs = F(shl)(r1, h - x);
            if (!(h & 1))
                hs = F(or)(hs, F(bit)(h >> 1));
            ys = F(shr)(F(and)(F(shl)(r1, g - x), hs), x + 1);
        } else {
            /* every y up to the first gap */
            ys = F(low)(F(first_gap)(c1) - x);
        }
        s->m1 = m1;
        s->holes = holes;
        s->ys = ys;
        s->x = x;
        return 1;
    }
    return 0;
}

/* Write the elements of mask, then x and y; the next free slot. */
static int *F(emit)(int *out, B mask, int x, int y)
{
    for (int k = 0; k < W; k++) {
        uint64_t m = mask.w[k];
        while (m) {
            *out++ = 64 * k + __builtin_ctzll(m);
            m &= m - 1;
        }
    }
    *out++ = x;
    *out++ = y;
    return out;
}

/* The root of the next stem: checked, and yielded or pushed; a stem past
 * the bound, or not a basis that fits the stream, is skipped. */
static void F(root)(struct F(walk) *s, const int *stem, int len, int **out, long *written)
{
    struct common *c = &s->c;
    if (len < 1 || len > c->kp1 || stem[0] < 0 || stem[len - 1] > c->bound)
        return;
    for (int k = 1; k < len; k++)
        if (stem[k] <= stem[k - 1])
            return;
    B mask = F(zero)(), cov = F(zero)();
    if (c->nfloors) {
        /* each prefix of depth d must reach floors[d - 1]; nfloors is
         * length, and len - 1 at most that */
        for (int d = 0; d < len; d++) {
            mask = F(or)(mask, F(bit)(stem[d]));
            cov = F(or)(cov, F(shl)(mask, stem[d]));
            if (d && F(first_gap)(cov) <= c->floors[d - 1])
                return;
        }
        mask = cov = F(zero)();
    }
    int last = stem[len - 1];
    for (int k = 0; k < len - 1; k++) {
        mask = F(or)(mask, F(bit)(stem[k]));
        cov = F(or)(cov, F(shl)(mask, stem[k]));
    }
    int first_gap = F(first_gap)(cov);
    if (len == c->kp1) {
        B c1 = F(or)(cov, F(shl)(F(or)(mask, F(bit)(last)), last));
        if (last <= first_gap && !F(any)(F(andnot)(s->tmask, c1))) {
            memcpy(*out, stem, sizeof(int) * len);
            *out += len;
            ++*written;
        }
        return;
    }
    struct F(node) *n = &s->stack[s->top++];
    n->mask = mask;
    n->cov = cov;
    n->rev = F(zero)();
    for (int k = 0; k < len - 1; k++)
        n->rev.w[(last - 1 - stem[k]) >> 6] |= (uint64_t)1 << ((last - 1 - stem[k]) & 63);
    n->lo = last;
    n->hi = last < first_gap ? last : first_gap;
    n->depth = len - 1;
}

static long F(next)(void *walk, int *out, long cap)
{
    struct F(walk) *s = walk;
    struct common *c = &s->c;
    long written = 0;
    for (;;) {
        if (s->active) {
            while (F(any)(s->ys)) {
                if (written == cap)
                    return written;
                int i = F(lowest)(s->ys);
                s->ys.w[i >> 6] &= s->ys.w[i >> 6] - 1;
                int y = s->x + 1 + i;
                B cover = F(shl)(F(or)(s->m1, F(bit)(y)), y);
                if (!F(any)(F(andnot)(s->holes, cover))) {
                    out = F(emit)(out, s->two.mask, s->x, y);
                    written++;
                }
            }
            s->active = F(next_x)(s);
            continue;
        }
        if (s->top) {
            struct F(node) n = s->stack[--s->top];
            c->nodes++;
            if (n.depth != c->two_short)
                F(push_children)(s, &n);
            else
                F(start_two_short)(s, &n);
            continue;
        }
        if (c->stem == c->nstems || written == cap)
            return written;
        int len = c->lens[c->stem++];
        F(root)(s, c->elems + c->offset, len, &out, &written);
        c->offset += len;
    }
}

#undef F
#undef B

#endif
