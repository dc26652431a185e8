/* The CDCL search of clusterbmc.satcore and the frame unfolder of
 * clusterbmc.netlist, as a plain C library.
 *
 * One Solver holds one incremental session: values, levels, reasons,
 * phases, the VMTF decision queue, the trail, watch lists and a clause
 * arena, and the seeded generator that places each new variable in the
 * queue, a copy of Python's Mersenne Twister.  `satcore.SolverSession`
 * drives it through ctypes and keeps what the search does not read (the
 * records of the original clauses); `cdcl_scan` checks each batch of
 * clause records before the session queues it.  The search is the one satcore's
 * docstring describes; `tests/ref_satcore.py` is the same search in
 * Python, and the tests require both to make identical decisions.
 *
 * One Unfolder, at the end of this file, unrolls one BMC run's cone of a
 * netlist: `netlist.UnfoldBuilder` drives it, one call per frame, which
 * folds the frame's constants and writes its clause records, ready for
 * `SolverSession.add_clauses`.  `tests/ref_unfold.py` is the same
 * unfolder in Python, and the tests require both to write identical
 * frames.
 *
 * Literals: DIMACS literal d is stored as 2*|d| + (d < 0), so the
 * variable of `lit` is `lit >> 1` and its negation `lit ^ 1`.  A clause
 * lives in the arena as its length followed by its literals and is named
 * by its offset; it keeps its two watched literals at positions 0 and 1,
 * and a reason clause its propagated literal at position 0.
 */
#define _POSIX_C_SOURCE 200809L

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

enum { SAT = 0, UNSAT = 1, UNKNOWN = 2, NOMEM = -1 };

#define UNASSIGNED (-1)
#define NO_REASON UINT32_MAX
#define RESTART_BASE 64
/* bump() sorts at most this many variables by insertion, more by qsort */
#define BUMP_INSERTION_MAX 32
/* Python's Mersenne Twister (random.Random): state size and shift */
#define MT_N 624
#define MT_M 397
/* propagate() results that are not a clause */
#define NO_CONFLICT (-1)
#define PROP_NOMEM (-2)

typedef struct {
    uint32_t *data;
    int32_t size, cap;
} Watches;

typedef struct {
    int64_t stamp;
    int32_t var;
} Bump;

typedef struct {
    int32_t nvars, var_cap;
    /* per literal */
    int8_t *vals;          /* 1 true, 0 false, UNASSIGNED */
    Watches *watches;      /* the clauses watching the literal */
    uint8_t *mark;         /* add_clause's "already in the clause" */
    /* per variable; variable 0 is the ring's anchor, never assigned */
    int32_t *level;
    uint32_t *reason;      /* the clause that propagated it */
    uint8_t *phase;        /* sign bit of the last value; 1 is false */
    uint8_t *seen;
    int64_t *stamp;        /* stamp[0] is the lowest value */
    int32_t *prev, *next;  /* next[0] is the first variable, prev[0] last */
    int8_t *model;         /* model[v - 1], written on SAT */
    int64_t stamp_hi, stamp_lo;  /* last stamps given at the back, front */
    int32_t search;        /* every variable after it is assigned */
    int32_t *trail;        /* capacity var_cap: a variable is on it once */
    int32_t trail_size;
    int32_t *trail_lim;
    int32_t lim_size, lim_cap;
    int64_t qhead;
    /* scratch of conflict analysis and add_clause, capacity var_cap + 1 */
    int32_t *lits;
    Bump *bumped;
    int32_t *assumptions;
    int64_t assume_cap;
    int32_t *arena;
    int64_t arena_size, arena_cap;
    uint32_t *learned;     /* learned clauses in learning order */
    int64_t num_learned, learned_cap;
    int64_t num_clauses;   /* original + learned, for the clause cap */
    int64_t propagated;    /* trail entries processed, over the session */
    int has_empty_clause;
    int nomem;             /* an allocation failed: the session is lost */
    uint32_t mt[MT_N];     /* the seeded generator of new variables' places */
    int32_t mti;
} Solver;

static int resize(void *ptr, size_t count, size_t size)
{
    void **p = ptr;
    void *q = realloc(*p, count * size);
    if (!q)
        return 0;
    *p = q;
    return 1;
}

static int reserve_vars(Solver *s, int32_t need)
{
    if (need <= s->var_cap)
        return 1;
    int32_t cap = s->var_cap ? s->var_cap : 16;
    while (cap < need)
        cap *= 2;
    size_t nl = 2 * ((size_t)cap + 1), nv = (size_t)cap + 1;
    size_t old_nl = s->var_cap ? 2 * ((size_t)s->var_cap + 1) : 0;
    if (!resize(&s->vals, nl, 1) || !resize(&s->watches, nl, sizeof(Watches))
        || !resize(&s->mark, nl, 1) || !resize(&s->level, nv, 4)
        || !resize(&s->reason, nv, 4) || !resize(&s->phase, nv, 1)
        || !resize(&s->seen, nv, 1) || !resize(&s->stamp, nv, 8)
        || !resize(&s->prev, nv, 4) || !resize(&s->next, nv, 4)
        || !resize(&s->model, nv, 1) || !resize(&s->trail, nv, 4)
        || !resize(&s->lits, nv, 4) || !resize(&s->bumped, nv, sizeof(Bump)))
        return 0;
    memset(s->watches + old_nl, 0, (nl - old_nl) * sizeof(Watches));
    memset(s->mark + old_nl, 0, nl - old_nl);
    s->var_cap = cap;
    return 1;
}

static int watch(Solver *s, int32_t lit, uint32_t cref)
{
    Watches *w = &s->watches[lit];
    if (w->size == w->cap) {
        int32_t cap = w->cap ? 2 * w->cap : 4;
        if (!resize(&w->data, cap, sizeof(uint32_t)))
            return 0;
        w->cap = cap;
    }
    w->data[w->size++] = cref;
    return 1;
}

/* Stores a clause in the arena; its offset, or NO_REASON when out of
 * memory. */
static uint32_t store(Solver *s, const int32_t *lits, int32_t n)
{
    int64_t need = s->arena_size + 1 + n;
    if (need > s->arena_cap) {
        int64_t cap = s->arena_cap ? s->arena_cap : 1024;
        while (cap < need)
            cap *= 2;
        if (cap >= (int64_t)NO_REASON || !resize(&s->arena, cap, 4))
            return NO_REASON;
        s->arena_cap = cap;
    }
    uint32_t cref = (uint32_t)s->arena_size;
    s->arena[cref] = n;
    memcpy(s->arena + cref + 1, lits, (size_t)n * 4);
    s->arena_size = need;
    return cref;
}

static void enqueue(Solver *s, int32_t lit, uint32_t reason)
{
    int32_t v = lit >> 1;
    s->vals[lit] = 1;
    s->vals[lit ^ 1] = 0;
    s->level[v] = s->lim_size;
    s->reason[v] = reason;
    s->phase[v] = lit & 1;
    s->trail[s->trail_size++] = lit;
}

static int push_level(Solver *s)
{
    if (s->lim_size == s->lim_cap) {
        int32_t cap = s->lim_cap ? 2 * s->lim_cap : 64;
        if (!resize(&s->trail_lim, cap, 4))
            return 0;
        s->lim_cap = cap;
    }
    s->trail_lim[s->lim_size++] = s->trail_size;
    return 1;
}

/* A new variable joins the back of the decision queue (decided first) or
 * its front. */
static int add_var(Solver *s, int back)
{
    if (!reserve_vars(s, s->nvars + 1))
        return 0;
    int32_t v = ++s->nvars, p, n;
    s->vals[2 * v] = s->vals[2 * v + 1] = UNASSIGNED;
    s->level[v] = 0;
    s->reason[v] = NO_REASON;
    s->phase[v] = 1;
    s->seen[v] = 0;
    if (back) {
        s->stamp[v] = ++s->stamp_hi;
        p = s->prev[0];
        n = 0;
    } else {
        s->stamp[v] = --s->stamp_lo;
        p = 0;
        n = s->next[0];
    }
    s->prev[v] = p;
    s->next[v] = n;
    s->next[p] = v;
    s->prev[n] = v;
    if (s->stamp[v] > s->stamp[s->search])
        s->search = v;
    return 1;
}

/* The generator's next 32-bit word, as Python's genrand_uint32. */
static uint32_t genrand(Solver *s)
{
    static const uint32_t mag01[2] = {0, 0x9908b0dfU};
    uint32_t *mt = s->mt, y;
    if (s->mti >= MT_N) {
        int k;
        for (k = 0; k < MT_N - MT_M; k++) {
            y = (mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU);
            mt[k] = mt[k + MT_M] ^ (y >> 1) ^ mag01[y & 1];
        }
        for (; k < MT_N - 1; k++) {
            y = (mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU);
            mt[k] = mt[k + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 1];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 1];
        s->mti = 0;
    }
    y = mt[s->mti++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

/* Writes to `mt` the MT_N words of the generator state that Python's
 * random.Random(seed) starts from (its init_by_array), with `key` the
 * 32-bit words of |seed|, lowest first. */
void cdcl_seed(const uint32_t *key, int32_t nkey, uint32_t *mt)
{
    mt[0] = 19650218U;
    for (int i = 1; i < MT_N; i++)
        mt[i] = 1812433253U * (mt[i - 1] ^ (mt[i - 1] >> 30)) + (uint32_t)i;
    int i = 1, j = 0;
    for (int k = MT_N > nkey ? MT_N : nkey; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U))
                + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
        if (j >= nkey)
            j = 0;
    }
    for (int k = MT_N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U))
                - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
}

/* Adds `k` variables, each placed by one draw: Python's
 * random.Random.random() < 0.5, which holds when the first of the two
 * words it draws has its top bit clear, puts it at the back. */
static int add_vars(Solver *s, int32_t k)
{
    for (; k > 0; k--) {
        int back = genrand(s) < 0x80000000U;
        genrand(s);
        if (!add_var(s, back))
            return 0;
    }
    return 1;
}

/* Adds DIMACS clause `d` at level 0: drops duplicate and level-0-false
 * literals, and the whole clause if it is a tautology or satisfied. */
static int add_clause(Solver *s, const int32_t *d, int32_t n)
{
    int32_t *out = s->lits, k = 0, drop = 0;
    for (int32_t i = 0; i < n; i++) {
        int32_t lit = d[i] > 0 ? d[i] << 1 : (-d[i] << 1) | 1;
        int8_t val = s->vals[lit];
        if (val == 1 || (val != 0 && !s->mark[lit] && s->mark[lit ^ 1])) {
            drop = 1;  /* satisfied at level 0, or a tautology */
            break;
        }
        if (val == 0 || s->mark[lit])
            continue;
        s->mark[lit] = 1;
        out[k++] = lit;
    }
    for (int32_t i = 0; i < k; i++)
        s->mark[out[i]] = 0;
    if (drop)
        return 1;
    if (!k) {
        s->has_empty_clause = 1;
        return 1;
    }
    s->num_clauses++;
    if (k == 1) {
        enqueue(s, out[0], NO_REASON);
        return 1;
    }
    uint32_t cref = store(s, out, k);
    return cref != NO_REASON && watch(s, out[0], cref)
           && watch(s, out[1], cref);
}

/* Unit propagation; a conflicting clause, NO_CONFLICT or PROP_NOMEM. */
static int64_t propagate(Solver *s)
{
    int8_t *vals = s->vals;
    int32_t *trail = s->trail, dl = s->lim_size;
    int64_t start = s->qhead, head = start, confl = NO_CONFLICT;
    while (head < s->trail_size) {
        int32_t false_lit = trail[head] ^ 1;
        head++;
        Watches *w = &s->watches[false_lit];
        uint32_t *wl = w->data;
        int32_t i = 0, end = w->size;
        while (i < end) {
            uint32_t cref = wl[i];
            int32_t *c = s->arena + cref + 1, len = c[-1];
            /* keep the false watch at position 1 */
            int32_t first = c[0];
            if (first == false_lit) {
                first = c[1];
                c[0] = first;
                c[1] = false_lit;
            }
            if (vals[first] == 1) {
                i++;
                continue;
            }
            int32_t k = 0;
            for (int32_t j = 2; j < len; j++)
                if (vals[c[j]] != 0) {
                    k = j;
                    break;
                }
            if (k) {
                int32_t other = c[k];
                c[k] = false_lit;
                c[1] = other;
                if (!watch(s, other, cref)) {
                    w->size = end;
                    confl = PROP_NOMEM;
                    goto done;
                }
                wl[i] = wl[--end];
                continue;
            }
            if (vals[first] == 0) {
                confl = cref;
                break;
            }
            int32_t v = first >> 1;
            vals[first] = 1;
            vals[first ^ 1] = 0;
            s->level[v] = dl;
            s->reason[v] = cref;
            s->phase[v] = first & 1;
            trail[s->trail_size++] = first;
            i++;
        }
        w->size = end;
        if (confl != NO_CONFLICT)
            break;
    }
done:
    s->propagated += head - start;
    s->qhead = head;
    return confl;
}

static int by_stamp(const void *a, const void *b)
{
    int64_t x = ((const Bump *)a)->stamp, y = ((const Bump *)b)->stamp;
    return (x > y) - (x < y);
}

/* Moves the `n` variables of s->bumped to the back of the decision queue,
 * oldest stamp first.  Each is assigned, so `search` needs no update.
 * Stamps are distinct, so insertion sort, which a conflict's dozen or so
 * variables make the faster one, and qsort, which keeps a conflict of
 * thousands O(n log n), sort them the same way. */
static void bump(Solver *s, int32_t n)
{
    Bump *b = s->bumped;
    int32_t *prev = s->prev, *next = s->next;
    for (int32_t i = 0; i < n; i++)
        b[i].stamp = s->stamp[b[i].var];
    if (n > BUMP_INSERTION_MAX) {
        qsort(b, (size_t)n, sizeof(Bump), by_stamp);
    } else {
        for (int32_t i = 1; i < n; i++) {
            Bump x = b[i];
            int32_t j = i;
            for (; j > 0 && b[j - 1].stamp > x.stamp; j--)
                b[j] = b[j - 1];
            b[j] = x;
        }
    }
    for (int32_t i = 0; i < n; i++) {
        int32_t v = b[i].var, p = prev[v], nx = next[v];
        next[p] = nx;
        prev[nx] = p;
        int32_t last = prev[0];
        next[last] = v;
        prev[v] = last;
        next[v] = 0;
        prev[0] = v;
        s->stamp[v] = ++s->stamp_hi;
    }
}

/* First-UIP conflict analysis.  Leaves the learned clause in s->lits
 * (the asserting literal first, then in discovery order with the
 * highest-level literal swapped to position 1), its length in *len, and
 * returns the backtrack level. */
static int32_t analyze(Solver *s, uint32_t confl, int32_t *len)
{
    int32_t *trail = s->trail, *level = s->level, *learned = s->lits;
    uint8_t *seen = s->seen;
    int32_t n = 1, nbumped = 0, counter = 0, dl = s->lim_size, p;
    int64_t idx = s->trail_size - 1;
    uint32_t cref = confl;
    int32_t start = 0;
    for (;;) {
        const int32_t *c = s->arena + cref + 1;
        for (int32_t j = start; j < c[-1]; j++) {
            int32_t q = c[j], v = q >> 1;
            if (!seen[v] && level[v] > 0) {
                seen[v] = 1;
                s->bumped[nbumped++].var = v;
                if (level[v] >= dl)
                    counter++;
                else
                    learned[n++] = q;
            }
        }
        do
            p = trail[idx--];
        while (!seen[p >> 1]);
        seen[p >> 1] = 0;
        if (--counter == 0)
            break;
        cref = s->reason[p >> 1];
        start = 1;
    }
    learned[0] = p ^ 1;
    for (int32_t i = 0; i < n; i++)
        seen[learned[i] >> 1] = 0;
    int32_t bt = 0;
    if (n > 1) {
        int32_t max_i = 1;
        for (int32_t i = 2; i < n; i++)
            if (level[learned[i] >> 1] > level[learned[max_i] >> 1])
                max_i = i;
        int32_t t = learned[1];
        learned[1] = learned[max_i];
        learned[max_i] = t;
        bt = level[learned[1] >> 1];
    }
    bump(s, nbumped);
    *len = n;
    return bt;
}

static int learn(Solver *s, int32_t n)
{
    const int32_t *lits = s->lits;
    uint32_t cref = store(s, lits, n);
    if (cref == NO_REASON)
        return 0;
    if (s->num_learned == s->learned_cap) {
        int64_t cap = s->learned_cap ? 2 * s->learned_cap : 256;
        if (!resize(&s->learned, cap, 4))
            return 0;
        s->learned_cap = cap;
    }
    s->learned[s->num_learned++] = cref;
    s->num_clauses++;
    if (n > 1 && !(watch(s, lits[0], cref) && watch(s, lits[1], cref)))
        return 0;
    enqueue(s, lits[0], cref);
    return 1;
}

/* Unassigned variable of highest stamp; 0 when every variable is assigned
 * (the walk ends at variable 0, whose value is never set). */
static int32_t pick_branch(Solver *s)
{
    int32_t v = s->search;
    while (s->vals[v << 1] != UNASSIGNED)
        v = s->prev[v];
    s->search = v;
    return v;
}

static void backtrack(Solver *s, int32_t level)
{
    if (s->lim_size <= level)
        return;
    int32_t target = s->trail_lim[level], search = s->search;
    int64_t best = s->stamp[search];
    for (int32_t i = target; i < s->trail_size; i++) {
        int32_t lit = s->trail[i], v = lit >> 1;
        s->vals[lit] = s->vals[lit ^ 1] = UNASSIGNED;
        if (s->stamp[v] > best) {
            best = s->stamp[v];
            search = v;
        }
    }
    s->search = search;
    s->trail_size = target;
    s->lim_size = level;
    if (s->qhead > target)
        s->qhead = target;
}

/* i-th element (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,... */
static int64_t luby(int64_t i)
{
    for (;;) {
        int k = 64 - __builtin_clzll((unsigned long long)i);
        if (i == ((int64_t)1 << k) - 1)
            return (int64_t)1 << (k - 1);
        i = i - ((int64_t)1 << (k - 1)) + 1;
    }
}

/* time.perf_counter() on Linux: CLOCK_MONOTONIC in seconds */
static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)((int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec) / 1e9;
}

void cdcl_free(Solver *s)
{
    if (!s)
        return;
    /* watch lists past var_cap were never set up */
    for (size_t i = 0; s->var_cap && i < 2 * ((size_t)s->var_cap + 1); i++)
        free(s->watches[i].data);
    free(s->vals);
    free(s->watches);
    free(s->mark);
    free(s->level);
    free(s->reason);
    free(s->phase);
    free(s->seen);
    free(s->stamp);
    free(s->prev);
    free(s->next);
    free(s->model);
    free(s->trail);
    free(s->trail_lim);
    free(s->lits);
    free(s->bumped);
    free(s->assumptions);
    free(s->arena);
    free(s->learned);
    free(s);
}

/* A session whose generator starts from the MT_N words of `mt`, as
 * cdcl_seed() writes them, or NULL when out of memory. */
Solver *cdcl_new(const uint32_t *mt)
{
    Solver *s = calloc(1, sizeof(Solver));
    if (!s)
        return NULL;
    if (!reserve_vars(s, 1)) {
        cdcl_free(s);
        return NULL;
    }
    memcpy(s->mt, mt, sizeof s->mt);
    s->mti = MT_N;
    s->vals[0] = s->vals[1] = UNASSIGNED;
    s->stamp[0] = INT64_MIN;
    s->prev[0] = s->next[0] = 0;
    s->phase[0] = 1;
    s->seen[0] = 0;
    s->level[0] = 0;
    s->reason[0] = NO_REASON;
    return s;
}


/* Checks `len` ints of clause records, each a length n >= 0 followed by
 * n DIMACS literals, before any of them is added.  Returns the highest
 * variable they name (0 for none), or -1 for a 0 literal, -2 for
 * INT32_MIN (whose negation is no int32), -3 for a negative length and
 * -4 for a record that runs past the end. */
int32_t cdcl_scan(const int32_t *buf, int64_t len)
{
    int32_t top = 0;
    for (int64_t i = 0; i < len;) {
        int32_t n = buf[i++];
        if (n < 0)
            return -3;
        if (n > len - i)
            return -4;
        for (int64_t end = i + n; i < end; i++) {
            int32_t d = buf[i];
            if (d == 0)
                return -1;
            if (d == INT32_MIN)
                return -2;
            if (d < 0)
                d = -d;
            if (d > top)
                top = d;
        }
    }
    return top;
}

/* Applies `len - nassume` ints of records, then solves under the last
 * `nassume` ints, DIMACS assumptions.  A record is -k (k new variables,
 * each placed in the decision queue by a draw, see add_vars()) or n >= 0
 * followed by the n DIMACS literals of a clause.  `budget` < 0 means no conflict
 * budget; `deadline` is a CLOCK_MONOTONIC time in seconds (+inf: none).
 * Writes this call's conflicts and propagations to out[0] and out[1],
 * and on SAT the address of the model (one 0/1 byte per variable) to
 * out[2].  Every return leaves decision level 0. */
int cdcl_solve(Solver *s, const int32_t *buf, int64_t len, int64_t nassume,
               int64_t budget, double deadline, int64_t clause_cap,
               int64_t *out)
{
    if (s->nomem)
        return NOMEM;
    for (int64_t i = 0; i < len - nassume;) {
        int32_t h = buf[i++];
        int ok = h < 0 ? add_vars(s, -h) : add_clause(s, buf + i, h);
        if (!ok)
            goto nomem;
        if (h > 0)
            i += h;
    }
    if (nassume > s->assume_cap) {
        if (!resize(&s->assumptions, (size_t)nassume, 4))
            goto nomem;
        s->assume_cap = nassume;
    }
    int32_t *assume = s->assumptions;
    for (int64_t i = 0; i < nassume; i++) {
        int32_t d = buf[len - nassume + i];
        assume[i] = d > 0 ? d << 1 : (-d << 1) | 1;
    }

    int64_t conflicts = 0, prop_start = s->propagated, confl;
    int status;
    out[0] = out[1] = 0;
    if (s->has_empty_clause)
        return UNSAT;
    backtrack(s, 0);
    confl = propagate(s);
    if (confl == PROP_NOMEM)
        goto nomem;
    if (confl != NO_CONFLICT) {
        status = UNSAT;
        goto finish;
    }

    int64_t restart_count = 1, next_restart = RESTART_BASE * luby(1);
    int check_clock = deadline < INFINITY;
    for (;;) {
        confl = propagate(s);
        if (confl == PROP_NOMEM)
            goto nomem;
        if (confl != NO_CONFLICT) {
            if (budget >= 0 && conflicts >= budget) {
                /* nothing left to spend (a zero budget): stop before
                 * counting this conflict */
                status = UNKNOWN;
                break;
            }
            conflicts++;
            if (s->lim_size <= nassume) {
                /* conflict implied by the assumptions alone */
                status = UNSAT;
                break;
            }
            int32_t n, bt = analyze(s, (uint32_t)confl, &n);
            backtrack(s, bt);
            if (s->num_clauses >= clause_cap) {
                status = UNKNOWN;
                break;
            }
            if (!learn(s, n))
                goto nomem;
            if (budget >= 0 && conflicts >= budget) {
                /* budget spent: stop now rather than search on */
                status = UNKNOWN;
                break;
            }
            if (conflicts >= next_restart) {
                restart_count++;
                next_restart = conflicts + RESTART_BASE * luby(restart_count);
                backtrack(s, 0);
            }
            continue;
        }

        if (check_clock && now() > deadline) {
            status = UNKNOWN;
            break;
        }

        /* place pending assumptions first, one decision level each */
        if (s->lim_size < nassume) {
            int32_t lit = assume[s->lim_size];
            int8_t val = s->vals[lit];
            if (val == 0) {
                status = UNSAT;
                break;
            }
            if (!push_level(s))   /* a dummy level when val is 1 */
                goto nomem;
            if (val == UNASSIGNED)
                enqueue(s, lit, NO_REASON);
            continue;
        }

        int32_t v = pick_branch(s);
        if (!v) {
            for (int32_t u = 1; u <= s->nvars; u++)
                s->model[u - 1] = s->vals[u << 1] == 1;
            out[2] = (int64_t)(intptr_t)s->model;
            status = SAT;
            break;
        }
        if (!push_level(s))
            goto nomem;
        enqueue(s, (v << 1) | s->phase[v], NO_REASON);
    }
    backtrack(s, 0);
finish:
    out[0] = conflicts;
    out[1] = s->propagated - prop_start;
    return status;
nomem:
    s->nomem = 1;
    return NOMEM;
}

/* The number of learned clauses, and learned clause i in DIMACS, written
 * to `out` (room for one literal per variable); its length. */
int64_t cdcl_num_learned(const Solver *s)
{
    return s->num_learned;
}

int32_t cdcl_learned(const Solver *s, int64_t i, int32_t *out)
{
    const int32_t *c = s->arena + s->learned[i] + 1;
    for (int32_t j = 0; j < c[-1]; j++)
        out[j] = c[j] & 1 ? -(c[j] >> 1) : c[j] >> 1;
    return c[-1];
}


/* ---- The unfolder of clusterbmc.netlist.UnfoldBuilder ----
 *
 * Unfolds a netlist's cone one frame at a time, folding constants, and
 * writes each frame's CNF as clause records in solver numbering, where
 * combinational variable k is solver variable k + 1.  Its input is the
 * table `Netlist.gate_table` describes:
 *   ni, nl, na, np, and the ints of an unfolder's state (unfold_size);
 *   per latch: next-state literal, reset (0, 1, or -1 for none);
 *   per AND, in variable order: two operands and a kind, GATE_AND,
 *   GATE_XOR (a top, whose operands are p and q of p XOR q) or
 *   GATE_INNER (an XOR's inner gate, which gets no literal);
 *   per property: its bad literal.
 * The state lives in an int buffer the caller owns, so nothing here is
 * allocated or freed: an Unfolder header, then its sections. */

enum { GATE_AND = 0, GATE_XOR = 1, GATE_INNER = 2 };

typedef struct {
    int32_t ni, nl, np, na, ngates, num_vars, frames;
} Unfolder;

/* The sections after the header, each sized for the whole netlist. */
typedef struct {
    int32_t *gates;    /* per kept AND: variable, operand, operand, kind */
    int32_t *latches;  /* per latch: next literal (-1 outside the cone),
                        * reset (-1 for none) */
    int32_t *inputs;   /* per input: 1 inside the cone, else 0 */
    int32_t *bads;     /* per property: its literal */
    int32_t *state;    /* the latch literals of the next frame */
    int32_t *map;      /* each variable's literal at the last frame;
                        * 0 outside the cone and for inner gates */
} Sections;

static Sections sections(Unfolder *u)
{
    Sections x;
    x.gates = (int32_t *)(u + 1);
    x.latches = x.gates + 4 * (size_t)u->na;
    x.inputs = x.latches + 2 * (size_t)u->nl;
    x.bads = x.inputs + u->ni;
    x.state = x.bads + u->np;
    x.map = x.state + u->nl;
    return x;
}

/* The ints of the state of an unfolder of `table`. */
int64_t unfold_size(const int32_t *table)
{
    int64_t ni = table[0], nl = table[1], na = table[2], np = table[3];
    return (int64_t)(sizeof(Unfolder) / sizeof(int32_t)) + 4 * na + 3 * nl
           + ni + np + (ni + nl + na + 1);
}

/* Sets up, in the zeroed buffer `u` of unfold_size(table) ints, an
 * unfolder of the cone's `ncone` variables (ncone < 0: every variable; a
 * variable out of range is ignored).  Returns its number of kept ANDs,
 * XOR inner gates included. */
int32_t unfold_init(Unfolder *u, const int32_t *table, const int32_t *cone,
                    int64_t ncone)
{
    int32_t ni = table[0], nl = table[1], na = table[2], np = table[3];
    int32_t nvars = ni + nl + na + 1;
    const int32_t *latches = table + 5, *ands = latches + 2 * nl,
                  *bads = ands + 3 * na;
    u->ni = ni;
    u->nl = nl;
    u->np = np;
    u->na = na;
    Sections x = sections(u);
    /* the map holds the cone's membership until the first frame */
    int32_t *keep = x.map;
    if (ncone < 0) {
        for (int32_t v = 1; v < nvars; v++)
            keep[v] = 1;
    } else {
        for (int64_t i = 0; i < ncone; i++)
            if (cone[i] > 0 && cone[i] < nvars)
                keep[cone[i]] = 1;
    }
    for (int32_t i = 0; i < ni; i++)
        x.inputs[i] = keep[1 + i];
    for (int32_t i = 0; i < nl; i++) {
        x.latches[2 * i] = keep[ni + 1 + i] ? latches[2 * i] : -1;
        x.latches[2 * i + 1] = latches[2 * i + 1];
    }
    for (int32_t i = 0; i < na; i++) {
        int32_t var = ni + nl + 1 + i;
        if (!keep[var])
            continue;
        int32_t *g = x.gates + 4 * u->ngates++;
        g[0] = var;
        memcpy(g + 1, ands + 3 * i, 3 * sizeof(int32_t));
    }
    memcpy(x.bads, bads, (size_t)np * sizeof(int32_t));
    memset(keep, 0, (size_t)nvars * sizeof(int32_t));
    return u->ngates;
}

static inline int32_t dimacs(int32_t lit)
{
    return lit & 1 ? -(lit >> 1) - 1 : (lit >> 1) + 1;
}

/* Unfolds one more frame.  Numbers its fresh variables in order: at frame
 * 0 the free latches inside the cone, then the inputs inside it, then
 * each kept gate that folds to no constant and no operand.  Writes to
 * `out`:
 *   the number of variables so far, the number of record ints,
 *   the frame's bad literals (np), input literals (ni), and at frame 0
 *   only its latch literals (nl), each gate's literal (ngates; -1 for an
 *   inner gate), then the frame's clause records: 3 clauses per new AND
 *   variable, 4 per new XOR variable.
 * `out` has room for 16 record ints per gate.  Returns 0, or -1 when the
 * frame's variables would not fit in a literal; nothing is unfolded
 * then. */
int32_t unfold_frame(Unfolder *u, int32_t *out)
{
    int32_t ni = u->ni, nl = u->nl, nv = u->num_vars;
    Sections x = sections(u);
    int32_t *map = x.map, *state = x.state;
    int32_t *bads = out + 2, *inputs = bads + u->np, *lits = inputs + ni + nl;
    int32_t *rec = lits + u->ngates, *r = rec;
    if (nv > INT32_MAX / 2 - 1 - nl - ni - u->ngates)
        return -1;
    if (u->frames == 0) {
        for (int32_t i = 0; i < nl; i++) {
            int32_t next = x.latches[2 * i], reset = x.latches[2 * i + 1];
            state[i] = reset >= 0 ? reset : next < 0 ? 0 : 2 * ++nv;
        }
        memcpy(inputs + ni, state, (size_t)nl * sizeof(int32_t));
    }
    for (int32_t i = 0; i < ni; i++)
        map[1 + i] = inputs[i] = x.inputs[i] ? 2 * ++nv : 0;
    memcpy(map + ni + 1, state, (size_t)nl * sizeof(int32_t));
    const int32_t *g = x.gates;
    for (int32_t k = 0; k < u->ngates; k++, g += 4) {
        int32_t kind = g[3];
        if (kind == GATE_INNER) {
            lits[k] = -1;
            continue;
        }
        int32_t a = map[g[1] >> 1] ^ (g[1] & 1);
        int32_t b = map[g[2] >> 1] ^ (g[2] & 1), lit;
        if (a > 1 && b > 1 && (a ^ b) > 1) {   /* two distinct variables */
            lit = 2 * ++nv;
            int32_t o = nv + 1, sa = dimacs(a), sb = dimacs(b);
            if (kind == GATE_XOR) {
                int32_t c[16] = {3, -o, sa, sb, 3, -o, -sa, -sb,
                                 3, o, -sa, sb, 3, o, sa, -sb};
                memcpy(r, c, sizeof c);
                r += 16;
            } else {
                int32_t c[10] = {2, -o, sa, 2, -o, sb, 3, o, -sa, -sb};
                memcpy(r, c, sizeof c);
                r += 10;
            }
        } else if (kind == GATE_XOR) {
            /* a constant flips or clears the other operand's sign; p and
             * +-q give 0 or 1 */
            lit = a ^ b;
        } else if (a == b || b == 1) {
            lit = a;
        } else if (a == 1) {
            lit = b;
        } else {   /* a 0 operand, or complementary operands */
            lit = 0;
        }
        map[g[0]] = lits[k] = lit;
    }
    for (int32_t i = 0; i < u->np; i++)
        bads[i] = map[x.bads[i] >> 1] ^ (x.bads[i] & 1);
    for (int32_t i = 0; i < nl; i++) {
        int32_t next = x.latches[2 * i];
        state[i] = next < 0 ? 0 : map[next >> 1] ^ (next & 1);
    }
    u->num_vars = nv;
    u->frames++;
    out[0] = nv;
    out[1] = (int32_t)(r - rec);
    return 0;
}
