/* The CDCL search of clusterbmc.satcore, as a plain C library.
 *
 * One Solver holds one incremental session: values, levels, reasons,
 * phases, the VMTF decision queue, the trail, watch lists and a clause
 * arena.  `satcore.SolverSession` drives it through ctypes and keeps
 * everything the search does not read (the seeded generator, the records
 * of the original clauses); `cdcl_scan` checks each batch of clause
 * records before the session queues it.  The search is the one satcore's docstring
 * describes; `tests/ref_satcore.py` is the same search in Python, and the
 * tests require both to make identical decisions.
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
 * oldest stamp first.  Each is assigned, so `search` needs no update. */
static void bump(Solver *s, int32_t n)
{
    Bump *b = s->bumped;
    int32_t *prev = s->prev, *next = s->next;
    for (int32_t i = 0; i < n; i++)
        b[i].stamp = s->stamp[b[i].var];
    qsort(b, (size_t)n, sizeof(Bump), by_stamp);
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

Solver *cdcl_new(void)
{
    Solver *s = calloc(1, sizeof(Solver));
    if (!s)
        return NULL;
    if (!reserve_vars(s, 1)) {
        cdcl_free(s);
        return NULL;
    }
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
 * `nassume` ints, DIMACS assumptions.  A record is -1 (a new variable at
 * the back of the decision queue), -2 (at its front) or n >= 0 followed
 * by the n DIMACS literals of a clause.  `budget` < 0 means no conflict
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
        int ok = h < 0 ? add_var(s, h == -1) : add_clause(s, buf + i, h);
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
