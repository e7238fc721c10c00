/* Native CDCL core: the inner loops of repro.sat.solver.SatSolver in C.
 *
 * This is a faithful port of the pure-Python solver's hot machinery --
 * two-watched-literal unit propagation over a flat literal-indexed watch
 * table, first-UIP conflict analysis with recursive clause minimisation,
 * VSIDS branching with phase saving, and activity-based learnt-clause
 * reduction -- over a single int32 clause arena (the layout Snippet 3's
 * hardware port uses: clauses are [size, flags, activity, lit...] records
 * addressed by arena offset, so propagation touches contiguous memory).
 *
 * The module is deliberately *not* a full solver: restarts, Luby
 * scheduling, wall-clock/conflict budgets, statistics, and cross-checking
 * stay in Python (repro.sat.native.NativeSatSolver), which drives the
 * search one restart window at a time through ``search()``.  That keeps
 * every observable behaviour of the Python solver -- anytime budgets,
 * assumption-based incremental solving with unsat cores, SolverStatistics
 * -- working unchanged while the per-conflict work runs at native speed.
 *
 * Semantics intentionally mirror repro/sat/solver.py line for line where
 * it matters (clause simplification on add, analysis seen/touched
 * bookkeeping, assumption handling, final-core extraction); where the two
 * cores may legitimately diverge (decision order, learnt-clause content)
 * only the *verdict* and the *optimum* are contractual, which is what
 * tests/sat/test_backend_equivalence.py pins down.
 *
 * Deleted learnt clauses are unlinked from the watch lists but their arena
 * words are not reclaimed; the arena grows with the total number of learnt
 * clauses ever created, which is bounded and small for the session
 * lifetimes this package creates (the Python core holds comparable state
 * as live Clause objects).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define CREF_UNDEF (-1)

/* Clause flag bits (arena word 1). */
#define FLAG_LEARNT 1
#define FLAG_DELETED 2
#define FLAG_LOCKED 4
#define LBD_SHIFT 3

typedef struct {
    int *data;
    int size;
    int cap;
} veci;

static void veci_init(veci *v) { v->data = NULL; v->size = 0; v->cap = 0; }
static void veci_free(veci *v) { free(v->data); veci_init(v); }

typedef struct {
    PyObject_HEAD
    int num_vars;
    int var_cap;          /* per-variable array capacity (indices 0..var_cap-1) */
    int ok;
    int oom;
    /* Clause arena: [size][flags|lbd<<3][activity bits][lit0 lit1 ...] */
    int *arena;
    Py_ssize_t arena_size, arena_cap;
    veci learnts;          /* arena refs of live learnt clauses */
    long n_problem;        /* stored (non-unit) problem clauses */
    /* Flat watch table indexed by windex(lit) = 2v / 2v+1. */
    veci *watches;
    signed char *values;   /* 0 unassigned, 1 true, -1 false */
    signed char *phases;   /* saved polarity */
    int *levels;
    long *reasons;         /* arena ref or CREF_UNDEF */
    unsigned char *seen;   /* conflict-analysis scratch */
    unsigned char *mark;   /* minimisation keep-set */
    unsigned char *visited;/* minimisation visited-set */
    int *lbd_stamp;
    int lbd_epoch;
    int *lit_stamp;        /* add_clause dedup, indexed by windex */
    int lit_epoch;
    double *activity;
    int *heap;
    int heap_size;
    int *heap_pos;
    int *trail;
    int trail_size;
    int *trail_lim;
    int trail_lim_size;
    int qhead;
    double var_inc, var_decay, cla_inc, cla_decay, max_learnt_ratio;
    long long conflicts, decisions, propagations, learnt_total, deleted_total;
    int *assumptions;
    int n_assumptions, assump_cap;
    signed char *model;
    int have_model;
    veci core_out;
    /* scratch */
    veci learnt_clause;
    veci touched;
    veci minstack;
    veci visited_list;
    veci final_stack;
    veci clause_in;        /* add_clause: literals parsed from Python */
} Core;

/* ------------------------------------------------------------------ utils */

static int veci_push(Core *s, veci *v, int x)
{
    if (v->size == v->cap) {
        int ncap = v->cap ? v->cap * 2 : 4;
        int *nd = (int *)realloc(v->data, (size_t)ncap * sizeof(int));
        if (nd == NULL) { s->oom = 1; return -1; }
        v->data = nd;
        v->cap = ncap;
    }
    v->data[v->size++] = x;
    return 0;
}

static inline int windex(int lit)
{
    return lit > 0 ? (lit << 1) : (((-lit) << 1) | 1);
}

static inline signed char val_lit(const Core *s, int lit)
{
    return lit > 0 ? s->values[lit] : (signed char)(-s->values[-lit]);
}

static inline int cl_size(const Core *s, long cr) { return s->arena[cr]; }
static inline int *cl_lits(Core *s, long cr) { return &s->arena[cr + 3]; }
static inline int cl_flags(const Core *s, long cr) { return s->arena[cr + 1]; }

static inline float cl_activity(const Core *s, long cr)
{
    float f;
    memcpy(&f, &s->arena[cr + 2], sizeof(float));
    return f;
}

static inline void cl_set_activity(Core *s, long cr, float f)
{
    memcpy(&s->arena[cr + 2], &f, sizeof(float));
}

/* ------------------------------------------------------------------ VSIDS */

static void heap_sift_up(Core *s, int index)
{
    int *heap = s->heap, *pos = s->heap_pos;
    double *act = s->activity;
    int item = heap[index];
    while (index > 0) {
        int parent = (index - 1) >> 1;
        if (act[heap[parent]] >= act[item])
            break;
        heap[index] = heap[parent];
        pos[heap[parent]] = index;
        index = parent;
    }
    heap[index] = item;
    pos[item] = index;
}

static void heap_sift_down(Core *s, int index)
{
    int *heap = s->heap, *pos = s->heap_pos;
    double *act = s->activity;
    int size = s->heap_size;
    int item = heap[index];
    for (;;) {
        int left = 2 * index + 1;
        int best, right;
        if (left >= size)
            break;
        best = left;
        right = left + 1;
        if (right < size && act[heap[right]] > act[heap[left]])
            best = right;
        if (act[heap[best]] <= act[item])
            break;
        heap[index] = heap[best];
        pos[heap[best]] = index;
        index = best;
    }
    heap[index] = item;
    pos[item] = index;
}

static void heap_push(Core *s, int variable)
{
    if (s->heap_pos[variable] >= 0)
        return;
    s->heap[s->heap_size] = variable;
    s->heap_pos[variable] = s->heap_size;
    s->heap_size += 1;
    heap_sift_up(s, s->heap_size - 1);
}

static int heap_pop_max(Core *s)
{
    int top, last;
    if (s->heap_size == 0)
        return 0;
    top = s->heap[0];
    last = s->heap[--s->heap_size];
    s->heap_pos[top] = -1;
    if (s->heap_size > 0) {
        s->heap[0] = last;
        s->heap_pos[last] = 0;
        heap_sift_down(s, 0);
    }
    return top;
}

static void var_bump(Core *s, int variable)
{
    s->activity[variable] += s->var_inc;
    if (s->activity[variable] > 1e100) {
        int v;
        for (v = 1; v <= s->num_vars; v++)
            s->activity[v] *= 1e-100;
        s->var_inc *= 1e-100;
    }
    if (s->heap_pos[variable] >= 0)
        heap_sift_up(s, s->heap_pos[variable]);
}

/* ------------------------------------------------------------ var growth */

static int ensure_var_cap(Core *s, int max_var)
{
    int v;
    if (max_var <= s->num_vars)
        return 0;
    if (max_var + 1 > s->var_cap) {
        int ncap = s->var_cap ? s->var_cap : 16;
        size_t wslots;
        while (ncap < max_var + 1)
            ncap *= 2;
        wslots = 2 * (size_t)ncap;
#define GROW(ptr, type) do { \
        void *nd = realloc(s->ptr, (size_t)ncap * sizeof(type)); \
        if (nd == NULL) return -1; \
        s->ptr = (type *)nd; \
    } while (0)
        GROW(values, signed char);
        GROW(phases, signed char);
        GROW(levels, int);
        GROW(reasons, long);
        GROW(seen, unsigned char);
        GROW(mark, unsigned char);
        GROW(visited, unsigned char);
        GROW(lbd_stamp, int);
        GROW(activity, double);
        GROW(heap, int);
        GROW(heap_pos, int);
        GROW(trail, int);
        GROW(trail_lim, int);
        GROW(model, signed char);
#undef GROW
        {
            veci *nw = (veci *)realloc(s->watches, wslots * sizeof(veci));
            int *ns;
            size_t i;
            if (nw == NULL)
                return -1;
            s->watches = nw;
            ns = (int *)realloc(s->lit_stamp, wslots * sizeof(int));
            if (ns == NULL)
                return -1;
            s->lit_stamp = ns;
            for (i = 2 * (size_t)s->var_cap; i < wslots; i++) {
                veci_init(&s->watches[i]);
                s->lit_stamp[i] = 0;
            }
        }
        memset(s->values + s->var_cap, 0, (size_t)(ncap - s->var_cap));
        memset(s->phases + s->var_cap, 0, (size_t)(ncap - s->var_cap));
        memset(s->seen + s->var_cap, 0, (size_t)(ncap - s->var_cap));
        memset(s->mark + s->var_cap, 0, (size_t)(ncap - s->var_cap));
        memset(s->visited + s->var_cap, 0, (size_t)(ncap - s->var_cap));
        memset(s->model + s->var_cap, 0, (size_t)(ncap - s->var_cap));
        for (v = s->var_cap; v < ncap; v++) {
            s->levels[v] = 0;
            s->reasons[v] = CREF_UNDEF;
            s->lbd_stamp[v] = 0;
            s->activity[v] = 0.0;
            s->heap_pos[v] = -1;
        }
        s->var_cap = ncap;
    }
    for (v = s->num_vars + 1; v <= max_var; v++)
        heap_push(s, v);
    s->num_vars = max_var;
    return 0;
}

/* ------------------------------------------------------------ clause ops */

static long alloc_clause(Core *s, const int *lits, int n, int learnt)
{
    Py_ssize_t need = (Py_ssize_t)n + 3;
    long cr;
    if (s->arena_size + need > s->arena_cap) {
        Py_ssize_t ncap = s->arena_cap ? s->arena_cap : 1024;
        int *na;
        while (ncap < s->arena_size + need)
            ncap *= 2;
        na = (int *)realloc(s->arena, (size_t)ncap * sizeof(int));
        if (na == NULL) { s->oom = 1; return CREF_UNDEF; }
        s->arena = na;
        s->arena_cap = ncap;
    }
    cr = (long)s->arena_size;
    s->arena[cr] = n;
    s->arena[cr + 1] = learnt ? FLAG_LEARNT : 0;
    s->arena[cr + 2] = 0; /* activity 0.0f */
    memcpy(&s->arena[cr + 3], lits, (size_t)n * sizeof(int));
    s->arena_size += need;
    return cr;
}

static int watch_clause(Core *s, long cr)
{
    int *lits = cl_lits(s, cr);
    if (veci_push(s, &s->watches[windex(-lits[0])], (int)cr) < 0)
        return -1;
    if (veci_push(s, &s->watches[windex(-lits[1])], (int)cr) < 0)
        return -1;
    return 0;
}

static inline void assign(Core *s, int lit, long reason)
{
    int variable = lit > 0 ? lit : -lit;
    s->values[variable] = lit > 0 ? 1 : -1;
    s->levels[variable] = s->trail_lim_size;
    s->reasons[variable] = reason;
    s->phases[variable] = lit > 0;
    s->trail[s->trail_size++] = lit;
}

static void backtrack(Core *s, int level)
{
    int start, i;
    if (level >= s->trail_lim_size)
        return;
    start = s->trail_lim[level];
    for (i = s->trail_size - 1; i >= start; i--) {
        int lit = s->trail[i];
        int variable = lit > 0 ? lit : -lit;
        s->values[variable] = 0;
        s->reasons[variable] = CREF_UNDEF;
        heap_push(s, variable);
    }
    s->trail_size = start;
    s->trail_lim_size = level;
    if (s->qhead > s->trail_size)
        s->qhead = s->trail_size;
}

/* Unit propagation; returns conflicting arena ref or CREF_UNDEF. */
static long propagate(Core *s)
{
    while (s->qhead < s->trail_size) {
        int lit = s->trail[s->qhead++];
        int widx = windex(lit);
        int false_lit = -lit;
        veci *ws = &s->watches[widx];
        int i = 0, j = 0, total = ws->size;
        long conflict = CREF_UNDEF;
        s->propagations++;
        while (i < total) {
            long cr = ws->data[i++];
            int *lits = cl_lits(s, cr);
            int first, k, size, found;
            signed char first_value;
            if (lits[0] == false_lit) {
                lits[0] = lits[1];
                lits[1] = false_lit;
            }
            first = lits[0];
            first_value = val_lit(s, first);
            if (first_value == 1) {
                ws->data[j++] = (int)cr;
                continue;
            }
            size = cl_size(s, cr);
            found = 0;
            for (k = 2; k < size; k++) {
                int cand = lits[k];
                if (val_lit(s, cand) >= 0) {
                    lits[k] = lits[1];
                    lits[1] = cand;
                    if (veci_push(s, &s->watches[windex(-cand)], (int)cr) < 0)
                        return CREF_UNDEF; /* oom flagged */
                    found = 1;
                    break;
                }
            }
            if (found)
                continue;
            ws->data[j++] = (int)cr;
            if (first_value == -1) {
                while (i < total)
                    ws->data[j++] = ws->data[i++];
                conflict = cr;
                break;
            }
            assign(s, first, cr);
        }
        ws->size = j;
        if (conflict != CREF_UNDEF)
            return conflict;
    }
    return CREF_UNDEF;
}

/* ------------------------------------------------------------- analysis */

static void bump_clause_activity(Core *s, long cr)
{
    float act;
    if (!(cl_flags(s, cr) & FLAG_LEARNT))
        return;
    act = cl_activity(s, cr) + (float)s->cla_inc;
    cl_set_activity(s, cr, act);
    if (act > 1e20f) {
        int i;
        for (i = 0; i < s->learnts.size; i++) {
            long lr = s->learnts.data[i];
            cl_set_activity(s, lr, cl_activity(s, lr) * 1e-20f);
        }
        s->cla_inc *= 1e-20;
    }
}

/* Check whether ``lit``'s reason chain lies entirely inside the mark set. */
static int lit_redundant(Core *s, int lit)
{
    int result = 1, i;
    s->minstack.size = 0;
    s->visited_list.size = 0;
    if (s->reasons[lit > 0 ? lit : -lit] == CREF_UNDEF)
        return 0;
    veci_push(s, &s->minstack, lit);
    while (s->minstack.size > 0 && result) {
        int current = s->minstack.data[--s->minstack.size];
        int current_var = current > 0 ? current : -current;
        long cr = s->reasons[current_var];
        int size, *lits, k;
        if (cr == CREF_UNDEF) {
            result = 0;
            break;
        }
        size = cl_size(s, cr);
        lits = cl_lits(s, cr);
        for (k = 0; k < size; k++) {
            int other = lits[k];
            int ov = other > 0 ? other : -other;
            if (ov == current_var || s->visited[ov])
                continue;
            if (s->levels[ov] == 0 || s->mark[ov])
                continue;
            if (s->reasons[ov] == CREF_UNDEF) {
                result = 0;
                break;
            }
            s->visited[ov] = 1;
            veci_push(s, &s->visited_list, ov);
            veci_push(s, &s->minstack, other);
        }
    }
    for (i = 0; i < s->visited_list.size; i++)
        s->visited[s->visited_list.data[i]] = 0;
    return result;
}

/* First-UIP analysis; fills s->learnt_clause, returns the backtrack level. */
static int analyze(Core *s, long conflict)
{
    veci *learnt = &s->learnt_clause;
    int counter = 0, lit = 0, trail_index = s->trail_size - 1;
    int current_level = s->trail_lim_size;
    long reason = conflict;
    int i, write, backtrack_level;

    learnt->size = 0;
    veci_push(s, learnt, 0); /* placeholder for the asserting literal */
    s->touched.size = 0;

    for (;;) {
        int size = cl_size(s, reason);
        int *lits = cl_lits(s, reason);
        int k, variable;
        bump_clause_activity(s, reason);
        for (k = 0; k < size; k++) {
            int other = lits[k];
            if (lit != 0 && other == lit)
                continue;
            variable = other > 0 ? other : -other;
            if (s->seen[variable] || s->levels[variable] == 0)
                continue;
            s->seen[variable] = 1;
            veci_push(s, &s->touched, variable);
            var_bump(s, variable);
            if (s->levels[variable] >= current_level)
                counter++;
            else
                veci_push(s, learnt, other);
        }
        for (;;) {
            int tl = s->trail[trail_index];
            if (s->seen[tl > 0 ? tl : -tl])
                break;
            trail_index--;
        }
        lit = s->trail[trail_index];
        trail_index--;
        variable = lit > 0 ? lit : -lit;
        s->seen[variable] = 0;
        counter--;
        if (counter == 0)
            break;
        reason = s->reasons[variable];
    }
    learnt->data[0] = -lit;

    /* Minimisation: drop literals implied by the rest of the clause. */
    for (i = 0; i < learnt->size; i++) {
        int v = learnt->data[i] > 0 ? learnt->data[i] : -learnt->data[i];
        s->mark[v] = 1;
    }
    write = 1;
    for (i = 1; i < learnt->size; i++) {
        if (!lit_redundant(s, learnt->data[i]))
            learnt->data[write++] = learnt->data[i];
    }
    for (i = 0; i < learnt->size; i++) {
        int v = learnt->data[i] > 0 ? learnt->data[i] : -learnt->data[i];
        s->mark[v] = 0;
    }
    learnt->size = write;

    for (i = 0; i < s->touched.size; i++)
        s->seen[s->touched.data[i]] = 0;

    if (learnt->size == 1) {
        backtrack_level = 0;
    } else {
        int max_index = 1, position, tmp;
        int v1 = learnt->data[1] > 0 ? learnt->data[1] : -learnt->data[1];
        int max_level = s->levels[v1];
        for (position = 2; position < learnt->size; position++) {
            int lv = learnt->data[position];
            int var2 = lv > 0 ? lv : -lv;
            if (s->levels[var2] > max_level) {
                max_level = s->levels[var2];
                max_index = position;
            }
        }
        tmp = learnt->data[1];
        learnt->data[1] = learnt->data[max_index];
        learnt->data[max_index] = tmp;
        backtrack_level = max_level;
    }
    return backtrack_level;
}

static void add_learnt(Core *s)
{
    veci *learnt = &s->learnt_clause;
    int n = learnt->size;
    long cr;
    int i, lbd;
    if (n == 1) {
        assign(s, learnt->data[0], CREF_UNDEF);
        return;
    }
    cr = alloc_clause(s, learnt->data, n, 1);
    if (cr == CREF_UNDEF)
        return; /* oom */
    s->lbd_epoch++;
    lbd = 0;
    for (i = 0; i < n; i++) {
        int v = learnt->data[i] > 0 ? learnt->data[i] : -learnt->data[i];
        int level = s->levels[v];
        if (s->lbd_stamp[level] != s->lbd_epoch) {
            s->lbd_stamp[level] = s->lbd_epoch;
            lbd++;
        }
    }
    s->arena[cr + 1] = FLAG_LEARNT | (lbd << LBD_SHIFT);
    veci_push(s, &s->learnts, (int)cr);
    s->learnt_total++;
    watch_clause(s, cr);
    assign(s, learnt->data[0], cr);
}

/* --------------------------------------------------- learnt-DB reduction */

typedef struct {
    int lbd;
    float activity;
    int ref;
} ReduceEntry;

static int reduce_compare(const void *a, const void *b)
{
    const ReduceEntry *ea = (const ReduceEntry *)a;
    const ReduceEntry *eb = (const ReduceEntry *)b;
    if (ea->lbd != eb->lbd)
        return ea->lbd < eb->lbd ? -1 : 1;
    if (ea->activity != eb->activity)
        return ea->activity > eb->activity ? -1 : 1;
    return 0;
}

static int should_reduce(const Core *s)
{
    long limit;
    if (s->n_problem == 0)
        return 0;
    limit = (long)(s->max_learnt_ratio * (double)s->n_problem + 2000.0);
    if (limit < 1000)
        limit = 1000;
    return s->learnts.size > limit;
}

static void reduce_learnts(Core *s)
{
    int i, keep_count, removed = 0, write;
    ReduceEntry *entries;
    /* Lock reason clauses of the current trail. */
    for (i = 0; i < s->trail_size; i++) {
        int lit = s->trail[i];
        long cr = s->reasons[lit > 0 ? lit : -lit];
        if (cr != CREF_UNDEF)
            s->arena[cr + 1] |= FLAG_LOCKED;
    }
    entries = (ReduceEntry *)malloc((size_t)s->learnts.size * sizeof(ReduceEntry));
    if (entries == NULL) {
        s->oom = 1;
        goto unlock;
    }
    for (i = 0; i < s->learnts.size; i++) {
        long cr = s->learnts.data[i];
        entries[i].lbd = cl_flags(s, cr) >> LBD_SHIFT;
        entries[i].activity = cl_activity(s, cr);
        entries[i].ref = (int)cr;
    }
    qsort(entries, (size_t)s->learnts.size, sizeof(ReduceEntry), reduce_compare);
    keep_count = s->learnts.size / 2;
    write = 0;
    for (i = 0; i < s->learnts.size; i++) {
        long cr = entries[i].ref;
        if (i < keep_count || (cl_flags(s, cr) & FLAG_LOCKED)
                || cl_size(s, cr) == 2) {
            s->learnts.data[write++] = (int)cr;
        } else {
            s->arena[cr + 1] |= FLAG_DELETED;
            removed++;
        }
    }
    free(entries);
    if (removed > 0) {
        Py_ssize_t slot;
        s->learnts.size = write;
        s->deleted_total += removed;
        for (slot = 2; slot < 2 * (Py_ssize_t)(s->num_vars + 1); slot++) {
            veci *ws = &s->watches[slot];
            int r, w = 0;
            for (r = 0; r < ws->size; r++) {
                if (!(cl_flags(s, ws->data[r]) & FLAG_DELETED))
                    ws->data[w++] = ws->data[r];
            }
            ws->size = w;
        }
    }
unlock:
    for (i = 0; i < s->trail_size; i++) {
        int lit = s->trail[i];
        long cr = s->reasons[lit > 0 ? lit : -lit];
        if (cr != CREF_UNDEF)
            s->arena[cr + 1] &= ~FLAG_LOCKED;
    }
}

/* ------------------------------------------------------------ final core */

static int in_veci(const veci *v, int x)
{
    int i;
    for (i = 0; i < v->size; i++)
        if (v->data[i] == x)
            return 1;
    return 0;
}

static void analyze_final(Core *s, int failed_assumption)
{
    int i;
    s->core_out.size = 0;
    veci_push(s, &s->core_out, failed_assumption);
    s->touched.size = 0;
    s->final_stack.size = 0;
    {
        int fv = failed_assumption > 0 ? failed_assumption : -failed_assumption;
        s->seen[fv] = 1;
        veci_push(s, &s->touched, fv);
    }
    veci_push(s, &s->final_stack, -failed_assumption);
    while (s->final_stack.size > 0) {
        int lit = s->final_stack.data[--s->final_stack.size];
        int variable = lit > 0 ? lit : -lit;
        long cr = s->reasons[variable];
        if (cr == CREF_UNDEF) {
            /* A decision: it must be one of the assumptions. */
            int truthy = (val_lit(s, lit) == 1) ? lit : -lit;
            int k, found = 0;
            for (k = 0; k < s->n_assumptions; k++)
                if (s->assumptions[k] == truthy) { found = 1; break; }
            if (found && !in_veci(&s->core_out, truthy))
                veci_push(s, &s->core_out, truthy);
            continue;
        }
        {
            int size = cl_size(s, cr);
            int *lits = cl_lits(s, cr);
            int k;
            for (k = 0; k < size; k++) {
                int other = lits[k];
                int ov = other > 0 ? other : -other;
                if (s->seen[ov] || s->levels[ov] == 0)
                    continue;
                s->seen[ov] = 1;
                veci_push(s, &s->touched, ov);
                veci_push(s, &s->final_stack, other);
            }
        }
    }
    for (i = 0; i < s->touched.size; i++)
        s->seen[s->touched.data[i]] = 0;
}

/* ----------------------------------------------------------------- search */

static void save_model(Core *s)
{
    int v;
    for (v = 1; v <= s->num_vars; v++) {
        signed char value = s->values[v];
        s->model[v] = value != 0 ? (value == 1) : s->phases[v];
    }
    s->have_model = 1;
}

static double elapsed_since(const struct timespec *t0)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)(t.tv_sec - t0->tv_sec)
        + 1e-9 * (double)(t.tv_nsec - t0->tv_nsec);
}

/* One restart window.  Returns:
 *   1  SAT (model saved)            -1  UNSAT at the root
 *  -2  UNSAT under assumptions      0   budget exhausted (UNKNOWN)
 *   2  restart window exhausted    -3   out of memory
 * All exits except -1 leave the solver backtracked to level 0. */
static int search(Core *s, long long max_conflicts, long long conflict_budget,
                  double time_budget)
{
    long long local_conflicts = 0;
    struct timespec t0;
    clock_gettime(CLOCK_MONOTONIC, &t0);

    for (;;) {
        long conflict = propagate(s);
        if (s->oom)
            return -3;
        if (conflict != CREF_UNDEF) {
            int bt;
            s->conflicts++;
            local_conflicts++;
            if (s->trail_lim_size == 0) {
                s->ok = 0;
                return -1;
            }
            bt = analyze(s, conflict);
            backtrack(s, bt);
            add_learnt(s);
            if (s->oom)
                return -3;
            s->var_inc /= s->var_decay;
            s->cla_inc /= s->cla_decay;
            continue;
        }

        /* Budgets are only checked at a stable (non-conflicting) point. */
        if (time_budget >= 0.0 && elapsed_since(&t0) > time_budget) {
            backtrack(s, 0);
            return 0;
        }
        if (conflict_budget >= 0 && local_conflicts > conflict_budget) {
            backtrack(s, 0);
            return 0;
        }
        if (max_conflicts >= 0 && local_conflicts >= max_conflicts) {
            backtrack(s, 0);
            return 2;
        }

        if (should_reduce(s))
            reduce_learnts(s);
        if (s->oom)
            return -3;

        {
            int next = 0;
            if (s->trail_lim_size < s->n_assumptions) {
                int assumption = s->assumptions[s->trail_lim_size];
                signed char value = val_lit(s, assumption);
                if (value == 1) {
                    s->trail_lim[s->trail_lim_size++] = s->trail_size;
                    continue;
                }
                if (value == -1) {
                    analyze_final(s, assumption);
                    backtrack(s, 0);
                    return -2;
                }
                next = assumption;
            } else {
                for (;;) {
                    int variable = heap_pop_max(s);
                    if (variable == 0) {
                        next = 0;
                        break;
                    }
                    if (s->values[variable] == 0) {
                        next = s->phases[variable] ? variable : -variable;
                        break;
                    }
                }
                if (next == 0) {
                    save_model(s);
                    backtrack(s, 0);
                    return 1;
                }
            }
            s->decisions++;
            s->trail_lim[s->trail_lim_size++] = s->trail_size;
            assign(s, next, CREF_UNDEF);
        }
    }
}

/* ============================================================ Python type */

static PyObject *Core_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    Core *s = (Core *)type->tp_alloc(type, 0);
    if (s == NULL)
        return NULL;
    s->num_vars = 0;
    s->var_cap = 0;
    s->ok = 1;
    s->oom = 0;
    s->arena = NULL;
    s->arena_size = s->arena_cap = 0;
    veci_init(&s->learnts);
    s->n_problem = 0;
    s->watches = NULL;
    s->values = NULL;
    s->phases = NULL;
    s->levels = NULL;
    s->reasons = NULL;
    s->seen = NULL;
    s->mark = NULL;
    s->visited = NULL;
    s->lbd_stamp = NULL;
    s->lbd_epoch = 0;
    s->lit_stamp = NULL;
    s->lit_epoch = 0;
    s->activity = NULL;
    s->heap = NULL;
    s->heap_size = 0;
    s->heap_pos = NULL;
    s->trail = NULL;
    s->trail_size = 0;
    s->trail_lim = NULL;
    s->trail_lim_size = 0;
    s->qhead = 0;
    s->var_inc = 1.0;
    s->var_decay = 0.95;
    s->cla_inc = 1.0;
    s->cla_decay = 0.999;
    s->max_learnt_ratio = 0.4;
    s->conflicts = s->decisions = s->propagations = 0;
    s->learnt_total = s->deleted_total = 0;
    s->assumptions = NULL;
    s->n_assumptions = 0;
    s->assump_cap = 0;
    s->model = NULL;
    s->have_model = 0;
    veci_init(&s->core_out);
    veci_init(&s->learnt_clause);
    veci_init(&s->touched);
    veci_init(&s->minstack);
    veci_init(&s->visited_list);
    veci_init(&s->final_stack);
    veci_init(&s->clause_in);
    return (PyObject *)s;
}

static int Core_init(Core *s, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"decay", "clause_decay", "max_learnt_ratio", NULL};
    double decay = 0.95, clause_decay = 0.999, ratio = 0.4;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|ddd", kwlist,
                                     &decay, &clause_decay, &ratio))
        return -1;
    if (!(decay > 0.0 && decay <= 1.0)) {
        PyErr_SetString(PyExc_ValueError, "decay must be in (0, 1]");
        return -1;
    }
    s->var_decay = decay;
    s->cla_decay = clause_decay;
    s->max_learnt_ratio = ratio;
    return 0;
}

static void Core_dealloc(Core *s)
{
    Py_ssize_t i;
    free(s->arena);
    veci_free(&s->learnts);
    if (s->watches != NULL) {
        for (i = 0; i < 2 * (Py_ssize_t)s->var_cap; i++)
            veci_free(&s->watches[i]);
        free(s->watches);
    }
    free(s->values);
    free(s->phases);
    free(s->levels);
    free(s->reasons);
    free(s->seen);
    free(s->mark);
    free(s->visited);
    free(s->lbd_stamp);
    free(s->lit_stamp);
    free(s->activity);
    free(s->heap);
    free(s->heap_pos);
    free(s->trail);
    free(s->trail_lim);
    free(s->model);
    free(s->assumptions);
    veci_free(&s->core_out);
    veci_free(&s->learnt_clause);
    veci_free(&s->touched);
    veci_free(&s->minstack);
    veci_free(&s->visited_list);
    veci_free(&s->final_stack);
    veci_free(&s->clause_in);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

static PyObject *no_memory(Core *s)
{
    s->oom = 0;
    return PyErr_NoMemory();
}

static PyObject *Core_new_var(Core *s, PyObject *noargs)
{
    if (ensure_var_cap(s, s->num_vars + 1) < 0)
        return PyErr_NoMemory();
    return PyLong_FromLong(s->num_vars);
}

static PyObject *Core_ensure_vars(Core *s, PyObject *arg)
{
    long max_var = PyLong_AsLong(arg);
    if (max_var == -1 && PyErr_Occurred())
        return NULL;
    if (max_var > s->num_vars && ensure_var_cap(s, (int)max_var) < 0)
        return PyErr_NoMemory();
    Py_RETURN_NONE;
}

/* Root-level unit enqueue + propagate; mirrors _enqueue_root_unit. */
static int enqueue_root_unit(Core *s, int literal)
{
    signed char value = val_lit(s, literal);
    if (value == 1)
        return 1;
    if (value == -1) {
        s->ok = 0;
        return 0;
    }
    assign(s, literal, CREF_UNDEF);
    if (propagate(s) != CREF_UNDEF) {
        s->ok = 0;
        return 0;
    }
    return 1;
}

/* Simplify and store one clause; mirrors SatSolver.add_clause.  Duplicate
 * literals are dropped, tautologies and root-satisfied clauses are skipped,
 * root-false literals are removed, and a unit is enqueued and propagated at
 * the root.  This is the only clause-ingestion path: add_clause and
 * add_clauses both feed it.  Returns 1 (formula still satisfiable), 0 (it
 * became UNSAT at the root) or -1 (out of memory). */
static int add_clause_lits(Core *s, const int *lits, Py_ssize_t n)
{
    veci *out = &s->learnt_clause; /* reused as the simplified-clause scratch */
    Py_ssize_t i;
    long cr;

    if (!s->ok)
        return 0;
    out->size = 0;
    if (s->lit_epoch == INT_MAX) {
        memset(s->lit_stamp, 0, 2 * (size_t)s->var_cap * sizeof(int));
        s->lit_epoch = 0;
    }
    s->lit_epoch++;

    for (i = 0; i < n; i++) {
        int lit = lits[i];
        if (ensure_var_cap(s, lit > 0 ? lit : -lit) < 0)
            return -1;
        if (s->lit_stamp[windex(-lit)] == s->lit_epoch)
            return 1; /* tautology, trivially satisfied */
        if (s->lit_stamp[windex(lit)] == s->lit_epoch)
            continue;
        if (s->trail_lim_size == 0) {
            signed char value = val_lit(s, lit);
            if (value == 1)
                return 1;
            if (value == -1)
                continue;
        }
        s->lit_stamp[windex(lit)] = s->lit_epoch;
        if (veci_push(s, out, lit) < 0)
            return -1;
    }

    if (out->size == 0) {
        s->ok = 0;
        return 0;
    }
    if (out->size == 1) {
        int result = enqueue_root_unit(s, out->data[0]);
        return s->oom ? -1 : result;
    }
    cr = alloc_clause(s, out->data, out->size, 0);
    if (cr == CREF_UNDEF || watch_clause(s, cr) < 0)
        return -1;
    s->n_problem++;
    return 1;
}

static PyObject *Core_add_clause(Core *s, PyObject *arg)
{
    PyObject *seq;
    Py_ssize_t n, i;
    int result;

    if (!s->ok)
        return PyBool_FromLong(0);
    seq = PySequence_Fast(arg, "add_clause expects a sequence of literals");
    if (seq == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(seq);
    s->clause_in.size = 0;
    for (i = 0; i < n; i++) {
        long literal = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (literal == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return NULL;
        }
        if (literal == 0) {
            Py_DECREF(seq);
            PyErr_SetString(PyExc_ValueError, "0 is not a valid literal");
            return NULL;
        }
        if (literal > INT_MAX / 2 || literal < -(INT_MAX / 2)) {
            Py_DECREF(seq);
            PyErr_SetString(PyExc_OverflowError, "literal out of range");
            return NULL;
        }
        if (veci_push(s, &s->clause_in, (int)literal) < 0) {
            Py_DECREF(seq);
            return no_memory(s);
        }
    }
    Py_DECREF(seq);
    result = add_clause_lits(s, s->clause_in.data, s->clause_in.size);
    if (result < 0)
        return no_memory(s);
    return PyBool_FromLong(result);
}

/* Borrow ``arg`` as a one-dimensional buffer of C ints (TypeError if not). */
static int get_int32_buffer(PyObject *arg, Py_buffer *view)
{
    const char *format;
    if (PyObject_GetBuffer(arg, view, PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
        return -1;
    format = view->format != NULL ? view->format : "B";
    if (format[0] == '@' || format[0] == '=')
        format++;
    if (view->ndim != 1 || view->itemsize != (Py_ssize_t)sizeof(int)
            || strcmp(format, "i") != 0) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_TypeError,
                        "flat clauses must be an int32 buffer such as "
                        "array('i')");
        return -1;
    }
    return 0;
}

/* Check a whole flat buffer before anything is ingested: zero-terminated,
 * no empty clause, every literal within range.  Counts the clauses and the
 * largest variable; sets a Python error and returns -1 on bad input. */
static int validate_flat(const int *data, Py_ssize_t n, Py_ssize_t *clauses,
                         int *max_var)
{
    Py_ssize_t i, count = 0;
    int largest = 0, previous = 0;
    for (i = 0; i < n; i++) {
        int lit = data[i];
        if (lit == 0) {
            if (previous == 0) {
                PyErr_SetString(PyExc_ValueError,
                                "flat clause buffers may not hold an empty "
                                "clause");
                return -1;
            }
            count++;
        } else {
            if (lit > INT_MAX / 2 || lit < -(INT_MAX / 2)) {
                PyErr_SetString(PyExc_OverflowError, "literal out of range");
                return -1;
            }
            if (lit > largest || -lit > largest)
                largest = lit > 0 ? lit : -lit;
        }
        previous = lit;
    }
    if (previous != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "flat clause buffer must end with a 0 terminator");
        return -1;
    }
    *clauses = count;
    *max_var = largest;
    return 0;
}

/* Bulk ingestion: every clause of a zero-terminated int32 buffer goes
 * through add_clause_lits, in order.  Clauses after the formula turns
 * root-UNSAT are skipped, as a per-clause loop would.  The GIL stays held
 * from validation to the end of ingestion, so no other thread can change
 * the buffer between the check and the read.  Returns the number of
 * clauses in the buffer. */
static PyObject *Core_add_clauses(Core *s, PyObject *arg)
{
    Py_buffer view;
    const int *data;
    Py_ssize_t n, clauses, start = 0, i;
    int max_var, result = 1;

    if (get_int32_buffer(arg, &view) < 0)
        return NULL;
    data = (const int *)view.buf;
    n = view.len / (Py_ssize_t)sizeof(int);
    if (validate_flat(data, n, &clauses, &max_var) < 0) {
        PyBuffer_Release(&view);
        return NULL;
    }
    for (i = 0; i < n && result >= 0 && s->ok; i++) {
        if (data[i] == 0) {
            result = add_clause_lits(s, data + start, i - start);
            start = i + 1;
        }
    }
    PyBuffer_Release(&view);
    if (result < 0)
        return no_memory(s);
    return PyLong_FromSsize_t(clauses);
}

static PyObject *Core_prepare_solve(Core *s, PyObject *arg)
{
    Py_ssize_t n, i;
    PyObject *seq;
    long conflict;

    if (arg == Py_None) {
        s->n_assumptions = 0;
    } else {
        seq = PySequence_Fast(arg, "assumptions must be a sequence");
        if (seq == NULL)
            return NULL;
        n = PySequence_Fast_GET_SIZE(seq);
        if ((Py_ssize_t)s->assump_cap < n) {
            int *na = (int *)realloc(s->assumptions, (size_t)n * sizeof(int));
            if (na == NULL) {
                Py_DECREF(seq);
                return PyErr_NoMemory();
            }
            s->assumptions = na;
            s->assump_cap = (int)n;
        }
        for (i = 0; i < n; i++) {
            long literal = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
            if (literal == -1 && PyErr_Occurred()) {
                Py_DECREF(seq);
                return NULL;
            }
            if (literal == 0 || literal > INT_MAX / 2
                    || literal < -(INT_MAX / 2)) {
                Py_DECREF(seq);
                PyErr_SetString(PyExc_ValueError, "invalid assumption literal");
                return NULL;
            }
            if (ensure_var_cap(s, literal > 0 ? (int)literal
                                              : (int)-literal) < 0) {
                Py_DECREF(seq);
                return PyErr_NoMemory();
            }
            s->assumptions[i] = (int)literal;
        }
        s->n_assumptions = (int)n;
        Py_DECREF(seq);
    }
    s->have_model = 0;
    backtrack(s, 0);
    Py_BEGIN_ALLOW_THREADS
    conflict = propagate(s);
    Py_END_ALLOW_THREADS
    if (s->oom)
        return no_memory(s);
    if (conflict != CREF_UNDEF) {
        s->ok = 0;
        return PyLong_FromLong(-1);
    }
    return PyLong_FromLong(0);
}

static PyObject *Core_search(Core *s, PyObject *args)
{
    long long max_conflicts, conflict_budget;
    double time_budget;
    int status;
    if (!PyArg_ParseTuple(args, "LLd", &max_conflicts, &conflict_budget,
                          &time_budget))
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    status = search(s, max_conflicts, conflict_budget, time_budget);
    Py_END_ALLOW_THREADS
    if (status == -3)
        return no_memory(s);
    return PyLong_FromLong(status);
}

static PyObject *Core_get_model(Core *s, PyObject *noargs)
{
    if (!s->have_model) {
        PyErr_SetString(PyExc_RuntimeError, "no model available");
        return NULL;
    }
    return PyBytes_FromStringAndSize((const char *)s->model,
                                     (Py_ssize_t)s->num_vars + 1);
}

static PyObject *Core_get_core(Core *s, PyObject *noargs)
{
    PyObject *list = PyList_New(s->core_out.size);
    int i;
    if (list == NULL)
        return NULL;
    for (i = 0; i < s->core_out.size; i++) {
        PyObject *value = PyLong_FromLong(s->core_out.data[i]);
        if (value == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, value);
    }
    return list;
}

static PyObject *Core_counters(Core *s, PyObject *noargs)
{
    return Py_BuildValue("(LLLLL)", s->conflicts, s->decisions,
                         s->propagations, s->learnt_total, s->deleted_total);
}

/* Flat export of the formula: every live problem clause then every root
 * (level-0) trail literal as a unit clause, 0-terminated; learnt clauses
 * are left out.  Tests compare it against the python core's export. */
static PyObject *Core_export_clauses(Core *s, PyObject *noargs)
{
    veci flat;
    Py_ssize_t ref = 0;
    int i;
    PyObject *list;

    if (s->trail_lim_size != 0) {
        PyErr_SetString(PyExc_RuntimeError,
                        "export_clauses requires decision level 0");
        return NULL;
    }
    veci_init(&flat);
    while (ref < s->arena_size) {
        int size = s->arena[ref];
        int flags = s->arena[ref + 1];
        if (!(flags & (FLAG_LEARNT | FLAG_DELETED))) {
            int k;
            for (k = 0; k < size; k++)
                veci_push(s, &flat, s->arena[ref + 3 + k]);
            veci_push(s, &flat, 0);
        }
        ref += (Py_ssize_t)size + 3;
    }
    for (i = 0; i < s->trail_size; i++) {
        veci_push(s, &flat, s->trail[i]);
        veci_push(s, &flat, 0);
    }
    if (s->oom) {
        veci_free(&flat);
        return no_memory(s);
    }
    list = PyList_New(flat.size);
    if (list == NULL) {
        veci_free(&flat);
        return NULL;
    }
    for (i = 0; i < flat.size; i++) {
        PyObject *value = PyLong_FromLong(flat.data[i]);
        if (value == NULL) {
            Py_DECREF(list);
            veci_free(&flat);
            return NULL;
        }
        PyList_SET_ITEM(list, i, value);
    }
    veci_free(&flat);
    return list;
}

static PyObject *Core_get_num_vars(Core *s, void *closure)
{
    return PyLong_FromLong(s->num_vars);
}

static PyObject *Core_get_ok(Core *s, void *closure)
{
    return PyBool_FromLong(s->ok);
}

static PyObject *Core_get_num_problem(Core *s, void *closure)
{
    return PyLong_FromLong(s->n_problem);
}

static PyObject *Core_get_num_learnt(Core *s, void *closure)
{
    return PyLong_FromLong(s->learnts.size);
}

static PyMethodDef Core_methods[] = {
    {"new_var", (PyCFunction)Core_new_var, METH_NOARGS,
     "Allocate and return a fresh variable index."},
    {"ensure_vars", (PyCFunction)Core_ensure_vars, METH_O,
     "Make sure all variables up to max_var exist."},
    {"add_clause", (PyCFunction)Core_add_clause, METH_O,
     "Add a clause; returns False if the formula became trivially UNSAT."},
    {"add_clauses", (PyCFunction)Core_add_clauses, METH_O,
     "Add every clause of a zero-terminated int32 buffer; returns the "
     "clause count."},
    {"prepare_solve", (PyCFunction)Core_prepare_solve, METH_O,
     "Set assumptions, backtrack to root, propagate; -1 on root conflict."},
    {"search", (PyCFunction)Core_search, METH_VARARGS,
     "Run one restart window: search(max_conflicts, conflict_budget, "
     "time_budget) -> 1 SAT | -1 UNSAT | -2 assumption UNSAT | 0 budget | "
     "2 restart."},
    {"get_model", (PyCFunction)Core_get_model, METH_NOARGS,
     "Model bytes (index = variable, value = 0/1) after a SAT search."},
    {"get_core", (PyCFunction)Core_get_core, METH_NOARGS,
     "Failed-assumption core after a -2 search."},
    {"counters", (PyCFunction)Core_counters, METH_NOARGS,
     "(conflicts, decisions, propagations, learnt, deleted) totals."},
    {"export_clauses", (PyCFunction)Core_export_clauses, METH_NOARGS,
     "Flat 0-terminated dump of problem clauses and root units."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef Core_getset[] = {
    {"num_vars", (getter)Core_get_num_vars, NULL, "variable count", NULL},
    {"ok", (getter)Core_get_ok, NULL,
     "False once the formula is root-level unsatisfiable", NULL},
    {"num_problem", (getter)Core_get_num_problem, NULL,
     "stored problem clauses", NULL},
    {"num_learnt", (getter)Core_get_num_learnt, NULL,
     "live learnt clauses", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject CoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sat._native.core.Core",
    .tp_doc = "Compiled CDCL inner core (propagate/analyze/decide).",
    .tp_basicsize = sizeof(Core),
    .tp_itemsize = 0,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = Core_new,
    .tp_init = (initproc)Core_init,
    .tp_dealloc = (destructor)Core_dealloc,
    .tp_methods = Core_methods,
    .tp_getset = Core_getset,
};

static PyObject *scan_flat(PyObject *module, PyObject *arg)
{
    Py_buffer view;
    Py_ssize_t clauses;
    int max_var, status;
    if (get_int32_buffer(arg, &view) < 0)
        return NULL;
    status = validate_flat((const int *)view.buf,
                           view.len / (Py_ssize_t)sizeof(int),
                           &clauses, &max_var);
    PyBuffer_Release(&view);
    if (status < 0)
        return NULL;
    return Py_BuildValue("(ni)", clauses, max_var);
}

static PyMethodDef module_methods[] = {
    {"scan_flat", (PyCFunction)scan_flat, METH_O,
     "Validate a flat int32 clause buffer; return (clauses, max_var)."},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sat._native.core",
    .m_doc = "Native CDCL inner loops behind repro.sat.native.NativeSatSolver.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC PyInit_core(void)
{
    PyObject *module;
    if (PyType_Ready(&CoreType) < 0)
        return NULL;
    module = PyModule_Create(&core_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&CoreType);
    if (PyModule_AddObject(module, "Core", (PyObject *)&CoreType) < 0) {
        Py_DECREF(&CoreType);
        Py_DECREF(module);
        return NULL;
    }
    PyModule_AddStringConstant(module, "BACKEND", "native");
    return module;
}
