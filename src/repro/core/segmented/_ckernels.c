/* Compiled kernel backend for the segmented IQ (see kernels.py).
 *
 * This is a line-for-line transliteration of kernels.PyKernelEngine into
 * a CPython extension type: the same struct-of-arrays columns, the same
 * packed-integer heaps (the heap routines replicate CPython's heapq
 * sift functions exactly, so even the internal heap layouts match the
 * pure-Python backend).  The columns are the only copy of the segmented
 * IQ's scheduling and chain state: nothing is written back onto entry
 * or chain objects, and chains are not held at all.  Any semantic
 * change must be made in kernels.py first and transliterated here; the
 * conformance suite (tests/core/test_kernels.py) asserts bit-identity
 * between the two backends and tests/core/test_engine_parity.py checks
 * them call for call.
 *
 * Build: python -m repro.core.segmented.build
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define KNEVER (1LL << 60)
#define SLOT_BITS 20
#define SLOT_MASK ((1LL << SLOT_BITS) - 1)

static PyObject *str_inst;          /* "inst" */
static PyObject *str_static;        /* "static" */
static PyObject *str_opcode;        /* "opcode" */
static PyObject *str_cluster;       /* "cluster" */
static PyObject *str_inc;           /* "inc" */
/* Attribute names used by the fused dispatch-admission path (admit). */
static PyObject *str_seq;           /* "seq" */
static PyObject *str_operands;      /* "operands" */
static PyObject *str_issued;        /* "issued" */
static PyObject *str_chain_state;   /* "chain_state" */
static PyObject *str_queue_cycle;   /* "queue_cycle" */
static PyObject *str_unknown_count; /* "unknown_count" */
static PyObject *str_ready_cycle;   /* "ready_cycle" */
static PyObject *str_links_priv;    /* "_links" */
static PyObject *str_own_chain;     /* "own_chain" */
static PyObject *str_lrp_choice;    /* "lrp_choice" */
static PyObject *str_lrp_consulted; /* "lrp_consulted" */
static PyObject *str_slot;          /* "slot" */
static PyObject *str_countdown_ready; /* "countdown_ready" */
static PyObject *str_chain_pairs;   /* "chain_pairs" */
static PyObject *str_cslot;         /* "cslot" */
static PyObject *str_producer;      /* "producer" */
static PyObject *str_waiters;       /* "waiters" */
static PyObject *str_dest;          /* "dest" */
static PyObject *str_thread;        /* "thread" */
static PyObject *str_is_load;       /* "is_load" */
static PyObject *str_latency;       /* "latency" */
static PyObject *str_head_latency;  /* "head_latency" */
static PyObject *str_chain;         /* "chain" */
static PyObject *str_dh;            /* "dh" */
static PyObject *str_expected_ready; /* "expected_ready" */
static PyObject *str_occupancy_priv; /* "_occupancy" */
static PyObject *str_reg;           /* "reg" */
static PyObject *str_penalty;       /* "penalty" */
static PyObject *str_value_ready_cycle; /* "value_ready_cycle" */
static PyObject *str_srcs;          /* "srcs" */
static PyObject *str_is_mem;        /* "is_mem" */
static PyObject *str_freed;         /* "freed" */
static PyObject *zero_obj;          /* PyLong(0) */

/* Fused FU acquisition for Engine.issue_select (defined with the
 * Pipeline engine below; falls back to the Python callable). */
static int issue_try_acquire(PyObject *fu, PyObject *acquire,
                             PyObject *entry, int64_t now);

/* ------------------------------------------------------------------ */
/* Growable int64 vector                                              */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t *data;
    Py_ssize_t len;
    Py_ssize_t cap;
} i64vec;

static int
iv_init(i64vec *v, Py_ssize_t cap)
{
    v->len = 0;
    v->cap = cap;
    v->data = (int64_t *)PyMem_Malloc(sizeof(int64_t) * (size_t)cap);
    return v->data == NULL ? -1 : 0;
}

static void
iv_free(i64vec *v)
{
    PyMem_Free(v->data);
    v->data = NULL;
    v->len = v->cap = 0;
}

static int
iv_grow(i64vec *v, Py_ssize_t need)
{
    Py_ssize_t cap = v->cap ? v->cap : 4;
    while (cap < need)
        cap *= 2;
    int64_t *data = (int64_t *)PyMem_Realloc(
        v->data, sizeof(int64_t) * (size_t)cap);
    if (data == NULL)
        return -1;
    v->data = data;
    v->cap = cap;
    return 0;
}

static inline int
iv_push(i64vec *v, int64_t x)
{
    if (v->len >= v->cap && iv_grow(v, v->len + 1) < 0)
        return -1;
    v->data[v->len++] = x;
    return 0;
}

/* ------------------------------------------------------------------ */
/* heapq transliteration (identical layouts to the Python backend)    */
/* ------------------------------------------------------------------ */

static void
hq_siftdown(int64_t *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    int64_t newitem = heap[pos];
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        int64_t parent = heap[parentpos];
        if (newitem < parent) {
            heap[pos] = parent;
            pos = parentpos;
            continue;
        }
        break;
    }
    heap[pos] = newitem;
}

static void
hq_siftup(int64_t *heap, Py_ssize_t pos, Py_ssize_t endpos)
{
    Py_ssize_t startpos = pos;
    int64_t newitem = heap[pos];
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos && !(heap[childpos] < heap[rightpos]))
            childpos = rightpos;
        heap[pos] = heap[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    heap[pos] = newitem;
    hq_siftdown(heap, startpos, pos);
}

static inline int
hq_push(i64vec *v, int64_t item)
{
    if (iv_push(v, item) < 0)
        return -1;
    hq_siftdown(v->data, 0, v->len - 1);
    return 0;
}

static inline int64_t
hq_pop(i64vec *v)
{
    int64_t lastelt = v->data[--v->len];
    if (v->len) {
        int64_t returnitem = v->data[0];
        v->data[0] = lastelt;
        hq_siftup(v->data, 0, v->len);
        return returnitem;
    }
    return lastelt;
}

static void
hq_heapify(i64vec *v)
{
    Py_ssize_t n = v->len;
    for (Py_ssize_t i = n / 2 - 1; i >= 0; i--)
        hq_siftup(v->data, i, n);
}

static int
i64_cmp(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* ------------------------------------------------------------------ */
/* Engine                                                             */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    Py_ssize_t num_segments;
    int64_t cap;
    int64_t now;
    int collect;
    PyObject *events;           /* list of (obj, src, dst, pushdown) */
    /* entry columns (slot-indexed) */
    Py_ssize_t e_len, e_cap;
    PyObject **e_obj;
    int64_t *e_seq, *e_seg, *e_elig, *e_rseg, *e_cd;
    int64_t *e_c0, *e_dh0, *e_c1, *e_dh1, *e_own, *e_crit0, *e_crit1;
    int64_t *m_prev, *m_next;   /* per-segment membership links */
    i64vec free_slots;
    /* per-segment state */
    int64_t *occ, *thr, *free_prev, *seg_head, *seg_tail;
    i64vec *heaps;              /* maturity heaps of (when<<20)|slot */
    i64vec *readys;             /* ready heaps of (seq<<20)|slot */
    /* chain columns (cslot-indexed, never recycled) */
    Py_ssize_t c_len, c_cap;
    int64_t *c_mode, *c_base, *c_hseg;
    i64vec *c_members;          /* packed (seq<<20)|slot member keys */
    /* segment-0 issue heaps: pending (when<<20)|slot maturities and
     * ready (seq<<20)|slot candidates (see kernels.py issue_select) */
    i64vec p0heap, r0heap;
    /* scratch buffers (reused across calls) */
    i64vec scratch, scratch2;
    /* dispatch-admission bindings (bind_admit): the Python classes the
     * fused admit path instantiates, the dispatched-counter, and the
     * predicted load latency constant.  NULL until bound. */
    PyObject *adm_ss_cls, *adm_rit_cls, *adm_iqe_cls, *adm_stat;
    int64_t adm_pred_load_lat;
} Engine;

static int
engine_grow_entries(Engine *self, Py_ssize_t need)
{
    Py_ssize_t cap = self->e_cap ? self->e_cap : 64;
    while (cap < need)
        cap *= 2;
#define GROW_COL(field, type)                                           \
    do {                                                                \
        type *p = (type *)PyMem_Realloc(self->field,                    \
                                        sizeof(type) * (size_t)cap);    \
        if (p == NULL)                                                  \
            return -1;                                                  \
        self->field = p;                                                \
    } while (0)
    GROW_COL(e_obj, PyObject *);
    GROW_COL(e_seq, int64_t);
    GROW_COL(e_seg, int64_t);
    GROW_COL(e_elig, int64_t);
    GROW_COL(e_rseg, int64_t);
    GROW_COL(e_cd, int64_t);
    GROW_COL(e_c0, int64_t);
    GROW_COL(e_dh0, int64_t);
    GROW_COL(e_c1, int64_t);
    GROW_COL(e_dh1, int64_t);
    GROW_COL(e_own, int64_t);
    GROW_COL(e_crit0, int64_t);
    GROW_COL(e_crit1, int64_t);
    GROW_COL(m_prev, int64_t);
    GROW_COL(m_next, int64_t);
    self->e_cap = cap;
    return 0;
}

static int
engine_grow_chains(Engine *self, Py_ssize_t need)
{
    Py_ssize_t cap = self->c_cap ? self->c_cap : 64;
    while (cap < need)
        cap *= 2;
    GROW_COL(c_mode, int64_t);
    GROW_COL(c_base, int64_t);
    GROW_COL(c_hseg, int64_t);
    {
        i64vec *p = (i64vec *)PyMem_Realloc(
            self->c_members, sizeof(i64vec) * (size_t)cap);
        if (p == NULL)
            return -1;
        self->c_members = p;
    }
    self->c_cap = cap;
    return 0;
}
#undef GROW_COL

/* -------------------------------------------------- membership list -- */

static inline void
members_append(Engine *self, int64_t seg, int64_t slot)
{
    int64_t tail = self->seg_tail[seg];
    if (tail < 0)
        self->seg_head[seg] = slot;
    else
        self->m_next[tail] = slot;
    self->m_prev[slot] = tail;
    self->m_next[slot] = -1;
    self->seg_tail[seg] = slot;
}

static inline void
members_remove(Engine *self, int64_t seg, int64_t slot)
{
    int64_t prev = self->m_prev[slot], next = self->m_next[slot];
    if (prev < 0)
        self->seg_head[seg] = next;
    else
        self->m_next[prev] = next;
    if (next < 0)
        self->seg_tail[seg] = prev;
    else
        self->m_prev[next] = prev;
}

/* -------------------------------------------------- attribute stores --- */

static inline int
attr_set_i64(PyObject *obj, PyObject *name, int64_t value)
{
    PyObject *num = PyLong_FromLongLong((long long)value);
    if (num == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, num);
    Py_DECREF(num);
    return rc;
}

/* -------------------------------------------------- eligibility ------ */

static inline int64_t
eligible_when(Engine *self, int64_t slot, int64_t threshold, int64_t now)
{
    int64_t dh0 = self->e_dh0[slot];
    int64_t dh1 = self->e_dh1[slot];
    self->e_crit0[slot] = threshold - dh0;
    self->e_crit1[slot] = threshold - dh1;
    int64_t when = now;
    int64_t cd = self->e_cd[slot];
    if (cd >= 0) {
        int64_t w = cd - threshold + 1;
        if (w > when)
            when = w;
    }
    int64_t c0 = self->e_c0[slot];
    if (c0 >= 0) {
        int64_t mode = self->c_mode[c0];
        int64_t base = self->c_base[c0];
        if (mode == 1) {
            int64_t w = base + dh0 - threshold + 1;
            if (w > when)
                when = w;
        }
        else if ((mode == 0 ? base + dh0 : dh0 - base) >= threshold)
            return KNEVER;
    }
    int64_t c1 = self->e_c1[slot];
    if (c1 >= 0) {
        int64_t mode = self->c_mode[c1];
        int64_t base = self->c_base[c1];
        if (mode == 1) {
            int64_t w = base + dh1 - threshold + 1;
            if (w > when)
                when = w;
        }
        else if ((mode == 0 ? base + dh1 : dh1 - base) >= threshold)
            return KNEVER;
    }
    return when;
}

static int
schedule_slot(Engine *self, int64_t slot, int64_t seg, int64_t now)
{
    int64_t when = eligible_when(self, slot, self->thr[seg], now);
    self->e_elig[slot] = when;
    if (when <= now) {
        if (self->e_rseg[slot] != seg) {
            self->e_rseg[slot] = seg;
            if (hq_push(&self->readys[seg],
                        (self->e_seq[slot] << SLOT_BITS) | slot) < 0)
                return -1;
        }
    }
    else {
        if (self->e_rseg[slot] == seg)
            self->e_rseg[slot] = -1;
        if (when < KNEVER &&
            hq_push(&self->heaps[seg], (when << SLOT_BITS) | slot) < 0)
            return -1;
    }
    return 0;
}

static int
notify_chain(Engine *self, int64_t cslot)
{
    i64vec *members = &self->c_members[cslot];
    Py_ssize_t n = members->len;
    if (!n)
        return 0;
    int64_t *keys = members->data;
    int64_t *e_seq = self->e_seq;
    int64_t *e_seg = self->e_seg;
    int64_t *e_elig = self->e_elig;
    int64_t *e_rseg = self->e_rseg;
    int64_t *e_c0 = self->e_c0;
    int64_t *e_c1 = self->e_c1;
    int64_t *e_crit0 = self->e_crit0;
    int64_t *e_crit1 = self->e_crit1;
    int64_t mode = self->c_mode[cslot];
    int64_t base = self->c_base[cslot];
    int64_t now = self->now;
    int64_t *thr = self->thr;
    Py_ssize_t kept = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        int64_t key = keys[i];
        int64_t slot = key & SLOT_MASK;
        if (e_seq[slot] != key >> SLOT_BITS)
            continue;           /* issued or recycled: drop the key */
        keys[kept++] = key;
        int64_t seg = e_seg[slot];
        if (seg == 0)
            continue;           /* issues on operand readiness now */
        if (e_elig[slot] == KNEVER && mode == 0) {
            /* Critical-base filter: see kernels.py. */
            if ((e_c0[slot] == cslot && base >= e_crit0[slot])
                || (e_c1[slot] == cslot && base >= e_crit1[slot]))
                continue;
        }
        int64_t when = eligible_when(self, slot, thr[seg], now);
        int64_t old = e_elig[slot];
        e_elig[slot] = when;
        if (when <= now) {
            if (e_rseg[slot] != seg) {
                e_rseg[slot] = seg;
                if (hq_push(&self->readys[seg],
                            (e_seq[slot] << SLOT_BITS) | slot) < 0)
                    return -1;
            }
        }
        else {
            if (e_rseg[slot] == seg)
                e_rseg[slot] = -1;
            if (when < KNEVER && when != old &&
                hq_push(&self->heaps[seg], (when << SLOT_BITS) | slot) < 0)
                return -1;
        }
    }
    members->len = kept;
    return 0;
}

/* Raw pop_eligible into out (slots, oldest first). */
static int
pop_eligible_raw(Engine *self, int64_t seg, int64_t now, int64_t limit,
                 i64vec *out)
{
    out->len = 0;
    i64vec *heap = &self->heaps[seg];
    i64vec *ready = &self->readys[seg];
    int64_t *e_seq = self->e_seq;
    int64_t *e_seg = self->e_seg;
    int64_t *e_rseg = self->e_rseg;
    int64_t *e_elig = self->e_elig;
    int64_t bound = (now + 1) << SLOT_BITS;
    if (heap->len && heap->data[0] < bound) {
        if (!ready->len) {
            /* Fast path: the matured batch alone decides this pop. */
            i64vec *batch = &self->scratch2;
            batch->len = 0;
            while (heap->len && heap->data[0] < bound) {
                int64_t key = hq_pop(heap);
                int64_t slot = key & SLOT_MASK;
                if (e_seq[slot] < 0 || e_seg[slot] != seg
                    || e_elig[slot] != key >> SLOT_BITS
                    || e_rseg[slot] == seg)
                    continue;   /* stale or duplicate maturity record */
                e_rseg[slot] = seg;
                if (iv_push(batch, (e_seq[slot] << SLOT_BITS) | slot) < 0)
                    return -1;
            }
            if (batch->len <= limit) {
                qsort(batch->data, (size_t)batch->len, sizeof(int64_t),
                      i64_cmp);
                for (Py_ssize_t i = 0; i < batch->len; i++) {
                    int64_t slot = batch->data[i] & SLOT_MASK;
                    e_rseg[slot] = -1;
                    if (iv_push(out, slot) < 0)
                        return -1;
                }
                return 0;
            }
            if (ready->cap < batch->len && iv_grow(ready, batch->len) < 0)
                return -1;
            memcpy(ready->data, batch->data,
                   sizeof(int64_t) * (size_t)batch->len);
            ready->len = batch->len;
            hq_heapify(ready);
        }
        else {
            while (heap->len && heap->data[0] < bound) {
                int64_t key = hq_pop(heap);
                int64_t slot = key & SLOT_MASK;
                if (e_seq[slot] < 0 || e_seg[slot] != seg
                    || e_elig[slot] != key >> SLOT_BITS)
                    continue;   /* stale maturity record */
                if (e_rseg[slot] != seg) {
                    e_rseg[slot] = seg;
                    if (hq_push(ready,
                                (e_seq[slot] << SLOT_BITS) | slot) < 0)
                        return -1;
                }
            }
        }
    }
    if (!ready->len)
        return 0;
    while (ready->len && out->len < limit) {
        int64_t key = hq_pop(ready);
        int64_t slot = key & SLOT_MASK;
        if (e_rseg[slot] != seg || e_seq[slot] != key >> SLOT_BITS
            || e_seg[slot] != seg)
            continue;           /* stale ready record */
        e_rseg[slot] = -1;
        if (iv_push(out, slot) < 0)
            return -1;
    }
    return 0;
}

static int64_t
next_eligible_cycle_raw(Engine *self, int64_t seg, int64_t now)
{
    i64vec *ready = &self->readys[seg];
    int64_t *e_seq = self->e_seq;
    int64_t *e_seg = self->e_seg;
    while (ready->len) {
        int64_t key = ready->data[0];
        int64_t slot = key & SLOT_MASK;
        if (self->e_rseg[slot] != seg || e_seq[slot] != key >> SLOT_BITS
            || e_seg[slot] != seg) {
            hq_pop(ready);
            continue;
        }
        return now;             /* a matured candidate is waiting */
    }
    i64vec *heap = &self->heaps[seg];
    while (heap->len) {
        int64_t key = heap->data[0];
        int64_t slot = key & SLOT_MASK;
        if (e_seq[slot] < 0 || e_seg[slot] != seg
            || self->e_elig[slot] != key >> SLOT_BITS) {
            hq_pop(heap);
            continue;
        }
        return key >> SLOT_BITS;
    }
    return KNEVER;
}

/* Oldest ineligible occupants as packed (seq<<20)|slot, sorted. */
static int
oldest_ineligible_raw(Engine *self, int64_t seg, int64_t now,
                      int64_t count, i64vec *out)
{
    out->len = 0;
    int64_t *e_seq = self->e_seq;
    int64_t *e_elig = self->e_elig;
    for (int64_t slot = self->seg_head[seg]; slot >= 0;
         slot = self->m_next[slot]) {
        if (e_elig[slot] > now &&
            iv_push(out, (e_seq[slot] << SLOT_BITS) | slot) < 0)
            return -1;
    }
    qsort(out->data, (size_t)out->len, sizeof(int64_t), i64_cmp);
    if (out->len > count)
        out->len = count;
    for (Py_ssize_t i = 0; i < out->len; i++)
        out->data[i] &= SLOT_MASK;
    return 0;
}

/* The in-engine queued-own-chain head promotion (columns + notify). */
static int
own_chain_promoted(Engine *self, int64_t own, int64_t dk)
{
    self->c_hseg[own] = dk;
    self->c_base[own] = 2 * dk;
    return notify_chain(self, own);
}

/* ------------------------------------------------------------------ */
/* Methods                                                            */
/* ------------------------------------------------------------------ */

static int
Engine_init(Engine *self, PyObject *args, PyObject *kwds)
{
    Py_ssize_t num_segments;
    long long capacity;
    PyObject *thresholds;
    static char *kwlist[] = {"num_segments", "capacity", "thresholds",
                             NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "nLO", kwlist,
                                     &num_segments, &capacity,
                                     &thresholds))
        return -1;
    PyObject *thr_seq = PySequence_Fast(thresholds,
                                        "thresholds must be a sequence");
    if (thr_seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(thr_seq) != num_segments) {
        Py_DECREF(thr_seq);
        PyErr_SetString(PyExc_ValueError,
                        "thresholds length != num_segments");
        return -1;
    }
    self->num_segments = num_segments;
    self->cap = (int64_t)capacity;
    self->now = 0;
    self->collect = 0;
    Py_CLEAR(self->events);
    self->events = PyList_New(0);
    if (self->events == NULL) {
        Py_DECREF(thr_seq);
        return -1;
    }
    size_t nbytes = sizeof(int64_t) * (size_t)num_segments;
    self->occ = (int64_t *)PyMem_Malloc(nbytes);
    self->thr = (int64_t *)PyMem_Malloc(nbytes);
    self->free_prev = (int64_t *)PyMem_Malloc(nbytes);
    self->seg_head = (int64_t *)PyMem_Malloc(nbytes);
    self->seg_tail = (int64_t *)PyMem_Malloc(nbytes);
    self->heaps = (i64vec *)PyMem_Calloc((size_t)num_segments,
                                         sizeof(i64vec));
    self->readys = (i64vec *)PyMem_Calloc((size_t)num_segments,
                                          sizeof(i64vec));
    if (!self->occ || !self->thr || !self->free_prev || !self->seg_head
        || !self->seg_tail || !self->heaps || !self->readys) {
        Py_DECREF(thr_seq);
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < num_segments; i++) {
        self->occ[i] = 0;
        self->free_prev[i] = (int64_t)capacity;
        self->seg_head[i] = self->seg_tail[i] = -1;
        PyObject *item = PySequence_Fast_GET_ITEM(thr_seq, i);
        long long t = PyLong_AsLongLong(item);
        if (t == -1 && PyErr_Occurred()) {
            Py_DECREF(thr_seq);
            return -1;
        }
        self->thr[i] = (int64_t)t;
        if (iv_init(&self->heaps[i], 16) < 0
            || iv_init(&self->readys[i], 16) < 0) {
            Py_DECREF(thr_seq);
            PyErr_NoMemory();
            return -1;
        }
    }
    Py_DECREF(thr_seq);
    if (iv_init(&self->free_slots, 64) < 0 || iv_init(&self->scratch, 64) < 0
        || iv_init(&self->scratch2, 64) < 0
        || iv_init(&self->p0heap, 64) < 0
        || iv_init(&self->r0heap, 64) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    self->e_len = self->e_cap = 0;
    self->c_len = self->c_cap = 0;
    return 0;
}

static int
Engine_traverse(Engine *self, visitproc visit, void *arg)
{
    Py_VISIT(self->events);
    for (Py_ssize_t i = 0; i < self->e_len; i++)
        Py_VISIT(self->e_obj[i]);
    Py_VISIT(self->adm_ss_cls);
    Py_VISIT(self->adm_rit_cls);
    Py_VISIT(self->adm_iqe_cls);
    Py_VISIT(self->adm_stat);
    return 0;
}

static int
Engine_clear(Engine *self)
{
    Py_CLEAR(self->events);
    for (Py_ssize_t i = 0; i < self->e_len; i++)
        Py_CLEAR(self->e_obj[i]);
    Py_CLEAR(self->adm_ss_cls);
    Py_CLEAR(self->adm_rit_cls);
    Py_CLEAR(self->adm_iqe_cls);
    Py_CLEAR(self->adm_stat);
    return 0;
}

static void
Engine_dealloc(Engine *self)
{
    PyObject_GC_UnTrack(self);
    Engine_clear(self);
    PyMem_Free(self->e_obj);
    PyMem_Free(self->e_seq); PyMem_Free(self->e_seg);
    PyMem_Free(self->e_elig); PyMem_Free(self->e_rseg);
    PyMem_Free(self->e_cd);
    PyMem_Free(self->e_c0); PyMem_Free(self->e_dh0);
    PyMem_Free(self->e_c1); PyMem_Free(self->e_dh1);
    PyMem_Free(self->e_own);
    PyMem_Free(self->e_crit0); PyMem_Free(self->e_crit1);
    PyMem_Free(self->m_prev); PyMem_Free(self->m_next);
    iv_free(&self->free_slots);
    iv_free(&self->scratch);
    iv_free(&self->scratch2);
    iv_free(&self->p0heap);
    iv_free(&self->r0heap);
    PyMem_Free(self->occ); PyMem_Free(self->thr);
    PyMem_Free(self->free_prev);
    PyMem_Free(self->seg_head); PyMem_Free(self->seg_tail);
    if (self->heaps != NULL)
        for (Py_ssize_t i = 0; i < self->num_segments; i++)
            iv_free(&self->heaps[i]);
    if (self->readys != NULL)
        for (Py_ssize_t i = 0; i < self->num_segments; i++)
            iv_free(&self->readys[i]);
    PyMem_Free(self->heaps); PyMem_Free(self->readys);
    PyMem_Free(self->c_mode); PyMem_Free(self->c_base);
    PyMem_Free(self->c_hseg);
    if (self->c_members != NULL)
        for (Py_ssize_t i = 0; i < self->c_len; i++)
            iv_free(&self->c_members[i]);
    PyMem_Free(self->c_members);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* ------------------------------------------------------------ clock -- */

static PyObject *
Engine_set_now(Engine *self, PyObject *arg)
{
    long long now = PyLong_AsLongLong(arg);
    if (now == -1 && PyErr_Occurred())
        return NULL;
    self->now = (int64_t)now;
    Py_RETURN_NONE;
}

static PyObject *
Engine_set_collect(Engine *self, PyObject *arg)
{
    int flag = PyObject_IsTrue(arg);
    if (flag < 0)
        return NULL;
    self->collect = flag;
    Py_RETURN_NONE;
}

static PyObject *
Engine_drain_events(Engine *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *events = self->events;
    self->events = PyList_New(0);
    if (self->events == NULL) {
        self->events = events;
        return NULL;
    }
    return events;
}

/* ------------------------------------------------------- thresholds -- */

static PyObject *
Engine_set_threshold(Engine *self, PyObject *args)
{
    Py_ssize_t index;
    long long threshold;
    if (!PyArg_ParseTuple(args, "nL", &index, &threshold))
        return NULL;
    self->thr[index] = (int64_t)threshold;
    Py_RETURN_NONE;
}

static PyObject *
Engine_threshold(Engine *self, PyObject *arg)
{
    Py_ssize_t index = PyNumber_AsSsize_t(arg, PyExc_IndexError);
    if (index == -1 && PyErr_Occurred())
        return NULL;
    return PyLong_FromLongLong((long long)self->thr[index]);
}

/* ------------------------------------------------------------ chains -- */

static PyObject *
Engine_alloc_chain(Engine *self, PyObject *args)
{
    long long mode, base, head_segment;
    if (!PyArg_ParseTuple(args, "LLL", &mode, &base, &head_segment))
        return NULL;
    Py_ssize_t cslot = self->c_len;
    if (cslot >= self->c_cap && engine_grow_chains(self, cslot + 1) < 0)
        return PyErr_NoMemory();
    self->c_mode[cslot] = (int64_t)mode;
    self->c_base[cslot] = (int64_t)base;
    self->c_hseg[cslot] = (int64_t)head_segment;
    if (iv_init(&self->c_members[cslot], 4) < 0)
        return PyErr_NoMemory();
    self->c_len = cslot + 1;
    return PyLong_FromSsize_t(cslot);
}

static PyObject *
Engine_chain_set(Engine *self, PyObject *args)
{
    Py_ssize_t cslot;
    long long mode, base, head_segment;
    if (!PyArg_ParseTuple(args, "nLLL", &cslot, &mode, &base,
                          &head_segment))
        return NULL;
    self->c_mode[cslot] = (int64_t)mode;
    self->c_base[cslot] = (int64_t)base;
    self->c_hseg[cslot] = (int64_t)head_segment;
    Py_RETURN_NONE;
}

/* One column cell as a Python int: the readers behind SegmentedIQ.
 * segment_of (e_seg) and the Chain properties (c_mode/c_base/c_hseg). */
static PyObject *
column_read(const int64_t *column, Py_ssize_t len, PyObject *arg)
{
    Py_ssize_t index = PyNumber_AsSsize_t(arg, PyExc_IndexError);
    if (index == -1 && PyErr_Occurred())
        return NULL;
    if (index < 0 || index >= len) {
        PyErr_SetString(PyExc_IndexError, "engine column index out of range");
        return NULL;
    }
    return PyLong_FromLongLong((long long)column[index]);
}

static PyObject *
Engine_mode_of(Engine *self, PyObject *arg)
{
    return column_read(self->c_mode, self->c_len, arg);
}

static PyObject *
Engine_base_of(Engine *self, PyObject *arg)
{
    return column_read(self->c_base, self->c_len, arg);
}

static PyObject *
Engine_hseg_of(Engine *self, PyObject *arg)
{
    return column_read(self->c_hseg, self->c_len, arg);
}

/* ----------------------------------------------------------- entries -- */

static int64_t
insert_entry_raw(Engine *self, PyObject *obj, int64_t seq, int64_t seg,
                 int64_t cd, int64_t c0, int64_t dh0, int64_t c1,
                 int64_t dh1, int64_t own, int64_t now)
{
    /* Returns the slot index, or -1 with an exception set. */
    int64_t slot;
    if (self->free_slots.len)
        slot = self->free_slots.data[--self->free_slots.len];
    else {
        slot = (int64_t)self->e_len;
        if (self->e_len >= self->e_cap
            && engine_grow_entries(self, self->e_len + 1) < 0) {
            PyErr_NoMemory();
            return -1;
        }
        self->e_obj[slot] = NULL;
        self->e_len++;
    }
    Py_INCREF(obj);
    Py_XSETREF(self->e_obj[slot], obj);
    self->e_seq[slot] = seq;
    self->e_seg[slot] = seg;
    self->e_elig[slot] = KNEVER;
    self->e_rseg[slot] = -1;
    self->e_cd[slot] = cd;
    self->e_c0[slot] = c0;
    self->e_dh0[slot] = dh0;
    self->e_c1[slot] = c1;
    self->e_dh1[slot] = dh1;
    self->e_own[slot] = own;
    self->e_crit0[slot] = 0;
    self->e_crit1[slot] = 0;
    int64_t key = (seq << SLOT_BITS) | slot;
    if (c0 >= 0 && iv_push(&self->c_members[c0], key) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    if (c1 >= 0 && iv_push(&self->c_members[c1], key) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    members_append(self, seg, slot);
    self->occ[seg]++;
    if (seg > 0 && schedule_slot(self, slot, seg, now) < 0)
        return -1;
    return slot;
}

static PyObject *
Engine_insert_entry(Engine *self, PyObject *args)
{
    PyObject *obj;
    long long seq, seg, cd, c0, dh0, c1, dh1, own, now;
    if (!PyArg_ParseTuple(args, "OLLLLLLLLL", &obj, &seq, &seg, &cd,
                          &c0, &dh0, &c1, &dh1, &own, &now))
        return NULL;
    int64_t slot = insert_entry_raw(self, obj, (int64_t)seq, (int64_t)seg,
                                    (int64_t)cd, (int64_t)c0, (int64_t)dh0,
                                    (int64_t)c1, (int64_t)dh1, (int64_t)own,
                                    (int64_t)now);
    if (slot < 0)
        return NULL;
    return PyLong_FromLongLong((long long)slot);
}

/* ------------------------------------------------- fused admission ---- */

static inline int counter_inc1(PyObject *counter);

static inline PyObject *
plain_new(PyObject *cls)
{
    /* Allocate an instance without running __init__ (the C twin of
     * ``object.__new__(cls)``): PyType_GenericAlloc zeroes the slot
     * storage and GC-tracks the instance when the type requires it. */
    PyTypeObject *tp = (PyTypeObject *)cls;
    return tp->tp_alloc(tp, 0);
}

static inline int
attr_i64(PyObject *obj, PyObject *name, int64_t *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    long long r = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (r == -1 && PyErr_Occurred())
        return -1;
    *out = (int64_t)r;
    return 0;
}

static PyObject *
Engine_bind_admit(Engine *self, PyObject *args)
{
    PyObject *ss_cls, *rit_cls, *iqe_cls, *stat;
    long long pred_load_lat;
    if (!PyArg_ParseTuple(args, "OOOOL", &ss_cls, &rit_cls, &iqe_cls,
                          &stat, &pred_load_lat))
        return NULL;
    Py_INCREF(ss_cls);
    Py_XSETREF(self->adm_ss_cls, ss_cls);
    Py_INCREF(rit_cls);
    Py_XSETREF(self->adm_rit_cls, rit_cls);
    Py_INCREF(iqe_cls);
    Py_XSETREF(self->adm_iqe_cls, iqe_cls);
    Py_INCREF(stat);
    Py_XSETREF(self->adm_stat, stat);
    self->adm_pred_load_lat = (int64_t)pred_load_lat;
    Py_RETURN_NONE;
}

static PyObject *
Engine_admit(Engine *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* admit(queue, rit_entries, inst, operands, plan, chain, target, now)
     *
     * The C twin of the inlined admission body in
     * SegmentedIQ.dispatch: IQEntry + SegmentState construction,
     * operand-wakeup subscription, columnar insert, occupancy/stat
     * bookkeeping, the segment-0 ready push, and the RIT update —
     * one call per dispatched instruction, no Python frames. */
    PyObject *entry = NULL, *state = NULL, *rentry = NULL;
    PyObject *tmp = NULL;
    if (nargs != 8) {
        PyErr_SetString(PyExc_TypeError, "admit expects 8 arguments");
        return NULL;
    }
    PyObject *queue = args[0], *rit_entries = args[1], *inst = args[2];
    PyObject *operands = args[3], *plan = args[4], *chain = args[5];
    int64_t target = (int64_t)PyLong_AsLongLong(args[6]);
    if (target == -1 && PyErr_Occurred())
        return NULL;
    int64_t now = (int64_t)PyLong_AsLongLong(args[7]);
    if (now == -1 && PyErr_Occurred())
        return NULL;

    PyObject *seq_obj = PyObject_GetAttr(inst, str_seq);
    if (seq_obj == NULL)
        return NULL;
    int64_t seq = (int64_t)PyLong_AsLongLong(seq_obj);
    if (seq == -1 && PyErr_Occurred()) {
        Py_DECREF(seq_obj);
        return NULL;
    }

    entry = plain_new(self->adm_iqe_cls);
    if (entry == NULL) {
        Py_DECREF(seq_obj);
        return NULL;
    }
    if (PyObject_SetAttr(entry, str_inst, inst) < 0
        || PyObject_SetAttr(entry, str_seq, seq_obj) < 0) {
        Py_DECREF(seq_obj);
        goto fail;
    }
    Py_DECREF(seq_obj);
    if (PyObject_SetAttr(entry, str_operands, operands) < 0
        || PyObject_SetAttr(entry, str_issued, Py_False) < 0
        || attr_set_i64(entry, str_queue_cycle, now) < 0)
        goto fail;

    /* One pass over the operands: count unknown sources and take the
     * max known ready cycle (the exact IQEntry.__init__ fold). */
    if (!PyList_CheckExact(operands)) {
        PyErr_SetString(PyExc_TypeError, "admit: operands must be a list");
        goto fail;
    }
    Py_ssize_t n_ops = PyList_GET_SIZE(operands);
    int64_t unknown = 0, ready = 0;
    for (Py_ssize_t i = 0; i < n_ops; i++) {
        PyObject *rc = PyObject_GetAttr(PyList_GET_ITEM(operands, i),
                                        str_ready_cycle);
        if (rc == NULL)
            goto fail;
        if (rc == Py_None)
            unknown++;
        else {
            long long v = PyLong_AsLongLong(rc);
            if (v == -1 && PyErr_Occurred()) {
                Py_DECREF(rc);
                goto fail;
            }
            if ((int64_t)v > ready)
                ready = (int64_t)v;
        }
        Py_DECREF(rc);
    }
    if (attr_set_i64(entry, str_unknown_count, unknown) < 0
        || attr_set_i64(entry, str_ready_cycle, ready) < 0)
        goto fail;

    PyObject *cd_obj = PyObject_GetAttr(plan, str_countdown_ready);
    if (cd_obj == NULL)
        goto fail;
    int64_t countdown = (int64_t)PyLong_AsLongLong(cd_obj);
    if (countdown == -1 && PyErr_Occurred()) {
        Py_DECREF(cd_obj);
        goto fail;
    }
    PyObject *pairs = PyObject_GetAttr(plan, str_chain_pairs);
    if (pairs == NULL) {
        Py_DECREF(cd_obj);
        goto fail;
    }

    /* SegmentState, slot-for-slot (the SegmentedIQ.dispatch stores). */
    state = plain_new(self->adm_ss_cls);
    if (state == NULL)
        goto fail_cd;
    PyObject *lrp_choice = PyObject_GetAttr(plan, str_lrp_choice);
    if (lrp_choice == NULL)
        goto fail_cd;
    int rc_set = PyObject_SetAttr(state, str_lrp_choice, lrp_choice);
    Py_DECREF(lrp_choice);
    if (rc_set < 0)
        goto fail_cd;
    PyObject *lrp_consulted = PyObject_GetAttr(plan, str_lrp_consulted);
    if (lrp_consulted == NULL)
        goto fail_cd;
    rc_set = PyObject_SetAttr(state, str_lrp_consulted, lrp_consulted);
    Py_DECREF(lrp_consulted);
    if (rc_set < 0)
        goto fail_cd;
    if (PyObject_SetAttr(state, str_links_priv, Py_None) < 0
        || PyObject_SetAttr(state, str_own_chain, chain) < 0
        || PyObject_SetAttr(state, str_countdown_ready, cd_obj) < 0
        || PyObject_SetAttr(state, str_chain_pairs, pairs) < 0
        || PyObject_SetAttr(entry, str_chain_state, state) < 0)
        goto fail_cd;
    Py_DECREF(cd_obj);
    /* state now owns a reference to pairs; drop ours and keep reading
     * it borrowed (state outlives every use below). */
    Py_DECREF(pairs);

    /* Wakeup subscription triples for unknown operands. */
    if (unknown) {
        for (Py_ssize_t i = 0; i < n_ops; i++) {
            PyObject *operand = PyList_GET_ITEM(operands, i);
            PyObject *rc = PyObject_GetAttr(operand, str_ready_cycle);
            if (rc == NULL)
                goto fail;
            int is_unknown = (rc == Py_None);
            Py_DECREF(rc);
            if (!is_unknown)
                continue;
            PyObject *producer = PyObject_GetAttr(operand, str_producer);
            if (producer == NULL)
                goto fail;
            PyObject *waiters = PyObject_GetAttr(producer, str_waiters);
            Py_DECREF(producer);
            if (waiters == NULL)
                goto fail;
            PyObject *idx = PyLong_FromSsize_t(i);
            if (idx == NULL) {
                Py_DECREF(waiters);
                goto fail;
            }
            PyObject *triple = PyTuple_Pack(3, queue, entry, idx);
            Py_DECREF(idx);
            if (triple == NULL) {
                Py_DECREF(waiters);
                goto fail;
            }
            int rc_app = PyList_Append(waiters, triple);
            Py_DECREF(triple);
            Py_DECREF(waiters);
            if (rc_app < 0)
                goto fail;
        }
    }

    /* Unpack up to two (chain, depth) pairs into packed-link columns. */
    int64_t c0 = -1, c1 = -1, dh0 = 0, dh1 = 0;
    Py_ssize_t n_pairs = PySequence_Size(pairs);
    if (n_pairs < 0)
        goto fail;
    for (Py_ssize_t i = 0; i < n_pairs && i < 2; i++) {
        PyObject *pair = PySequence_GetItem(pairs, i);
        if (pair == NULL)
            goto fail;
        PyObject *pchain = PySequence_GetItem(pair, 0);
        if (pchain == NULL) {
            Py_DECREF(pair);
            goto fail;
        }
        int64_t cs, dh;
        if (attr_i64(pchain, str_cslot, &cs) < 0) {
            Py_DECREF(pchain);
            Py_DECREF(pair);
            goto fail;
        }
        Py_DECREF(pchain);
        PyObject *dh_obj = PySequence_GetItem(pair, 1);
        Py_DECREF(pair);
        if (dh_obj == NULL)
            goto fail;
        dh = (int64_t)PyLong_AsLongLong(dh_obj);
        Py_DECREF(dh_obj);
        if (dh == -1 && PyErr_Occurred())
            goto fail;
        if (i == 0) { c0 = cs; dh0 = dh; } else { c1 = cs; dh1 = dh; }
    }
    int64_t own = -1;
    if (chain != Py_None && attr_i64(chain, str_cslot, &own) < 0)
        goto fail;

    int64_t slot = insert_entry_raw(self, entry, seq, target, countdown,
                                    c0, dh0, c1, dh1, own, now);
    if (slot < 0)
        goto fail;
    if (attr_set_i64(state, str_slot, slot) < 0)
        goto fail;

    /* queue._occupancy += 1; stat_dispatched.inc() */
    {
        int64_t occ;
        if (attr_i64(queue, str_occupancy_priv, &occ) < 0
            || attr_set_i64(queue, str_occupancy_priv, occ + 1) < 0)
            goto fail;
    }
    if (counter_inc1(self->adm_stat) < 0)
        goto fail;
    if (target == 0 && !unknown) {
        int64_t when = ready > now + 1 ? ready : now + 1;
        if (hq_push(&self->p0heap, (when << SLOT_BITS) | slot) < 0) {
            PyErr_NoMemory();
            goto fail;
        }
    }

    /* RIT update (the _update_rit twin). */
    PyObject *dest_obj = PyObject_GetAttr(inst, str_dest);
    if (dest_obj == NULL)
        goto fail;
    int64_t dest = 0;
    if (dest_obj != Py_None) {
        dest = (int64_t)PyLong_AsLongLong(dest_obj);
        if (dest == -1 && PyErr_Occurred()) {
            Py_DECREF(dest_obj);
            goto fail;
        }
    }
    Py_DECREF(dest_obj);
    if (dest == 0) {
        Py_DECREF(state);
        return entry;
    }
    PyObject *is_load = PyObject_GetAttr(inst, str_is_load);
    if (is_load == NULL)
        goto fail;
    int truth = PyObject_IsTrue(is_load);
    Py_DECREF(is_load);
    if (truth < 0)
        goto fail;
    int64_t own_latency;
    if (truth)
        own_latency = self->adm_pred_load_lat;
    else if (attr_i64(inst, str_latency, &own_latency) < 0)
        goto fail;

    rentry = plain_new(self->adm_rit_cls);
    if (rentry == NULL)
        goto fail;
    if (PyObject_SetAttr(rentry, str_producer, inst) < 0)
        goto fail;
    if (chain != Py_None) {
        PyObject *hl = PyObject_GetAttr(plan, str_head_latency);
        if (hl == NULL)
            goto fail;
        rc_set = PyObject_SetAttr(rentry, str_dh, hl);
        Py_DECREF(hl);
        if (rc_set < 0
            || PyObject_SetAttr(rentry, str_chain, chain) < 0
            || attr_set_i64(rentry, str_expected_ready, 0) < 0)
            goto fail;
    } else {
        /* Deepest producing pair by strict depth (first wins ties). */
        PyObject *deep_chain = NULL;
        int64_t deep_dh = 0;
        for (Py_ssize_t i = 0; i < n_pairs; i++) {
            PyObject *pair = PySequence_GetItem(pairs, i);
            if (pair == NULL) {
                Py_XDECREF(deep_chain);
                goto fail;
            }
            PyObject *dh_obj = PySequence_GetItem(pair, 1);
            if (dh_obj == NULL) {
                Py_DECREF(pair);
                Py_XDECREF(deep_chain);
                goto fail;
            }
            int64_t dh = (int64_t)PyLong_AsLongLong(dh_obj);
            Py_DECREF(dh_obj);
            if (dh == -1 && PyErr_Occurred()) {
                Py_DECREF(pair);
                Py_XDECREF(deep_chain);
                goto fail;
            }
            if (deep_chain == NULL || dh > deep_dh) {
                PyObject *pchain = PySequence_GetItem(pair, 0);
                if (pchain == NULL) {
                    Py_DECREF(pair);
                    Py_XDECREF(deep_chain);
                    goto fail;
                }
                Py_XSETREF(deep_chain, pchain);
                deep_dh = dh;
            }
            Py_DECREF(pair);
        }
        if (deep_chain != NULL) {
            rc_set = PyObject_SetAttr(rentry, str_chain, deep_chain);
            Py_DECREF(deep_chain);
            if (rc_set < 0
                || attr_set_i64(rentry, str_dh, deep_dh + own_latency) < 0
                || attr_set_i64(rentry, str_expected_ready, 0) < 0)
                goto fail;
        } else {
            int64_t expected = now + 1;
            if (countdown > expected)
                expected = countdown;
            if (PyObject_SetAttr(rentry, str_chain, Py_None) < 0
                || attr_set_i64(rentry, str_dh, 0) < 0
                || attr_set_i64(rentry, str_expected_ready,
                                expected + own_latency) < 0)
                goto fail;
        }
    }
    int64_t thread;
    if (attr_i64(inst, str_thread, &thread) < 0)
        goto fail;
    tmp = PyLong_FromLongLong((long long)(thread * 64 + dest));
    if (tmp == NULL)
        goto fail;
    if (PyDict_SetItem(rit_entries, tmp, rentry) < 0)
        goto fail;
    Py_DECREF(tmp);
    Py_DECREF(rentry);
    Py_DECREF(state);
    return entry;

fail_cd:
    Py_XDECREF(cd_obj);
    Py_XDECREF(pairs);
fail:
    Py_XDECREF(tmp);
    Py_XDECREF(rentry);
    Py_XDECREF(state);
    Py_XDECREF(entry);
    return NULL;
}

static PyObject *
Engine_plan_links(Engine *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* plan_links(rit_entries, inst, now) -> list of packed links
     *
     * The RIT-scan loop of SegmentedIQ._plan, fused: for each
     * IQ-relevant source, classify the producer as exactly-known
     * (countdown int), live chain ((chain, dh) pair), freed chain
     * (member_delay countdown), or expected-ready countdown — same
     * order, same objects as the Python loop. */
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "plan_links expects 3 arguments");
        return NULL;
    }
    PyObject *rit_entries = args[0], *inst = args[1], *now_obj = args[2];
    int64_t now = (int64_t)PyLong_AsLongLong(now_obj);
    if (now == -1 && PyErr_Occurred())
        return NULL;
    PyObject *links = NULL, *srcs = NULL;

    srcs = PyObject_GetAttr(inst, str_srcs);
    if (srcs == NULL)
        goto fail;
    if (!PyTuple_CheckExact(srcs)) {
        PyErr_SetString(PyExc_TypeError, "plan_links: srcs must be a tuple");
        goto fail;
    }
    PyObject *is_mem_obj = PyObject_GetAttr(inst, str_is_mem);
    if (is_mem_obj == NULL)
        goto fail;
    int is_mem = PyObject_IsTrue(is_mem_obj);
    Py_DECREF(is_mem_obj);
    if (is_mem < 0)
        goto fail;
    int64_t thread;
    if (attr_i64(inst, str_thread, &thread) < 0)
        goto fail;
    int64_t reg_base = thread * 64;
    Py_ssize_t n = PyTuple_GET_SIZE(srcs);
    if (is_mem && n > 1)
        n = 1;
    links = PyList_New(0);
    if (links == NULL)
        goto fail;

    for (Py_ssize_t i = 0; i < n; i++) {
        long regv = PyLong_AsLong(PyTuple_GET_ITEM(srcs, i));
        if (regv == -1 && PyErr_Occurred())
            goto fail;
        if (regv == 0)
            continue;
        PyObject *key = PyLong_FromLongLong(reg_base + regv);
        if (key == NULL)
            goto fail;
        PyObject *rentry = PyDict_GetItemWithError(rit_entries, key);
        Py_DECREF(key);
        if (rentry == NULL) {
            if (PyErr_Occurred())
                goto fail;
            continue;
        }
        PyObject *producer = PyObject_GetAttr(rentry, str_producer);
        if (producer == NULL)
            goto fail;
        PyObject *ready = PyObject_GetAttr(producer, str_value_ready_cycle);
        Py_DECREF(producer);
        if (ready == NULL)
            goto fail;
        if (ready != Py_None) {
            /* Exact knowledge: the producer already issued/completed. */
            int64_t readyv = (int64_t)PyLong_AsLongLong(ready);
            if (readyv == -1 && PyErr_Occurred()) {
                Py_DECREF(ready);
                goto fail;
            }
            int rc = 0;
            if (readyv > now)
                rc = PyList_Append(links, ready);
            Py_DECREF(ready);
            if (rc < 0)
                goto fail;
            continue;
        }
        Py_DECREF(ready);
        PyObject *rchain = PyObject_GetAttr(rentry, str_chain);
        if (rchain == NULL)
            goto fail;
        if (rchain != Py_None) {
            PyObject *freed = PyObject_GetAttr(rchain, str_freed);
            if (freed == NULL) {
                Py_DECREF(rchain);
                goto fail;
            }
            int is_freed = PyObject_IsTrue(freed);
            Py_DECREF(freed);
            if (is_freed < 0) {
                Py_DECREF(rchain);
                goto fail;
            }
            PyObject *dh = PyObject_GetAttr(rentry, str_dh);
            if (dh == NULL) {
                Py_DECREF(rchain);
                goto fail;
            }
            if (!is_freed) {
                PyObject *pair = PyTuple_New(2);
                if (pair == NULL) {
                    Py_DECREF(dh);
                    Py_DECREF(rchain);
                    goto fail;
                }
                PyTuple_SET_ITEM(pair, 0, rchain);   /* steals refs */
                PyTuple_SET_ITEM(pair, 1, dh);
                int rc = PyList_Append(links, pair);
                Py_DECREF(pair);
                if (rc < 0)
                    goto fail;
            } else {
                /* Chain wire freed: value trails the written-back head
                 * by at most dh self-timed cycles (Chain.member_delay
                 * over the chain's columns). */
                int64_t cs;
                int rc_cs = attr_i64(rchain, str_cslot, &cs);
                Py_DECREF(rchain);
                if (rc_cs < 0) {
                    Py_DECREF(dh);
                    goto fail;
                }
                int64_t dhv = (int64_t)PyLong_AsLongLong(dh);
                Py_DECREF(dh);
                if (dhv == -1 && PyErr_Occurred())
                    goto fail;
                if (cs < 0 || cs >= self->c_len) {
                    PyErr_SetString(PyExc_IndexError,
                                    "plan_links: chain cslot out of range");
                    goto fail;
                }
                int64_t mode = self->c_mode[cs], base = self->c_base[cs];
                int64_t mdv;
                if (mode == 0)
                    mdv = base + dhv;
                else {
                    mdv = mode == 1 ? base + dhv - now : dhv - base;
                    if (mdv < 0)
                        mdv = 0;
                }
                PyObject *val = PyLong_FromLongLong(now + mdv);
                if (val == NULL)
                    goto fail;
                int rc = PyList_Append(links, val);
                Py_DECREF(val);
                if (rc < 0)
                    goto fail;
            }
            continue;
        }
        Py_DECREF(rchain);
        int64_t expected;
        if (attr_i64(rentry, str_expected_ready, &expected) < 0)
            goto fail;
        if (expected > now) {
            PyObject *val = PyLong_FromLongLong(expected);
            if (val == NULL)
                goto fail;
            int rc = PyList_Append(links, val);
            Py_DECREF(val);
            if (rc < 0)
                goto fail;
        }
    }
    Py_DECREF(srcs);
    return links;
fail:
    Py_XDECREF(srcs);
    Py_XDECREF(links);
    return NULL;
}

static PyObject *
Engine_free_entry(Engine *self, PyObject *arg)
{
    long long slot = PyLong_AsLongLong(arg);
    if (slot == -1 && PyErr_Occurred())
        return NULL;
    int64_t seg = self->e_seg[slot];
    members_remove(self, seg, (int64_t)slot);
    self->occ[seg]--;
    self->e_seq[slot] = -1;
    Py_CLEAR(self->e_obj[slot]);
    if (iv_push(&self->free_slots, (int64_t)slot) < 0)
        return PyErr_NoMemory();
    Py_RETURN_NONE;
}

static PyObject *
Engine_detach(Engine *self, PyObject *arg)
{
    long long slot = PyLong_AsLongLong(arg);
    if (slot == -1 && PyErr_Occurred())
        return NULL;
    int64_t seg = self->e_seg[slot];
    members_remove(self, seg, (int64_t)slot);
    self->occ[seg]--;
    Py_RETURN_NONE;
}

static PyObject *
Engine_attach(Engine *self, PyObject *args)
{
    long long slot, seg, now;
    if (!PyArg_ParseTuple(args, "LLL", &slot, &seg, &now))
        return NULL;
    self->e_seg[slot] = (int64_t)seg;
    members_append(self, (int64_t)seg, (int64_t)slot);
    self->occ[seg]++;
    if (seg > 0 && schedule_slot(self, (int64_t)slot, (int64_t)seg,
                                 (int64_t)now) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_entry_obj(Engine *self, PyObject *arg)
{
    long long slot = PyLong_AsLongLong(arg);
    if (slot == -1 && PyErr_Occurred())
        return NULL;
    PyObject *obj = self->e_obj[slot];
    if (obj == NULL)
        Py_RETURN_NONE;
    Py_INCREF(obj);
    return obj;
}

static PyObject *
Engine_seg_of(Engine *self, PyObject *arg)
{
    return column_read(self->e_seg, self->e_len, arg);
}

static PyObject *
Engine_slot_seq(Engine *self, PyObject *arg)
{
    long long slot = PyLong_AsLongLong(arg);
    if (slot == -1 && PyErr_Occurred())
        return NULL;
    return PyLong_FromLongLong((long long)self->e_seq[slot]);
}

/* ---------------------------------------------------- segment-0 issue -- */

static PyObject *
Engine_p0_push(Engine *self, PyObject *args)
{
    long long slot, when;
    if (!PyArg_ParseTuple(args, "LL", &slot, &when))
        return NULL;
    if (hq_push(&self->p0heap, ((int64_t)when << SLOT_BITS) | slot) < 0)
        return PyErr_NoMemory();
    Py_RETURN_NONE;
}

static PyObject *
Engine_p0_next(Engine *self, PyObject *arg)
{
    long long now = PyLong_AsLongLong(arg);
    if (now == -1 && PyErr_Occurred())
        return NULL;
    if (self->r0heap.len)
        return PyLong_FromLongLong(now);
    if (self->p0heap.len)
        return PyLong_FromLongLong(
            (long long)(self->p0heap.data[0] >> SLOT_BITS));
    return PyLong_FromLongLong((long long)KNEVER);
}

static PyObject *
Engine_issue_select(Engine *self, PyObject *args)
{
    long long now_ll, width_ll;
    PyObject *fu, *acquire;
    if (!PyArg_ParseTuple(args, "LLOO", &now_ll, &width_ll, &fu,
                          &acquire))
        return NULL;
    int64_t now = (int64_t)now_ll;
    Py_ssize_t width = (Py_ssize_t)width_ll;
    i64vec *p0 = &self->p0heap;
    i64vec *r0 = &self->r0heap;
    int64_t *e_seq = self->e_seq;
    int64_t *e_seg = self->e_seg;
    int64_t bound = (now + 1) << SLOT_BITS;
    while (p0->len && p0->data[0] < bound) {
        int64_t slot = hq_pop(p0) & SLOT_MASK;
        if (e_seg[slot] == 0 && e_seq[slot] >= 0
            && hq_push(r0, (e_seq[slot] << SLOT_BITS) | slot) < 0)
            return PyErr_NoMemory();
    }
    Py_ssize_t count = r0->len;
    PyObject *issued = PyList_New(0);
    if (issued == NULL)
        return NULL;
    i64vec *blocked = &self->scratch;
    blocked->len = 0;
    while (r0->len && PyList_GET_SIZE(issued) < width) {
        int64_t key = hq_pop(r0);
        int64_t slot = key & SLOT_MASK;
        if (e_seq[slot] != key >> SLOT_BITS || e_seg[slot] != 0)
            continue;           /* issued already or recycled */
        PyObject *entry = self->e_obj[slot];
        int ok = issue_try_acquire(fu, acquire, entry, now);
        if (ok < 0)
            goto fail;
        if (ok) {
            if (PyList_Append(issued, entry) < 0)
                goto fail;
            /* free_entry, inlined */
            members_remove(self, 0, slot);
            self->occ[0]--;
            e_seq[slot] = -1;
            Py_CLEAR(self->e_obj[slot]);
            if (iv_push(&self->free_slots, slot) < 0) {
                PyErr_NoMemory();
                goto fail;
            }
        }
        else if (iv_push(blocked, key) < 0) {
            PyErr_NoMemory();
            goto fail;
        }
    }
    for (Py_ssize_t i = 0; i < blocked->len; i++) {
        if (hq_push(r0, blocked->data[i]) < 0) {
            PyErr_NoMemory();
            goto fail;
        }
    }
    {
        PyObject *cnt = PyLong_FromSsize_t(count);
        if (cnt == NULL)
            goto fail;
        PyObject *result = PyTuple_New(2);
        if (result == NULL) {
            Py_DECREF(cnt);
            goto fail;
        }
        PyTuple_SET_ITEM(result, 0, cnt);
        PyTuple_SET_ITEM(result, 1, issued);
        return result;
    }
fail:
    Py_DECREF(issued);
    return NULL;
}

/* ------------------------------------------------------- scheduling -- */

static PyObject *
Engine_notify(Engine *self, PyObject *arg)
{
    long long cslot = PyLong_AsLongLong(arg);
    if (cslot == -1 && PyErr_Occurred())
        return NULL;
    if (notify_chain(self, (int64_t)cslot) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_pop_eligible(Engine *self, PyObject *args)
{
    long long seg, now, limit;
    if (!PyArg_ParseTuple(args, "LLL", &seg, &now, &limit))
        return NULL;
    if (pop_eligible_raw(self, (int64_t)seg, (int64_t)now,
                         (int64_t)limit, &self->scratch) < 0)
        return PyErr_NoMemory();
    PyObject *out = PyList_New(self->scratch.len);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->scratch.len; i++) {
        PyObject *num = PyLong_FromLongLong(
            (long long)self->scratch.data[i]);
        if (num == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, num);
    }
    return out;
}

static PyObject *
Engine_oldest_ineligible(Engine *self, PyObject *args)
{
    long long seg, now, count;
    if (!PyArg_ParseTuple(args, "LLL", &seg, &now, &count))
        return NULL;
    if (oldest_ineligible_raw(self, (int64_t)seg, (int64_t)now,
                              (int64_t)count, &self->scratch) < 0)
        return PyErr_NoMemory();
    PyObject *out = PyList_New(self->scratch.len);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->scratch.len; i++) {
        PyObject *num = PyLong_FromLongLong(
            (long long)self->scratch.data[i]);
        if (num == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, num);
    }
    return out;
}

/* --------------------------------------------------------- promotion -- */

static PyObject *
Engine_promote_all(Engine *self, PyObject *args)
{
    long long now_ll, width_ll;
    int enable_pushdown;
    if (!PyArg_ParseTuple(args, "LLp", &now_ll, &width_ll,
                          &enable_pushdown))
        return NULL;
    int64_t now = (int64_t)now_ll, width = (int64_t)width_ll;
    int64_t cap = self->cap;
    int64_t *occ = self->occ;
    int64_t *free_prev = self->free_prev;
    int64_t *thr = self->thr;
    int64_t *e_seg = self->e_seg;
    int64_t *e_seq = self->e_seq;
    int64_t *e_elig = self->e_elig;
    int64_t *e_rseg = self->e_rseg;
    int64_t *e_own = self->e_own;
    int64_t *c_mode = self->c_mode;
    int collect = self->collect;
    int64_t promotions = 0;
    int64_t pushdowns = 0;
    PyObject *seg0 = PyList_New(0);
    if (seg0 == NULL)
        return NULL;
    for (Py_ssize_t k = 1; k < self->num_segments; k++) {
        if (!occ[k])
            continue;       /* empty source: nothing to promote or push */
        Py_ssize_t dk = k - 1;
        int64_t capacity = width;
        if (free_prev[dk] < capacity)
            capacity = free_prev[dk];
        if (cap - occ[dk] < capacity)
            capacity = cap - occ[dk];
        if (capacity <= 0)
            continue;
        i64vec *heap = &self->heaps[k];
        Py_ssize_t promoted_cnt = 0;
        if (self->readys[k].len
            || (heap->len && heap->data[0] >> SLOT_BITS <= now)) {
            if (pop_eligible_raw(self, (int64_t)k, now, capacity,
                                 &self->scratch) < 0)
                goto fail;
            promoted_cnt = self->scratch.len;
        }
        if (promoted_cnt) {
            promotions += promoted_cnt;
            if (dk) {
                int64_t threshold = thr[dk];
                for (Py_ssize_t i = 0; i < promoted_cnt; i++) {
                    int64_t slot = self->scratch.data[i];
                    members_remove(self, (int64_t)k, slot);
                    e_seg[slot] = (int64_t)dk;
                    members_append(self, (int64_t)dk, slot);
                    PyObject *obj = self->e_obj[slot];
                    /* Inlined destination schedule (see kernels.py for
                     * why the ready residency is set unconditionally). */
                    int64_t when = eligible_when(self, slot, threshold,
                                                 now);
                    e_elig[slot] = when;
                    if (when <= now) {
                        e_rseg[slot] = (int64_t)dk;
                        if (hq_push(&self->readys[dk],
                                    (e_seq[slot] << SLOT_BITS) | slot) < 0)
                            goto fail;
                    }
                    else if (when < KNEVER) {
                        if (hq_push(&self->heaps[dk],
                                    (when << SLOT_BITS) | slot) < 0)
                            goto fail;
                    }
                    if (collect) {
                        PyObject *ev = Py_BuildValue("(Onni)", obj,
                                                     (Py_ssize_t)k, dk, 0);
                        if (ev == NULL
                            || PyList_Append(self->events, ev) < 0) {
                            Py_XDECREF(ev);
                            goto fail;
                        }
                        Py_DECREF(ev);
                    }
                    int64_t own = e_own[slot];
                    if (own >= 0 && c_mode[own] == 0
                        && own_chain_promoted(self, own, (int64_t)dk) < 0)
                        goto fail;
                }
            }
            else {
                for (Py_ssize_t i = 0; i < promoted_cnt; i++) {
                    int64_t slot = self->scratch.data[i];
                    members_remove(self, (int64_t)k, slot);
                    e_seg[slot] = 0;
                    members_append(self, 0, slot);
                    PyObject *obj = self->e_obj[slot];
                    if (collect) {
                        PyObject *ev = Py_BuildValue("(Onii)", obj,
                                                     (Py_ssize_t)k, 0, 0);
                        if (ev == NULL
                            || PyList_Append(self->events, ev) < 0) {
                            Py_XDECREF(ev);
                            goto fail;
                        }
                        Py_DECREF(ev);
                    }
                    int64_t own = e_own[slot];
                    if (own >= 0 && c_mode[own] == 0
                        && own_chain_promoted(self, own, 0) < 0)
                        goto fail;
                    if (PyList_Append(seg0, obj) < 0)
                        goto fail;
                }
            }
            occ[k] -= promoted_cnt;
            occ[dk] += promoted_cnt;
        }
        /* Pushdown (4.1); 2*free > 3*width is free > 1.5*width. */
        if (enable_pushdown
            && promoted_cnt < capacity
            && cap - occ[k] < width
            && 2 * free_prev[dk] > 3 * width) {
            int64_t room = capacity - promoted_cnt;
            if (room > width)
                room = width;
            if (oldest_ineligible_raw(self, (int64_t)k, now, room,
                                      &self->scratch) < 0)
                goto fail;
            for (Py_ssize_t i = 0; i < self->scratch.len; i++) {
                if (cap - occ[dk] <= 0)
                    break;
                int64_t slot = self->scratch.data[i];
                members_remove(self, (int64_t)k, slot);
                occ[k]--;
                e_seg[slot] = (int64_t)dk;
                members_append(self, (int64_t)dk, slot);
                occ[dk]++;
                PyObject *obj = self->e_obj[slot];
                pushdowns++;
                if (dk && schedule_slot(self, slot, (int64_t)dk, now) < 0)
                    goto fail;
                if (collect) {
                    PyObject *ev = Py_BuildValue("(Onni)", obj,
                                                 (Py_ssize_t)k, dk, 1);
                    if (ev == NULL
                        || PyList_Append(self->events, ev) < 0) {
                        Py_XDECREF(ev);
                        goto fail;
                    }
                    Py_DECREF(ev);
                }
                int64_t own = e_own[slot];
                if (own >= 0 && c_mode[own] == 0
                    && own_chain_promoted(self, own, (int64_t)dk) < 0)
                    goto fail;
                if (dk == 0 && PyList_Append(seg0, obj) < 0)
                    goto fail;
            }
        }
    }
    {
        PyObject *result = PyTuple_New(3);
        PyObject *p = PyLong_FromLongLong((long long)promotions);
        PyObject *q = PyLong_FromLongLong((long long)pushdowns);
        if (result == NULL || p == NULL || q == NULL) {
            Py_XDECREF(result);
            Py_XDECREF(p);
            Py_XDECREF(q);
            goto fail;
        }
        PyTuple_SET_ITEM(result, 0, p);
        PyTuple_SET_ITEM(result, 1, q);
        PyTuple_SET_ITEM(result, 2, seg0);
        return result;
    }
fail:
    Py_DECREF(seg0);
    return NULL;
}

static PyObject *
Engine_next_promote_cycle(Engine *self, PyObject *args)
{
    long long now_ll, width_ll;
    int enable_pushdown;
    if (!PyArg_ParseTuple(args, "LLp", &now_ll, &width_ll,
                          &enable_pushdown))
        return NULL;
    int64_t now = (int64_t)now_ll, width = (int64_t)width_ll;
    int64_t cap = self->cap;
    int64_t *occ = self->occ;
    int64_t *free_prev = self->free_prev;
    int64_t wake = KNEVER;
    for (Py_ssize_t k = 1; k < self->num_segments; k++) {
        if (!occ[k])
            continue;
        Py_ssize_t dk = k - 1;
        int64_t capacity = width;
        if (free_prev[dk] < capacity)
            capacity = free_prev[dk];
        if (cap - occ[dk] < capacity)
            capacity = cap - occ[dk];
        if (capacity <= 0)
            continue;
        int64_t when = next_eligible_cycle_raw(self, (int64_t)k, now);
        if (when <= now)
            return PyLong_FromLongLong((long long)now);
        if (when < wake)
            wake = when;
        if (enable_pushdown
            && cap - occ[k] < width
            && 2 * free_prev[dk] > 3 * width)
            return PyLong_FromLongLong((long long)now);
    }
    return PyLong_FromLongLong((long long)wake);
}

/* ---------------------------------------------------------- dispatch -- */

static PyObject *
Engine_dispatch_target(Engine *self, PyObject *args)
{
    Py_ssize_t active_count;
    int enable_bypass;
    if (!PyArg_ParseTuple(args, "np", &active_count, &enable_bypass))
        return NULL;
    int64_t *occ = self->occ;
    int64_t cap = self->cap;
    if (!enable_bypass) {
        Py_ssize_t top = active_count - 1;
        if (occ[top] >= cap)
            return PyLong_FromLong(-1);
        return PyLong_FromSsize_t(top);
    }
    Py_ssize_t highest = -1;
    for (Py_ssize_t index = active_count - 1; index >= 0; index--) {
        if (occ[index]) {
            highest = index;
            break;
        }
    }
    if (highest < 0)
        return PyLong_FromLong(0);
    if (occ[highest] < cap)
        return PyLong_FromSsize_t(highest);
    if (highest + 1 < active_count)
        return PyLong_FromSsize_t(highest + 1);
    return PyLong_FromLong(-1);
}

/* ------------------------------------------------------------- misc -- */

static PyObject *
Engine_refresh_free_prev(Engine *self, PyObject *Py_UNUSED(ignored))
{
    int64_t cap = self->cap;
    for (Py_ssize_t i = 0; i < self->num_segments; i++)
        self->free_prev[i] = cap - self->occ[i];
    Py_RETURN_NONE;
}

static PyObject *
Engine_reschedule_all(Engine *self, PyObject *arg)
{
    long long now = PyLong_AsLongLong(arg);
    if (now == -1 && PyErr_Occurred())
        return NULL;
    for (Py_ssize_t seg = 1; seg < self->num_segments; seg++) {
        for (int64_t slot = self->seg_head[seg]; slot >= 0;
             slot = self->m_next[slot]) {
            if (schedule_slot(self, slot, (int64_t)seg,
                              (int64_t)now) < 0)
                return NULL;
        }
    }
    Py_RETURN_NONE;
}

static PyObject *
Engine_seg_occ(Engine *self, PyObject *arg)
{
    Py_ssize_t seg = PyNumber_AsSsize_t(arg, PyExc_IndexError);
    if (seg == -1 && PyErr_Occurred())
        return NULL;
    return PyLong_FromLongLong((long long)self->occ[seg]);
}

static PyObject *
Engine_occupancies(Engine *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New(self->num_segments);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->num_segments; i++) {
        PyObject *num = PyLong_FromLongLong((long long)self->occ[i]);
        if (num == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, num);
    }
    return out;
}

static PyObject *
Engine_slots_of(Engine *self, PyObject *arg)
{
    Py_ssize_t seg = PyNumber_AsSsize_t(arg, PyExc_IndexError);
    if (seg == -1 && PyErr_Occurred())
        return NULL;
    PyObject *out = PyList_New(0);
    if (out == NULL)
        return NULL;
    for (int64_t slot = self->seg_head[seg]; slot >= 0;
         slot = self->m_next[slot]) {
        PyObject *num = PyLong_FromLongLong((long long)slot);
        if (num == NULL || PyList_Append(out, num) < 0) {
            Py_XDECREF(num);
            Py_DECREF(out);
            return NULL;
        }
        Py_DECREF(num);
    }
    return out;
}

static PyObject *
Engine_entries_of(Engine *self, PyObject *arg)
{
    Py_ssize_t seg = PyNumber_AsSsize_t(arg, PyExc_IndexError);
    if (seg == -1 && PyErr_Occurred())
        return NULL;
    PyObject *out = PyList_New(0);
    if (out == NULL)
        return NULL;
    for (int64_t slot = self->seg_head[seg]; slot >= 0;
         slot = self->m_next[slot]) {
        if (PyList_Append(out, self->e_obj[slot]) < 0) {
            Py_DECREF(out);
            return NULL;
        }
    }
    return out;
}

static PyObject *
Engine_min_seq_slot(Engine *self, PyObject *arg)
{
    Py_ssize_t seg = PyNumber_AsSsize_t(arg, PyExc_IndexError);
    if (seg == -1 && PyErr_Occurred())
        return NULL;
    int64_t best = -1, best_seq = -1;
    for (int64_t slot = self->seg_head[seg]; slot >= 0;
         slot = self->m_next[slot]) {
        if (best < 0 || self->e_seq[slot] < best_seq) {
            best_seq = self->e_seq[slot];
            best = slot;
        }
    }
    return PyLong_FromLongLong((long long)best);
}

static PyObject *
Engine_max_seq_slot(Engine *self, PyObject *arg)
{
    Py_ssize_t seg = PyNumber_AsSsize_t(arg, PyExc_IndexError);
    if (seg == -1 && PyErr_Occurred())
        return NULL;
    int64_t best = -1, best_seq = -1;
    for (int64_t slot = self->seg_head[seg]; slot >= 0;
         slot = self->m_next[slot]) {
        if (best < 0 || self->e_seq[slot] > best_seq) {
            best_seq = self->e_seq[slot];
            best = slot;
        }
    }
    return PyLong_FromLongLong((long long)best);
}

/* ------------------------------------------------------------------ */

static PyMethodDef Engine_methods[] = {
    {"set_now", (PyCFunction)Engine_set_now, METH_O, NULL},
    {"set_collect", (PyCFunction)Engine_set_collect, METH_O, NULL},
    {"drain_events", (PyCFunction)Engine_drain_events, METH_NOARGS, NULL},
    {"set_threshold", (PyCFunction)Engine_set_threshold, METH_VARARGS,
     NULL},
    {"threshold", (PyCFunction)Engine_threshold, METH_O, NULL},
    {"alloc_chain", (PyCFunction)Engine_alloc_chain, METH_VARARGS, NULL},
    {"chain_set", (PyCFunction)Engine_chain_set, METH_VARARGS, NULL},
    {"mode_of", (PyCFunction)Engine_mode_of, METH_O, NULL},
    {"base_of", (PyCFunction)Engine_base_of, METH_O, NULL},
    {"hseg_of", (PyCFunction)Engine_hseg_of, METH_O, NULL},
    {"insert_entry", (PyCFunction)Engine_insert_entry, METH_VARARGS,
     NULL},
    {"bind_admit", (PyCFunction)Engine_bind_admit, METH_VARARGS, NULL},
    {"admit", (PyCFunction)Engine_admit, METH_FASTCALL, NULL},
    {"plan_links", (PyCFunction)Engine_plan_links, METH_FASTCALL, NULL},
    {"free_entry", (PyCFunction)Engine_free_entry, METH_O, NULL},
    {"detach", (PyCFunction)Engine_detach, METH_O, NULL},
    {"attach", (PyCFunction)Engine_attach, METH_VARARGS, NULL},
    {"entry_obj", (PyCFunction)Engine_entry_obj, METH_O, NULL},
    {"seg_of", (PyCFunction)Engine_seg_of, METH_O, NULL},
    {"slot_seq", (PyCFunction)Engine_slot_seq, METH_O, NULL},
    {"p0_push", (PyCFunction)Engine_p0_push, METH_VARARGS, NULL},
    {"p0_next", (PyCFunction)Engine_p0_next, METH_O, NULL},
    {"issue_select", (PyCFunction)Engine_issue_select, METH_VARARGS,
     NULL},
    {"notify", (PyCFunction)Engine_notify, METH_O, NULL},
    {"pop_eligible", (PyCFunction)Engine_pop_eligible, METH_VARARGS,
     NULL},
    {"oldest_ineligible", (PyCFunction)Engine_oldest_ineligible,
     METH_VARARGS, NULL},
    {"promote_all", (PyCFunction)Engine_promote_all, METH_VARARGS, NULL},
    {"next_promote_cycle", (PyCFunction)Engine_next_promote_cycle,
     METH_VARARGS, NULL},
    {"dispatch_target", (PyCFunction)Engine_dispatch_target,
     METH_VARARGS, NULL},
    {"refresh_free_prev", (PyCFunction)Engine_refresh_free_prev,
     METH_NOARGS, NULL},
    {"reschedule_all", (PyCFunction)Engine_reschedule_all, METH_O, NULL},
    {"seg_occ", (PyCFunction)Engine_seg_occ, METH_O, NULL},
    {"occupancies", (PyCFunction)Engine_occupancies, METH_NOARGS, NULL},
    {"slots_of", (PyCFunction)Engine_slots_of, METH_O, NULL},
    {"entries_of", (PyCFunction)Engine_entries_of, METH_O, NULL},
    {"min_seq_slot", (PyCFunction)Engine_min_seq_slot, METH_O, NULL},
    {"max_seq_slot", (PyCFunction)Engine_max_seq_slot, METH_O, NULL},
    {NULL, NULL, 0, NULL}
};

static PyTypeObject EngineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.segmented._ckernels.Engine",
    .tp_basicsize = sizeof(Engine),
    .tp_itemsize = 0,
    .tp_dealloc = (destructor)Engine_dealloc,
    .tp_flags = (Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE
                 | Py_TPFLAGS_HAVE_GC),
    .tp_doc = "Compiled struct-of-arrays kernel engine (see kernels.py)",
    .tp_traverse = (traverseproc)Engine_traverse,
    .tp_clear = (inquiry)Engine_clear,
    .tp_methods = Engine_methods,
    .tp_init = (initproc)Engine_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* Compiled stat primitives (repro.common.stats transliteration)      */
/*                                                                    */
/* Counter and Distribution are the two per-event stat objects the    */
/* whole machine calls into on its hot paths (hundreds of thousands   */
/* of inc()/sample() calls per run).  Same attribute surface and      */
/* arithmetic as the pure-Python classes: long-long counts, double    */
/* totals (identical IEEE rounding for the integer-valued samples     */
/* the simulator records), int 0 min/max on empty distributions.      */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *name;
    PyObject *desc;
    long long value;
} CounterObj;

static int
Counter_init(CounterObj *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"name", "desc", NULL};
    PyObject *name, *desc = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|O", kwlist,
                                     &name, &desc))
        return -1;
    if (desc == NULL) {
        desc = PyUnicode_FromString("");
        if (desc == NULL)
            return -1;
    }
    else {
        Py_INCREF(desc);
    }
    Py_INCREF(name);
    Py_XSETREF(self->name, name);
    Py_XSETREF(self->desc, desc);
    self->value = 0;
    return 0;
}

static void
Counter_dealloc(CounterObj *self)
{
    Py_XDECREF(self->name);
    Py_XDECREF(self->desc);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Counter_inc(CounterObj *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long amount = 1;
    if (nargs > 1) {
        PyErr_SetString(PyExc_TypeError,
                        "inc() takes at most 1 argument");
        return NULL;
    }
    if (nargs == 1) {
        amount = PyLong_AsLongLong(args[0]);
        if (amount == -1 && PyErr_Occurred())
            return NULL;
    }
    self->value += amount;
    Py_RETURN_NONE;
}

static PyObject *
Counter_reset(CounterObj *self, PyObject *Py_UNUSED(ignored))
{
    self->value = 0;
    Py_RETURN_NONE;
}

static PyObject *
Counter_repr(CounterObj *self)
{
    return PyUnicode_FromFormat("Counter(%U=%lld)",
                                self->name ? self->name : Py_None,
                                self->value);
}

static PyMethodDef Counter_methods[] = {
    {"inc", (PyCFunction)Counter_inc, METH_FASTCALL, NULL},
    {"reset", (PyCFunction)Counter_reset, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL}
};

static PyMemberDef Counter_members[] = {
    {"name", T_OBJECT, offsetof(CounterObj, name), 0, NULL},
    {"desc", T_OBJECT, offsetof(CounterObj, desc), 0, NULL},
    {"value", T_LONGLONG, offsetof(CounterObj, value), 0, NULL},
    {NULL, 0, 0, 0, NULL}
};

static PyTypeObject CounterType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.segmented._ckernels.Counter",
    .tp_basicsize = sizeof(CounterObj),
    .tp_itemsize = 0,
    .tp_dealloc = (destructor)Counter_dealloc,
    .tp_repr = (reprfunc)Counter_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "A monotonically increasing event count (compiled).",
    .tp_methods = Counter_methods,
    .tp_members = Counter_members,
    .tp_init = (initproc)Counter_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* Pipeline engine (repro.pipeline.kernels transliteration)           */
/*                                                                    */
/* Per-(FU class, cluster) next-free heaps with the same heapreplace  */
/* discipline as PyPipelineEngine, plus the fused FU acquisition the  */
/* Engine's issue_select exploits: opcode -> (class, occupancy) keys  */
/* come from a dict shared with FUPool (lazily filled by the Python   */
/* side), and stat counters from this module increment their struct   */
/* field directly instead of bouncing through inc().                  */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    Py_ssize_t n_classes;
    Py_ssize_t clusters;
    Py_ssize_t mem_port;
    i64vec *heaps;              /* n_classes * clusters unit heaps */
    PyObject **issued;          /* one counter per class */
    PyObject *structural;
    PyObject *issue_keys;       /* opcode -> (class index, occupancy) */
} PipelineObj;

static PyTypeObject PipelineType;

static inline int
counter_inc1(PyObject *counter)
{
    if (Py_TYPE(counter) == &CounterType) {
        ((CounterObj *)counter)->value += 1;
        return 0;
    }
    PyObject *result = PyObject_CallMethodNoArgs(counter, str_inc);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

static int
pipeline_accept_raw(PipelineObj *self, Py_ssize_t ci, Py_ssize_t cluster,
                    int64_t occupancy, int64_t now)
{
    /* 1 claimed, 0 busy (structural stall counted), -1 error. */
    i64vec *units = &self->heaps[ci * self->clusters + cluster];
    if (!units->len || units->data[0] > now)
        return counter_inc1(self->structural) < 0 ? -1 : 0;
    units->data[0] = now + occupancy;       /* heapreplace */
    hq_siftup(units->data, 0, units->len);
    return counter_inc1(self->issued[ci]) < 0 ? -1 : 1;
}

static int
issue_try_acquire(PyObject *fu, PyObject *acquire, PyObject *entry,
                  int64_t now)
{
    /* acquire(entry.inst), short-circuited through the pipeline engine
     * when the caller offered one and the opcode's key is known. */
    PyObject *inst = PyObject_GetAttr(entry, str_inst);
    if (inst == NULL)
        return -1;
    if (fu != NULL && Py_TYPE(fu) == &PipelineType) {
        PipelineObj *pl = (PipelineObj *)fu;
        PyObject *st = PyObject_GetAttr(inst, str_static);
        if (st == NULL) {
            Py_DECREF(inst);
            return -1;
        }
        PyObject *opcode = PyObject_GetAttr(st, str_opcode);
        Py_DECREF(st);
        if (opcode == NULL) {
            Py_DECREF(inst);
            return -1;
        }
        PyObject *key = PyDict_GetItemWithError(pl->issue_keys, opcode);
        Py_DECREF(opcode);
        if (key != NULL) {
            long long ci = PyLong_AsLongLong(PyTuple_GET_ITEM(key, 0));
            long long occ = PyLong_AsLongLong(PyTuple_GET_ITEM(key, 1));
            if ((ci == -1 || occ == -1) && PyErr_Occurred()) {
                Py_DECREF(inst);
                return -1;
            }
            if (occ < 0) {
                Py_DECREF(inst);
                return 1;       /* class NONE consumes nothing */
            }
            PyObject *cl = PyObject_GetAttr(inst, str_cluster);
            if (cl == NULL) {
                Py_DECREF(inst);
                return -1;
            }
            long long cluster = PyLong_AsLongLong(cl);
            Py_DECREF(cl);
            if (cluster == -1 && PyErr_Occurred()) {
                Py_DECREF(inst);
                return -1;
            }
            Py_DECREF(inst);
            return pipeline_accept_raw(pl, (Py_ssize_t)ci,
                                       (Py_ssize_t)cluster,
                                       (int64_t)occ, now);
        }
        if (PyErr_Occurred()) {
            Py_DECREF(inst);
            return -1;
        }
        /* Unseen opcode: the Python path resolves and caches the key. */
    }
    PyObject *result = PyObject_CallOneArg(acquire, inst);
    Py_DECREF(inst);
    if (result == NULL)
        return -1;
    int ok = PyObject_IsTrue(result);
    Py_DECREF(result);
    return ok;
}

static int
Pipeline_init(PipelineObj *self, PyObject *args, PyObject *kwds)
{
    Py_ssize_t n_classes, clusters, mem_port;
    PyObject *counts, *issued, *structural, *issue_keys;
    static char *kwlist[] = {"n_classes", "clusters", "counts",
                             "mem_port_index", "issued_counters",
                             "structural_counter", "issue_keys", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "nnOnOOO", kwlist,
                                     &n_classes, &clusters, &counts,
                                     &mem_port, &issued, &structural,
                                     &issue_keys))
        return -1;
    if (!PyDict_Check(issue_keys)) {
        PyErr_SetString(PyExc_TypeError, "issue_keys must be a dict");
        return -1;
    }
    PyObject *counts_fast = PySequence_Fast(counts,
                                            "counts must be a sequence");
    if (counts_fast == NULL)
        return -1;
    PyObject *issued_fast = PySequence_Fast(issued,
                                            "counters must be a sequence");
    if (issued_fast == NULL) {
        Py_DECREF(counts_fast);
        return -1;
    }
    if (PySequence_Fast_GET_SIZE(counts_fast) != n_classes
        || PySequence_Fast_GET_SIZE(issued_fast) != n_classes) {
        Py_DECREF(counts_fast);
        Py_DECREF(issued_fast);
        PyErr_SetString(PyExc_ValueError,
                        "counts/counters length != n_classes");
        return -1;
    }
    self->n_classes = n_classes;
    self->clusters = clusters;
    self->mem_port = mem_port;
    self->heaps = (i64vec *)PyMem_Calloc(
        (size_t)(n_classes * clusters), sizeof(i64vec));
    self->issued = (PyObject **)PyMem_Calloc((size_t)n_classes,
                                             sizeof(PyObject *));
    if (self->heaps == NULL || self->issued == NULL) {
        Py_DECREF(counts_fast);
        Py_DECREF(issued_fast);
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t ci = 0; ci < n_classes; ci++) {
        long long total = PyLong_AsLongLong(
            PySequence_Fast_GET_ITEM(counts_fast, ci));
        if (total == -1 && PyErr_Occurred()) {
            Py_DECREF(counts_fast);
            Py_DECREF(issued_fast);
            return -1;
        }
        Py_ssize_t per = (Py_ssize_t)(total / clusters);
        for (Py_ssize_t cluster = 0; cluster < clusters; cluster++) {
            i64vec *units = &self->heaps[ci * clusters + cluster];
            if (iv_init(units, per > 0 ? per : 1) < 0) {
                Py_DECREF(counts_fast);
                Py_DECREF(issued_fast);
                PyErr_NoMemory();
                return -1;
            }
            memset(units->data, 0, sizeof(int64_t) * (size_t)per);
            units->len = per;
        }
        PyObject *counter = PySequence_Fast_GET_ITEM(issued_fast, ci);
        Py_INCREF(counter);
        self->issued[ci] = counter;
    }
    Py_DECREF(counts_fast);
    Py_DECREF(issued_fast);
    Py_INCREF(structural);
    Py_XSETREF(self->structural, structural);
    Py_INCREF(issue_keys);
    Py_XSETREF(self->issue_keys, issue_keys);
    return 0;
}

static int
Pipeline_traverse(PipelineObj *self, visitproc visit, void *arg)
{
    Py_VISIT(self->structural);
    Py_VISIT(self->issue_keys);
    if (self->issued != NULL)
        for (Py_ssize_t i = 0; i < self->n_classes; i++)
            Py_VISIT(self->issued[i]);
    return 0;
}

static int
Pipeline_clear(PipelineObj *self)
{
    Py_CLEAR(self->structural);
    Py_CLEAR(self->issue_keys);
    if (self->issued != NULL)
        for (Py_ssize_t i = 0; i < self->n_classes; i++)
            Py_CLEAR(self->issued[i]);
    return 0;
}

static void
Pipeline_dealloc(PipelineObj *self)
{
    PyObject_GC_UnTrack(self);
    Pipeline_clear(self);
    if (self->heaps != NULL)
        for (Py_ssize_t i = 0; i < self->n_classes * self->clusters; i++)
            iv_free(&self->heaps[i]);
    PyMem_Free(self->heaps);
    PyMem_Free(self->issued);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Pipeline_fu_accept(PipelineObj *self, PyObject *args)
{
    long long ci, cluster, occupancy, now;
    if (!PyArg_ParseTuple(args, "LLLL", &ci, &cluster, &occupancy, &now))
        return NULL;
    int rc = pipeline_accept_raw(self, (Py_ssize_t)ci,
                                 (Py_ssize_t)cluster,
                                 (int64_t)occupancy, (int64_t)now);
    if (rc < 0)
        return NULL;
    return PyBool_FromLong(rc);
}

static PyObject *
Pipeline_fu_can_accept(PipelineObj *self, PyObject *args)
{
    long long ci, cluster, now;
    if (!PyArg_ParseTuple(args, "LLL", &ci, &cluster, &now))
        return NULL;
    i64vec *units = &self->heaps[ci * self->clusters + cluster];
    return PyBool_FromLong(units->len && units->data[0] <= now);
}

static PyObject *
Pipeline_fu_cache_port(PipelineObj *self, PyObject *arg)
{
    long long now = PyLong_AsLongLong(arg);
    if (now == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t base = self->mem_port * self->clusters;
    for (Py_ssize_t cluster = 0; cluster < self->clusters; cluster++) {
        i64vec *units = &self->heaps[base + cluster];
        if (!units->len || units->data[0] > now) {
            if (counter_inc1(self->structural) < 0)
                return NULL;
            continue;
        }
        units->data[0] = now + 1;           /* heapreplace */
        hq_siftup(units->data, 0, units->len);
        if (counter_inc1(self->issued[self->mem_port]) < 0)
            return NULL;
        Py_RETURN_TRUE;
    }
    Py_RETURN_FALSE;
}

static PyObject *
Pipeline_fu_next_event(PipelineObj *self, PyObject *arg)
{
    long long now = PyLong_AsLongLong(arg);
    if (now == -1 && PyErr_Occurred())
        return NULL;
    int64_t earliest = KNEVER;
    Py_ssize_t total = self->n_classes * self->clusters;
    for (Py_ssize_t i = 0; i < total; i++) {
        i64vec *units = &self->heaps[i];
        if (units->len && now < units->data[0]
            && units->data[0] < earliest)
            earliest = units->data[0];
    }
    return PyLong_FromLongLong((long long)earliest);
}

static PyMethodDef Pipeline_methods[] = {
    {"fu_accept", (PyCFunction)Pipeline_fu_accept, METH_VARARGS, NULL},
    {"fu_can_accept", (PyCFunction)Pipeline_fu_can_accept, METH_VARARGS,
     NULL},
    {"fu_cache_port", (PyCFunction)Pipeline_fu_cache_port, METH_O, NULL},
    {"fu_next_event", (PyCFunction)Pipeline_fu_next_event, METH_O, NULL},
    {NULL, NULL, 0, NULL}
};

static PyMemberDef Pipeline_members[] = {
    {"issue_keys", T_OBJECT, offsetof(PipelineObj, issue_keys), READONLY,
     NULL},
    {NULL, 0, 0, 0, NULL}
};

static PyTypeObject PipelineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.segmented._ckernels.Pipeline",
    .tp_basicsize = sizeof(PipelineObj),
    .tp_itemsize = 0,
    .tp_dealloc = (destructor)Pipeline_dealloc,
    .tp_flags = (Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE
                 | Py_TPFLAGS_HAVE_GC),
    .tp_doc = "Compiled pipeline kernel engine (see pipeline/kernels.py)",
    .tp_traverse = (traverseproc)Pipeline_traverse,
    .tp_clear = (inquiry)Pipeline_clear,
    .tp_methods = Pipeline_methods,
    .tp_members = Pipeline_members,
    .tp_init = (initproc)Pipeline_init,
    .tp_new = PyType_GenericNew,
};

typedef struct {
    PyObject_HEAD
    PyObject *name;
    PyObject *desc;
    long long count;
    double total;
    double minimum;     /* exposed as _minimum, like the Python slots */
    double maximum;     /* exposed as _maximum */
} DistObj;

static void
Dist_do_reset(DistObj *self)
{
    self->count = 0;
    self->total = 0.0;
    self->minimum = Py_HUGE_VAL;
    self->maximum = -Py_HUGE_VAL;
}

static int
Dist_init(DistObj *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"name", "desc", NULL};
    PyObject *name, *desc = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|O", kwlist,
                                     &name, &desc))
        return -1;
    if (desc == NULL) {
        desc = PyUnicode_FromString("");
        if (desc == NULL)
            return -1;
    }
    else {
        Py_INCREF(desc);
    }
    Py_INCREF(name);
    Py_XSETREF(self->name, name);
    Py_XSETREF(self->desc, desc);
    Dist_do_reset(self);
    return 0;
}

static void
Dist_dealloc(DistObj *self)
{
    Py_XDECREF(self->name);
    Py_XDECREF(self->desc);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Dist_reset(DistObj *self, PyObject *Py_UNUSED(ignored))
{
    Dist_do_reset(self);
    Py_RETURN_NONE;
}

static PyObject *
Dist_sample(DistObj *self, PyObject *arg)
{
    double value = PyFloat_AsDouble(arg);
    if (value == -1.0 && PyErr_Occurred())
        return NULL;
    self->count += 1;
    self->total += value;
    if (value < self->minimum)
        self->minimum = value;
    if (value > self->maximum)
        self->maximum = value;
    Py_RETURN_NONE;
}

static PyObject *
Dist_sample_n(DistObj *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "sample_n() takes exactly 2 arguments");
        return NULL;
    }
    double value = PyFloat_AsDouble(args[0]);
    if (value == -1.0 && PyErr_Occurred())
        return NULL;
    long long repeats = PyLong_AsLongLong(args[1]);
    if (repeats == -1 && PyErr_Occurred())
        return NULL;
    if (repeats <= 0)
        Py_RETURN_NONE;
    self->count += repeats;
    self->total += value * (double)repeats;
    if (value < self->minimum)
        self->minimum = value;
    if (value > self->maximum)
        self->maximum = value;
    Py_RETURN_NONE;
}

static PyObject *
Dist_get_minimum(DistObj *self, void *Py_UNUSED(closure))
{
    if (self->count)
        return PyFloat_FromDouble(self->minimum);
    return PyLong_FromLong(0);
}

static PyObject *
Dist_get_maximum(DistObj *self, void *Py_UNUSED(closure))
{
    if (self->count)
        return PyFloat_FromDouble(self->maximum);
    return PyLong_FromLong(0);
}

static PyObject *
Dist_get_mean(DistObj *self, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(
        self->count ? self->total / (double)self->count : 0.0);
}

static PyObject *
Dist_get_peak(DistObj *self, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(self->count ? self->maximum : 0.0);
}

static PyObject *
Dist_repr(DistObj *self)
{
    char meanbuf[64];
    PyOS_snprintf(meanbuf, sizeof(meanbuf), "%.3f",
                  self->count ? self->total / (double)self->count : 0.0);
    PyObject *maxobj = Dist_get_maximum(self, NULL);
    if (maxobj == NULL)
        return NULL;
    PyObject *result = PyUnicode_FromFormat(
        "Distribution(%U: n=%lld, mean=%s, max=%S)",
        self->name ? self->name : Py_None, self->count, meanbuf, maxobj);
    Py_DECREF(maxobj);
    return result;
}

static PyMethodDef Dist_methods[] = {
    {"sample", (PyCFunction)Dist_sample, METH_O, NULL},
    {"sample_n", (PyCFunction)Dist_sample_n, METH_FASTCALL, NULL},
    {"reset", (PyCFunction)Dist_reset, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL}
};

static PyMemberDef Dist_members[] = {
    {"name", T_OBJECT, offsetof(DistObj, name), 0, NULL},
    {"desc", T_OBJECT, offsetof(DistObj, desc), 0, NULL},
    {"count", T_LONGLONG, offsetof(DistObj, count), 0, NULL},
    {"total", T_DOUBLE, offsetof(DistObj, total), 0, NULL},
    {"_minimum", T_DOUBLE, offsetof(DistObj, minimum), 0, NULL},
    {"_maximum", T_DOUBLE, offsetof(DistObj, maximum), 0, NULL},
    {NULL, 0, 0, 0, NULL}
};

static PyGetSetDef Dist_getset[] = {
    {"minimum", (getter)Dist_get_minimum, NULL, NULL, NULL},
    {"maximum", (getter)Dist_get_maximum, NULL, NULL, NULL},
    {"mean", (getter)Dist_get_mean, NULL, NULL, NULL},
    {"peak", (getter)Dist_get_peak, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL}
};

static PyTypeObject DistType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.segmented._ckernels.Distribution",
    .tp_basicsize = sizeof(DistObj),
    .tp_itemsize = 0,
    .tp_dealloc = (destructor)Dist_dealloc,
    .tp_repr = (reprfunc)Dist_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Running count/sum/min/max of samples (compiled).",
    .tp_methods = Dist_methods,
    .tp_members = Dist_members,
    .tp_getset = Dist_getset,
    .tp_init = (initproc)Dist_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* Compiled event queue (repro.common.events transliteration)         */
/*                                                                    */
/* The same (cycle, sequence, callback) min-heap semantics as the     */
/* Python EventQueue — insertion-order-stable for same-cycle events,  */
/* reentrant (callbacks may schedule follow-ups, including for the    */
/* cycle being drained) — over three parallel arrays instead of a     */
/* list of tuples.                                                    */
/* ------------------------------------------------------------------ */

static PyObject *
sim_error(void)
{
    /* repro.common.errors.SimulationError, resolved lazily (the module
     * is fully imported by the time any queue misuse can happen). */
    static PyObject *exc = NULL;
    if (exc == NULL) {
        PyObject *mod = PyImport_ImportModule("repro.common.errors");
        if (mod == NULL)
            return NULL;
        exc = PyObject_GetAttrString(mod, "SimulationError");
        Py_DECREF(mod);
    }
    return exc;
}

typedef struct {
    PyObject_HEAD
    int64_t *when;
    int64_t *seq;
    PyObject **cb;
    Py_ssize_t len;
    Py_ssize_t cap;
    int64_t counter;
    long long now;
} EQObj;

static int
EQ_init(EQObj *self, PyObject *args, PyObject *kwds)
{
    if ((args && PyTuple_GET_SIZE(args)) || (kwds && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "EventQueue() takes no arguments");
        return -1;
    }
    self->len = 0;
    self->counter = 0;
    self->now = 0;
    return 0;
}

static int
eq_grow(EQObj *q, Py_ssize_t need)
{
    Py_ssize_t cap = q->cap ? q->cap : 16;
    while (cap < need)
        cap *= 2;
    int64_t *when = (int64_t *)PyMem_Realloc(
        q->when, sizeof(int64_t) * (size_t)cap);
    if (when == NULL)
        return -1;
    q->when = when;
    int64_t *seq = (int64_t *)PyMem_Realloc(
        q->seq, sizeof(int64_t) * (size_t)cap);
    if (seq == NULL)
        return -1;
    q->seq = seq;
    PyObject **cb = (PyObject **)PyMem_Realloc(
        q->cb, sizeof(PyObject *) * (size_t)cap);
    if (cb == NULL)
        return -1;
    q->cb = cb;
    q->cap = cap;
    return 0;
}

/* heapq sift functions over the (when, seq) pair key; callbacks ride
 * along.  Same record movement as heapq on (cycle, seq, cb) tuples. */
static void
eq_siftdown(EQObj *q, Py_ssize_t startpos, Py_ssize_t pos)
{
    int64_t nw = q->when[pos], ns = q->seq[pos];
    PyObject *ncb = q->cb[pos];
    while (pos > startpos) {
        Py_ssize_t parent = (pos - 1) >> 1;
        int64_t pw = q->when[parent], ps = q->seq[parent];
        if (nw < pw || (nw == pw && ns < ps)) {
            q->when[pos] = pw;
            q->seq[pos] = ps;
            q->cb[pos] = q->cb[parent];
            pos = parent;
            continue;
        }
        break;
    }
    q->when[pos] = nw;
    q->seq[pos] = ns;
    q->cb[pos] = ncb;
}

static void
eq_siftup(EQObj *q, Py_ssize_t pos)
{
    Py_ssize_t endpos = q->len;
    Py_ssize_t startpos = pos;
    int64_t nw = q->when[pos], ns = q->seq[pos];
    PyObject *ncb = q->cb[pos];
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos
                && !(q->when[childpos] < q->when[rightpos]
                     || (q->when[childpos] == q->when[rightpos]
                         && q->seq[childpos] < q->seq[rightpos])))
            childpos = rightpos;
        q->when[pos] = q->when[childpos];
        q->seq[pos] = q->seq[childpos];
        q->cb[pos] = q->cb[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    q->when[pos] = nw;
    q->seq[pos] = ns;
    q->cb[pos] = ncb;
    eq_siftdown(q, startpos, pos);
}

static int
eq_push(EQObj *q, int64_t when, PyObject *callback)
{
    if (q->len >= q->cap && eq_grow(q, q->len + 1) < 0)
        return -1;
    q->when[q->len] = when;
    q->seq[q->len] = q->counter++;
    Py_INCREF(callback);
    q->cb[q->len] = callback;
    q->len++;
    eq_siftdown(q, 0, q->len - 1);
    return 0;
}

static void
EQ_dealloc(EQObj *self)
{
    PyObject_GC_UnTrack(self);
    for (Py_ssize_t i = 0; i < self->len; i++)
        Py_XDECREF(self->cb[i]);
    PyMem_Free(self->when);
    PyMem_Free(self->seq);
    PyMem_Free(self->cb);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
EQ_traverse(EQObj *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->len; i++)
        Py_VISIT(self->cb[i]);
    return 0;
}

static int
EQ_clear(EQObj *self)
{
    Py_ssize_t len = self->len;
    self->len = 0;
    for (Py_ssize_t i = 0; i < len; i++)
        Py_CLEAR(self->cb[i]);
    return 0;
}

static Py_ssize_t
EQ_length(EQObj *self)
{
    return self->len;
}

static PyObject *
EQ_schedule(EQObj *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule() takes exactly 2 arguments");
        return NULL;
    }
    long long delay = PyLong_AsLongLong(args[0]);
    if (delay == -1 && PyErr_Occurred())
        return NULL;
    if (delay < 0) {
        PyObject *exc = sim_error();
        if (exc != NULL)
            PyErr_Format(
                exc, "cannot schedule event in the past (delay=%lld)",
                delay);
        return NULL;
    }
    if (eq_push(self, self->now + delay, args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
EQ_schedule_at(EQObj *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at() takes exactly 2 arguments");
        return NULL;
    }
    long long cycle = PyLong_AsLongLong(args[0]);
    if (cycle == -1 && PyErr_Occurred())
        return NULL;
    if (cycle < self->now) {
        PyObject *exc = sim_error();
        if (exc != NULL)
            PyErr_Format(
                exc, "cannot schedule event at cycle %lld (now=%lld)",
                cycle, self->now);
        return NULL;
    }
    if (eq_push(self, cycle, args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
EQ_advance_to(EQObj *self, PyObject *arg)
{
    long long cycle = PyLong_AsLongLong(arg);
    if (cycle == -1 && PyErr_Occurred())
        return NULL;
    if (cycle < self->now) {
        PyObject *exc = sim_error();
        if (exc != NULL)
            PyErr_Format(exc, "time cannot go backwards (%lld < %lld)",
                         cycle, self->now);
        return NULL;
    }
    while (self->len && self->when[0] <= cycle) {
        int64_t when = self->when[0];
        PyObject *callback = self->cb[0];
        self->len--;
        if (self->len) {
            self->when[0] = self->when[self->len];
            self->seq[0] = self->seq[self->len];
            self->cb[0] = self->cb[self->len];
            eq_siftup(self, 0);
        }
        self->now = when;
        PyObject *result = PyObject_CallNoArgs(callback);
        Py_DECREF(callback);
        if (result == NULL)
            return NULL;
        Py_DECREF(result);
    }
    self->now = cycle;
    Py_RETURN_NONE;
}

static PyObject *
EQ_next_event_cycle(EQObj *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(self->len ? self->when[0] : -1);
}

static PyMethodDef EQ_methods[] = {
    {"schedule", (PyCFunction)EQ_schedule, METH_FASTCALL, NULL},
    {"schedule_at", (PyCFunction)EQ_schedule_at, METH_FASTCALL, NULL},
    {"advance_to", (PyCFunction)EQ_advance_to, METH_O, NULL},
    {"next_event_cycle", (PyCFunction)EQ_next_event_cycle, METH_NOARGS,
     NULL},
    {NULL, NULL, 0, NULL}
};

static PyMemberDef EQ_members[] = {
    {"now", T_LONGLONG, offsetof(EQObj, now), 0, NULL},
    {NULL, 0, 0, 0, NULL}
};

static PySequenceMethods EQ_as_sequence = {
    .sq_length = (lenfunc)EQ_length,
};

static PyTypeObject EQType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.segmented._ckernels.EventQueue",
    .tp_basicsize = sizeof(EQObj),
    .tp_itemsize = 0,
    .tp_dealloc = (destructor)EQ_dealloc,
    .tp_as_sequence = &EQ_as_sequence,
    .tp_flags = (Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE
                 | Py_TPFLAGS_HAVE_GC),
    .tp_doc = "Min-heap of (cycle, sequence, callback) (compiled).",
    .tp_traverse = (traverseproc)EQ_traverse,
    .tp_clear = (inquiry)EQ_clear,
    .tp_methods = EQ_methods,
    .tp_members = EQ_members,
    .tp_init = (initproc)EQ_init,
    .tp_new = PyType_GenericNew,
};

/* ----------------------------------------------- pipeline rename ------ */

static PyObject *
ck_rename_operands(PyObject *Py_UNUSED(mod), PyObject *const *args,
                   Py_ssize_t nargs)
{
    /* rename_operands(operand_cls, last_writer, srcs, limit) -> list
     *
     * The unclustered rename loop of Processor._dispatch, fused: one
     * Operand per IQ-relevant source (``limit`` of them; -1 = all),
     * producer looked up in ``last_writer`` and its value_ready_cycle
     * copied through.  The clustered path (bypass penalties, steering
     * stats) stays in Python. */
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "rename_operands expects 4 arguments");
        return NULL;
    }
    PyObject *cls = args[0], *last_writer = args[1], *srcs = args[2];
    Py_ssize_t limit = PyNumber_AsSsize_t(args[3], PyExc_OverflowError);
    if (limit == -1 && PyErr_Occurred())
        return NULL;
    if (!PyTuple_CheckExact(srcs) || !PyDict_CheckExact(last_writer)) {
        PyErr_SetString(PyExc_TypeError,
                        "rename_operands: srcs tuple / dict expected");
        return NULL;
    }
    Py_ssize_t n = PyTuple_GET_SIZE(srcs);
    if (limit >= 0 && limit < n)
        n = limit;
    PyObject *out = PyList_New(n);
    if (out == NULL)
        return NULL;
    PyTypeObject *tp = (PyTypeObject *)cls;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *reg = PyTuple_GET_ITEM(srcs, i);
        PyObject *producer = NULL;
        /* r0 is hardwired: never renamed. */
        if (PyLong_AsLong(reg) != 0) {
            producer = PyDict_GetItemWithError(last_writer, reg);
            if (producer == NULL && PyErr_Occurred())
                goto fail;
        }
        PyObject *op = tp->tp_alloc(tp, 0);
        if (op == NULL)
            goto fail;
        PyList_SET_ITEM(out, i, op);    /* list owns op from here */
        if (PyObject_SetAttr(op, str_reg, reg) < 0
            || PyObject_SetAttr(op, str_penalty, zero_obj) < 0)
            goto fail;
        if (producer == NULL) {
            if (PyObject_SetAttr(op, str_producer, Py_None) < 0
                || PyObject_SetAttr(op, str_ready_cycle, zero_obj) < 0)
                goto fail;
        } else {
            PyObject *ready = PyObject_GetAttr(producer,
                                               str_value_ready_cycle);
            if (ready == NULL)
                goto fail;
            int rc = (PyObject_SetAttr(op, str_producer, producer) < 0
                      || PyObject_SetAttr(op, str_ready_cycle, ready) < 0);
            Py_DECREF(ready);
            if (rc)
                goto fail;
        }
    }
    return out;
fail:
    Py_DECREF(out);
    return NULL;
}

static PyMethodDef ckernels_functions[] = {
    {"rename_operands", (PyCFunction)ck_rename_operands, METH_FASTCALL,
     NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ckernels_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.core.segmented._ckernels",
    .m_doc = "Compiled kernel backend for the segmented IQ.",
    .m_size = -1,
    .m_methods = ckernels_functions,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    str_inst = PyUnicode_InternFromString("inst");
    str_static = PyUnicode_InternFromString("static");
    str_opcode = PyUnicode_InternFromString("opcode");
    str_cluster = PyUnicode_InternFromString("cluster");
    str_inc = PyUnicode_InternFromString("inc");
    if (!str_inst
        || !str_static || !str_opcode || !str_cluster || !str_inc)
        return NULL;
    str_seq = PyUnicode_InternFromString("seq");
    str_operands = PyUnicode_InternFromString("operands");
    str_issued = PyUnicode_InternFromString("issued");
    str_chain_state = PyUnicode_InternFromString("chain_state");
    str_queue_cycle = PyUnicode_InternFromString("queue_cycle");
    str_unknown_count = PyUnicode_InternFromString("unknown_count");
    str_ready_cycle = PyUnicode_InternFromString("ready_cycle");
    str_links_priv = PyUnicode_InternFromString("_links");
    str_own_chain = PyUnicode_InternFromString("own_chain");
    str_lrp_choice = PyUnicode_InternFromString("lrp_choice");
    str_lrp_consulted = PyUnicode_InternFromString("lrp_consulted");
    str_slot = PyUnicode_InternFromString("slot");
    str_countdown_ready = PyUnicode_InternFromString("countdown_ready");
    str_chain_pairs = PyUnicode_InternFromString("chain_pairs");
    str_cslot = PyUnicode_InternFromString("cslot");
    str_producer = PyUnicode_InternFromString("producer");
    str_waiters = PyUnicode_InternFromString("waiters");
    str_dest = PyUnicode_InternFromString("dest");
    str_thread = PyUnicode_InternFromString("thread");
    str_is_load = PyUnicode_InternFromString("is_load");
    str_latency = PyUnicode_InternFromString("latency");
    str_head_latency = PyUnicode_InternFromString("head_latency");
    str_chain = PyUnicode_InternFromString("chain");
    str_dh = PyUnicode_InternFromString("dh");
    str_expected_ready = PyUnicode_InternFromString("expected_ready");
    str_occupancy_priv = PyUnicode_InternFromString("_occupancy");
    str_reg = PyUnicode_InternFromString("reg");
    str_penalty = PyUnicode_InternFromString("penalty");
    str_value_ready_cycle = PyUnicode_InternFromString("value_ready_cycle");
    str_srcs = PyUnicode_InternFromString("srcs");
    str_is_mem = PyUnicode_InternFromString("is_mem");
    str_freed = PyUnicode_InternFromString("freed");
    zero_obj = PyLong_FromLong(0);
    if (!str_seq || !str_operands || !str_issued || !str_chain_state
        || !str_queue_cycle || !str_unknown_count || !str_ready_cycle
        || !str_links_priv || !str_own_chain
        || !str_lrp_choice || !str_lrp_consulted
        || !str_slot || !str_countdown_ready
        || !str_chain_pairs || !str_cslot || !str_producer
        || !str_waiters || !str_dest || !str_thread || !str_is_load
        || !str_latency || !str_head_latency || !str_chain || !str_dh
        || !str_expected_ready || !str_occupancy_priv || !str_reg
        || !str_penalty || !str_value_ready_cycle || !str_srcs
        || !str_is_mem || !str_freed || !zero_obj)
        return NULL;
    if (PyType_Ready(&EngineType) < 0)
        return NULL;
    /* The backend tag kernels.backend() reports for engines built here. */
    PyObject *kind = PyUnicode_InternFromString("compiled");
    if (kind == NULL)
        return NULL;
    if (PyDict_SetItemString(EngineType.tp_dict, "kind", kind) < 0) {
        Py_DECREF(kind);
        return NULL;
    }
    Py_DECREF(kind);
    PyObject *module = PyModule_Create(&ckernels_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&EngineType);
    if (PyModule_AddObject(module, "Engine",
                           (PyObject *)&EngineType) < 0) {
        Py_DECREF(&EngineType);
        Py_DECREF(module);
        return NULL;
    }
    if (PyType_Ready(&CounterType) < 0 || PyType_Ready(&DistType) < 0
            || PyType_Ready(&EQType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&CounterType);
    if (PyModule_AddObject(module, "Counter",
                           (PyObject *)&CounterType) < 0) {
        Py_DECREF(&CounterType);
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&DistType);
    if (PyModule_AddObject(module, "Distribution",
                           (PyObject *)&DistType) < 0) {
        Py_DECREF(&DistType);
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&EQType);
    if (PyModule_AddObject(module, "EventQueue",
                           (PyObject *)&EQType) < 0) {
        Py_DECREF(&EQType);
        Py_DECREF(module);
        return NULL;
    }
    if (PyType_Ready(&PipelineType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    if (PyDict_SetItemString(PipelineType.tp_dict, "kind", kind) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&PipelineType);
    if (PyModule_AddObject(module, "Pipeline",
                           (PyObject *)&PipelineType) < 0) {
        Py_DECREF(&PipelineType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
