/* Compiled kernel backend for the segmented IQ (see kernels.py).
 *
 * This is a line-for-line transliteration of kernels.PyKernelEngine into
 * a CPython extension type: the same struct-of-arrays columns, the same
 * packed-integer heaps (the heap routines replicate CPython's heapq
 * sift functions exactly, so even the internal heap layouts match the
 * pure-Python backend).  The columns are the only copy of the segmented
 * IQ's scheduling and chain state: nothing is written back onto entry
 * or chain objects, and chains are not held at all.  Engine has the
 * same public methods as PyKernelEngine, the segmented IQ's policy
 * included (plan, can_dispatch, dispatch, select_issue,
 * on_entry_ready_known, cycle, load_miss, load_complete and writeback,
 * bound once by bind), so SegmentedIQ calls both engines the same way;
 * the *_raw functions are the C twins of its private helpers.  Where
 * PyKernelEngine calls a Chain, ChainManager or predictor method, the C
 * twin runs that method's body inline on the object's own slots (the
 * chain-policy and predictor sections).  Any semantic change must be
 * made in kernels.py
 * first and transliterated here; the conformance suite
 * (tests/core/test_kernels.py) asserts bit-identity between the two
 * backends and tests/core/test_engine_parity.py checks them call for
 * call.
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

#if PY_VERSION_HEX < 0x030D0000
#define PyObject_GetOptionalAttr _PyObject_LookupAttr
#endif

#define KNEVER (1LL << 60)
#define SLOT_BITS 20
#define SLOT_MASK ((1LL << SLOT_BITS) - 1)

static PyObject *str_inst;          /* "inst" */
static PyObject *str_static;        /* "static" */
static PyObject *str_opcode;        /* "opcode" */
static PyObject *str_cluster;       /* "cluster" */
static PyObject *str_inc;           /* "inc" */
/* Attribute names used by the fused dispatch-admission path (admit_raw). */
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
/* Attribute and method names of the dispatch and issue stages, the
 * segmented IQ's dispatch planning and issue post-loop, and the
 * completions the issue stage schedules (interned from STAGE_NAMES at
 * import). */
static PyObject *str_pc, *str_lrp, *str_hmp;
static PyObject *str_blocked_on_chain, *str_active_segments;
static PyObject *str_enable_bypass, *str_full_refusals, *str_now;
static PyObject *str_needs_chain, *str_lsq, *str_frontend, *str_pipeline;
static PyObject *str_violation_flush_until, *str_entries;
static PyObject *str_size, *str_iq, *str_op_class, *str_rob_index;
static PyObject *str_dispatched_cycle, *str_completed_cycle;
static PyObject *str_mispredicted, *str_branch_resolved, *str_popleft;
static PyObject *str_append, *str_order, *str_can_dispatch;
static PyObject *str_stat_full_stalls, *str_dispatch, *str_is_store;
static PyObject *str_select_issue, *str_issued_cycle, *str_is_branch;
static PyObject *str_on_entry_ready_known, *str_source_known;
static PyObject *str_address_ready, *str_events, *str_on_writeback;
static PyObject *str_issue_width, *str_fu_engine;
static PyObject *str_sample, *str_issued_this_cycle;
/* ... and of the segmented IQ's policy: its cycle, the chain and
 * chain-wire pool slots (chains.py), the predictors' (predictors.py)
 * and the trace hook's event kinds. */
static PyObject *str_enable_pushdown, *str_promoted_this_cycle;
static PyObject *str_last_issue_cycle, *str_last_commit_cycle_pub;
static PyObject *str_in_flight, *str_dynamic_resize;
static PyObject *str_adaptive_thresholds, *str_threshold_interval;
static PyObject *str_recover, *str_resize_controller, *str_refit_thresholds;
static PyObject *str_trace_promotions, *str_chain_id, *str_head;
static PyObject *str_suspended_since, *str_suspended_accum, *str_engine;
static PyObject *str_max_chains, *str_next_id, *str_peak_in_use;
static PyObject *str_tracer, *str_trace, *str_chain_create, *str_chain_wire;
static PyObject *str_free, *str_suspend, *str_resume, *str_empty;
static PyObject *str_max_count, *str_confidence, *str_table_size;
static PyObject *str_counters_priv, *str_outstanding, *str_stat_predictions;
static PyObject *str_stat_predicted_hits, *str_stat_correct_hits;
static PyObject *str_stat_wrong_hits, *str_stat_actual_hits;
static PyObject *str_stat_actual_misses, *str_stat_covered_hits;
static PyObject *str_stat_correct, *str_stat_wrong;
/* ... and of the fetch and commit stages. */
static PyObject *str_icache_stalled, *str_waiting_branch, *str_resume_cycle;
static PyObject *str_peeked, *str_stream_done, *str_stream, *str_code_base;
static PyObject *str_line_available, *str_is_control;
static PyObject *str_global_history, *str_predicted_taken;
static PyObject *str_fetched_cycle, *str_is_halt, *str_robs;
static PyObject *str_commit_listeners, *str_halted, *str_committed;
static PyObject *str_last_commit_cycle, *str_committed_cycle, *str_commit;
static PyObject *str_next_pc, *str_mem_addr, *str_taken;
/* ... and of the memory stage. */
static PyObject *str_completed, *str_waiting_loads, *str_addr;
static PyObject *str_word_addr, *str_level, *str_mem_level;
static PyObject *str_refused, *str_refused_version, *str_version;
static PyObject *str_notify_load_miss;
static PyObject *str_notify_load_complete, *str_rotate, *str_extend;
static PyObject *str_addr_ready_cycle, *str_data_ready_cycle;
static PyObject *str_predicted_dep, *str_predicted_store, *str_store_fetched;
static PyObject *str_store_left, *str_detect_violations, *str_remove;
static PyObject *str_data_access;
/* ... and of the cache stage. */
static PyObject *str_line_addr, *str_any_write, *str_fill_level;
static PyObject *str_is_write, *str_on_complete, *str_on_miss;
static PyObject *str_next_free, *str_fill_arrived, *str_access_line;

static const struct { PyObject **slot; const char *name; }
STAGE_NAMES[] = {
    {&str_pc, "pc"}, {&str_lrp, "lrp"}, {&str_hmp, "hmp"},
    {&str_blocked_on_chain, "blocked_on_chain"},
    {&str_active_segments, "active_segments"},
    {&str_enable_bypass, "_enable_bypass"},
    {&str_full_refusals, "_full_refusals"}, {&str_now, "now"},
    {&str_needs_chain, "needs_chain"}, {&str_lsq, "lsq"},
    {&str_frontend, "frontend"}, {&str_pipeline, "_pipeline"},
    {&str_violation_flush_until, "violation_flush_until"},
    {&str_entries, "_entries"}, {&str_size, "size"},
    {&str_iq, "iq"}, {&str_op_class, "op_class"},
    {&str_rob_index, "rob_index"},
    {&str_dispatched_cycle, "dispatched_cycle"},
    {&str_completed_cycle, "completed_cycle"},
    {&str_mispredicted, "mispredicted"},
    {&str_branch_resolved, "branch_resolved"}, {&str_popleft, "popleft"},
    {&str_append, "append"}, {&str_order, "_order"},
    {&str_can_dispatch, "can_dispatch"},
    {&str_stat_full_stalls, "stat_full_stalls"},
    {&str_dispatch, "dispatch"}, {&str_is_store, "is_store"},
    {&str_select_issue, "select_issue"},
    {&str_issued_cycle, "issued_cycle"}, {&str_is_branch, "is_branch"},
    {&str_on_entry_ready_known, "on_entry_ready_known"},
    {&str_source_known, "source_known"},
    {&str_address_ready, "address_ready"}, {&str_events, "events"},
    {&str_on_writeback, "on_writeback"}, {&str_issue_width, "issue_width"},
    {&str_fu_engine, "fu_engine"},
    {&str_sample, "sample"}, {&str_issued_this_cycle, "_issued_this_cycle"},
    {&str_enable_pushdown, "_enable_pushdown"},
    {&str_promoted_this_cycle, "_promoted_this_cycle"},
    {&str_last_issue_cycle, "_last_issue_cycle"},
    {&str_last_commit_cycle_pub, "last_commit_cycle"},
    {&str_in_flight, "in_flight"}, {&str_dynamic_resize, "_dynamic_resize"},
    {&str_adaptive_thresholds, "_adaptive_thresholds"},
    {&str_threshold_interval, "_threshold_update_interval"},
    {&str_recover, "_recover"}, {&str_resize_controller, "_resize_controller"},
    {&str_refit_thresholds, "_refit_thresholds"},
    {&str_trace_promotions, "_trace_promotions"},
    {&str_chain_id, "chain_id"}, {&str_head, "head"},
    {&str_suspended_since, "suspended_since"},
    {&str_suspended_accum, "suspended_accum"}, {&str_engine, "engine"},
    {&str_max_chains, "max_chains"}, {&str_next_id, "_next_id"},
    {&str_peak_in_use, "peak_in_use"}, {&str_tracer, "tracer"},
    {&str_trace, "trace"}, {&str_chain_create, "chain_create"},
    {&str_chain_wire, "chain_wire"}, {&str_free, "free"},
    {&str_suspend, "suspend"}, {&str_resume, "resume"}, {&str_empty, ""},
    {&str_max_count, "max_count"}, {&str_confidence, "confidence"},
    {&str_table_size, "table_size"}, {&str_counters_priv, "_counters"},
    {&str_outstanding, "_outstanding"},
    {&str_stat_predictions, "stat_predictions"},
    {&str_stat_predicted_hits, "stat_predicted_hits"},
    {&str_stat_correct_hits, "stat_correct_hits"},
    {&str_stat_wrong_hits, "stat_wrong_hits"},
    {&str_stat_actual_hits, "stat_actual_hits"},
    {&str_stat_actual_misses, "stat_actual_misses"},
    {&str_stat_covered_hits, "stat_covered_hits"},
    {&str_stat_correct, "stat_correct"}, {&str_stat_wrong, "stat_wrong"},
    {&str_icache_stalled, "_icache_stalled"},
    {&str_waiting_branch, "_waiting_branch"},
    {&str_resume_cycle, "_resume_cycle"}, {&str_peeked, "_peeked"},
    {&str_stream_done, "_stream_done"}, {&str_stream, "_stream"},
    {&str_code_base, "code_base"},
    {&str_line_available, "_line_available"},
    {&str_global_history, "_global_history"},
    {&str_predicted_taken, "predicted_taken"},
    {&str_is_control, "is_control"}, {&str_fetched_cycle, "fetched_cycle"},
    {&str_is_halt, "is_halt"}, {&str_robs, "robs"},
    {&str_commit_listeners, "commit_listeners"}, {&str_halted, "_halted"},
    {&str_committed, "committed"},
    {&str_last_commit_cycle, "_last_commit_cycle"},
    {&str_committed_cycle, "committed_cycle"}, {&str_commit, "commit"},
    {&str_next_pc, "next_pc"}, {&str_mem_addr, "mem_addr"},
    {&str_taken, "taken"},
    {&str_completed, "completed"}, {&str_waiting_loads, "waiting_loads"},
    {&str_addr, "addr"}, {&str_word_addr, "word_addr"},
    {&str_level, "level"}, {&str_mem_level, "mem_level"},
    {&str_refused, "_refused"},
    {&str_refused_version, "_refused_version"}, {&str_version, "version"},
    {&str_notify_load_miss, "notify_load_miss"},
    {&str_notify_load_complete, "notify_load_complete"},
    {&str_rotate, "rotate"}, {&str_extend, "extend"},
    {&str_addr_ready_cycle, "addr_ready_cycle"},
    {&str_data_ready_cycle, "data_ready_cycle"},
    {&str_predicted_dep, "predicted_dep"},
    {&str_predicted_store, "predicted_store"},
    {&str_store_fetched, "store_fetched"}, {&str_store_left, "store_left"},
    {&str_detect_violations, "_detect_violations"},
    {&str_remove, "remove"}, {&str_data_access, "data_access"},
    {&str_line_addr, "line_addr"}, {&str_any_write, "any_write"},
    {&str_fill_level, "fill_level"}, {&str_is_write, "is_write"},
    {&str_on_complete, "on_complete"}, {&str_on_miss, "on_miss"},
    {&str_next_free, "_next_free"}, {&str_fill_arrived, "_fill_arrived"},
    {&str_access_line, "access_line"},
};

/* Fused FU acquisition for Engine.issue_select (defined with the
 * Pipeline engine below; falls back to the Python callable). */
static int issue_try_acquire(PyObject *fu, PyObject *acquire,
                             PyObject *entry, int64_t now);
/* repro.common.errors.SimulationError (defined with the event queue). */
static PyObject *sim_error(void);

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

/* What Engine.bind takes from the segmented IQ, in bind's argument
 * order, by index into Engine.b: the classes the policy ops instantiate;
 * the queue's tables, its chain-wire pool and the pool's own dict and
 * list; the counters and distributions the ops count into; the levels
 * that train the HMP as hits. */
enum {
    B_PLAN_CLS, B_STATE_CLS, B_RIT_CLS, B_ENTRY_CLS, B_CHAIN_CLS,
    B_PLAN_CACHE, B_RIT, B_HEAD_CHAINS, B_CHAINS, B_ACTIVE, B_FREE_IDS,
    B_DISPATCHED, B_TWO_CHAIN, B_BYPASS, B_CHAIN_HEADS, B_ISSUED,
    B_SEG0_READY, B_PROMOTIONS, B_PUSHDOWNS, B_OCCUPANCY, B_ALLOCATED,
    B_ALLOC_FAILURES, B_IN_USE, B_HIT_LEVELS, N_BOUND
};

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
    /* scratch buffers (reused across calls), and the slots a promotion
     * sweep moved into segment 0, in arrival order */
    i64vec scratch, scratch2, arrivals;
    /* policy bindings (bind, see BOUND below): NULL until bound */
    PyObject *b[N_BOUND];
    int64_t pred_load_lat, patience;
    /* (occupancy, segment) decided by the last successful can_dispatch,
     * so the dispatch that follows skips a second search. */
    int tc_valid;
    int64_t tc_occ, tc_target;
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

/* ------------------------------------------------ direct slot access -- */
/* The dispatch and issue paths read and write a few dozen ``__slots__``
 * attributes per instruction (DynInst, Instruction, IQEntry,
 * SegmentState, RITEntry, Chain, DispatchPlan, Operand).  Like the
 * interpreter's specialised slot loads and stores, each access site
 * remembers, for the last type it saw and that type's version tag, the
 * byte offset of the slot.  Any other type, a non-slot attribute, an
 * unset slot, a class changed since or (for stores) a class with its own
 * ``__setattr__``, such as a frozen dataclass, takes the generic
 * attribute protocol, so the result is the same either way. */

typedef struct {
    PyObject **name;            /* interned attribute name */
    PyTypeObject *type;         /* strong reference; NULL: unresolved */
    unsigned int version;       /* type->tp_version_tag when resolved */
    Py_ssize_t offset;          /* slot offset, or -1: generic access */
    int settable;               /* stores may use ``offset`` too */
} slotsite;

static Py_ssize_t
site_offset(slotsite *site, PyObject *obj)
{
    PyTypeObject *tp = Py_TYPE(obj);
    if (tp == site->type && tp->tp_version_tag == site->version
        && (tp->tp_flags & Py_TPFLAGS_VALID_VERSION_TAG))
        return site->offset;
    /* The lookup assigns the type a version tag when it has none. */
    PyObject *descr = _PyType_Lookup(tp, *site->name);
    Py_INCREF(tp);
    Py_XSETREF(site->type, tp);
    site->version = tp->tp_version_tag;
    site->offset = -1;
    site->settable = tp->tp_setattro == PyObject_GenericSetAttr;
    if ((tp->tp_flags & Py_TPFLAGS_VALID_VERSION_TAG)
        && tp->tp_getattro == PyObject_GenericGetAttr
        && descr != NULL && Py_TYPE(descr) == &PyMemberDescr_Type) {
        PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
        if (member->type == T_OBJECT_EX && !(member->flags & READONLY))
            site->offset = member->offset;
    }
    return site->offset;
}

static inline PyObject *
site_get(slotsite *site, PyObject *obj)
{
    /* obj.<name> as a new reference (NULL with an exception). */
    Py_ssize_t offset = site_offset(site, obj);
    if (offset >= 0) {
        PyObject *value = *(PyObject **)((char *)obj + offset);
        if (value != NULL) {
            Py_INCREF(value);
            return value;
        }
    }
    return PyObject_GetAttr(obj, *site->name);
}

static inline int
site_set(slotsite *site, PyObject *obj, PyObject *value)
{
    Py_ssize_t offset = site_offset(site, obj);
    if (offset < 0 || !site->settable)
        return PyObject_SetAttr(obj, *site->name, value);
    PyObject **slot = (PyObject **)((char *)obj + offset);
    PyObject *old = *slot;
    Py_INCREF(value);
    *slot = value;
    Py_XDECREF(old);
    return 0;
}

static inline int
site_set_new(slotsite *site, PyObject *obj, PyObject *value)
{
    /* site_set stealing ``value`` (NULL: its constructor's exception). */
    if (value == NULL)
        return -1;
    int rc = site_set(site, obj, value);
    Py_DECREF(value);
    return rc;
}

static inline int
site_set_i64(slotsite *site, PyObject *obj, int64_t value)
{
    return site_set_new(site, obj, PyLong_FromLongLong((long long)value));
}

static inline int
site_get_i64(slotsite *site, PyObject *obj, int64_t *out)
{
    PyObject *value = site_get(site, obj);
    if (value == NULL)
        return -1;
    long long v = PyLong_AsLongLong(value);
    Py_DECREF(value);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = (int64_t)v;
    return 0;
}

static inline int
site_truth(slotsite *site, PyObject *obj)
{
    PyObject *value = site_get(site, obj);
    if (value == NULL)
        return -1;
    int truth = (value == Py_True) ? 1
                : (value == Py_False) ? 0 : PyObject_IsTrue(value);
    Py_DECREF(value);
    return truth;
}

/* Access sites, by object kind.  DynInst (the dispatched instruction and
 * producers): */
static slotsite at_inst_seq = {&str_seq}, at_inst_pc = {&str_pc},
    at_inst_thread = {&str_thread}, at_inst_srcs = {&str_srcs},
    at_inst_is_mem = {&str_is_mem}, at_inst_is_load = {&str_is_load},
    at_inst_is_store = {&str_is_store}, at_inst_latency = {&str_latency},
    at_inst_dest = {&str_dest}, at_inst_op_class = {&str_op_class},
    at_inst_mispredicted = {&str_mispredicted},
    at_inst_rob_index = {&str_rob_index},
    at_inst_dispatched = {&str_dispatched_cycle},
    at_inst_completed = {&str_completed_cycle},
    at_inst_issued = {&str_issued_cycle},
    at_inst_is_branch = {&str_is_branch},
    at_inst_static = {&str_static}, at_inst_cluster = {&str_cluster},
    at_inst_is_control = {&str_is_control},
    at_inst_fetched = {&str_fetched_cycle},
    at_inst_committed = {&str_committed_cycle},
    at_prod_ready = {&str_value_ready_cycle},
    at_prod_waiters = {&str_waiters}, at_inst_mem_level = {&str_mem_level};
/* LSQEntry: */
static slotsite at_lsq_inst = {&str_inst}, at_lsq_seq = {&str_seq},
    at_lsq_issued = {&str_issued}, at_lsq_completed = {&str_completed},
    at_lsq_waiting = {&str_waiting_loads}, at_lsq_addr = {&str_addr},
    at_lsq_word = {&str_word_addr}, at_lsq_level = {&str_level};
/* RITEntry, Chain, Operand: */
static slotsite at_rit_producer = {&str_producer}, at_rit_chain = {&str_chain},
    at_rit_dh = {&str_dh}, at_rit_expected = {&str_expected_ready},
    at_chain_freed = {&str_freed}, at_chain_cslot = {&str_cslot},
    at_op_reg = {&str_reg}, at_op_producer = {&str_producer},
    at_op_ready = {&str_ready_cycle}, at_op_penalty = {&str_penalty};
/* IQEntry and SegmentState (written by admit_raw): */
static slotsite at_iqe_inst = {&str_inst}, at_iqe_seq = {&str_seq},
    at_iqe_operands = {&str_operands}, at_iqe_issued = {&str_issued},
    at_iqe_queue_cycle = {&str_queue_cycle},
    at_iqe_unknown = {&str_unknown_count}, at_iqe_ready = {&str_ready_cycle},
    at_iqe_state = {&str_chain_state}, at_ss_links = {&str_links_priv},
    at_ss_own = {&str_own_chain}, at_ss_lrp_choice = {&str_lrp_choice},
    at_ss_lrp_consulted = {&str_lrp_consulted},
    at_ss_countdown = {&str_countdown_ready},
    at_ss_pairs = {&str_chain_pairs}, at_ss_slot = {&str_slot};
/* DispatchPlan: */
static slotsite at_plan_countdown = {&str_countdown_ready},
    at_plan_pairs = {&str_chain_pairs}, at_plan_needs = {&str_needs_chain},
    at_plan_lrp_choice = {&str_lrp_choice},
    at_plan_lrp_consulted = {&str_lrp_consulted},
    at_plan_head_latency = {&str_head_latency};
/* Instruction (frozen: reads only) and FUAcquire: */
static slotsite at_static_opcode = {&str_opcode},
    at_static_is_halt = {&str_is_halt}, at_acquire_now = {&str_now};

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
        || iv_init(&self->arrivals, 64) < 0
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
    for (int i = 0; i < N_BOUND; i++)
        Py_VISIT(self->b[i]);
    return 0;
}

static int
Engine_clear(Engine *self)
{
    Py_CLEAR(self->events);
    for (Py_ssize_t i = 0; i < self->e_len; i++)
        Py_CLEAR(self->e_obj[i]);
    for (int i = 0; i < N_BOUND; i++)
        Py_CLEAR(self->b[i]);
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
    iv_free(&self->arrivals);
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

static int
index_in(long long index, Py_ssize_t len)
{
    /* 0 when ``index`` names a cell of a column of ``len`` cells, else
     * -1 with IndexError (a negative index too: the columns are not
     * Python lists). */
    if (index >= 0 && index < (long long)len)
        return 0;
    PyErr_SetString(PyExc_IndexError, "engine column index out of range");
    return -1;
}

static PyObject *
Engine_set_threshold(Engine *self, PyObject *args)
{
    Py_ssize_t index;
    long long threshold;
    if (!PyArg_ParseTuple(args, "nL", &index, &threshold)
        || index_in(index, self->num_segments) < 0)
        return NULL;
    self->thr[index] = (int64_t)threshold;
    Py_RETURN_NONE;
}

static PyObject *
Engine_threshold(Engine *self, PyObject *arg)
{
    Py_ssize_t index = PyNumber_AsSsize_t(arg, PyExc_IndexError);
    if ((index == -1 && PyErr_Occurred())
        || index_in(index, self->num_segments) < 0)
        return NULL;
    return PyLong_FromLongLong((long long)self->thr[index]);
}

/* ------------------------------------------------------------ chains -- */

static int64_t
chain_columns_alloc(Engine *self, int64_t mode, int64_t base,
                    int64_t head_segment)
{
    /* A new chain's columns: its cslot, or -1 with MemoryError set. */
    Py_ssize_t cslot = self->c_len;
    if ((cslot >= self->c_cap && engine_grow_chains(self, cslot + 1) < 0)
        || iv_init(&self->c_members[cslot], 4) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    self->c_mode[cslot] = mode;
    self->c_base[cslot] = base;
    self->c_hseg[cslot] = head_segment;
    self->c_len = cslot + 1;
    return (int64_t)cslot;
}

static PyObject *
Engine_alloc_chain(Engine *self, PyObject *args)
{
    long long mode, base, head_segment;
    if (!PyArg_ParseTuple(args, "LLL", &mode, &base, &head_segment))
        return NULL;
    int64_t cslot = chain_columns_alloc(self, (int64_t)mode, (int64_t)base,
                                        (int64_t)head_segment);
    return cslot < 0 ? NULL : PyLong_FromLongLong((long long)cslot);
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
static int counter_add(PyObject *counter, Py_ssize_t amount);
static int dist_sample_i64(PyObject *dist, int64_t value);

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

static int
call_discard(PyObject *result)
{
    /* Drop a call's result; -1 when the call raised. */
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

static int
pair_unpack(PyObject *pair, PyObject **chain, int64_t *cslot, int64_t *dh)
{
    /* A packed chain link ``(chain, dh)``: the chain (borrowed from the
     * pair) and/or its cslot, and the depth. */
    if (!PyTuple_CheckExact(pair) || PyTuple_GET_SIZE(pair) != 2) {
        PyErr_SetString(PyExc_TypeError, "chain link must be (chain, dh)");
        return -1;
    }
    PyObject *pchain = PyTuple_GET_ITEM(pair, 0);
    if (chain != NULL)
        *chain = pchain;
    if (cslot != NULL && site_get_i64(&at_chain_cslot, pchain, cslot) < 0)
        return -1;
    long long v = PyLong_AsLongLong(PyTuple_GET_ITEM(pair, 1));
    if (v == -1 && PyErr_Occurred())
        return -1;
    *dh = (int64_t)v;
    return 0;
}

static PyObject *
admit_raw(Engine *self, PyObject *queue, PyObject *rit_entries,
          PyObject *inst, PyObject *operands, PyObject *plan,
          PyObject *chain, int64_t target, int64_t now)
{
    /* The C twin of PyKernelEngine._admit: IQEntry + SegmentState
     * construction, operand-wakeup subscription, columnar insert,
     * occupancy/stat bookkeeping, the segment-0 ready push, and the RIT
     * update — one call per dispatched instruction, no Python frames.
     * Returns a new reference to the entry. */
    PyObject *entry = NULL, *state = NULL, *rentry = NULL, *seq_obj = NULL;
    PyObject *cd_obj = NULL, *pairs = NULL, *pairs_fast = NULL, *tmp = NULL;
    if (!PyList_CheckExact(operands)) {
        PyErr_SetString(PyExc_TypeError, "admit: operands must be a list");
        return NULL;
    }
    int64_t seq;
    if ((seq_obj = site_get(&at_inst_seq, inst)) == NULL)
        return NULL;
    seq = (int64_t)PyLong_AsLongLong(seq_obj);
    if (seq == -1 && PyErr_Occurred())
        goto fail;

    entry = plain_new(self->b[B_ENTRY_CLS]);
    if (entry == NULL
        || site_set(&at_iqe_inst, entry, inst) < 0
        || site_set(&at_iqe_seq, entry, seq_obj) < 0
        || site_set(&at_iqe_operands, entry, operands) < 0
        || site_set(&at_iqe_issued, entry, Py_False) < 0
        || site_set_i64(&at_iqe_queue_cycle, entry, now) < 0)
        goto fail;

    /* One pass over the operands: count unknown sources and take the
     * max known ready cycle (the exact IQEntry.__init__ fold). */
    Py_ssize_t n_ops = PyList_GET_SIZE(operands);
    int64_t unknown = 0, ready = 0;
    for (Py_ssize_t i = 0; i < n_ops; i++) {
        PyObject *rc = site_get(&at_op_ready, PyList_GET_ITEM(operands, i));
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
    if (site_set_i64(&at_iqe_unknown, entry, unknown) < 0
        || site_set_i64(&at_iqe_ready, entry, ready) < 0)
        goto fail;

    /* SegmentState, slot-for-slot (the PyKernelEngine._admit stores). */
    int64_t countdown;
    if ((cd_obj = site_get(&at_plan_countdown, plan)) == NULL)
        goto fail;
    countdown = (int64_t)PyLong_AsLongLong(cd_obj);
    if ((countdown == -1 && PyErr_Occurred())
        || (pairs = site_get(&at_plan_pairs, plan)) == NULL
        || (state = plain_new(self->b[B_STATE_CLS])) == NULL
        || site_set(&at_ss_links, state, Py_None) < 0
        || site_set(&at_ss_own, state, chain) < 0
        || site_set_new(&at_ss_lrp_choice, state,
                        site_get(&at_plan_lrp_choice, plan)) < 0
        || site_set_new(&at_ss_lrp_consulted, state,
                        site_get(&at_plan_lrp_consulted, plan)) < 0
        || site_set(&at_ss_countdown, state, cd_obj) < 0
        || site_set(&at_ss_pairs, state, pairs) < 0
        || site_set(&at_iqe_state, entry, state) < 0)
        goto fail;

    /* Wakeup subscription triples for unknown operands. */
    for (Py_ssize_t i = 0; unknown && i < n_ops; i++) {
        PyObject *operand = PyList_GET_ITEM(operands, i);
        PyObject *rc = site_get(&at_op_ready, operand);
        if (rc == NULL)
            goto fail;
        Py_DECREF(rc);
        if (rc != Py_None)
            continue;
        PyObject *producer = site_get(&at_op_producer, operand);
        if (producer == NULL)
            goto fail;
        PyObject *waiters = site_get(&at_prod_waiters, producer);
        Py_DECREF(producer);
        if (waiters == NULL)
            goto fail;
        PyObject *idx = PyLong_FromSsize_t(i);
        PyObject *triple = idx == NULL ? NULL
                           : PyTuple_Pack(3, queue, entry, idx);
        Py_XDECREF(idx);
        int rc_app = triple == NULL ? -1 : PyList_Append(waiters, triple);
        Py_XDECREF(triple);
        Py_DECREF(waiters);
        if (rc_app < 0)
            goto fail;
    }

    /* Unpack up to two (chain, depth) pairs into packed-link columns. */
    if ((pairs_fast = PySequence_Fast(pairs, "chain_pairs")) == NULL)
        goto fail;
    Py_ssize_t n_pairs = PySequence_Fast_GET_SIZE(pairs_fast);
    int64_t c[2] = {-1, -1}, dh[2] = {0, 0};
    for (Py_ssize_t i = 0; i < n_pairs && i < 2; i++) {
        if (pair_unpack(PySequence_Fast_GET_ITEM(pairs_fast, i), NULL,
                        &c[i], &dh[i]) < 0)
            goto fail;
    }
    int64_t own = -1;
    if (chain != Py_None && site_get_i64(&at_chain_cslot, chain, &own) < 0)
        goto fail;

    int64_t slot = insert_entry_raw(self, entry, seq, target, countdown,
                                    c[0], dh[0], c[1], dh[1], own, now);
    if (slot < 0 || site_set_i64(&at_ss_slot, state, slot) < 0)
        goto fail;

    /* queue._occupancy += 1; stat_dispatched.inc() */
    {
        int64_t occ;
        if (attr_i64(queue, str_occupancy_priv, &occ) < 0
            || attr_set_i64(queue, str_occupancy_priv, occ + 1) < 0)
            goto fail;
    }
    if (counter_inc1(self->b[B_DISPATCHED]) < 0)
        goto fail;
    if (target == 0 && !unknown) {
        int64_t when = ready > now + 1 ? ready : now + 1;
        if (hq_push(&self->p0heap, (when << SLOT_BITS) | slot) < 0) {
            PyErr_NoMemory();
            goto fail;
        }
    }

    /* RIT update. */
    PyObject *dest_obj = site_get(&at_inst_dest, inst);
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
    if (dest == 0)
        goto done;
    int is_load = site_truth(&at_inst_is_load, inst);
    if (is_load < 0)
        goto fail;
    int64_t own_latency = self->pred_load_lat;
    if (!is_load && site_get_i64(&at_inst_latency, inst, &own_latency) < 0)
        goto fail;

    rentry = plain_new(self->b[B_RIT_CLS]);
    if (rentry == NULL || site_set(&at_rit_producer, rentry, inst) < 0)
        goto fail;
    if (chain != Py_None) {
        if (site_set_new(&at_rit_dh, rentry,
                         site_get(&at_plan_head_latency, plan)) < 0
            || site_set(&at_rit_chain, rentry, chain) < 0
            || site_set(&at_rit_expected, rentry, zero_obj) < 0)
            goto fail;
    } else {
        /* Deepest producing pair by strict depth (first wins ties). */
        PyObject *deep_chain = NULL;
        int64_t deep_dh = 0;
        for (Py_ssize_t i = 0; i < n_pairs; i++) {
            PyObject *pchain;
            int64_t pdh;
            if (pair_unpack(PySequence_Fast_GET_ITEM(pairs_fast, i),
                            &pchain, NULL, &pdh) < 0)
                goto fail;
            if (deep_chain == NULL || pdh > deep_dh) {
                deep_chain = pchain;    /* borrowed: pairs holds it */
                deep_dh = pdh;
            }
        }
        if (deep_chain != NULL) {
            if (site_set(&at_rit_chain, rentry, deep_chain) < 0
                || site_set_i64(&at_rit_dh, rentry, deep_dh + own_latency) < 0
                || site_set(&at_rit_expected, rentry, zero_obj) < 0)
                goto fail;
        } else {
            int64_t expected = now + 1;
            if (countdown > expected)
                expected = countdown;
            if (site_set(&at_rit_chain, rentry, Py_None) < 0
                || site_set(&at_rit_dh, rentry, zero_obj) < 0
                || site_set_i64(&at_rit_expected, rentry,
                                expected + own_latency) < 0)
                goto fail;
        }
    }
    int64_t thread;
    if (site_get_i64(&at_inst_thread, inst, &thread) < 0
        || (tmp = PyLong_FromLongLong((long long)(thread * 64 + dest))) == NULL
        || PyDict_SetItem(rit_entries, tmp, rentry) < 0)
        goto fail;
done:
    Py_XDECREF(tmp);
    Py_XDECREF(rentry);
    Py_XDECREF(state);
    Py_XDECREF(pairs_fast);
    Py_XDECREF(pairs);
    Py_XDECREF(cd_obj);
    Py_XDECREF(seq_obj);
    return entry;
fail:
    Py_CLEAR(entry);
    goto done;
}

static PyObject *
plan_links_raw(Engine *self, PyObject *rit_entries, PyObject *inst,
               int64_t now)
{
    /* The C twin of PyKernelEngine._plan_links, the RIT scan: for each
     * IQ-relevant source, classify the producer as exactly-known
     * (countdown int), live chain ((chain, dh) pair), freed chain
     * (member_delay countdown), or expected-ready countdown — same
     * order, same objects as the Python loop.  Returns a new list. */
    PyObject *links = NULL, *srcs = NULL;
    PyObject *rentry = NULL, *ready = NULL, *rchain = NULL, *dh = NULL;
    int64_t thread;
    if ((srcs = site_get(&at_inst_srcs, inst)) == NULL)
        goto fail;
    if (!PyTuple_CheckExact(srcs)) {
        PyErr_SetString(PyExc_TypeError, "plan_links: srcs must be a tuple");
        goto fail;
    }
    int is_mem = site_truth(&at_inst_is_mem, inst);
    if (is_mem < 0 || site_get_i64(&at_inst_thread, inst, &thread) < 0)
        goto fail;
    int64_t reg_base = thread * 64;
    Py_ssize_t n = PyTuple_GET_SIZE(srcs);
    if (is_mem && n > 1)
        n = 1;
    if ((links = PyList_New(0)) == NULL)
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
        rentry = PyDict_GetItemWithError(rit_entries, key);
        Py_DECREF(key);
        if (rentry == NULL) {
            if (PyErr_Occurred())
                goto fail;
            continue;
        }
        Py_INCREF(rentry);
        PyObject *producer = site_get(&at_rit_producer, rentry);
        if (producer == NULL)
            goto fail;
        ready = site_get(&at_prod_ready, producer);
        Py_DECREF(producer);
        if (ready == NULL)
            goto fail;
        if (ready != Py_None) {
            /* Exact knowledge: the producer already issued/completed. */
            long long readyv = PyLong_AsLongLong(ready);
            if ((readyv == -1 && PyErr_Occurred())
                || ((int64_t)readyv > now
                    && PyList_Append(links, ready) < 0))
                goto fail;
        }
        else if ((rchain = site_get(&at_rit_chain, rentry)) == NULL)
            goto fail;
        else if (rchain != Py_None) {
            int freed = site_truth(&at_chain_freed, rchain);
            if (freed < 0 || (dh = site_get(&at_rit_dh, rentry)) == NULL)
                goto fail;
            PyObject *link;
            if (!freed)
                link = PyTuple_Pack(2, rchain, dh);
            else {
                /* Chain wire freed: value trails the written-back head
                 * by at most dh self-timed cycles (Chain.member_delay
                 * over the chain's columns). */
                int64_t cs;
                long long dhv = PyLong_AsLongLong(dh);
                if ((dhv == -1 && PyErr_Occurred())
                    || site_get_i64(&at_chain_cslot, rchain, &cs) < 0)
                    goto fail;
                if (cs < 0 || cs >= self->c_len) {
                    PyErr_SetString(PyExc_IndexError,
                                    "plan_links: chain cslot out of range");
                    goto fail;
                }
                int64_t mode = self->c_mode[cs], base = self->c_base[cs];
                int64_t mdv;
                if (mode == 0)
                    mdv = base + (int64_t)dhv;
                else {
                    mdv = mode == 1 ? base + (int64_t)dhv - now
                                    : (int64_t)dhv - base;
                    if (mdv < 0)
                        mdv = 0;
                }
                link = PyLong_FromLongLong(now + mdv);
            }
            if (link == NULL || PyList_Append(links, link) < 0) {
                Py_XDECREF(link);
                goto fail;
            }
            Py_DECREF(link);
        }
        else {
            int64_t expected;
            if (site_get_i64(&at_rit_expected, rentry, &expected) < 0)
                goto fail;
            if (expected > now) {
                PyObject *val = PyLong_FromLongLong(expected);
                if (val == NULL || PyList_Append(links, val) < 0) {
                    Py_XDECREF(val);
                    goto fail;
                }
                Py_DECREF(val);
            }
        }
        Py_CLEAR(rentry);
        Py_CLEAR(ready);
        Py_CLEAR(rchain);
        Py_CLEAR(dh);
    }
    Py_DECREF(srcs);
    return links;
fail:
    Py_XDECREF(srcs);
    Py_XDECREF(links);
    Py_XDECREF(rentry);
    Py_XDECREF(ready);
    Py_XDECREF(rchain);
    Py_XDECREF(dh);
    return NULL;
}

/* ----------------------------------------------------- chain policy -- */
/* ChainManager and Chain (chains.py), run inline on their own slots: the
 * wire pool's _active dict and _free_ids list are bound, its scalars and
 * every Chain field are read and written through slot sites.  A chain's
 * delay constants are this engine's columns (Chain._publish). */

static slotsite at_chain_id = {&str_chain_id}, at_chain_head = {&str_head},
    at_chain_latency = {&str_head_latency},
    at_chain_issued = {&str_issued_cycle},
    at_chain_since = {&str_suspended_since},
    at_chain_accum = {&str_suspended_accum},
    at_chain_cluster = {&str_cluster}, at_chain_engine = {&str_engine};
static slotsite at_cm_max = {&str_max_chains}, at_cm_next_id = {&str_next_id},
    at_cm_peak = {&str_peak_in_use}, at_cm_tracer = {&str_tracer};

static int
chain_publish(Engine *self, PyObject *chain, int64_t mode, int64_t base)
{
    /* Chain._publish(mode, base): the chain's new delay constants (an
     * issued head sits at segment 0), then wake its members. */
    int64_t cslot;
    if (site_get_i64(&at_chain_cslot, chain, &cslot) < 0)
        return -1;
    if (cslot < 0 || cslot >= self->c_len) {
        PyErr_SetString(PyExc_IndexError, "chain cslot out of range");
        return -1;
    }
    self->c_mode[cslot] = mode;
    self->c_base[cslot] = base;
    self->c_hseg[cslot] = 0;
    return notify_chain(self, cslot);
}

static int
chains_trace(Engine *self, int64_t now, PyObject *kind, PyObject *head,
             PyObject *chain_id, int64_t seg, PyObject *info)
{
    /* ChainManager.trace(now, kind, head, chain_id, seg, info) while a
     * tracer is attached: the one emit hook, called where the Python
     * methods emit. */
    PyObject *chains = self->b[B_CHAINS];
    PyObject *tracer = site_get(&at_cm_tracer, chains);
    if (tracer == NULL)
        return -1;
    Py_DECREF(tracer);
    if (tracer == Py_None)
        return 0;
    PyObject *now_obj = PyLong_FromLongLong((long long)now);
    PyObject *seg_obj = PyLong_FromLongLong((long long)seg);
    int rc = (now_obj == NULL || seg_obj == NULL) ? -1 : call_discard(
        PyObject_CallMethodObjArgs(chains, str_trace, now_obj, kind, head,
                                   chain_id, seg_obj, info, NULL));
    Py_XDECREF(now_obj);
    Py_XDECREF(seg_obj);
    return rc;
}

static int
chains_has_free(Engine *self)
{
    /* ChainManager.has_free(): 1 or 0, -1 on error. */
    PyObject *max = site_get(&at_cm_max, self->b[B_CHAINS]);
    if (max == NULL)
        return -1;
    if (max == Py_None) {
        Py_DECREF(max);
        return 1;
    }
    long long limit = PyLong_AsLongLong(max);
    Py_DECREF(max);
    if (limit == -1 && PyErr_Occurred())
        return -1;
    return PyDict_GET_SIZE(self->b[B_ACTIVE]) < limit;
}

static PyObject *
chains_allocate(Engine *self, PyObject *head, int64_t head_segment,
                PyObject *head_latency, int64_t now)
{
    /* ChainManager.allocate(head, self, head_segment, head_latency, now)
     * with Chain.__init__: a new reference to the chain, or to None when
     * no wire is free (the failure counted); NULL on error. */
    PyObject *chains = self->b[B_CHAINS], *ids = self->b[B_FREE_IDS];
    PyObject *active = self->b[B_ACTIVE];
    int free = chains_has_free(self);
    if (free <= 0) {
        if (free < 0 || counter_inc1(self->b[B_ALLOC_FAILURES]) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    PyObject *chain_id, *chain = NULL;
    Py_ssize_t n = PyList_GET_SIZE(ids);
    if (n) {
        chain_id = PyList_GET_ITEM(ids, n - 1);
        Py_INCREF(chain_id);
        if (PyList_SetSlice(ids, n - 1, n, NULL) < 0)
            goto fail;
    }
    else {
        int64_t next;
        if (site_get_i64(&at_cm_next_id, chains, &next) < 0)
            return NULL;
        if ((chain_id = PyLong_FromLongLong((long long)next)) == NULL)
            return NULL;
        if (site_set_i64(&at_cm_next_id, chains, next + 1) < 0)
            goto fail;
    }
    int64_t cslot, peak;
    if ((chain = plain_new(self->b[B_CHAIN_CLS])) == NULL
        || site_set(&at_chain_id, chain, chain_id) < 0
        || site_set(&at_chain_head, chain, head) < 0
        || site_set(&at_chain_latency, chain, head_latency) < 0
        || site_set(&at_chain_issued, chain, Py_None) < 0
        || site_set(&at_chain_since, chain, Py_None) < 0
        || site_set(&at_chain_accum, chain, zero_obj) < 0
        || site_set(&at_chain_freed, chain, Py_False) < 0
        || site_set_new(&at_chain_cluster, chain,
                        site_get(&at_inst_cluster, head)) < 0
        || site_set(&at_chain_engine, chain, (PyObject *)self) < 0
        || (cslot = chain_columns_alloc(self, 0, 2 * head_segment,
                                        head_segment)) < 0
        || site_set_i64(&at_chain_cslot, chain, cslot) < 0
        || PyDict_SetItem(active, chain_id, chain) < 0
        || counter_inc1(self->b[B_ALLOCATED]) < 0
        || site_get_i64(&at_cm_peak, chains, &peak) < 0
        || (PyDict_GET_SIZE(active) > peak
            && site_set_i64(&at_cm_peak, chains,
                            PyDict_GET_SIZE(active)) < 0)
        || chains_trace(self, now, str_chain_create, head, chain_id,
                        head_segment, str_empty) < 0)
        goto fail;
    Py_DECREF(chain_id);
    return chain;
fail:
    Py_DECREF(chain_id);
    Py_XDECREF(chain);
    return NULL;
}

static int
chains_free(Engine *self, PyObject *chain, int64_t now)
{
    /* ChainManager.free(chain, now): the wire goes back to the pool. */
    int freed = site_truth(&at_chain_freed, chain);
    if (freed != 0)
        return freed < 0 ? -1 : 0;
    if (site_set(&at_chain_freed, chain, Py_True) < 0)
        return -1;
    PyObject *chain_id = site_get(&at_chain_id, chain), *head = NULL;
    if (chain_id == NULL)
        return -1;
    int rc = -1;
    PyObject *removed = PyDict_GetItemWithError(self->b[B_ACTIVE], chain_id);
    if (removed == NULL) {
        PyObject *exc = PyErr_Occurred() ? NULL : sim_error();
        if (exc != NULL)
            PyErr_Format(exc, "double free of chain %S", chain_id);
        goto done;
    }
    if (PyDict_DelItem(self->b[B_ACTIVE], chain_id) < 0
        || PyList_Append(self->b[B_FREE_IDS], chain_id) < 0
        || (head = site_get(&at_chain_head, chain)) == NULL)
        goto done;
    rc = chains_trace(self, now, str_chain_wire, head, chain_id, -1,
                      str_free);
done:
    Py_DECREF(chain_id);
    Py_XDECREF(head);
    return rc;
}

static int
chain_head_issued(Engine *self, PyObject *chain, int64_t now)
{
    /* Chain.on_head_issued(now): self-timed countdown from now. */
    PyObject *issued = site_get(&at_chain_issued, chain);
    if (issued == NULL)
        return -1;
    Py_DECREF(issued);
    if (issued != Py_None)
        return 0;
    int64_t accum;
    if (site_set_i64(&at_chain_issued, chain, now) < 0
        || site_get_i64(&at_chain_accum, chain, &accum) < 0)
        return -1;
    return chain_publish(self, chain, 1, now + accum);
}

static int
chain_suspend(Engine *self, PyObject *chain, int64_t now)
{
    /* Chain.suspend(now): an issued head missed; members freeze. */
    PyObject *issued = site_get(&at_chain_issued, chain), *since = NULL;
    if (issued == NULL)
        return -1;
    int rc = 0;
    if (issued != Py_None) {
        int64_t issued_cycle, accum;
        rc = -1;
        if ((since = site_get(&at_chain_since, chain)) == NULL)
            goto done;
        rc = 0;
        if (since != Py_None)
            goto done;
        issued_cycle = (int64_t)PyLong_AsLongLong(issued);
        rc = -1;
        if ((issued_cycle == -1 && PyErr_Occurred())
            || site_get_i64(&at_chain_accum, chain, &accum) < 0
            || site_set_i64(&at_chain_since, chain, now) < 0)
            goto done;
        rc = chain_publish(self, chain, 2, now - issued_cycle - accum);
    }
done:
    Py_DECREF(issued);
    Py_XDECREF(since);
    return rc;
}

static int
chain_resume(Engine *self, PyObject *chain, int64_t now)
{
    /* Chain.resume(now): the head completed; members count down again,
     * credited up to head_latency cycles of self-timing. */
    PyObject *since_obj = site_get(&at_chain_since, chain);
    if (since_obj == NULL)
        return -1;
    Py_DECREF(since_obj);
    if (since_obj == Py_None)
        return 0;
    int64_t since, accum, latency, issued;
    if (site_get_i64(&at_chain_since, chain, &since) < 0
        || site_get_i64(&at_chain_accum, chain, &accum) < 0
        || site_get_i64(&at_chain_latency, chain, &latency) < 0
        || site_get_i64(&at_chain_issued, chain, &issued) < 0)
        return -1;
    accum += now - since;
    int64_t elapsed = now - issued - accum;         /* self_elapsed(now) */
    if (elapsed < 0)
        elapsed = 0;
    if (latency - elapsed > 0)
        accum -= latency - elapsed;
    if (site_set(&at_chain_since, chain, Py_None) < 0
        || site_set_i64(&at_chain_accum, chain, accum) < 0)
        return -1;
    return chain_publish(self, chain, 1, issued + accum);
}

/* ------------------------------------------------------- predictors -- */
/* HitMissPredictor and LeftRightPredictor (predictors.py), inline on
 * their own slots: the per-PC _counters tables, the HMP's _outstanding
 * predictions and the counters. */

static slotsite at_hmp_max = {&str_max_count},
    at_hmp_confidence = {&str_confidence}, at_hmp_size = {&str_table_size},
    at_hmp_table = {&str_counters_priv},
    at_hmp_outstanding = {&str_outstanding},
    at_hmp_predictions = {&str_stat_predictions},
    at_hmp_predicted_hits = {&str_stat_predicted_hits},
    at_hmp_correct = {&str_stat_correct_hits},
    at_hmp_wrong = {&str_stat_wrong_hits},
    at_hmp_hits = {&str_stat_actual_hits},
    at_hmp_misses = {&str_stat_actual_misses},
    at_hmp_covered = {&str_stat_covered_hits};
static slotsite at_lrp_size = {&str_table_size},
    at_lrp_table = {&str_counters_priv},
    at_lrp_predictions = {&str_stat_predictions},
    at_lrp_correct = {&str_stat_correct}, at_lrp_wrong = {&str_stat_wrong};

static int
site_inc(slotsite *site, PyObject *obj)
{
    /* obj.<counter>.inc() */
    PyObject *counter = site_get(site, obj);
    if (counter == NULL)
        return -1;
    int rc = counter_inc1(counter);
    Py_DECREF(counter);
    return rc;
}

static PyObject *
table_key(slotsite *size_site, PyObject *predictor, int64_t pc)
{
    /* pc % predictor.table_size as the table key (a new reference). */
    int64_t size;
    if (site_get_i64(size_site, predictor, &size) < 0)
        return NULL;
    if (size == 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "predictor table size 0");
        return NULL;
    }
    int64_t index = pc % size;
    if (index != 0 && (index < 0) != (size < 0))
        index += size;                      /* Python's floored modulo */
    return PyLong_FromLongLong((long long)index);
}

static int
table_read(PyObject *table, PyObject *key, int64_t missing, int64_t *out)
{
    /* table.get(key, missing) as an int. */
    PyObject *value = PyDict_GetItemWithError(table, key);
    if (value == NULL) {
        *out = missing;
        return PyErr_Occurred() ? -1 : 0;
    }
    long long v = PyLong_AsLongLong(value);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = (int64_t)v;
    return 0;
}

static int
table_write(PyObject *table, PyObject *key, int64_t value)
{
    PyObject *num = PyLong_FromLongLong((long long)value);
    int rc = num == NULL ? -1 : PyDict_SetItem(table, key, num);
    Py_XDECREF(num);
    return rc;
}

static int
hmp_predict_hit(PyObject *hmp, int64_t pc, PyObject *seq)
{
    /* HitMissPredictor.predict_hit(pc, seq): 1 hit, 0 miss, -1 error. */
    PyObject *key = NULL, *table = NULL, *outstanding = NULL;
    int64_t count, confidence;
    int predicted = -1;
    if (site_inc(&at_hmp_predictions, hmp) < 0
        || (key = table_key(&at_hmp_size, hmp, pc)) == NULL
        || (table = site_get(&at_hmp_table, hmp)) == NULL
        || table_read(table, key, 0, &count) < 0
        || site_get_i64(&at_hmp_confidence, hmp, &confidence) < 0
        || (count > confidence
            && site_inc(&at_hmp_predicted_hits, hmp) < 0)
        || (outstanding = site_get(&at_hmp_outstanding, hmp)) == NULL
        || PyObject_SetItem(outstanding, seq,
                            count > confidence ? Py_True : Py_False) < 0)
        goto done;
    predicted = count > confidence;
done:
    Py_XDECREF(key);
    Py_XDECREF(table);
    Py_XDECREF(outstanding);
    return predicted;
}

static int
hmp_train(Engine *self, PyObject *hmp, int64_t pc, PyObject *seq,
          PyObject *level)
{
    /* HitMissPredictor.train(pc, seq, level). */
    PyObject *key = NULL, *table = NULL, *outstanding = NULL;
    PyObject *predicted = NULL;
    int rc = -1;
    int hit = PySet_Contains(self->b[B_HIT_LEVELS], level);
    if (hit < 0 || (key = table_key(&at_hmp_size, hmp, pc)) == NULL
        || (table = site_get(&at_hmp_table, hmp)) == NULL)
        goto done;
    if (hit) {
        int64_t count, max_count;
        if (table_read(table, key, 0, &count) < 0
            || site_get_i64(&at_hmp_max, hmp, &max_count) < 0
            || (count < max_count && table_write(table, key, count + 1) < 0)
            || site_inc(&at_hmp_hits, hmp) < 0)
            goto done;
    }
    else if (table_write(table, key, 0) < 0
             || site_inc(&at_hmp_misses, hmp) < 0)
        goto done;
    /* predicted = _outstanding.pop(seq, None) */
    if ((outstanding = site_get(&at_hmp_outstanding, hmp)) == NULL)
        goto done;
    predicted = PyDict_GetItemWithError(outstanding, seq);
    if (predicted == NULL) {
        if (PyErr_Occurred())
            goto done;
        predicted = Py_None;
    }
    else if (PyDict_DelItem(outstanding, seq) < 0) {
        predicted = NULL;
        goto done;
    }
    Py_INCREF(predicted);
    int truth = PyObject_IsTrue(predicted);
    if (truth < 0
        || (truth && site_inc(hit ? &at_hmp_correct : &at_hmp_wrong,
                              hmp) < 0)
        || (truth && hit && site_inc(&at_hmp_covered, hmp) < 0))
        goto done;
    rc = 0;
done:
    Py_XDECREF(key);
    Py_XDECREF(table);
    Py_XDECREF(outstanding);
    Py_XDECREF(predicted);
    return rc;
}

static int
lrp_predict_later(PyObject *lrp, int64_t pc)
{
    /* LeftRightPredictor.predict_later(pc): 0 (left) or 1 (right). */
    PyObject *key = NULL, *table = NULL;
    int64_t counter;
    int later = -1;
    if (site_inc(&at_lrp_predictions, lrp) == 0
        && (key = table_key(&at_lrp_size, lrp, pc)) != NULL
        && (table = site_get(&at_lrp_table, lrp)) != NULL
        && table_read(table, key, 2, &counter) == 0)
        later = counter >= 2 ? 0 : 1;
    Py_XDECREF(key);
    Py_XDECREF(table);
    return later;
}

static int
lrp_train(PyObject *lrp, int64_t pc, int64_t left_ready,
          int64_t right_ready, int64_t predicted)
{
    /* LeftRightPredictor.train(pc, left_ready, right_ready, predicted). */
    int64_t later = left_ready >= right_ready ? 0 : 1;
    PyObject *key = NULL, *table = NULL;
    int64_t counter;
    int rc = -1;
    if ((key = table_key(&at_lrp_size, lrp, pc)) != NULL
        && (table = site_get(&at_lrp_table, lrp)) != NULL
        && table_read(table, key, 2, &counter) == 0
        && table_write(table, key, later == 0 ? (counter + 1 < 3
                                                 ? counter + 1 : 3)
                                              : (counter - 1 > 0
                                                 ? counter - 1 : 0)) == 0)
        rc = site_inc(predicted == later || left_ready == right_ready
                      ? &at_lrp_correct : &at_lrp_wrong, lrp);
    Py_XDECREF(key);
    Py_XDECREF(table);
    return rc;
}

/* ------------------------------------------------ dispatch planning -- */

static int64_t
dispatch_target_raw(Engine *self, Py_ssize_t active_count,
                    int enable_bypass)
{
    /* Segment the next dispatch enters, or -1 when the queue is full
     * (the PyKernelEngine._dispatch_target twin). */
    int64_t *occ = self->occ;
    int64_t cap = self->cap;
    if (!enable_bypass) {
        Py_ssize_t top = active_count - 1;
        return occ[top] >= cap ? -1 : (int64_t)top;
    }
    Py_ssize_t highest = -1;
    for (Py_ssize_t index = active_count - 1; index >= 0; index--) {
        if (occ[index]) {
            highest = index;
            break;
        }
    }
    if (highest < 0)
        return 0;
    if (occ[highest] < cap)
        return (int64_t)highest;
    if (highest + 1 < active_count)
        return (int64_t)highest + 1;
    return -1;
}

static inline int
attr_truth(PyObject *obj, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    int truth = PyObject_IsTrue(v);
    Py_DECREF(v);
    return truth;
}

static inline int
attr_add_i64(PyObject *obj, PyObject *name, int64_t delta)
{
    int64_t value;
    if (attr_i64(obj, name, &value) < 0)
        return -1;
    return attr_set_i64(obj, name, value + delta);
}

static int
queue_dispatch_target(Engine *self, PyObject *queue, int64_t *target)
{
    /* _dispatch_target(queue.active_segments, queue._enable_bypass) */
    int64_t active;
    if (attr_i64(queue, str_active_segments, &active) < 0)
        return -1;
    int bypass = attr_truth(queue, str_enable_bypass);
    if (bypass < 0)
        return -1;
    *target = dispatch_target_raw(self, (Py_ssize_t)active, bypass);
    return 0;
}

static PyObject *
plan_raw(Engine *self, PyObject *queue, PyObject *inst, int64_t now)
{
    /* The C twin of PyKernelEngine.plan: the plan cache, the RIT scan,
     * the two-chain test, the LRP and HMP consults, the head-latency
     * rule and the countdown/pair split, recorded as one DispatchPlan.
     * Returns a new reference. */
    PyObject *seq = NULL, *links = NULL, *lrp = NULL, *lrp_choice = NULL;
    PyObject *pairs = NULL, *plan = NULL;
    seq = site_get(&at_inst_seq, inst);
    if (seq == NULL)
        return NULL;
    plan = PyDict_GetItemWithError(self->b[B_PLAN_CACHE], seq);
    if (plan != NULL) {
        Py_INCREF(plan);
        Py_DECREF(seq);
        return plan;
    }
    if (PyErr_Occurred())
        goto fail;
    links = plan_links_raw(self, self->b[B_RIT], inst, now);
    if (links == NULL)
        goto fail;
    Py_ssize_t n = PyList_GET_SIZE(links);
    int two_distinct = 0;
    if (n == 2) {
        PyObject *l0 = PyList_GET_ITEM(links, 0);
        PyObject *l1 = PyList_GET_ITEM(links, 1);
        two_distinct = (PyTuple_CheckExact(l0) && PyTuple_CheckExact(l1)
                        && PyTuple_GET_ITEM(l0, 0) != PyTuple_GET_ITEM(l1, 0));
    }
    if (two_distinct && counter_inc1(self->b[B_TWO_CHAIN]) < 0)
        goto fail;

    lrp = PyObject_GetAttr(queue, str_lrp);
    if (lrp == NULL)
        goto fail;
    int consulted = 0;
    int64_t pc;
    if (site_get_i64(&at_inst_pc, inst, &pc) < 0)
        goto fail;
    if (lrp != Py_None && n == 2) {
        int later = lrp_predict_later(lrp, pc);
        if (later < 0 || (lrp_choice = PyLong_FromLong(later)) == NULL)
            goto fail;
        consulted = 1;
        /* links = [links[lrp_choice]] */
        PyObject *kept = PyList_GET_ITEM(links, later);
        Py_INCREF(kept);
        PyObject *single = PyList_New(1);
        if (single == NULL) {
            Py_DECREF(kept);
            goto fail;
        }
        PyList_SET_ITEM(single, 0, kept);
        Py_SETREF(links, single);
    }
    else {
        lrp_choice = PyLong_FromLong(-1);
        if (lrp_choice == NULL)
            goto fail;
    }

    int needs_chain = 0;
    int64_t head_latency = 0;
    int is_load = site_truth(&at_inst_is_load, inst);
    if (is_load < 0)
        goto fail;
    if (is_load) {
        PyObject *hmp = PyObject_GetAttr(queue, str_hmp);
        if (hmp == NULL)
            goto fail;
        int predicted_hit = 0;
        if (hmp != Py_None)
            predicted_hit = hmp_predict_hit(hmp, pc, seq);
        Py_DECREF(hmp);
        if (predicted_hit < 0)
            goto fail;
        if (!predicted_hit) {
            needs_chain = 1;
            head_latency = self->pred_load_lat;
        }
    }
    else if (two_distinct && lrp == Py_None) {
        /* Base design: two-chain instructions become chain heads (3.4). */
        needs_chain = 1;
        if (site_get_i64(&at_inst_latency, inst, &head_latency) < 0)
            goto fail;
    }

    int64_t countdown = -1;
    pairs = PyList_New(0);
    if (pairs == NULL)
        goto fail;
    n = PyList_GET_SIZE(links);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *link = PyList_GET_ITEM(links, i);
        if (PyTuple_CheckExact(link)) {
            if (PyList_Append(pairs, link) < 0)
                goto fail;
            continue;
        }
        long long v = PyLong_AsLongLong(link);
        if (v == -1 && PyErr_Occurred())
            goto fail;
        if ((int64_t)v > countdown)
            countdown = (int64_t)v;
    }

    plan = plain_new(self->b[B_PLAN_CLS]);
    if (plan == NULL)
        goto fail;
    if (site_set_i64(&at_plan_countdown, plan, countdown) < 0
        || site_set(&at_plan_pairs, plan, pairs) < 0
        || site_set(&at_plan_needs, plan,
                    needs_chain ? Py_True : Py_False) < 0
        || site_set(&at_plan_lrp_choice, plan, lrp_choice) < 0
        || site_set(&at_plan_lrp_consulted, plan,
                    consulted ? Py_True : Py_False) < 0
        || site_set_i64(&at_plan_head_latency, plan, head_latency) < 0
        || PyDict_SetItem(self->b[B_PLAN_CACHE], seq, plan) < 0)
        goto fail;
    Py_DECREF(seq);
    Py_DECREF(links);
    Py_DECREF(lrp);
    Py_DECREF(lrp_choice);
    Py_DECREF(pairs);
    return plan;
fail:
    Py_XDECREF(seq);
    Py_XDECREF(links);
    Py_XDECREF(lrp);
    Py_XDECREF(lrp_choice);
    Py_XDECREF(pairs);
    Py_XDECREF(plan);
    return NULL;
}

static int
can_dispatch_raw(Engine *self, PyObject *queue, PyObject *inst)
{
    /* The C twin of PyKernelEngine.can_dispatch: the target search, the
     * plan (made here at the first probe, reused by dispatch) and the
     * chain-wire check.  1 admitted, 0 refused, -1 error. */
    if (PyObject_SetAttr(queue, str_blocked_on_chain, Py_False) < 0)
        return -1;
    self->tc_valid = 0;
    int64_t target;
    if (queue_dispatch_target(self, queue, &target) < 0)
        return -1;
    if (target < 0)
        return attr_add_i64(queue, str_full_refusals, 1) < 0 ? -1 : 0;
    int64_t now;
    if (attr_i64(queue, str_now, &now) < 0)
        return -1;
    PyObject *plan = plan_raw(self, queue, inst, now);
    if (plan == NULL)
        return -1;
    int needs = site_truth(&at_plan_needs, plan);
    Py_DECREF(plan);
    if (needs < 0)
        return -1;
    if (needs) {
        int has_free = chains_has_free(self);
        if (has_free == 0
            && (PyObject_SetAttr(queue, str_blocked_on_chain, Py_True) < 0
                || counter_inc1(self->b[B_ALLOC_FAILURES]) < 0))
            has_free = -1;
        if (has_free <= 0)
            return has_free;
    }
    int64_t occupancy;
    if (attr_i64(queue, str_occupancy_priv, &occupancy) < 0)
        return -1;
    self->tc_valid = 1;
    self->tc_occ = occupancy;
    self->tc_target = target;
    return 1;
}

static PyObject *
dispatch_raw(Engine *self, PyObject *queue, PyObject *inst,
             PyObject *operands, int64_t now)
{
    /* The C twin of PyKernelEngine.dispatch: take the plan, reuse the
     * target can_dispatch found (occupancy is the staleness guard),
     * count bypasses, allocate a chain for a head from the wire pool,
     * then admit.  Returns a new reference to the entry. */
    PyObject *plan = NULL, *chain = NULL, *entry = NULL;
    PyObject *seq = site_get(&at_inst_seq, inst);
    if (seq == NULL)
        return NULL;
    plan = PyDict_GetItemWithError(self->b[B_PLAN_CACHE], seq);
    if (plan != NULL)
        Py_INCREF(plan);
    else if (PyErr_Occurred()
             || (plan = plan_raw(self, queue, inst, now)) == NULL)
        goto done;
    if (PyDict_DelItem(self->b[B_PLAN_CACHE], seq) < 0)
        goto done;

    int64_t target = -1;
    int reuse = self->tc_valid;
    self->tc_valid = 0;
    if (reuse) {
        int64_t occupancy;
        if (attr_i64(queue, str_occupancy_priv, &occupancy) < 0)
            goto done;
        reuse = (self->tc_occ == occupancy
                 && self->occ[self->tc_target] < self->cap);
    }
    if (reuse)
        target = self->tc_target;
    else {
        if (queue_dispatch_target(self, queue, &target) < 0)
            goto done;
        if (target < 0 && attr_add_i64(queue, str_full_refusals, 1) < 0)
            goto done;
    }
    if (target < 0) {
        PyObject *exc = sim_error();
        if (exc != NULL)
            PyErr_SetString(exc, "dispatch into a full segmented IQ");
        goto done;
    }
    if (target < self->num_segments - 1
        && counter_inc1(self->b[B_BYPASS]) < 0)
        goto done;

    int needs = site_truth(&at_plan_needs, plan);
    if (needs < 0)
        goto done;
    if (needs) {
        PyObject *latency = site_get(&at_plan_head_latency, plan);
        if (latency != NULL)
            chain = chains_allocate(self, inst, target, latency, now);
        Py_XDECREF(latency);
        if (chain == NULL)
            goto done;
        if (chain == Py_None) {
            PyObject *exc = sim_error();
            if (exc != NULL)
                PyErr_SetString(exc, "dispatch without a free chain wire");
            goto done;
        }
        if (PyDict_SetItem(self->b[B_HEAD_CHAINS], seq, chain) < 0
            || counter_inc1(self->b[B_CHAIN_HEADS]) < 0)
            goto done;
    }
    entry = admit_raw(self, queue, self->b[B_RIT], inst, operands, plan,
                      chain != NULL ? chain : Py_None, target, now);
done:
    Py_XDECREF(chain);
    Py_XDECREF(plan);
    Py_DECREF(seq);
    return entry;
}

static int
dispatch_bound(Engine *self)
{
    if (self->b[B_PLAN_CLS] != NULL)
        return 1;
    PyErr_SetString(PyExc_RuntimeError, "engine dispatch ops need bind");
    return 0;
}

static PyObject *
Engine_bind(Engine *self, PyObject *args)
{
    /* bind(classes, tables, counters, (predicted_load_latency,
     *      patience, hit_levels)): what the policy ops use, bound once
     * (PyKernelEngine.bind; Engine.b lists the objects in order). */
    PyObject *groups[3], *hit_levels;
    long long latency, patience;
    if (!PyArg_ParseTuple(args, "O!O!O!(LLO)", &PyTuple_Type, &groups[0],
                          &PyTuple_Type, &groups[1], &PyTuple_Type,
                          &groups[2], &latency, &patience, &hit_levels))
        return NULL;
#define TABLE(index) PyTuple_GET_ITEM(groups[1], (index) - B_PLAN_CACHE)
    if (PyTuple_GET_SIZE(groups[0]) != B_PLAN_CACHE
        || PyTuple_GET_SIZE(groups[1]) != B_DISPATCHED - B_PLAN_CACHE
        || PyTuple_GET_SIZE(groups[2]) != B_HIT_LEVELS - B_DISPATCHED
        || !PyDict_Check(TABLE(B_PLAN_CACHE)) || !PyDict_Check(TABLE(B_RIT))
        || !PyDict_Check(TABLE(B_HEAD_CHAINS))
        || !PyDict_Check(TABLE(B_ACTIVE)) || !PyList_Check(TABLE(B_FREE_IDS))
        || !PyAnySet_Check(hit_levels)) {
        PyErr_SetString(PyExc_TypeError,
                        "bind: 5 classes, 6 tables (dicts, the pool, its "
                        "dict and list), 12 counters and a set of levels");
        return NULL;
    }
#undef TABLE
    int index = 0;
    for (int g = 0; g < 3; g++)
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(groups[g]); i++) {
            PyObject *item = PyTuple_GET_ITEM(groups[g], i);
            Py_INCREF(item);
            Py_XSETREF(self->b[index], item);
            index++;
        }
    Py_INCREF(hit_levels);
    Py_XSETREF(self->b[B_HIT_LEVELS], hit_levels);
    self->pred_load_lat = (int64_t)latency;
    self->patience = (int64_t)patience;
    Py_RETURN_NONE;
}

static PyObject *
Engine_plan(Engine *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* plan(queue, inst, now) -> DispatchPlan */
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "plan expects 3 arguments");
        return NULL;
    }
    if (!dispatch_bound(self))
        return NULL;
    int64_t now = (int64_t)PyLong_AsLongLong(args[2]);
    if (now == -1 && PyErr_Occurred())
        return NULL;
    return plan_raw(self, args[0], args[1], now);
}

static PyObject *
Engine_can_dispatch(Engine *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* can_dispatch(queue, inst) -> bool */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "can_dispatch expects 2 arguments");
        return NULL;
    }
    if (!dispatch_bound(self))
        return NULL;
    int rc = can_dispatch_raw(self, args[0], args[1]);
    if (rc < 0)
        return NULL;
    return PyBool_FromLong(rc);
}

static PyObject *
Engine_dispatch(Engine *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* dispatch(queue, inst, operands, now) -> IQEntry */
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "dispatch expects 4 arguments");
        return NULL;
    }
    if (!dispatch_bound(self))
        return NULL;
    int64_t now = (int64_t)PyLong_AsLongLong(args[3]);
    if (now == -1 && PyErr_Occurred())
        return NULL;
    return dispatch_raw(self, args[0], args[1], args[2], now);
}

static PyObject *
Engine_free_entry(Engine *self, PyObject *arg)
{
    long long slot = PyLong_AsLongLong(arg);
    if ((slot == -1 && PyErr_Occurred()) || index_in(slot, self->e_len) < 0)
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
    if ((slot == -1 && PyErr_Occurred()) || index_in(slot, self->e_len) < 0)
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
    if (!PyArg_ParseTuple(args, "LLL", &slot, &seg, &now)
        || index_in(slot, self->e_len) < 0
        || index_in(seg, self->num_segments) < 0)
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
    if ((slot == -1 && PyErr_Occurred()) || index_in(slot, self->e_len) < 0)
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
    if ((slot == -1 && PyErr_Occurred()) || index_in(slot, self->e_len) < 0)
        return NULL;
    return PyLong_FromLongLong((long long)self->e_seq[slot]);
}

/* ---------------------------------------------------- segment-0 issue -- */

static PyObject *
Engine_p0_push(Engine *self, PyObject *args)
{
    long long slot, when;
    if (!PyArg_ParseTuple(args, "LL", &slot, &when)
        || index_in(slot, self->e_len) < 0)
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

static int
entry_lrp_train(PyObject *lrp, PyObject *entry, PyObject *state)
{
    /* lrp.train(inst.pc, ops[0].ready_cycle or 0, ops[1].ready_cycle or 0,
     * state.lrp_choice) for a two-operand entry. */
    PyObject *ops = site_get(&at_iqe_operands, entry);
    if (ops == NULL)
        return -1;
    Py_ssize_t n = PyObject_Length(ops);
    int rc = n < 0 ? -1 : 0;
    if (n == 2) {
        int64_t ready[2] = {0, 0}, pc, choice;
        PyObject *inst = site_get(&at_iqe_inst, entry);
        rc = inst == NULL ? -1 : site_get_i64(&at_inst_pc, inst, &pc);
        Py_XDECREF(inst);
        for (Py_ssize_t i = 0; rc == 0 && i < 2; i++) {
            PyObject *op = PySequence_GetItem(ops, i);
            PyObject *value = op == NULL ? NULL : site_get(&at_op_ready, op);
            Py_XDECREF(op);
            int truth = value == NULL ? -1 : PyObject_IsTrue(value);
            if (truth > 0) {
                ready[i] = (int64_t)PyLong_AsLongLong(value);
                if (ready[i] == -1 && PyErr_Occurred())
                    truth = -1;
            }
            Py_XDECREF(value);
            rc = truth < 0 ? -1 : 0;
        }
        if (rc == 0 && site_get_i64(&at_ss_lrp_choice, state, &choice) == 0)
            rc = lrp_train(lrp, pc, ready[0], ready[1], choice);
        else
            rc = -1;
    }
    Py_DECREF(ops);
    return rc;
}

static int
issue_finish(Engine *self, PyObject *iq, PyObject *issued, int64_t now)
{
    /* PyKernelEngine.select_issue's per-entry post-loop, after the engine
     * freed the slots: the iq.issued counter, iq._occupancy,
     * entry.issued, the chain head's issue signal and LRP training. */
    Py_ssize_t n = PyList_GET_SIZE(issued);
    if (n == 0)
        return 0;
    if (counter_add(self->b[B_ISSUED], n) < 0
        || attr_add_i64(iq, str_occupancy_priv, -(int64_t)n) < 0)
        return -1;
    PyObject *lrp = PyObject_GetAttr(iq, str_lrp);
    if (lrp == NULL)
        return -1;
    int rc = -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *entry = PyList_GET_ITEM(issued, i);
        if (site_set(&at_iqe_issued, entry, Py_True) < 0)
            goto done;
        PyObject *state = site_get(&at_iqe_state, entry);
        if (state == NULL)
            goto done;
        PyObject *own = site_get(&at_ss_own, state);
        int step = own == NULL ? -1 : 0;
        if (own != NULL && own != Py_None)
            step = chain_head_issued(self, own, now);
        Py_XDECREF(own);
        if (step == 0 && lrp != Py_None) {
            int consulted = site_truth(&at_ss_lrp_consulted, state);
            step = consulted < 0 ? -1
                   : consulted ? entry_lrp_train(lrp, entry, state) : 0;
        }
        Py_DECREF(state);
        if (step < 0)
            goto done;
    }
    rc = 0;
done:
    Py_DECREF(lrp);
    return rc;
}

static PyObject *
issue_select_raw(Engine *self, int64_t now, Py_ssize_t width, PyObject *fu,
                 PyObject *acquire, Py_ssize_t *count)
{
    /* The fused segment-0 issue loop: the issued entries (a new list)
     * and, in ``*count``, the ready candidates it started from. */
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
    *count = r0->len;
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
    return issued;
fail:
    Py_DECREF(issued);
    return NULL;
}

static PyObject *
Engine_on_entry_ready_known(Engine *self, PyObject *entry)
{
    /* PyKernelEngine.on_entry_ready_known: a fully known entry still in
     * segment 0 becomes an issue candidate at its ready cycle. */
    int issued = site_truth(&at_iqe_issued, entry);
    if (issued < 0)
        return NULL;
    if (issued)
        Py_RETURN_NONE;
    PyObject *state = site_get(&at_iqe_state, entry);
    int64_t slot, ready;
    int rc = state == NULL ? -1 : site_get_i64(&at_ss_slot, state, &slot);
    Py_XDECREF(state);
    if (rc < 0)
        return NULL;
    if (slot < 0 || slot >= self->e_len) {
        PyErr_SetString(PyExc_IndexError, "engine column index out of range");
        return NULL;
    }
    if (self->e_seg[slot] == 0) {
        if (site_get_i64(&at_iqe_ready, entry, &ready) < 0)
            return NULL;
        if (hq_push(&self->p0heap, (ready << SLOT_BITS) | slot) < 0)
            return PyErr_NoMemory();
    }
    Py_RETURN_NONE;
}

static PyObject *
Engine_issue_select(Engine *self, PyObject *args)
{
    /* issue_select(now, width, fu, acquire) -> (count, issued) */
    long long now_ll, width_ll;
    PyObject *fu, *acquire;
    if (!PyArg_ParseTuple(args, "LLOO", &now_ll, &width_ll, &fu, &acquire))
        return NULL;
    Py_ssize_t count;
    PyObject *issued = issue_select_raw(self, (int64_t)now_ll,
                                        (Py_ssize_t)width_ll, fu, acquire,
                                        &count);
    if (issued == NULL)
        return NULL;
    return Py_BuildValue("(nN)", count, issued);
}

static PyObject *
Engine_select_issue(Engine *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* select_issue(queue, now, acquire_fu) -> issued: the whole of
     * PyKernelEngine.select_issue — its clocks, the fused segment-0 issue
     * loop over ``acquire_fu.fu_engine`` (when it has one), the
     * iq.seg0_ready sample and the per-entry post-loop (issue_finish). */
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "select_issue expects 3 arguments");
        return NULL;
    }
    PyObject *queue = args[0], *now_obj = args[1], *acquire = args[2];
    int64_t now = (int64_t)PyLong_AsLongLong(now_obj);
    if (now == -1 && PyErr_Occurred())
        return NULL;
    int64_t width;
    if (PyObject_SetAttr(queue, str_now, now_obj) < 0
        || attr_i64(queue, str_issue_width, &width) < 0)
        return NULL;
    self->now = now;
    PyObject *fu;
    if (PyObject_GetOptionalAttr(acquire, str_fu_engine, &fu) < 0)
        return NULL;
    Py_ssize_t count;
    PyObject *issued = issue_select_raw(self, now, (Py_ssize_t)width, fu,
                                        acquire, &count);
    Py_XDECREF(fu);
    if (issued == NULL)
        return NULL;
    if (dist_sample_i64(self->b[B_SEG0_READY], (int64_t)count) < 0
        || PyObject_SetAttr(queue, str_issued_this_cycle,
                            PyList_GET_SIZE(issued) ? Py_True : Py_False) < 0
        || issue_finish(self, queue, issued, now) < 0) {
        Py_DECREF(issued);
        return NULL;
    }
    return issued;
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

static int
append_event(Engine *self, PyObject *obj, Py_ssize_t src, Py_ssize_t dst,
             int pushdown)
{
    /* Buffer one (entry, src, dst, pushdown) promote event. */
    PyObject *ev = Py_BuildValue("(Onni)", obj, src, dst, pushdown);
    int rc = ev == NULL ? -1 : PyList_Append(self->events, ev);
    Py_XDECREF(ev);
    return rc;
}

static int
promote_all_raw(Engine *self, int64_t now, int64_t width,
                int enable_pushdown, int64_t *promoted_out,
                int64_t *pushed_out)
{
    /* The fused promotion sweep (PyKernelEngine.promote_all): the moves
     * and pushdowns counted into ``*promoted_out`` and ``*pushed_out``,
     * the slots that arrived in segment 0 left in self->arrivals in
     * arrival order.  0, or -1 with an exception set. */
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
    i64vec *seg0 = &self->arrivals;
    seg0->len = 0;
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
                    if (collect && append_event(self, self->e_obj[slot], k,
                                                dk, 0) < 0)
                        goto fail;
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
                    if (collect && append_event(self, self->e_obj[slot], k,
                                                0, 0) < 0)
                        goto fail;
                    int64_t own = e_own[slot];
                    if (own >= 0 && c_mode[own] == 0
                        && own_chain_promoted(self, own, 0) < 0)
                        goto fail;
                    if (iv_push(seg0, slot) < 0)
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
                pushdowns++;
                if (dk && schedule_slot(self, slot, (int64_t)dk, now) < 0)
                    goto fail;
                if (collect && append_event(self, self->e_obj[slot], k, dk,
                                            1) < 0)
                    goto fail;
                int64_t own = e_own[slot];
                if (own >= 0 && c_mode[own] == 0
                    && own_chain_promoted(self, own, (int64_t)dk) < 0)
                    goto fail;
                if (dk == 0 && iv_push(seg0, slot) < 0)
                    goto fail;
            }
        }
    }
    *promoted_out = promotions;
    *pushed_out = pushdowns;
    return 0;
fail:
    /* The heap and vector helpers fail without setting an exception. */
    if (!PyErr_Occurred())
        PyErr_NoMemory();
    return -1;
}

static PyObject *
Engine_promote_all(Engine *self, PyObject *args)
{
    /* promote_all(now, width, enable_pushdown) ->
     * (promotions, pushdowns, seg0_entries) */
    long long now_ll, width_ll;
    int enable_pushdown;
    int64_t promotions, pushdowns;
    if (!PyArg_ParseTuple(args, "LLp", &now_ll, &width_ll,
                          &enable_pushdown)
        || promote_all_raw(self, (int64_t)now_ll, (int64_t)width_ll,
                           enable_pushdown, &promotions, &pushdowns) < 0)
        return NULL;
    PyObject *seg0 = PyList_New(self->arrivals.len);
    if (seg0 == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->arrivals.len; i++) {
        PyObject *obj = self->e_obj[self->arrivals.data[i]];
        Py_INCREF(obj);
        PyList_SET_ITEM(seg0, i, obj);
    }
    return Py_BuildValue("(LLN)", (long long)promotions,
                         (long long)pushdowns, seg0);
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

/* -------------------------------------------------------- policy ops -- */

static int
queue_call(PyObject *queue, PyObject *name, PyObject *now_obj)
{
    /* queue.<name>(now): the rare policy the queue keeps. */
    return call_discard(PyObject_CallMethodOneArg(queue, name, now_obj));
}

static int
deadlock_check(Engine *self, PyObject *queue, PyObject *now_obj,
               int64_t now, int promoted)
{
    /* PyKernelEngine.cycle's deadlock test (paper section 4.5): recover
     * when the IQ is not empty and nothing issued, promoted or is in
     * execution, or when nothing issued or committed for `patience`
     * cycles. */
    int issued = attr_truth(queue, str_issued_this_cycle);
    int64_t occupancy, in_flight = 1, last_issue, last_commit;
    if (issued < 0
        || (issued && attr_set_i64(queue, str_last_issue_cycle, now) < 0)
        || attr_i64(queue, str_occupancy_priv, &occupancy) < 0)
        return -1;
    if (occupancy == 0)
        return attr_set_i64(queue, str_last_issue_cycle, now);
    if (!issued && !promoted
        && attr_i64(queue, str_in_flight, &in_flight) < 0)
        return -1;
    if (in_flight != 0 || issued || promoted) {
        if (attr_i64(queue, str_last_issue_cycle, &last_issue) < 0
            || attr_i64(queue, str_last_commit_cycle_pub, &last_commit) < 0)
            return -1;
        if (now - (last_issue > last_commit ? last_issue : last_commit)
            <= self->patience)
            return 0;
    }
    return queue_call(queue, str_recover, now_obj);
}

static PyObject *
Engine_cycle(Engine *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* cycle(queue, now): the whole of PyKernelEngine.cycle. */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "cycle expects 2 arguments");
        return NULL;
    }
    if (!dispatch_bound(self))
        return NULL;
    PyObject *queue = args[0], *now_obj = args[1];
    int64_t now = (int64_t)PyLong_AsLongLong(now_obj);
    if (now == -1 && PyErr_Occurred())
        return NULL;
    int64_t width, promotions, pushdowns, occupancy, interval;
    int pushdown;
    if (PyObject_SetAttr(queue, str_now, now_obj) < 0
        || attr_i64(queue, str_issue_width, &width) < 0
        || (pushdown = attr_truth(queue, str_enable_pushdown)) < 0)
        return NULL;
    self->now = now;
    if (promote_all_raw(self, now, width, pushdown, &promotions,
                        &pushdowns) < 0)
        return NULL;
    int64_t moved = promotions + pushdowns;
    if (PyObject_SetAttr(queue, str_promoted_this_cycle,
                         moved ? Py_True : Py_False) < 0
        || (moved && counter_add(self->b[B_PROMOTIONS], moved) < 0)
        || (pushdowns && counter_add(self->b[B_PUSHDOWNS], pushdowns) < 0))
        return NULL;
    /* Segment-0 arrivals with every operand known become issue
     * candidates. */
    for (Py_ssize_t i = 0; i < self->arrivals.len; i++) {
        int64_t slot = self->arrivals.data[i], unknown, ready;
        PyObject *entry = self->e_obj[slot];
        if (site_get_i64(&at_iqe_unknown, entry, &unknown) < 0)
            return NULL;
        if (unknown)
            continue;
        if (site_get_i64(&at_iqe_ready, entry, &ready) < 0)
            return NULL;
        if (ready < now + 1)
            ready = now + 1;
        if (hq_push(&self->p0heap, (ready << SLOT_BITS) | slot) < 0)
            return PyErr_NoMemory();
    }
    if ((self->collect && queue_call(queue, str_trace_promotions,
                                     now_obj) < 0)
        || deadlock_check(self, queue, now_obj, now, moved != 0) < 0)
        return NULL;
    for (Py_ssize_t i = 0; i < self->num_segments; i++)
        self->free_prev[i] = self->cap - self->occ[i];
    int resize, adaptive;
    if (dist_sample_i64(self->b[B_IN_USE],
                        PyDict_GET_SIZE(self->b[B_ACTIVE])) < 0
        || attr_i64(queue, str_occupancy_priv, &occupancy) < 0
        || dist_sample_i64(self->b[B_OCCUPANCY], occupancy) < 0
        || (resize = attr_truth(queue, str_dynamic_resize)) < 0
        || (resize && queue_call(queue, str_resize_controller, now_obj) < 0)
        || (adaptive = attr_truth(queue, str_adaptive_thresholds)) < 0)
        return NULL;
    if (adaptive && now) {
        if (attr_i64(queue, str_threshold_interval, &interval) < 0)
            return NULL;
        if (interval == 0) {
            PyErr_SetString(PyExc_ZeroDivisionError,
                            "threshold update interval 0");
            return NULL;
        }
        if (now % interval == 0
            && queue_call(queue, str_refit_thresholds, now_obj) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
head_chain(Engine *self, PyObject *inst, PyObject **seq, int pop)
{
    /* The chain ``inst`` heads (a new reference, NULL when none: check
     * PyErr_Occurred), removed from the head-chain map when ``pop``;
     * ``*seq`` gets a new reference to inst.seq. */
    if ((*seq = site_get(&at_inst_seq, inst)) == NULL)
        return NULL;
    PyObject *chain = PyDict_GetItemWithError(self->b[B_HEAD_CHAINS], *seq);
    if (chain == NULL)
        return NULL;
    Py_INCREF(chain);
    if (pop && PyDict_DelItem(self->b[B_HEAD_CHAINS], *seq) < 0)
        Py_CLEAR(chain);
    return chain;
}

static int
policy_args(Engine *self, const char *name, PyObject *const *args,
            Py_ssize_t nargs, int64_t *now)
{
    /* The (queue, inst, now) arguments of the load and writeback ops. */
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "%s expects 3 arguments", name);
        return -1;
    }
    if (!dispatch_bound(self))
        return -1;
    *now = (int64_t)PyLong_AsLongLong(args[2]);
    return (*now == -1 && PyErr_Occurred()) ? -1 : 0;
}

static PyObject *
Engine_load_miss(Engine *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* load_miss(queue, inst, now): a chain the load heads suspends. */
    int64_t now;
    if (policy_args(self, "load_miss", args, nargs, &now) < 0)
        return NULL;
    PyObject *seq = NULL, *chain_id = NULL;
    PyObject *chain = head_chain(self, args[1], &seq, 0);
    int rc = chain == NULL ? (PyErr_Occurred() ? -1 : 0)
        : (chain_suspend(self, chain, now) < 0
           || (chain_id = site_get(&at_chain_id, chain)) == NULL
           || chains_trace(self, now, str_chain_wire, args[1], chain_id, -1,
                           str_suspend) < 0) ? -1 : 0;
    Py_XDECREF(seq);
    Py_XDECREF(chain);
    Py_XDECREF(chain_id);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_load_complete(Engine *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* load_complete(queue, inst, now): the HMP trains on the load's
     * memory level; a chain the load heads resumes and frees its wire. */
    int64_t now, pc;
    if (policy_args(self, "load_complete", args, nargs, &now) < 0)
        return NULL;
    PyObject *inst = args[1], *seq = NULL, *level = NULL, *chain = NULL;
    PyObject *chain_id = NULL;
    int rc = -1;
    PyObject *hmp = PyObject_GetAttr(args[0], str_hmp);
    if (hmp == NULL)
        return NULL;
    if (hmp != Py_None) {
        if ((level = site_get(&at_inst_mem_level, inst)) == NULL
            || (level != Py_None
                && ((seq = site_get(&at_inst_seq, inst)) == NULL
                    || site_get_i64(&at_inst_pc, inst, &pc) < 0
                    || hmp_train(self, hmp, pc, seq, level) < 0)))
            goto done;
        Py_CLEAR(seq);
    }
    chain = head_chain(self, inst, &seq, 1);
    if (chain == NULL)
        rc = PyErr_Occurred() ? -1 : 0;
    else if (chain_resume(self, chain, now) == 0
             && (chain_id = site_get(&at_chain_id, chain)) != NULL
             && chains_trace(self, now, str_chain_wire, inst, chain_id, -1,
                             str_resume) == 0)
        rc = chains_free(self, chain, now);
done:
    Py_DECREF(hmp);
    Py_XDECREF(level);
    Py_XDECREF(seq);
    Py_XDECREF(chain);
    Py_XDECREF(chain_id);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_writeback(Engine *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* writeback(queue, inst, now): free the chain wire inst heads. */
    int64_t now;
    if (policy_args(self, "writeback", args, nargs, &now) < 0)
        return NULL;
    PyObject *seq = NULL;
    PyObject *chain = head_chain(self, args[1], &seq, 1);
    int rc = chain == NULL ? (PyErr_Occurred() ? -1 : 0)
                           : chains_free(self, chain, now);
    Py_XDECREF(seq);
    Py_XDECREF(chain);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
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
    if ((seg == -1 && PyErr_Occurred())
        || index_in(seg, self->num_segments) < 0)
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
    if ((seg == -1 && PyErr_Occurred())
        || index_in(seg, self->num_segments) < 0)
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
    if ((seg == -1 && PyErr_Occurred())
        || index_in(seg, self->num_segments) < 0)
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
    if ((seg == -1 && PyErr_Occurred())
        || index_in(seg, self->num_segments) < 0)
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
    if ((seg == -1 && PyErr_Occurred())
        || index_in(seg, self->num_segments) < 0)
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
    {"bind", (PyCFunction)Engine_bind, METH_VARARGS, NULL},
    {"plan", (PyCFunction)Engine_plan, METH_FASTCALL, NULL},
    {"can_dispatch", (PyCFunction)Engine_can_dispatch, METH_FASTCALL, NULL},
    {"dispatch", (PyCFunction)Engine_dispatch, METH_FASTCALL, NULL},
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
    {"select_issue", (PyCFunction)Engine_select_issue, METH_FASTCALL,
     NULL},
    {"on_entry_ready_known", (PyCFunction)Engine_on_entry_ready_known,
     METH_O, NULL},
    {"notify", (PyCFunction)Engine_notify, METH_O, NULL},
    {"pop_eligible", (PyCFunction)Engine_pop_eligible, METH_VARARGS,
     NULL},
    {"oldest_ineligible", (PyCFunction)Engine_oldest_ineligible,
     METH_VARARGS, NULL},
    {"promote_all", (PyCFunction)Engine_promote_all, METH_VARARGS, NULL},
    {"cycle", (PyCFunction)Engine_cycle, METH_FASTCALL, NULL},
    {"load_miss", (PyCFunction)Engine_load_miss, METH_FASTCALL, NULL},
    {"load_complete", (PyCFunction)Engine_load_complete, METH_FASTCALL,
     NULL},
    {"writeback", (PyCFunction)Engine_writeback, METH_FASTCALL, NULL},
    {"next_promote_cycle", (PyCFunction)Engine_next_promote_cycle,
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
/* the simulator records), int 0 min/max on empty distributions, and  */
/* extremes that are the sampled objects themselves, so int samples   */
/* give int extremes exactly as in Python.                            */
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
    PyObject *inst = site_get(&at_iqe_inst, entry);
    if (inst == NULL)
        return -1;
    if (fu != NULL && Py_TYPE(fu) == &PipelineType) {
        PipelineObj *pl = (PipelineObj *)fu;
        PyObject *st = site_get(&at_inst_static, inst);
        if (st == NULL) {
            Py_DECREF(inst);
            return -1;
        }
        PyObject *opcode = site_get(&at_static_opcode, st);
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
            int64_t cluster;
            int rc = site_get_i64(&at_inst_cluster, inst, &cluster);
            Py_DECREF(inst);
            if (rc < 0)
                return -1;
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

static int
pipeline_cache_port_raw(PipelineObj *self, int64_t now)
{
    /* 1 claimed, 0 every port busy, -1 error. */
    Py_ssize_t base = self->mem_port * self->clusters;
    for (Py_ssize_t cluster = 0; cluster < self->clusters; cluster++) {
        i64vec *units = &self->heaps[base + cluster];
        if (!units->len || units->data[0] > now) {
            if (counter_inc1(self->structural) < 0)
                return -1;
            continue;
        }
        units->data[0] = now + 1;           /* heapreplace */
        hq_siftup(units->data, 0, units->len);
        return counter_inc1(self->issued[self->mem_port]) < 0 ? -1 : 1;
    }
    return 0;
}

static PyObject *
Pipeline_fu_cache_port(PipelineObj *self, PyObject *arg)
{
    long long now = PyLong_AsLongLong(arg);
    if (now == -1 && PyErr_Occurred())
        return NULL;
    int rc = pipeline_cache_port_raw(self, (int64_t)now);
    if (rc < 0)
        return NULL;
    return PyBool_FromLong(rc);
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
    /* The extremes as doubles, for comparison, and as the sampled
     * objects that reached them (NULL until one did). */
    double minimum;
    double maximum;
    PyObject *min_obj;
    PyObject *max_obj;
} DistObj;

static void
Dist_do_reset(DistObj *self)
{
    self->count = 0;
    self->total = 0.0;
    self->minimum = Py_HUGE_VAL;
    self->maximum = -Py_HUGE_VAL;
    Py_CLEAR(self->min_obj);
    Py_CLEAR(self->max_obj);
}

/* Fold one sample object (already converted to ``value``) into the
 * extremes; strict comparisons keep the first object to reach each. */
static inline void
Dist_fold_extremes(DistObj *self, PyObject *obj, double value)
{
    if (value < self->minimum) {
        self->minimum = value;
        Py_INCREF(obj);
        Py_XSETREF(self->min_obj, obj);
    }
    if (value > self->maximum) {
        self->maximum = value;
        Py_INCREF(obj);
        Py_XSETREF(self->max_obj, obj);
    }
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
    Py_XDECREF(self->min_obj);
    Py_XDECREF(self->max_obj);
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
    Dist_fold_extremes(self, arg, value);
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
    Dist_fold_extremes(self, args[0], value);
    Py_RETURN_NONE;
}

/* The raw extreme: the object that reached it, else the double
 * (+/-inf while nothing was sampled). */
static PyObject *
Dist_extreme(PyObject *obj, double value)
{
    if (obj != NULL) {
        Py_INCREF(obj);
        return obj;
    }
    return PyFloat_FromDouble(value);
}

static PyObject *
Dist_get_minimum(DistObj *self, void *Py_UNUSED(closure))
{
    if (self->count)
        return Dist_extreme(self->min_obj, self->minimum);
    return PyLong_FromLong(0);
}

static PyObject *
Dist_get_maximum(DistObj *self, void *Py_UNUSED(closure))
{
    if (self->count)
        return Dist_extreme(self->max_obj, self->maximum);
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
    if (self->count)
        return Dist_extreme(self->max_obj, self->maximum);
    return PyFloat_FromDouble(0.0);
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

static int
dist_sample_i64(PyObject *dist, int64_t value)
{
    /* dist.sample(value) for an int sample: in place on a compiled
     * Distribution (a Python int only for a new extreme). */
    if (Py_TYPE(dist) == &DistType) {
        DistObj *d = (DistObj *)dist;
        double v = (double)value;
        d->count += 1;
        d->total += v;
        if (v < d->minimum || v > d->maximum) {
            PyObject *obj = PyLong_FromLongLong((long long)value);
            if (obj == NULL)
                return -1;
            Dist_fold_extremes(d, obj, v);
            Py_DECREF(obj);
        }
        return 0;
    }
    PyObject *obj = PyLong_FromLongLong((long long)value);
    int rc = obj == NULL ? -1 : call_discard(
        PyObject_CallMethodOneArg(dist, str_sample, obj));
    Py_XDECREF(obj);
    return rc;
}

/* ------------------------------------------------------------------ */
/* Compiled event queue (repro.common.events transliteration)         */
/*                                                                    */
/* The same (cycle, sequence, callback, arg) min-heap semantics as    */
/* the Python EventQueue — insertion-order-stable for same-cycle      */
/* events, reentrant (callbacks may schedule follow-ups, including    */
/* for the cycle being drained) — over four parallel arrays instead   */
/* of a list of tuples.  A record with no ``arg`` (NULL here) fires   */
/* as ``callback()``; a typed record fires as ``callback(arg, cycle)``, */
/* and one whose callback is the compiled issue stage runs the        */
/* stage's completion in C with no Python frame.                      */
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
    PyObject **arg;             /* NULL: a plain callback() record */
    Py_ssize_t len;
    Py_ssize_t cap;
    int64_t counter;
    long long now;
} EQObj;

/* The issue and memory stages' completions, fired straight from
 * advance_to (defined with the stages below). */
static PyTypeObject IssueStageType, MemStageType;
static int issue_complete(PyObject *stage, PyObject *inst, int64_t when);
static int mem_done(PyObject *stage, PyObject *entry, int64_t when);

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
    PyObject **arg = (PyObject **)PyMem_Realloc(
        q->arg, sizeof(PyObject *) * (size_t)cap);
    if (arg == NULL)
        return -1;
    q->arg = arg;
    q->cap = cap;
    return 0;
}

/* heapq sift functions over the (when, seq) pair key; callbacks and
 * args ride along.  Same record movement as heapq on tuples. */
#define EQ_MOVE(q, dst, src)                                            \
    do {                                                                \
        (q)->when[dst] = (q)->when[src];                                \
        (q)->seq[dst] = (q)->seq[src];                                  \
        (q)->cb[dst] = (q)->cb[src];                                    \
        (q)->arg[dst] = (q)->arg[src];                                  \
    } while (0)

static void
eq_siftdown(EQObj *q, Py_ssize_t startpos, Py_ssize_t pos)
{
    int64_t nw = q->when[pos], ns = q->seq[pos];
    PyObject *ncb = q->cb[pos], *narg = q->arg[pos];
    while (pos > startpos) {
        Py_ssize_t parent = (pos - 1) >> 1;
        int64_t pw = q->when[parent], ps = q->seq[parent];
        if (nw < pw || (nw == pw && ns < ps)) {
            EQ_MOVE(q, pos, parent);
            pos = parent;
            continue;
        }
        break;
    }
    q->when[pos] = nw;
    q->seq[pos] = ns;
    q->cb[pos] = ncb;
    q->arg[pos] = narg;
}

static void
eq_siftup(EQObj *q, Py_ssize_t pos)
{
    Py_ssize_t endpos = q->len;
    Py_ssize_t startpos = pos;
    int64_t nw = q->when[pos], ns = q->seq[pos];
    PyObject *ncb = q->cb[pos], *narg = q->arg[pos];
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos
                && !(q->when[childpos] < q->when[rightpos]
                     || (q->when[childpos] == q->when[rightpos]
                         && q->seq[childpos] < q->seq[rightpos])))
            childpos = rightpos;
        EQ_MOVE(q, pos, childpos);
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    q->when[pos] = nw;
    q->seq[pos] = ns;
    q->cb[pos] = ncb;
    q->arg[pos] = narg;
    eq_siftdown(q, startpos, pos);
}
#undef EQ_MOVE

static int
eq_push(EQObj *q, int64_t when, PyObject *callback, PyObject *arg)
{
    /* ``arg`` NULL: a plain record. */
    if (q->len >= q->cap && eq_grow(q, q->len + 1) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    q->when[q->len] = when;
    q->seq[q->len] = q->counter++;
    Py_INCREF(callback);
    q->cb[q->len] = callback;
    Py_XINCREF(arg);
    q->arg[q->len] = arg;
    q->len++;
    eq_siftdown(q, 0, q->len - 1);
    return 0;
}

static int
eq_push_at(EQObj *q, int64_t cycle, PyObject *callback, PyObject *arg)
{
    /* schedule_at: refuses a cycle before ``now``. */
    if (cycle < q->now) {
        PyObject *exc = sim_error();
        if (exc != NULL)
            PyErr_Format(exc, "cannot schedule event at cycle %lld (now=%lld)",
                         (long long)cycle, q->now);
        return -1;
    }
    return eq_push(q, cycle, callback, arg);
}

static void
EQ_dealloc(EQObj *self)
{
    PyObject_GC_UnTrack(self);
    for (Py_ssize_t i = 0; i < self->len; i++) {
        Py_XDECREF(self->cb[i]);
        Py_XDECREF(self->arg[i]);
    }
    PyMem_Free(self->when);
    PyMem_Free(self->seq);
    PyMem_Free(self->cb);
    PyMem_Free(self->arg);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
EQ_traverse(EQObj *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->len; i++) {
        Py_VISIT(self->cb[i]);
        Py_VISIT(self->arg[i]);
    }
    return 0;
}

static int
EQ_clear(EQObj *self)
{
    Py_ssize_t len = self->len;
    self->len = 0;
    for (Py_ssize_t i = 0; i < len; i++) {
        Py_CLEAR(self->cb[i]);
        Py_CLEAR(self->arg[i]);
    }
    return 0;
}

static Py_ssize_t
EQ_length(EQObj *self)
{
    return self->len;
}

static int
eq_parse(const char *name, PyObject *const *args, Py_ssize_t nargs,
         long long *cycle, PyObject **arg)
{
    /* (cycle or delay, callback[, arg]); an ``arg`` of None is a plain
     * record, as in the Python queue. */
    if (nargs != 2 && nargs != 3) {
        PyErr_Format(PyExc_TypeError, "%s() takes 2 or 3 arguments", name);
        return -1;
    }
    *cycle = PyLong_AsLongLong(args[0]);
    if (*cycle == -1 && PyErr_Occurred())
        return -1;
    *arg = (nargs == 3 && args[2] != Py_None) ? args[2] : NULL;
    return 0;
}

static PyObject *
EQ_schedule(EQObj *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long delay;
    PyObject *arg;
    if (eq_parse("schedule", args, nargs, &delay, &arg) < 0)
        return NULL;
    if (delay < 0) {
        PyObject *exc = sim_error();
        if (exc != NULL)
            PyErr_Format(
                exc, "cannot schedule event in the past (delay=%lld)",
                delay);
        return NULL;
    }
    if (eq_push(self, self->now + delay, args[1], arg) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
EQ_schedule_at(EQObj *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long cycle;
    PyObject *arg;
    if (eq_parse("schedule_at", args, nargs, &cycle, &arg) < 0
        || eq_push_at(self, (int64_t)cycle, args[1], arg) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
eq_fire(PyObject *callback, PyObject *arg, int64_t when)
{
    if (arg == NULL)
        return call_discard(PyObject_CallNoArgs(callback));
    if (Py_TYPE(callback) == &IssueStageType)
        return issue_complete(callback, arg, when);
    if (Py_TYPE(callback) == &MemStageType)
        return mem_done(callback, arg, when);
    PyObject *cycle = PyLong_FromLongLong((long long)when);
    if (cycle == NULL)
        return -1;
    PyObject *argv[2] = {arg, cycle};
    int rc = call_discard(PyObject_Vectorcall(callback, argv, 2, NULL));
    Py_DECREF(cycle);
    return rc;
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
        PyObject *callback = self->cb[0], *record_arg = self->arg[0];
        self->len--;
        if (self->len) {
            self->when[0] = self->when[self->len];
            self->seq[0] = self->seq[self->len];
            self->cb[0] = self->cb[self->len];
            self->arg[0] = self->arg[self->len];
            eq_siftup(self, 0);
        }
        self->now = when;
        int rc = eq_fire(callback, record_arg, when);
        Py_DECREF(callback);
        Py_XDECREF(record_arg);
        if (rc < 0)
            return NULL;
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
    .tp_doc = "Min-heap of (cycle, sequence, callback, arg) (compiled).",
    .tp_traverse = (traverseproc)EQ_traverse,
    .tp_clear = (inquiry)EQ_clear,
    .tp_methods = EQ_methods,
    .tp_members = EQ_members,
    .tp_init = (initproc)EQ_init,
    .tp_new = PyType_GenericNew,
};

/* ----------------------------------------------- pipeline rename ------ */

static PyObject *
rename_raw(PyObject *cls, PyObject *last_writer, PyObject *srcs,
           Py_ssize_t limit)
{
    /* The unclustered rename loop of Processor._dispatch, fused: one
     * Operand per IQ-relevant source (``limit`` of them; -1 = all),
     * producer looked up in ``last_writer`` and its value_ready_cycle
     * copied through.  Returns a new list. */
    if (!PyTuple_CheckExact(srcs) || !PyDict_CheckExact(last_writer)) {
        PyErr_SetString(PyExc_TypeError,
                        "rename: srcs tuple / dict expected");
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
        if (site_set(&at_op_reg, op, reg) < 0
            || site_set(&at_op_penalty, op, zero_obj) < 0)
            goto fail;
        if (producer == NULL) {
            if (site_set(&at_op_producer, op, Py_None) < 0
                || site_set(&at_op_ready, op, zero_obj) < 0)
                goto fail;
        } else {
            PyObject *ready = site_get(&at_prod_ready, producer);
            if (ready == NULL)
                goto fail;
            int rc = (site_set(&at_op_producer, op, producer) < 0
                      || site_set(&at_op_ready, op, ready) < 0);
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

static PyObject *
proc_rob0(PyObject *proc)
{
    /* proc.robs[0]: thread 0's ROB, as a new reference. */
    PyObject *robs = PyObject_GetAttr(proc, str_robs);
    if (robs == NULL)
        return NULL;
    PyObject *rob = PySequence_GetItem(robs, 0);
    Py_DECREF(robs);
    return rob;
}

/* ------------------------------------------------- dispatch stage ----- */
/*                                                                      */
/* The C twin of Processor._dispatch, one call per cycle, for           */
/* unclustered and untraced runs on a stock ReorderBuffer.  The         */
/* processor's ROB, IQ and LSQ are read on every call, and the IQ, LSQ  */
/* and front end are entered through their methods, looked up on every  */
/* call, so every IQ design and any wrapper on those methods keeps      */
/* working.  Order per instruction as in the Python loop: ROB append,   */
/* lsq.dispatch (which subscribes the store-data waiter), iq.dispatch.  */

typedef struct {
    PyObject_HEAD
    PyObject *operand_cls;      /* repro.core.iq_base.Operand */
    PyObject *last_writer;      /* the processor's reg -> producer dict */
    PyObject *stall_rob, *stall_lsq, *stall_iq, *stall_chain;
    PyObject *dispatched;
    PyObject *op_halt, *op_nop, *op_jump;   /* OpClass members */
    Py_ssize_t width;
} StageObj;

static int
counter_add(PyObject *counter, Py_ssize_t amount)
{
    if (Py_TYPE(counter) == &CounterType) {
        ((CounterObj *)counter)->value += amount;
        return 0;
    }
    PyObject *num = PyLong_FromSsize_t(amount);
    if (num == NULL)
        return -1;
    PyObject *result = PyObject_CallMethodOneArg(counter, str_inc, num);
    Py_DECREF(num);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

static int
Stage_init(StageObj *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"operand_cls", "last_writer", "width",
                             "stall_rob", "stall_lsq", "stall_iq",
                             "stall_chain", "dispatched", "halt", "nop",
                             "jump", NULL};
    PyObject *items[10];
    Py_ssize_t width;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "O!O!nOOOOOOOO", kwlist, &PyType_Type, &items[0],
            &PyDict_Type, &items[1], &width, &items[2], &items[3],
            &items[4], &items[5], &items[6], &items[7], &items[8],
            &items[9]))
        return -1;
    PyObject **slots[10] = {&self->operand_cls, &self->last_writer,
                            &self->stall_rob, &self->stall_lsq,
                            &self->stall_iq, &self->stall_chain,
                            &self->dispatched, &self->op_halt,
                            &self->op_nop, &self->op_jump};
    for (int i = 0; i < 10; i++) {
        Py_INCREF(items[i]);
        Py_XSETREF(*slots[i], items[i]);
    }
    self->width = width;
    return 0;
}

static int
Stage_traverse(StageObj *self, visitproc visit, void *arg)
{
    Py_VISIT(self->operand_cls);
    Py_VISIT(self->last_writer);
    Py_VISIT(self->stall_rob);
    Py_VISIT(self->stall_lsq);
    Py_VISIT(self->stall_iq);
    Py_VISIT(self->stall_chain);
    Py_VISIT(self->dispatched);
    Py_VISIT(self->op_halt);
    Py_VISIT(self->op_nop);
    Py_VISIT(self->op_jump);
    return 0;
}

static int
Stage_clear(StageObj *self)
{
    Py_CLEAR(self->operand_cls);
    Py_CLEAR(self->last_writer);
    Py_CLEAR(self->stall_rob);
    Py_CLEAR(self->stall_lsq);
    Py_CLEAR(self->stall_iq);
    Py_CLEAR(self->stall_chain);
    Py_CLEAR(self->dispatched);
    Py_CLEAR(self->op_halt);
    Py_CLEAR(self->op_nop);
    Py_CLEAR(self->op_jump);
    return 0;
}

static void
Stage_dealloc(StageObj *self)
{
    PyObject_GC_UnTrack(self);
    Stage_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
pipeline_head(PyObject *pipeline, int64_t now, int *err)
{
    /* pipeline[0][1] when the decode pipeline is non-empty and its head
     * is ready by ``now`` (a new reference); otherwise NULL, with *err
     * set when an exception was raised. */
    *err = 0;
    Py_ssize_t n = PyObject_Length(pipeline);
    if (n <= 0) {
        *err = n < 0;
        return NULL;
    }
    PyObject *head = PySequence_GetItem(pipeline, 0);
    if (head == NULL) {
        *err = 1;
        return NULL;
    }
    PyObject *inst = NULL;
    if (!PyTuple_Check(head) || PyTuple_GET_SIZE(head) < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "dispatch stage: (ready, inst) pipeline records");
        *err = 1;
    }
    else {
        long long ready = PyLong_AsLongLong(PyTuple_GET_ITEM(head, 0));
        if (ready == -1 && PyErr_Occurred())
            *err = 1;
        else if ((int64_t)ready <= now) {
            inst = PyTuple_GET_ITEM(head, 1);
            Py_INCREF(inst);
        }
    }
    Py_DECREF(head);
    return inst;
}

static int
rob_append(PyObject *rob_entries, PyObject *inst)
{
    /* inst.rob_index = len(rob_entries); rob_entries.append(inst) */
    Py_ssize_t n = PyObject_Length(rob_entries);
    if (n < 0 || site_set_i64(&at_inst_rob_index, inst, (int64_t)n) < 0)
        return -1;
    return call_discard(
        PyObject_CallMethodOneArg(rob_entries, str_append, inst));
}

static int
lsq_dispatch(StageObj *self, PyObject *lsq, PyObject *inst, PyObject *srcs)
{
    /* lsq.dispatch(inst, *self._store_data_operand(inst)): a store's
     * data register is renamed like any operand (r0 and unwritten
     * registers are ready at 0). */
    PyObject *ready = Py_None, *producer = Py_None;
    int is_store = site_truth(&at_inst_is_store, inst);
    if (is_store < 0)
        return -1;
    if (is_store) {
        if (PyTuple_GET_SIZE(srcs) < 2) {
            PyErr_SetString(PyExc_IndexError, "store without a data source");
            return -1;
        }
        PyObject *reg = PyTuple_GET_ITEM(srcs, 1);
        long regv = PyLong_AsLong(reg);
        if (regv == -1 && PyErr_Occurred())
            return -1;
        PyObject *found = NULL;
        if (regv != 0) {
            found = PyDict_GetItemWithError(self->last_writer, reg);
            if (found == NULL && PyErr_Occurred())
                return -1;
        }
        if (found != NULL) {
            ready = site_get(&at_prod_ready, found);
            if (ready == NULL)
                return -1;
            producer = found;
        }
        else {
            ready = zero_obj;
            Py_INCREF(ready);
        }
        Py_INCREF(producer);
    }
    else {
        Py_INCREF(ready);
        Py_INCREF(producer);
    }
    int rc = call_discard(PyObject_CallMethodObjArgs(
        lsq, str_dispatch, inst, ready, producer, NULL));
    Py_DECREF(ready);
    Py_DECREF(producer);
    return rc;
}

static PyObject *
Stage_run(StageObj *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* run(processor, now): dispatch up to ``width`` decoded
     * instructions, exactly as Processor._dispatch does. */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "run expects 2 arguments");
        return NULL;
    }
    PyObject *proc = args[0], *now_obj = args[1];
    int64_t now = (int64_t)PyLong_AsLongLong(now_obj);
    if (now == -1 && PyErr_Occurred())
        return NULL;
    PyObject *lsq = NULL, *frontend = NULL, *pipeline = NULL, *rob = NULL;
    PyObject *rob_entries = NULL, *iq = NULL, *lsq_order = NULL;
    PyObject *inst = NULL, *srcs = NULL, *operands = NULL;
    Py_ssize_t dispatched = 0;
    int ok = 0, err;
    int64_t flush_until, rob_size, lsq_size;

    lsq = PyObject_GetAttr(proc, str_lsq);
    if (lsq == NULL
        || attr_i64(lsq, str_violation_flush_until, &flush_until) < 0)
        goto done;
    if (now < flush_until) {
        ok = 1;     /* squash penalty after a memory-order violation */
        goto done;
    }
    frontend = PyObject_GetAttr(proc, str_frontend);
    if (frontend == NULL
        || (pipeline = PyObject_GetAttr(frontend, str_pipeline)) == NULL)
        goto done;
    inst = pipeline_head(pipeline, now, &err);
    if (inst == NULL) {
        ok = !err;
        goto done;
    }
    /* proc.robs[0], not the rob property (a Python frame per call): the
     * property's setter unbinds this stage whenever the ROB is swapped. */
    if ((rob = proc_rob0(proc)) == NULL
        || (rob_entries = PyObject_GetAttr(rob, str_entries)) == NULL
        || attr_i64(rob, str_size, &rob_size) < 0
        || (iq = PyObject_GetAttr(proc, str_iq)) == NULL
        || (lsq_order = PyObject_GetAttr(lsq, str_order)) == NULL
        || attr_i64(lsq, str_size, &lsq_size) < 0)
        goto done;

    while (inst != NULL) {
        Py_ssize_t rob_len = PyObject_Length(rob_entries);
        if (rob_len < 0)
            goto done;
        if (rob_len >= rob_size) {
            PyObject *full = PyObject_GetAttr(rob, str_stat_full_stalls);
            int rc = full == NULL ? -1 : counter_inc1(full);
            Py_XDECREF(full);
            if (rc < 0 || counter_inc1(self->stall_rob) < 0)
                goto done;
            break;
        }
        PyObject *op_class = site_get(&at_inst_op_class, inst);
        if (op_class == NULL)
            goto done;
        Py_DECREF(op_class);    /* compared by identity only */

        if (op_class == self->op_halt || op_class == self->op_nop
            || op_class == self->op_jump) {
            /* No register work: completes at dispatch; a mispredicted
             * jump releases fetch now. */
            if (rob_append(rob_entries, inst) < 0
                || site_set(&at_inst_dispatched, inst, now_obj) < 0
                || site_set(&at_inst_completed, inst, now_obj) < 0)
                goto done;
            if (op_class == self->op_jump) {
                int mispredicted = site_truth(&at_inst_mispredicted, inst);
                if (mispredicted < 0
                    || (mispredicted && call_discard(
                            PyObject_CallMethodObjArgs(
                                frontend, str_branch_resolved, inst,
                                now_obj, NULL)) < 0))
                    goto done;
            }
        }
        else {
            int is_mem = site_truth(&at_inst_is_mem, inst);
            if (is_mem < 0)
                goto done;
            if (is_mem) {
                Py_ssize_t lsq_len = PyObject_Length(lsq_order);
                if (lsq_len < 0)
                    goto done;
                if (lsq_len >= lsq_size) {
                    if (counter_inc1(self->stall_lsq) < 0)
                        goto done;
                    break;
                }
            }
            PyObject *answer = PyObject_CallMethodOneArg(
                iq, str_can_dispatch, inst);
            int admitted = answer == NULL ? -1 : PyObject_IsTrue(answer);
            Py_XDECREF(answer);
            if (admitted < 0)
                goto done;
            if (!admitted) {
                int on_chain = attr_truth(iq, str_blocked_on_chain);
                if (on_chain < 0
                    || counter_inc1(on_chain ? self->stall_chain
                                             : self->stall_iq) < 0)
                    goto done;
                break;
            }
            if ((srcs = site_get(&at_inst_srcs, inst)) == NULL
                || (operands = rename_raw(self->operand_cls,
                                          self->last_writer, srcs,
                                          is_mem ? 1 : -1)) == NULL
                || rob_append(rob_entries, inst) < 0
                || site_set(&at_inst_dispatched, inst, now_obj) < 0
                || (is_mem && lsq_dispatch(self, lsq, inst, srcs) < 0)
                || call_discard(PyObject_CallMethodObjArgs(
                       iq, str_dispatch, inst, operands, now_obj,
                       NULL)) < 0)
                goto done;
            Py_CLEAR(srcs);
            Py_CLEAR(operands);
            PyObject *dest = site_get(&at_inst_dest, inst);
            if (dest == NULL)
                goto done;
            int rc = 0;
            if (dest != Py_None) {
                long destv = PyLong_AsLong(dest);
                if (destv == -1 && PyErr_Occurred())
                    rc = -1;
                else if (destv != 0)
                    rc = PyDict_SetItem(self->last_writer, dest, inst);
            }
            Py_DECREF(dest);
            if (rc < 0)
                goto done;
        }
        if (call_discard(PyObject_CallMethodNoArgs(pipeline,
                                                   str_popleft)) < 0)
            goto done;
        dispatched++;
        Py_CLEAR(inst);
        if (dispatched >= self->width)
            break;
        inst = pipeline_head(pipeline, now, &err);
        if (inst == NULL && err)
            goto done;
    }
    if (dispatched && counter_add(self->dispatched, dispatched) < 0)
        goto done;
    ok = 1;
done:
    Py_XDECREF(lsq);
    Py_XDECREF(frontend);
    Py_XDECREF(pipeline);
    Py_XDECREF(rob);
    Py_XDECREF(rob_entries);
    Py_XDECREF(iq);
    Py_XDECREF(lsq_order);
    Py_XDECREF(inst);
    Py_XDECREF(srcs);
    Py_XDECREF(operands);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef Stage_methods[] = {
    {"run", (PyCFunction)Stage_run, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL}
};

static PyTypeObject StageType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.segmented._ckernels.DispatchStage",
    .tp_basicsize = sizeof(StageObj),
    .tp_itemsize = 0,
    .tp_dealloc = (destructor)Stage_dealloc,
    .tp_flags = (Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE
                 | Py_TPFLAGS_HAVE_GC),
    .tp_doc = "Compiled dispatch stage (see pipeline/kernels.py)",
    .tp_traverse = (traverseproc)Stage_traverse,
    .tp_clear = (inquiry)Stage_clear,
    .tp_methods = Stage_methods,
    .tp_init = (initproc)Stage_init,
    .tp_new = PyType_GenericNew,
};

/* --------------------------------------------------- issue stage ------ */
/*                                                                      */
/* The C twin of Processor._issue and Processor._complete, one run per  */
/* cycle, for unclustered, untraced runs with no invariant checker on   */
/* the compiled event queue.  run(processor, now) sets the FU           */
/* acquisition's cycle and calls processor.iq.select_issue, looked up   */
/* on every call, so every IQ design and any wrapper on it keeps        */
/* working.  Then each issued instruction starts executing: a memory    */
/* op's effective address is ready next cycle (a typed record calling   */
/* lsq.address_ready(inst, cycle)); any other op's value is ready after */
/* its latency (DynInst.set_value_ready, inlined) and it completes then */
/* (a typed record whose callback is this stage, so advance_to runs     */
/* issue_complete with no Python frame).                                */

typedef struct {
    PyObject_HEAD
    PyObject *proc;             /* the processor whose completions fire */
    PyObject *acquire;          /* its FUAcquire */
    PyObject *entry_cls;        /* repro.core.iq_base.IQEntry */
} IssueStageObj;

static int
IssueStage_init(IssueStageObj *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"processor", "acquire", "entry_cls", NULL};
    PyObject *proc, *acquire, *entry_cls;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOO!", kwlist, &proc,
                                     &acquire, &PyType_Type, &entry_cls))
        return -1;
    Py_INCREF(proc);
    Py_XSETREF(self->proc, proc);
    Py_INCREF(acquire);
    Py_XSETREF(self->acquire, acquire);
    Py_INCREF(entry_cls);
    Py_XSETREF(self->entry_cls, entry_cls);
    return 0;
}

static int
IssueStage_traverse(IssueStageObj *self, visitproc visit, void *arg)
{
    Py_VISIT(self->proc);
    Py_VISIT(self->acquire);
    Py_VISIT(self->entry_cls);
    return 0;
}

static int
IssueStage_clear(IssueStageObj *self)
{
    Py_CLEAR(self->proc);
    Py_CLEAR(self->acquire);
    Py_CLEAR(self->entry_cls);
    return 0;
}

static void
IssueStage_dealloc(IssueStageObj *self)
{
    PyObject_GC_UnTrack(self);
    IssueStage_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
entry_source_known(PyObject *entry, PyObject *index, int64_t cycle)
{
    /* IQEntry.source_known(index, cycle) on an exact IQEntry: 1 when
     * the entry's full readiness is now known, else 0; -1 on error. */
    PyObject *operands = site_get(&at_iqe_operands, entry);
    if (operands == NULL)
        return -1;
    PyObject *op = PyObject_GetItem(operands, index);
    Py_DECREF(operands);
    if (op == NULL)
        return -1;
    int64_t penalty, ready, unknown;
    PyObject *ready_obj = NULL;
    int rc = site_get_i64(&at_op_penalty, op, &penalty);
    if (rc == 0) {
        cycle += penalty;
        ready_obj = PyLong_FromLongLong((long long)cycle);
        rc = (ready_obj == NULL || site_set(&at_op_ready, op, ready_obj) < 0
              || site_get_i64(&at_iqe_ready, entry, &ready) < 0) ? -1 : 0;
    }
    Py_DECREF(op);
    if (rc == 0 && cycle > ready)
        rc = site_set(&at_iqe_ready, entry, ready_obj);
    Py_XDECREF(ready_obj);
    if (rc < 0 || site_get_i64(&at_iqe_unknown, entry, &unknown) < 0
        || site_set_i64(&at_iqe_unknown, entry, unknown - 1) < 0)
        return -1;
    return unknown - 1 == 0;
}

static int
notify_waiter(PyObject *entry_cls, PyObject *waiter, int64_t cycle,
              PyObject *cycle_obj)
{
    /* One waiter of DynInst.set_value_ready: a (queue, entry, index)
     * operand triple, a typed record (callback, arg) called as
     * callback(arg, cycle), or a callable.  ``entry_cls`` is IQEntry,
     * whose source_known runs inlined. */
    if (!PyTuple_CheckExact(waiter))
        return call_discard(PyObject_CallOneArg(waiter, cycle_obj));
    if (PyTuple_GET_SIZE(waiter) == 2) {
        PyObject *argv[2] = {PyTuple_GET_ITEM(waiter, 1), cycle_obj};
        return call_discard(PyObject_Vectorcall(
            PyTuple_GET_ITEM(waiter, 0), argv, 2, NULL));
    }
    if (PyTuple_GET_SIZE(waiter) != 3) {
        PyErr_SetString(PyExc_ValueError,
                        "operand waiter: (queue, entry, index) expected");
        return -1;
    }
    PyObject *queue = PyTuple_GET_ITEM(waiter, 0);
    PyObject *entry = PyTuple_GET_ITEM(waiter, 1);
    PyObject *index = PyTuple_GET_ITEM(waiter, 2);
    int known;
    if (Py_TYPE(entry) == (PyTypeObject *)entry_cls) {
        known = entry_source_known(entry, index, cycle);
    }
    else {
        PyObject *answer = PyObject_CallMethodObjArgs(
            entry, str_source_known, index, cycle_obj, NULL);
        known = answer == NULL ? -1 : PyObject_IsTrue(answer);
        Py_XDECREF(answer);
    }
    if (known <= 0)
        return known;
    return call_discard(PyObject_CallMethodOneArg(
        queue, str_on_entry_ready_known, entry));
}

static int
set_value_ready(PyObject *entry_cls, PyObject *inst, int64_t cycle)
{
    /* inst.set_value_ready(cycle): record when the value is available,
     * then notify the waiters registered so far.  With none, the empty
     * list stays in place of the fresh one the method would install. */
    PyObject *cycle_obj = PyLong_FromLongLong((long long)cycle);
    if (cycle_obj == NULL)
        return -1;
    PyObject *waiters = NULL, *fast = NULL;
    int rc = -1;
    if (site_set(&at_prod_ready, inst, cycle_obj) < 0
        || (waiters = site_get(&at_prod_waiters, inst)) == NULL)
        goto done;
    if (PyList_CheckExact(waiters) && PyList_GET_SIZE(waiters) == 0) {
        rc = 0;
        goto done;
    }
    if (site_set_new(&at_prod_waiters, inst, PyList_New(0)) < 0
        || (fast = PySequence_Fast(waiters, "waiters must be a list")) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(fast); i++) {
        PyObject *waiter = PySequence_Fast_GET_ITEM(fast, i);
        Py_INCREF(waiter);
        int step = notify_waiter(entry_cls, waiter, cycle, cycle_obj);
        Py_DECREF(waiter);
        if (step < 0)
            goto done;
    }
    rc = 0;
done:
    Py_DECREF(cycle_obj);
    Py_XDECREF(waiters);
    Py_XDECREF(fast);
    return rc;
}

static int
issue_complete(PyObject *stage, PyObject *inst, int64_t when)
{
    /* Processor._complete(inst, when), untraced: the instruction writes
     * back, and a mispredicted branch releases fetch. */
    IssueStageObj *self = (IssueStageObj *)stage;
    if (self->proc == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "issue stage: cleared");
        return -1;
    }
    PyObject *when_obj = PyLong_FromLongLong((long long)when);
    if (when_obj == NULL)
        return -1;
    PyObject *iq = NULL, *frontend = NULL;
    int rc = -1;
    if (site_set(&at_inst_completed, inst, when_obj) < 0
        || (iq = PyObject_GetAttr(self->proc, str_iq)) == NULL
        || call_discard(PyObject_CallMethodObjArgs(
               iq, str_on_writeback, inst, when_obj, NULL)) < 0)
        goto done;
    int branch = site_truth(&at_inst_mispredicted, inst);
    if (branch > 0)
        branch = site_truth(&at_inst_is_branch, inst);
    if (branch < 0)
        goto done;
    if (branch
        && ((frontend = PyObject_GetAttr(self->proc, str_frontend)) == NULL
            || call_discard(PyObject_CallMethodObjArgs(
                   frontend, str_branch_resolved, inst, when_obj,
                   NULL)) < 0))
        goto done;
    rc = 0;
done:
    Py_DECREF(when_obj);
    Py_XDECREF(iq);
    Py_XDECREF(frontend);
    return rc;
}

static int
issue_start(IssueStageObj *self, EQObj *events, PyObject *proc,
            PyObject *entry, int64_t now, PyObject *now_obj,
            PyObject **address_ready)
{
    /* One issued entry of Processor._issue: ``*address_ready`` is
     * processor.lsq.address_ready, looked up at the cycle's first
     * memory op. */
    PyObject *inst = site_get(&at_iqe_inst, entry);
    if (inst == NULL)
        return -1;
    int rc = -1;
    int is_mem = -1;
    if (site_set(&at_inst_issued, inst, now_obj) == 0)
        is_mem = site_truth(&at_inst_is_mem, inst);
    if (is_mem > 0) {
        /* The IQ issued the effective-address add; the LSQ takes over
         * once the address is available. */
        if (*address_ready == NULL) {
            PyObject *lsq = PyObject_GetAttr(proc, str_lsq);
            if (lsq != NULL) {
                *address_ready = PyObject_GetAttr(lsq, str_address_ready);
                Py_DECREF(lsq);
            }
        }
        if (*address_ready != NULL)
            rc = eq_push_at(events, now + 1, *address_ready, inst);
    }
    else if (is_mem == 0) {
        int64_t latency;
        if (site_get_i64(&at_inst_latency, inst, &latency) == 0
            && set_value_ready(self->entry_cls, inst, now + latency) == 0)
            rc = eq_push_at(events, now + latency, (PyObject *)self, inst);
    }
    Py_DECREF(inst);
    return rc;
}

static PyObject *
IssueStage_run(IssueStageObj *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* run(processor, now): one cycle of Processor._issue. */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "run expects 2 arguments");
        return NULL;
    }
    PyObject *proc = args[0], *now_obj = args[1];
    int64_t now = (int64_t)PyLong_AsLongLong(now_obj);
    if (now == -1 && PyErr_Occurred())
        return NULL;
    if (self->acquire == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "issue stage: cleared");
        return NULL;
    }
    if (site_set(&at_acquire_now, self->acquire, now_obj) < 0)
        return NULL;
    PyObject *iq = PyObject_GetAttr(proc, str_iq);
    if (iq == NULL)
        return NULL;
    PyObject *issued = PyObject_CallMethodObjArgs(
        iq, str_select_issue, now_obj, self->acquire, NULL);
    Py_DECREF(iq);
    if (issued == NULL)
        return NULL;
    PyObject *events = NULL, *fast = NULL, *address_ready = NULL;
    int ok = 0;
    int any = PyObject_IsTrue(issued);
    if (any <= 0) {
        ok = any == 0;
        goto done;
    }
    if ((events = PyObject_GetAttr(proc, str_events)) == NULL)
        goto done;
    if (Py_TYPE(events) != &EQType) {
        PyErr_SetString(PyExc_TypeError,
                        "issue stage: the compiled EventQueue expected");
        goto done;
    }
    if ((fast = PySequence_Fast(issued, "select_issue: a list")) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(fast); i++) {
        if (issue_start(self, (EQObj *)events, proc,
                        PySequence_Fast_GET_ITEM(fast, i), now, now_obj,
                        &address_ready) < 0)
            goto done;
    }
    ok = 1;
done:
    Py_DECREF(issued);
    Py_XDECREF(events);
    Py_XDECREF(fast);
    Py_XDECREF(address_ready);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef IssueStage_methods[] = {
    {"run", (PyCFunction)IssueStage_run, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL}
};

static PyTypeObject IssueStageType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.segmented._ckernels.IssueStage",
    .tp_basicsize = sizeof(IssueStageObj),
    .tp_itemsize = 0,
    .tp_dealloc = (destructor)IssueStage_dealloc,
    .tp_flags = (Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE
                 | Py_TPFLAGS_HAVE_GC),
    .tp_doc = "Compiled issue stage (see pipeline/kernels.py)",
    .tp_traverse = (traverseproc)IssueStage_traverse,
    .tp_clear = (inquiry)IssueStage_clear,
    .tp_methods = IssueStage_methods,
    .tp_init = (initproc)IssueStage_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------ native replay -- */
/*                                                                      */
/* The C twin of repro.isa.record.replay: iterates a FunctionalRecord's */
/* columns and yields one fresh DynInst per recorded instruction.  Each */
/* DynInst is a clone of its pc's prototype, a DynInst the real         */
/* constructor made once per record: every slot of the type's slot      */
/* table is copied from the prototype, so the dataclass defaults stay   */
/* defined in one place, and then seq, mem_addr, taken and next_pc are  */
/* overridden and ``waiters`` is a fresh list.  The columns are read    */
/* through the buffer protocol: pcs and next_pcs are array('i'), taken  */
/* a bytearray and mem_addrs an array('q') (checked at construction).   */

typedef struct {
    PyObject_HEAD
    PyObject *protos;           /* list: pc -> prototype DynInst */
    PyTypeObject *type;         /* the prototypes' type */
    Py_buffer cols[4];          /* pcs, next_pcs, taken, mem_addrs */
    int held;                   /* columns held (released at the end) */
    Py_ssize_t pos, count;
    Py_ssize_t nslots;
    Py_ssize_t *slots;          /* offset of every object slot */
    Py_ssize_t off_seq, off_mem_addr, off_taken, off_next_pc;
    Py_ssize_t off_waiters, off_is_mem;
} ReplayObj;

static void
replay_release(ReplayObj *self)
{
    for (int i = 0; i < self->held; i++)
        PyBuffer_Release(&self->cols[i]);
    self->held = 0;
}

static Py_ssize_t
replay_slot(PyTypeObject *tp, PyObject *name)
{
    /* The offset of ``tp``'s writable object slot ``name``, or -1 with
     * an exception. */
    PyObject *descr = _PyType_Lookup(tp, name);
    if (descr != NULL && Py_TYPE(descr) == &PyMemberDescr_Type) {
        PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
        if (member->type == T_OBJECT_EX && !(member->flags & READONLY))
            return member->offset;
    }
    PyErr_Format(PyExc_TypeError, "replay: %s has no slot %R",
                 tp->tp_name, name);
    return -1;
}

static int
Replay_init(ReplayObj *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"prototypes", "pcs", "next_pcs", "taken",
                             "mem_addrs", "count", NULL};
    PyObject *protos, *cols[4];
    Py_ssize_t count;
    static const char *formats[4] = {"i", "i", "B", "q"};
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "O!OOOOn", kwlist, &PyList_Type, &protos,
            &cols[0], &cols[1], &cols[2], &cols[3], &count))
        return -1;
    if (self->protos != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "replay: already initialised");
        return -1;
    }
    if (PyList_GET_SIZE(protos) == 0 || count < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "replay: prototypes and a count >= 0 expected");
        return -1;
    }
    PyTypeObject *tp = Py_TYPE(PyList_GET_ITEM(protos, 0));
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(protos); i++) {
        if (Py_TYPE(PyList_GET_ITEM(protos, i)) != tp) {
            PyErr_SetString(PyExc_TypeError,
                            "replay: prototypes of one type expected");
            return -1;
        }
    }
    if (tp->tp_dictoffset != 0 || tp->tp_itemsize != 0
#ifdef Py_TPFLAGS_MANAGED_DICT
        || (tp->tp_flags & Py_TPFLAGS_MANAGED_DICT)
#endif
        || tp->tp_alloc == NULL) {
        PyErr_Format(PyExc_TypeError,
                     "replay: %s is not a fixed-size slotted type",
                     tp->tp_name);
        return -1;
    }
    /* The slot table: every object member of the type and its bases. */
    Py_ssize_t n = 0;
    for (PyTypeObject *t = tp; t != NULL; t = t->tp_base)
        for (PyMemberDef *m = t->tp_members; m && m->name; m++)
            n += m->type == T_OBJECT_EX;
    PyMem_Free(self->slots);
    self->slots = PyMem_New(Py_ssize_t, n ? n : 1);
    if (self->slots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->nslots = 0;
    for (PyTypeObject *t = tp; t != NULL; t = t->tp_base)
        for (PyMemberDef *m = t->tp_members; m && m->name; m++)
            if (m->type == T_OBJECT_EX)
                self->slots[self->nslots++] = m->offset;
    if ((self->off_seq = replay_slot(tp, str_seq)) < 0
        || (self->off_mem_addr = replay_slot(tp, str_mem_addr)) < 0
        || (self->off_taken = replay_slot(tp, str_taken)) < 0
        || (self->off_next_pc = replay_slot(tp, str_next_pc)) < 0
        || (self->off_waiters = replay_slot(tp, str_waiters)) < 0
        || (self->off_is_mem = replay_slot(tp, str_is_mem)) < 0)
        return -1;
    for (int i = 0; i < 4; i++) {
        if (PyObject_GetBuffer(cols[i], &self->cols[i], PyBUF_FORMAT) < 0) {
            replay_release(self);
            return -1;
        }
        self->held = i + 1;
        Py_buffer *col = &self->cols[i];
        const char *format = col->format ? col->format : "B";
        if (strcmp(format, formats[i]) != 0) {
            PyErr_Format(PyExc_TypeError, "replay: column %d is %s, not %s",
                         i, format, formats[i]);
            replay_release(self);
            return -1;
        }
        if (col->len < count * col->itemsize) {
            PyErr_SetString(PyExc_ValueError,
                            "replay: a column is shorter than count");
            replay_release(self);
            return -1;
        }
    }
    Py_INCREF(tp);
    self->type = tp;
    Py_INCREF(protos);
    self->protos = protos;
    self->pos = 0;
    self->count = count;
    return 0;
}

static void
Replay_dealloc(ReplayObj *self)
{
    replay_release(self);
    Py_XDECREF(self->protos);
    Py_XDECREF(self->type);
    PyMem_Free(self->slots);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static inline void
slot_put(PyObject *obj, Py_ssize_t offset, PyObject *value)
{
    /* Store ``value`` (a new reference) in a slot, dropping the old. */
    PyObject **slot = (PyObject **)((char *)obj + offset);
    PyObject *old = *slot;
    *slot = value;
    Py_XDECREF(old);
}

static PyObject *
Replay_next(ReplayObj *self)
{
    if (self->protos == NULL || self->pos >= self->count) {
        replay_release(self);
        return NULL;
    }
    Py_ssize_t i = self->pos;
    int pc = ((int *)self->cols[0].buf)[i];
    if (pc < 0 || pc >= PyList_GET_SIZE(self->protos)) {
        PyErr_Format(PyExc_IndexError, "replay: pc %d outside the code", pc);
        return NULL;
    }
    PyObject *proto = PyList_GET_ITEM(self->protos, pc);
    if (Py_TYPE(proto) != self->type) {
        PyErr_SetString(PyExc_TypeError, "replay: a prototype was replaced");
        return NULL;
    }
    int is_mem = *(PyObject **)((char *)proto + self->off_is_mem) == Py_True;
    /* Every new object first, so the clone is filled without a call
     * that could run the collector. */
    PyObject *seq = PyLong_FromSsize_t(i);
    PyObject *next_pc = PyLong_FromLong(((int *)self->cols[1].buf)[i]);
    PyObject *addr = is_mem ? PyLong_FromLongLong(
        ((long long *)self->cols[3].buf)[i]) : Py_NewRef(Py_None);
    PyObject *waiters = PyList_New(0);
    PyObject *inst = NULL;
    if (seq != NULL && next_pc != NULL && addr != NULL && waiters != NULL)
        inst = self->type->tp_alloc(self->type, 0);
    if (inst == NULL) {
        Py_XDECREF(seq);
        Py_XDECREF(next_pc);
        Py_XDECREF(addr);
        Py_XDECREF(waiters);
        return NULL;
    }
    for (Py_ssize_t k = 0; k < self->nslots; k++) {
        Py_ssize_t offset = self->slots[k];
        PyObject *value = *(PyObject **)((char *)proto + offset);
        Py_XINCREF(value);
        *(PyObject **)((char *)inst + offset) = value;
    }
    int taken = ((unsigned char *)self->cols[2].buf)[i] == 1;
    slot_put(inst, self->off_seq, seq);
    slot_put(inst, self->off_next_pc, next_pc);
    slot_put(inst, self->off_mem_addr, addr);
    slot_put(inst, self->off_taken, Py_NewRef(taken ? Py_True : Py_False));
    slot_put(inst, self->off_waiters, waiters);
    self->pos = i + 1;
    return inst;
}

static PyTypeObject ReplayType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.segmented._ckernels.Replay",
    .tp_basicsize = sizeof(ReplayObj),
    .tp_itemsize = 0,
    .tp_dealloc = (destructor)Replay_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Compiled functional-record replay (see isa/record.py)",
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = (iternextfunc)Replay_next,
    .tp_init = (initproc)Replay_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------- attribute and table helpers -- */

static PyObject *
attr_named(PyObject *obj, const char *name)
{
    /* obj.<name> by an interned name: the interpreter's type attribute
     * cache keeps the names it sees, so a fresh string per lookup would
     * pile up there, one set per stage built. */
    PyObject *key = PyUnicode_InternFromString(name);
    if (key == NULL)
        return NULL;
    PyObject *value = PyObject_GetAttr(obj, key);
    Py_DECREF(key);
    return value;
}

static int
attr_into(PyObject *obj, const char *name, PyObject **out)
{
    /* *out = obj.<name>, replacing what *out held. */
    PyObject *value = attr_named(obj, name);
    if (value == NULL)
        return -1;
    Py_XSETREF(*out, value);
    return 0;
}

static int
attr_i64_named(PyObject *obj, const char *name, int64_t *out)
{
    PyObject *key = PyUnicode_InternFromString(name);
    int rc = key == NULL ? -1 : attr_i64(obj, key, out);
    Py_XDECREF(key);
    return rc;
}

static int
table_export(PyObject *owner, const char *name, Py_buffer *view,
             Py_ssize_t itemsize, Py_ssize_t count)
{
    /* Hold a writable buffer export of owner.<name>, a flat table of
     * ``count`` items (any positive number if ``count`` is 0) of
     * ``itemsize`` bytes: an array('q') of int64_t or a bytearray.  An
     * export held before is released first.  While the export is held
     * the table cannot be resized; PyBuffer_Release(view) drops it. */
    PyBuffer_Release(view);
    PyObject *table = attr_named(owner, name);
    if (table == NULL)
        return -1;
    int rc = PyObject_GetBuffer(table, view, PyBUF_CONTIG | PyBUF_FORMAT);
    Py_DECREF(table);
    if (rc < 0)
        return -1;
    const char *format = view->format != NULL ? view->format : "B";
    if (view->ndim != 1 || view->itemsize != itemsize
        || strcmp(format, itemsize == 8 ? "q" : "B") != 0
        || (count ? view->len != count * itemsize : view->len <= 0)) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "%s: a flat %s of the table's size "
                     "expected", name,
                     itemsize == 8 ? "array('q')" : "bytearray");
        return -1;
    }
    return 0;
}

/* -------------------------------------------------------- fetch stage -- */
/*                                                                      */
/* The C twin of FrontEnd.cycle, one call per cycle, for one-thread,    */
/* untraced runs: FrontEnd.cycle hands off to run(frontend, now).  The  */
/* stall checks and their counters come first, in the Python order;     */
/* then up to ``width`` instructions are pulled from the stream through */
/* the iterator protocol, with the I-cache probed through               */
/* frontend._line_available on each new line (same-line fetches are     */
/* coalesced into one counter bump), control instructions capped at     */
/* ``max_branches`` and predicted here, and each one appended to the    */
/* decode pipeline as (ready_at, inst).  Prediction is FrontEnd._predict */
/* inline: the BTB's lookup and insert on its _pcs array and the hybrid */
/* predictor's update on its pattern tables and local histories, all    */
/* through buffer exports the stage holds while it lives (so none of    */
/* them can be resized), with the predictor's _global_history and the   */
/* same counters.  Fetch stops at a mispredict (which fetch then waits  */
/* on) or a halt.  Every normal exit from the loop writes back _peeked, */
/* _stream_done and _waiting_branch; an exception leaves them as they   */
/* were.                                                                */

/* The tables a fetch stage holds exports of. */
enum { FT_BTB, FT_GLOBAL, FT_LOCAL, FT_CHOICE, FT_HISTORIES, FT_TABLES };

typedef struct {
    PyObject_HEAD
    /* Owned references, first to last (FETCH_REFS walks them). */
    PyObject *stall_icache, *stall_branch, *buffer_full;
    PyObject *fetched, *fetch_cycles, *icache_accesses, *icache_hits;
    PyObject *btb_hits, *btb_misses, *correct, *mispredicts;
    PyObject *bpred;            /* the HybridBranchPredictor */
    PyObject *jump;             /* OpClass.JUMP */
    Py_buffer tables[FT_TABLES];        /* .obj NULL: not held */
    Py_ssize_t width, max_branches, buffer_cap;
    int64_t depth, inst_bytes, btb_sets, btb_assoc;
    int64_t global_mask, local_mask, choice_mask;
    int line_shift;
} FetchStageObj;

#define FETCH_REFS ((offsetof(FetchStageObj, jump)                      \
                     - offsetof(FetchStageObj, stall_icache))            \
                    / sizeof(PyObject *) + 1)

/* The predictor's global history: */
static slotsite at_bp_history = {&str_global_history},
    at_inst_predicted_taken = {&str_predicted_taken},
    at_inst_taken = {&str_taken};

static int
FetchStage_clear(FetchStageObj *self)
{
    for (int i = 0; i < FT_TABLES; i++)
        PyBuffer_Release(&self->tables[i]);
    PyObject **refs = &self->stall_icache;
    for (size_t i = 0; i < FETCH_REFS; i++)
        Py_CLEAR(refs[i]);
    return 0;
}

static int
FetchStage_init(FetchStageObj *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"width", "max_branches", "depth", "buffer_cap",
                             "inst_bytes", "line_shift", "stall_icache",
                             "stall_branch", "buffer_full", "fetched",
                             "fetch_cycles", "icache_accesses",
                             "icache_hits", "btb", "bpred", "jump", NULL};
    PyObject *items[7], *btb, *bpred, *jump;
    long long depth, inst_bytes;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "nnLnLiOOOOOOOOOO", kwlist, &self->width,
            &self->max_branches, &depth, &self->buffer_cap, &inst_bytes,
            &self->line_shift, &items[0], &items[1], &items[2], &items[3],
            &items[4], &items[5], &items[6], &btb, &bpred, &jump))
        return -1;
    if (self->line_shift < 0 || self->line_shift > 62) {
        PyErr_SetString(PyExc_ValueError, "fetch stage: bad line_shift");
        return -1;
    }
    FetchStage_clear(self);
    self->depth = (int64_t)depth;
    self->inst_bytes = (int64_t)inst_bytes;
    PyObject **refs = &self->stall_icache;
    for (int i = 0; i < 7; i++)
        refs[i] = Py_NewRef(items[i]);
    self->bpred = Py_NewRef(bpred);
    self->jump = Py_NewRef(jump);
    if (attr_into(btb, "stat_hits", &self->btb_hits) < 0
        || attr_into(btb, "stat_misses", &self->btb_misses) < 0
        || attr_into(bpred, "stat_correct", &self->correct) < 0
        || attr_into(bpred, "stat_mispredicts", &self->mispredicts) < 0
        || attr_i64_named(btb, "num_sets", &self->btb_sets) < 0
        || attr_i64_named(btb, "assoc", &self->btb_assoc) < 0
        || attr_i64_named(bpred, "_global_mask", &self->global_mask) < 0
        || attr_i64_named(bpred, "_local_mask", &self->local_mask) < 0
        || attr_i64_named(bpred, "_choice_mask", &self->choice_mask) < 0)
        goto fail;
    if (self->btb_sets <= 0 || self->btb_assoc <= 0
        || self->btb_sets > PY_SSIZE_T_MAX / 8 / self->btb_assoc
        || self->global_mask < 0 || self->local_mask < 0
        || self->choice_mask < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "fetch stage: bad BTB geometry or history mask");
        goto fail;
    }
    if (table_export(btb, "_pcs", &self->tables[FT_BTB], 8,
                     self->btb_sets * self->btb_assoc) < 0
        || table_export(bpred, "_global_pht", &self->tables[FT_GLOBAL], 1,
                        0) < 0
        || table_export(bpred, "_local_pht", &self->tables[FT_LOCAL], 1,
                        0) < 0
        || table_export(bpred, "_choice_pht", &self->tables[FT_CHOICE], 1,
                        0) < 0
        || table_export(bpred, "_local_histories",
                        &self->tables[FT_HISTORIES], 8, 0) < 0)
        goto fail;
    return 0;
fail:
    FetchStage_clear(self);
    return -1;
}

static int
FetchStage_traverse(FetchStageObj *self, visitproc visit, void *arg)
{
    PyObject **refs = &self->stall_icache;
    for (size_t i = 0; i < FETCH_REFS; i++)
        Py_VISIT(refs[i]);
    return 0;
}

static void
FetchStage_dealloc(FetchStageObj *self)
{
    PyObject_GC_UnTrack(self);
    FetchStage_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static inline Py_ssize_t
table_index(int64_t value, Py_ssize_t size)
{
    /* value % size with Python's sign (``size`` > 0). */
    int64_t index = value % size;
    return (Py_ssize_t)(index < 0 ? index + size : index);
}

static int
fetch_btb_lookup(FetchStageObj *self, int64_t pc)
{
    /* BranchTargetBuffer.lookup(pc): 1 hit (moved to the front of its
     * set), 0 miss, -1 on error. */
    int64_t *set = (int64_t *)self->tables[FT_BTB].buf
                   + table_index(pc, self->btb_sets) * self->btb_assoc;
    for (int64_t way = 0; way < self->btb_assoc; way++)
        if (set[way] == pc) {
            memmove(set + 1, set, (size_t)way * sizeof(int64_t));
            set[0] = pc;
            return counter_inc1(self->btb_hits) < 0 ? -1 : 1;
        }
    return counter_inc1(self->btb_misses) < 0 ? -1 : 0;
}

static void
fetch_btb_insert(FetchStageObj *self, int64_t pc)
{
    /* BranchTargetBuffer.insert(pc): to the front of its set, the set's
     * LRU PC dropped if it was absent. */
    int64_t *set = (int64_t *)self->tables[FT_BTB].buf
                   + table_index(pc, self->btb_sets) * self->btb_assoc;
    int64_t way = self->btb_assoc - 1;
    for (int64_t i = 0; i < way; i++)
        if (set[i] == pc) {
            way = i;
            break;
        }
    memmove(set + 1, set, (size_t)way * sizeof(int64_t));
    set[0] = pc;
}

static inline uint8_t
saturate_update(uint8_t counter, int taken)
{
    /* _saturate_update(counter, taken): a 2-bit counter. */
    if (taken)
        return counter >= 3 ? 3 : counter + 1;
    return counter == 0 ? 0 : counter - 1;
}

static int
fetch_bpred_update(FetchStageObj *self, int64_t pc, int taken)
{
    /* HybridBranchPredictor.update(pc, taken): 1 when the prediction
     * was correct, 0 when not, -1 on error. */
    int64_t history;
    if (site_get_i64(&at_bp_history, self->bpred, &history) < 0)
        return -1;
    Py_buffer *tables = self->tables;
    uint8_t *global = tables[FT_GLOBAL].buf, *local = tables[FT_LOCAL].buf;
    uint8_t *choice = tables[FT_CHOICE].buf;
    int64_t *histories = tables[FT_HISTORIES].buf;
    Py_ssize_t global_index = table_index(history & self->global_mask,
                                          tables[FT_GLOBAL].len);
    Py_ssize_t reg = table_index(pc, tables[FT_HISTORIES].len / 8);
    Py_ssize_t local_index = table_index(histories[reg] & self->local_mask,
                                         tables[FT_LOCAL].len);
    Py_ssize_t choice_index = table_index(history & self->choice_mask,
                                          tables[FT_CHOICE].len);
    int global_pred = global[global_index] >= 2;
    int local_pred = local[local_index] >= 2;
    int prediction = choice[choice_index] >= 2 ? global_pred : local_pred;
    int correct = prediction == taken;
    if (counter_inc1(correct ? self->correct : self->mispredicts) < 0)
        return -1;
    /* The choice table trains only on disagreement. */
    if (global_pred != local_pred)
        choice[choice_index] = saturate_update(choice[choice_index],
                                               global_pred == taken);
    global[global_index] = saturate_update(global[global_index], taken);
    local[local_index] = saturate_update(local[local_index], taken);
    histories[reg] = (int64_t)(((uint64_t)histories[reg] << 1
                                | (uint64_t)taken)
                               & (uint64_t)self->local_mask);
    history = (int64_t)(((uint64_t)history << 1 | (uint64_t)taken)
                        & (uint64_t)self->global_mask);
    if (site_set_i64(&at_bp_history, self->bpred, history) < 0)
        return -1;
    return correct;
}

static int
fetch_predict(FetchStageObj *self, PyObject *inst, int64_t pc)
{
    /* FrontEnd._predict(inst) for a control instruction: branch
     * prediction and BTB lookups, marking mispredictions. */
    PyObject *op_class = site_get(&at_inst_op_class, inst);
    if (op_class == NULL)
        return -1;
    int jump = op_class == self->jump;
    Py_DECREF(op_class);
    int hit;
    if (jump) {
        /* Unconditional: the target must be in the BTB to redirect
         * fetch this cycle. */
        if (site_set(&at_inst_predicted_taken, inst, Py_True) < 0
            || (hit = fetch_btb_lookup(self, pc)) < 0
            || (!hit && site_set(&at_inst_mispredicted, inst, Py_True) < 0))
            return -1;
        fetch_btb_insert(self, pc);
        return 0;
    }
    int branch = site_truth(&at_inst_is_branch, inst);
    if (branch <= 0)
        return branch;
    int taken = site_truth(&at_inst_taken, inst);
    int correct = taken < 0 ? -1 : fetch_bpred_update(self, pc, taken);
    if (correct < 0
        || site_set(&at_inst_predicted_taken, inst,
                    (correct ? taken : !taken) ? Py_True : Py_False) < 0
        || site_set(&at_inst_mispredicted, inst,
                    correct ? Py_False : Py_True) < 0)
        return -1;
    if (taken) {
        if (correct && ((hit = fetch_btb_lookup(self, pc)) < 0
                        || (!hit && site_set(&at_inst_mispredicted, inst,
                                             Py_True) < 0)))
            return -1;
        fetch_btb_insert(self, pc);
    }
    return 0;
}

static int
fetch_stalled(FetchStageObj *self, PyObject *fe, int64_t now)
{
    /* FrontEnd.cycle's stall checks, in order: 1 (stall counted), 0 (may
     * fetch) or -1. */
    int stalled = attr_truth(fe, str_icache_stalled);
    if (stalled != 0)
        return stalled < 0 ? -1
               : (counter_inc1(self->stall_icache) < 0 ? -1 : 1);
    PyObject *waiting = PyObject_GetAttr(fe, str_waiting_branch);
    if (waiting == NULL)
        return -1;
    int64_t resume = 0;
    stalled = waiting != Py_None;
    Py_DECREF(waiting);
    if (!stalled) {
        if (attr_i64(fe, str_resume_cycle, &resume) < 0)
            return -1;
        stalled = now < resume;
    }
    if (stalled)
        return counter_inc1(self->stall_branch) < 0 ? -1 : 1;
    return 0;
}

static PyObject *
FetchStage_run(FetchStageObj *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* run(frontend, now): one cycle of FrontEnd.cycle, untraced. */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "run expects 2 arguments");
        return NULL;
    }
    if (self->tables[FT_BTB].obj == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "fetch stage: cleared");
        return NULL;
    }
    PyObject *fe = args[0], *now_obj = args[1];
    int64_t now = (int64_t)PyLong_AsLongLong(now_obj);
    if (now == -1 && PyErr_Occurred())
        return NULL;
    int stalled = fetch_stalled(self, fe, now);
    if (stalled != 0)
        return stalled < 0 ? NULL : Py_NewRef(Py_None);
    PyObject *pipeline = PyObject_GetAttr(fe, str_pipeline);
    if (pipeline == NULL)
        return NULL;
    Py_ssize_t queued = PyObject_Length(pipeline);
    if (queued < 0 || queued >= self->buffer_cap) {
        Py_DECREF(pipeline);
        if (queued < 0 || counter_inc1(self->buffer_full) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    PyObject *stream = NULL, *append = NULL, *ready_at = NULL;
    PyObject *inst = NULL, *waiting = NULL, *pc = NULL;
    Py_ssize_t fetched = 0, branches = 0, coalesced = 0;
    int64_t code_base, current_line = -1;
    int ok = 0;
    int stream_done = attr_truth(fe, str_stream_done);
    if (stream_done < 0
        || attr_i64(fe, str_code_base, &code_base) < 0
        || (stream = PyObject_GetAttr(fe, str_stream)) == NULL
        || (append = PyObject_GetAttr(pipeline, str_append)) == NULL
        || (ready_at = PyLong_FromLongLong(
                (long long)(now + self->depth))) == NULL
        || (inst = PyObject_GetAttr(fe, str_peeked)) == NULL)
        goto done;
    if (inst == Py_None)
        Py_CLEAR(inst);
    while (fetched < self->width) {
        if (inst == NULL) {
            if (stream_done)
                break;
            inst = PyIter_Next(stream);
            if (inst == NULL) {
                if (PyErr_Occurred())
                    goto done;
                stream_done = 1;
                break;
            }
        }
        int64_t pcv;
        if ((pc = site_get(&at_inst_pc, inst)) == NULL)
            goto done;
        pcv = (int64_t)PyLong_AsLongLong(pc);
        if (pcv == -1 && PyErr_Occurred())
            goto done;
        int64_t line = (code_base + pcv * self->inst_bytes)
                       >> self->line_shift;
        if (line == current_line) {
            coalesced++;
        }
        else {
            PyObject *answer = PyObject_CallMethodOneArg(
                fe, str_line_available, pc);
            int available = answer == NULL ? -1 : PyObject_IsTrue(answer);
            Py_XDECREF(answer);
            if (available < 0)
                goto done;
            if (!available)
                break;
            current_line = line;
        }
        Py_CLEAR(pc);
        int control = site_truth(&at_inst_is_control, inst);
        if (control < 0)
            goto done;
        if (control) {
            if (branches >= self->max_branches)
                break;
            branches++;
            if (fetch_predict(self, inst, pcv) < 0)
                goto done;
        }
        if (site_set(&at_inst_fetched, inst, now_obj) < 0)
            goto done;
        PyObject *record = PyTuple_Pack(2, ready_at, inst);
        if (record == NULL
            || call_discard(PyObject_CallOneArg(append, record)) < 0) {
            Py_XDECREF(record);
            goto done;
        }
        Py_DECREF(record);
        fetched++;
        int mispredicted = site_truth(&at_inst_mispredicted, inst);
        if (mispredicted < 0)
            goto done;
        if (mispredicted) {
            waiting = inst;     /* fetch waits for it to resolve */
            inst = NULL;
            break;
        }
        PyObject *stat = site_get(&at_inst_static, inst);
        int halt = stat == NULL ? -1 : site_truth(&at_static_is_halt, stat);
        Py_XDECREF(stat);
        if (halt < 0)
            goto done;
        Py_CLEAR(inst);
        if (halt)
            break;
    }
    if (PyObject_SetAttr(fe, str_peeked, inst ? inst : Py_None) < 0
        || PyObject_SetAttr(fe, str_stream_done,
                            stream_done ? Py_True : Py_False) < 0
        || PyObject_SetAttr(fe, str_waiting_branch,
                            waiting ? waiting : Py_None) < 0)
        goto done;
    if (coalesced && (counter_add(self->icache_accesses, coalesced) < 0
                      || counter_add(self->icache_hits, coalesced) < 0))
        goto done;
    if (fetched && (counter_add(self->fetched, fetched) < 0
                    || counter_inc1(self->fetch_cycles) < 0))
        goto done;
    ok = 1;
done:
    Py_DECREF(pipeline);
    Py_XDECREF(stream);
    Py_XDECREF(append);
    Py_XDECREF(ready_at);
    Py_XDECREF(inst);
    Py_XDECREF(waiting);
    Py_XDECREF(pc);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef FetchStage_methods[] = {
    {"run", (PyCFunction)FetchStage_run, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL}
};

static PyTypeObject FetchStageType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.segmented._ckernels.FetchStage",
    .tp_basicsize = sizeof(FetchStageObj),
    .tp_itemsize = 0,
    .tp_dealloc = (destructor)FetchStage_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled fetch stage (see pipeline/kernels.py)",
    .tp_traverse = (traverseproc)FetchStage_traverse,
    .tp_clear = (inquiry)FetchStage_clear,
    .tp_methods = FetchStage_methods,
    .tp_init = (initproc)FetchStage_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------- commit stage -- */
/*                                                                      */
/* The C twin of Processor._retire(0, commit_width, now), one call per  */
/* cycle, for one-thread, untraced runs.  The ROB, LSQ, listeners and   */
/* counters are read from the processor on every call (the ROB may be   */
/* swapped after construction), and lsq.commit and every listener are   */
/* called as the Python loop calls them.                                */

typedef struct {
    PyObject_HEAD
    Py_ssize_t width;
} CommitStageObj;

static int
CommitStage_init(CommitStageObj *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"width", NULL};
    return PyArg_ParseTupleAndKeywords(args, kwds, "n", kwlist,
                                       &self->width) ? 0 : -1;
}

static int
commit_one(PyObject *proc, PyObject *inst, PyObject *now_obj,
           PyObject *listeners, PyObject **lsq)
{
    /* Everything _retire does for one popped head after it leaves the
     * ROB.  ``*lsq`` is processor.lsq, looked up at the first memory
     * op. */
    if (site_set(&at_inst_committed, inst, now_obj) < 0)
        return -1;
    int is_mem = site_truth(&at_inst_is_mem, inst);
    if (is_mem < 0)
        return -1;
    if (is_mem) {
        if (*lsq == NULL && (*lsq = PyObject_GetAttr(proc, str_lsq)) == NULL)
            return -1;
        if (call_discard(PyObject_CallMethodObjArgs(
                *lsq, str_commit, inst, now_obj, NULL)) < 0)
            return -1;
    }
    PyObject *stat = site_get(&at_inst_static, inst);
    int halt = stat == NULL ? -1 : site_truth(&at_static_is_halt, stat);
    Py_XDECREF(stat);
    if (halt < 0)
        return -1;
    if (halt) {
        PyObject *halted = PyObject_GetAttr(proc, str_halted);
        int rc = halted == NULL ? -1
                 : PySequence_SetItem(halted, 0, Py_True);
        Py_XDECREF(halted);
        if (rc < 0)
            return -1;
    }
    if (PyList_CheckExact(listeners) && PyList_GET_SIZE(listeners) == 0)
        return 0;
    PyObject *iter = PyObject_GetIter(listeners);
    if (iter == NULL)
        return -1;
    PyObject *listener;
    int rc = 0;
    while (rc == 0 && (listener = PyIter_Next(iter)) != NULL) {
        PyObject *call_args[2] = {inst, now_obj};
        rc = call_discard(PyObject_Vectorcall(listener, call_args, 2, NULL));
        Py_DECREF(listener);
    }
    Py_DECREF(iter);
    return (rc < 0 || PyErr_Occurred()) ? -1 : 0;
}

static PyObject *
CommitStage_run(CommitStageObj *self, PyObject *const *args,
                Py_ssize_t nargs)
{
    /* run(processor, now): one cycle of single-thread commit. */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "run expects 2 arguments");
        return NULL;
    }
    PyObject *proc = args[0], *now_obj = args[1];
    int64_t now = (int64_t)PyLong_AsLongLong(now_obj);
    if (now == -1 && PyErr_Occurred())
        return NULL;
    PyObject *rob = proc_rob0(proc);
    if (rob == NULL)
        return NULL;
    PyObject *entries = PyObject_GetAttr(rob, str_entries);
    Py_DECREF(rob);
    if (entries == NULL)
        return NULL;
    PyObject *lsq = NULL, *inst = NULL, *listeners = NULL;
    Py_ssize_t committed = 0;
    int ok = 0;
    Py_ssize_t left = PyObject_Length(entries);
    if (left <= 0) {
        Py_DECREF(entries);
        return left < 0 ? NULL : Py_NewRef(Py_None);
    }
    if ((listeners = PyObject_GetAttr(proc, str_commit_listeners)) == NULL)
        goto done;
    while (committed < self->width) {
        if ((left = PyObject_Length(entries)) < 0)
            goto done;
        if (left == 0)
            break;
        if ((inst = PySequence_GetItem(entries, 0)) == NULL)
            goto done;
        int64_t completed;
        if (site_get_i64(&at_inst_completed, inst, &completed) < 0)
            goto done;
        if (completed < 0 || completed > now)
            break;
        if (call_discard(PyObject_CallMethodNoArgs(entries,
                                                   str_popleft)) < 0
            || commit_one(proc, inst, now_obj, listeners, &lsq) < 0)
            goto done;
        Py_CLEAR(inst);
        committed++;
    }
    if (committed) {
        int64_t total;
        if (attr_i64(proc, str_committed, &total) < 0
            || attr_set_i64(proc, str_committed, total + committed) < 0
            || PyObject_SetAttr(proc, str_last_commit_cycle, now_obj) < 0)
            goto done;
    }
    ok = 1;
done:
    Py_DECREF(entries);
    Py_XDECREF(listeners);
    Py_XDECREF(lsq);
    Py_XDECREF(inst);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef CommitStage_methods[] = {
    {"run", (PyCFunction)CommitStage_run, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL}
};

static PyTypeObject CommitStageType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.segmented._ckernels.CommitStage",
    .tp_basicsize = sizeof(CommitStageObj),
    .tp_itemsize = 0,
    .tp_dealloc = (destructor)PyObject_Del,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Compiled commit stage (see pipeline/kernels.py)",
    .tp_methods = CommitStage_methods,
    .tp_init = (initproc)CommitStage_init,
    .tp_new = PyType_GenericNew,
};

/* --------------------------------------------------- stage helpers -- */

static int
append_to(PyObject *list, PyObject *item)
{
    if (PyList_CheckExact(list))
        return PyList_Append(list, item);
    return call_discard(PyObject_CallMethodOneArg(list, str_append, item));
}

static PyObject *
list_of(PyObject *first, PyObject *second)
{
    /* [first] or (``second`` not NULL) [first, second]. */
    PyObject *list = PyList_New(second == NULL ? 1 : 2);
    if (list == NULL)
        return NULL;
    PyList_SET_ITEM(list, 0, Py_NewRef(first));
    if (second != NULL)
        PyList_SET_ITEM(list, 1, Py_NewRef(second));
    return list;
}

static int
extend_with(PyObject *deque, PyObject *items)
{
    return call_discard(PyObject_CallMethodOneArg(deque, str_extend, items));
}

/* -------------------------------------------------------- cache stage -- */
/*                                                                      */
/* The C twin of one level of the memory hierarchy: Cache.touch,        */
/* access, access_line, _fill_arrived and warm_line with everything     */
/* they reach inside the cache (_find, rejects, _allocate_mshr,         */
/* _request_line, _install, _drain_mshr_queue, _return_line, the        */
/* waiters' _answer, the core requests' completion and each line        */
/* transfer's BandwidthLink.request), or MainMemory.access_line.  Bound */
/* as owner._c_stage on every run on the compiled event queue: those    */
/* Python methods stay the entry points and hand their bodies here.     */
/* State stays in the Python objects: the cache's _tags array (through  */
/* a buffer export the stage holds while bound, so the array cannot be  */
/* resized under it; no tag is boxed and no list is built), _mshrs      */
/* dict of _MSHR records, _mshr_queue deque and version, and the link's */
/* _next_free.  Events are records (a method of this stage, arg), the   */
/* Python body's records at the same cycle, in the same order and with  */
/* the same count, fired with no Python frame; a core request waits in  */
/* an MSHR as (this stage's _request_filled or _request_merged,         */
/* request).  Between levels the line goes through the next level's     */
/* access_line and comes back through the owner's _fill_arrived, both   */
/* Python methods that stay on the call path.                           */

typedef struct {
    PyObject_HEAD
    /* Owned references, first to last (cache_refs walks them). */
    PyObject *owner;            /* the Cache or MainMemory */
    PyObject *events;           /* owner._events, the compiled queue */
    PyObject *next;             /* owner.next_level; NULL: main memory */
    PyObject *link;             /* owner._link */
    PyObject *mshrs, *queue;            /* _mshrs, _mshr_queue */
    PyObject *mshr_cls;         /* _MSHR */
    PyObject *accesses, *hits, *misses, *delayed_hits, *writebacks;
    PyObject *mshr_full;
    PyObject *transfers, *busy, *queued;        /* the link's counters */
    PyObject *level;            /* where a hit (or memory) answers from */
    PyObject *merged_level;     /* what a merged core request reports */
    PyObject *on_request_line, *on_install, *on_return_line;
    PyObject *on_request_hit, *on_request_filled, *on_request_merged;
    Py_buffer tags;             /* _tags; .obj NULL: main memory */
    int64_t hit_latency;        /* memory: its access latency */
    int64_t assoc, mshr_entries, num_sets, line_bytes, link_bytes;
    int line_shift;
} CacheStageObj;

#define CACHE_REFS ((offsetof(CacheStageObj, on_request_merged)         \
                     - offsetof(CacheStageObj, owner))                   \
                    / sizeof(PyObject *) + 1)

static PyTypeObject CacheStageType;

/* _MSHR and MemRequest (slotted dataclasses), and an L1D line: */
static slotsite at_mshr_line = {&str_line_addr},
    at_mshr_waiters = {&str_waiters}, at_mshr_any_write = {&str_any_write},
    at_mshr_fill_level = {&str_fill_level}, at_req_addr = {&str_addr},
    at_req_is_write = {&str_is_write}, at_req_on_complete = {&str_on_complete},
    at_req_on_miss = {&str_on_miss}, at_req_level = {&str_level},
    at_req_completed = {&str_completed_cycle};

static int mem_filled(PyObject *stage, PyObject *entry, PyObject *level);

static int
CacheStage_init(CacheStageObj *self, PyObject *args, PyObject *kwds)
{
    /* CacheStage(cache, level, merged_level, mshr_cls) for a cache,
     * CacheStage(memory, level) for main memory. */
    static char *kwlist[] = {"owner", "level", "merged_level", "mshr_cls",
                             NULL};
    PyObject *owner, *level, *merged = NULL, *mshr_cls = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OU|UO!", kwlist, &owner,
                                     &level, &merged, &PyType_Type,
                                     &mshr_cls))
        return -1;
    if ((merged == NULL) != (mshr_cls == NULL)) {
        PyErr_SetString(PyExc_TypeError,
                        "cache stage: a cache takes merged_level and "
                        "mshr_cls, main memory neither");
        return -1;
    }
    PyBuffer_Release(&self->tags);
    PyObject **refs = &self->owner;
    for (size_t i = 0; i < CACHE_REFS; i++)
        Py_CLEAR(refs[i]);
    Py_INCREF(owner);
    self->owner = owner;
    Py_INCREF(level);
    self->level = level;
    if (attr_into(owner, "_events", &self->events) < 0
        || attr_into((PyObject *)self, "_return_line",
                     &self->on_return_line) < 0)
        return -1;
    if (Py_TYPE(self->events) != &EQType) {
        PyErr_SetString(PyExc_TypeError,
                        "cache stage: the compiled EventQueue expected");
        return -1;
    }
    if (mshr_cls == NULL)
        return attr_into(owner, "_accesses", &self->accesses) < 0
               || attr_i64_named(owner, "latency", &self->hit_latency) < 0
               ? -1 : 0;
    PyObject *params = NULL;
    int64_t line_shift;
    Py_INCREF(merged);
    self->merged_level = merged;
    Py_INCREF(mshr_cls);
    self->mshr_cls = mshr_cls;
    if (attr_into(owner, "next_level", &self->next) < 0
        || attr_into(owner, "_link", &self->link) < 0
        || attr_into(owner, "_mshrs", &self->mshrs) < 0
        || attr_into(owner, "_mshr_queue", &self->queue) < 0
        || attr_into(owner, "stat_accesses", &self->accesses) < 0
        || attr_into(owner, "stat_hits", &self->hits) < 0
        || attr_into(owner, "stat_misses", &self->misses) < 0
        || attr_into(owner, "stat_delayed_hits", &self->delayed_hits) < 0
        || attr_into(owner, "stat_writebacks", &self->writebacks) < 0
        || attr_into(owner, "stat_mshr_full", &self->mshr_full) < 0
        || attr_into(self->link, "_transfers", &self->transfers) < 0
        || attr_into(self->link, "_busy_cycles", &self->busy) < 0
        || attr_into(self->link, "_queue_cycles", &self->queued) < 0
        || attr_i64_named(self->link, "bytes_per_cycle",
                          &self->link_bytes) < 0
        || attr_i64_named(owner, "_num_sets", &self->num_sets) < 0
        || attr_i64_named(owner, "_line_shift", &line_shift) < 0
        || attr_into(owner, "params", &params) < 0
        || attr_i64_named(params, "mshr_entries", &self->mshr_entries) < 0
        || attr_i64_named(params, "hit_latency", &self->hit_latency) < 0
        || attr_i64_named(params, "assoc", &self->assoc) < 0
        || attr_i64_named(params, "line_bytes", &self->line_bytes) < 0
        || attr_into((PyObject *)self, "_request_line",
                     &self->on_request_line) < 0
        || attr_into((PyObject *)self, "_install", &self->on_install) < 0
        || attr_into((PyObject *)self, "_request_hit",
                     &self->on_request_hit) < 0
        || attr_into((PyObject *)self, "_request_filled",
                     &self->on_request_filled) < 0
        || attr_into((PyObject *)self, "_request_merged",
                     &self->on_request_merged) < 0) {
        Py_XDECREF(params);
        return -1;
    }
    Py_DECREF(params);
    if (self->num_sets <= 0 || self->assoc <= 0
        || self->num_sets > PY_SSIZE_T_MAX / 8 / self->assoc
        || !PyDict_CheckExact(self->mshrs) || line_shift < 0
        || line_shift > 62 || self->link_bytes <= 0) {
        PyErr_SetString(PyExc_TypeError, "cache stage: a Cache expected");
        return -1;
    }
    self->line_shift = (int)line_shift;
    return table_export(owner, "_tags", &self->tags, 8,
                        self->num_sets * self->assoc);
}

static int
CacheStage_traverse(CacheStageObj *self, visitproc visit, void *arg)
{
    PyObject **refs = &self->owner;
    for (size_t i = 0; i < CACHE_REFS; i++)
        Py_VISIT(refs[i]);
    return 0;
}

static int
CacheStage_clear(CacheStageObj *self)
{
    PyBuffer_Release(&self->tags);
    PyObject **refs = &self->owner;
    for (size_t i = 0; i < CACHE_REFS; i++)
        Py_CLEAR(refs[i]);
    return 0;
}

static void
CacheStage_dealloc(CacheStageObj *self)
{
    PyObject_GC_UnTrack(self);
    CacheStage_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
cache_ready(CacheStageObj *self, int tags)
{
    /* 0 when the stage is bound (``tags``: to a cache), else -1. */
    if (self->events == NULL || (tags && self->tags.obj == NULL)) {
        PyErr_SetString(PyExc_RuntimeError,
                        tags ? "cache stage: no cache bound"
                             : "cache stage: cleared");
        return -1;
    }
    return 0;
}

static inline int64_t *
cache_set(CacheStageObj *self, int64_t line)
{
    /* The first of the line's set's slots in _tags (Python's modulo:
     * the set index is never negative). */
    return (int64_t *)self->tags.buf
           + table_index(line, self->num_sets) * self->assoc;
}

static Py_ssize_t
cache_find(CacheStageObj *self, int64_t line, int lru)
{
    /* Cache._find (``lru``: a hit moves to the front of its set) or
     * _find_no_lru: the index in _tags of the slot holding the line, or
     * -1 when it is not resident. */
    int64_t *set = cache_set(self, line);
    for (int64_t way = 0; way < self->assoc; way++) {
        int64_t tag = set[way];
        if (tag >> 1 != line)
            continue;
        if (!lru)
            return set + way - (int64_t *)self->tags.buf;
        memmove(set + 1, set, (size_t)way * sizeof(int64_t));
        set[0] = tag;
        return set - (int64_t *)self->tags.buf;
    }
    return -1;
}

static PyObject *
line_box(int64_t line, PyObject **box)
{
    /* The line as a Python int, the key of _mshrs, made into *box at its
     * first use (a hit makes none); NULL on error. */
    if (*box == NULL)
        *box = PyLong_FromLongLong((long long)line);
    return *box;
}

static int64_t
cache_link_request(CacheStageObj *self)
{
    /* self._link.request(line_bytes): reserve the link for one line;
     * the delay from now, -1 on error. */
    int64_t now = ((EQObj *)self->events)->now, next_free;
    if (attr_i64(self->link, str_next_free, &next_free) < 0)
        return -1;
    int64_t start = next_free > now ? next_free : now;
    int64_t duration = (self->line_bytes + self->link_bytes - 1)
                       / self->link_bytes;
    if (attr_set_i64(self->link, str_next_free, start + duration) < 0
        || counter_inc1(self->transfers) < 0
        || counter_add(self->busy, (Py_ssize_t)duration) < 0
        || counter_add(self->queued, (Py_ssize_t)(start - now)) < 0)
        return -1;
    return start + duration - now;
}

static int
cache_answer(PyObject *waiter, PyObject *level)
{
    /* _answer(waiter, level): callback(arg, level); a load parked by the
     * memory stage completes in C. */
    if (!PyTuple_CheckExact(waiter) || PyTuple_GET_SIZE(waiter) != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "cache stage: a waiter is (callback, arg)");
        return -1;
    }
    PyObject *callback = PyTuple_GET_ITEM(waiter, 0);
    PyObject *argv[2] = {PyTuple_GET_ITEM(waiter, 1), level};
    if (Py_TYPE(callback) == &MemStageType)
        return mem_filled(callback, argv[0], level);
    return call_discard(PyObject_Vectorcall(callback, argv, 2, NULL));
}

static int
cache_bump_version(CacheStageObj *self)
{
    int64_t version;
    if (attr_i64(self->owner, str_version, &version) < 0)
        return -1;
    return attr_set_i64(self->owner, str_version, version + 1);
}

static int
cache_allocate_mshr(CacheStageObj *self, PyObject *line_obj,
                    PyObject *is_write, PyObject *waiter)
{
    /* _allocate_mshr: a new MSHR for the line, and the lookup's hit
     * latency before the miss goes to the next level. */
    PyTypeObject *tp = (PyTypeObject *)self->mshr_cls;
    PyObject *mshr = tp->tp_alloc(tp, 0);
    if (mshr == NULL)
        return -1;
    int rc = -1;
    if (site_set(&at_mshr_line, mshr, line_obj) < 0
        || site_set_new(&at_mshr_waiters, mshr,
                        list_of(waiter, NULL)) < 0
        || site_set(&at_mshr_any_write, mshr, is_write) < 0
        || site_set(&at_mshr_fill_level, mshr, str_empty) < 0
        || PyDict_SetItem(self->mshrs, line_obj, mshr) < 0)
        goto done;
    EQObj *events = (EQObj *)self->events;
    rc = eq_push(events, events->now + self->hit_latency,
                 self->on_request_line, line_obj);
done:
    Py_DECREF(mshr);
    return rc;
}

static int
cache_merge(PyObject *mshr, PyObject *is_write, PyObject *waiter)
{
    /* A miss merges into the line's MSHR: mshr.any_write =
     * mshr.any_write or is_write (unless ``is_write`` is NULL), and the
     * waiter joins. */
    if (is_write != NULL) {
        int dirty = site_truth(&at_mshr_any_write, mshr);
        if (dirty < 0
            || (!dirty && site_set(&at_mshr_any_write, mshr, is_write) < 0))
            return -1;
    }
    PyObject *waiters = site_get(&at_mshr_waiters, mshr);
    if (waiters == NULL)
        return -1;
    int rc = append_to(waiters, waiter);
    Py_DECREF(waiters);
    return rc;
}

static int
request_complete(PyObject *request, PyObject *level, int64_t now)
{
    /* MemRequest.complete(level, now). */
    PyObject *callback = NULL;
    int rc = -1;
    if (site_set(&at_req_level, request, level) < 0
        || site_set_i64(&at_req_completed, request, now) < 0
        || (callback = site_get(&at_req_on_complete, request)) == NULL)
        goto done;
    rc = callback == Py_None
         ? 0 : call_discard(PyObject_CallOneArg(callback, request));
done:
    Py_XDECREF(callback);
    return rc;
}

static int
request_notify_miss(PyObject *request)
{
    /* MemRequest.notify_miss(). */
    PyObject *callback = site_get(&at_req_on_miss, request);
    if (callback == NULL)
        return -1;
    int rc = callback == Py_None
             ? 0 : call_discard(PyObject_CallOneArg(callback, request));
    Py_DECREF(callback);
    return rc;
}

static int
cache_rejects(CacheStageObj *self, int64_t line, PyObject **line_obj)
{
    /* Cache.rejects: 1 when every MSHR is busy and the line is neither
     * in flight nor resident (counted as a retry), 0 if not, -1 on
     * error.  ``*line_obj`` is the line's box (line_box). */
    if (PyDict_GET_SIZE(self->mshrs) < self->mshr_entries)
        return 0;
    if (line_box(line, line_obj) == NULL)
        return -1;
    int present = PyDict_Contains(self->mshrs, *line_obj);
    if (present == 0)
        present = cache_find(self, line, 0) >= 0;
    if (present != 0)
        return present < 0 ? -1 : 0;
    return counter_inc1(self->mshr_full) < 0 ? -1 : 1;
}

static PyObject *
CacheStage_touch(CacheStageObj *self, PyObject *addr_obj)
{
    /* touch(addr): on a hit, update LRU and count it. */
    if (cache_ready(self, 1) < 0)
        return NULL;
    long long addr = PyLong_AsLongLong(addr_obj);
    if (addr == -1 && PyErr_Occurred())
        return NULL;
    int resident = cache_find(self, (int64_t)addr >> self->line_shift,
                              1) >= 0;
    if (resident && (counter_inc1(self->accesses) < 0
                     || counter_inc1(self->hits) < 0))
        return NULL;
    return PyBool_FromLong(resident);
}

static PyObject *
CacheStage_access(CacheStageObj *self, PyObject *request)
{
    /* access(request): the core-side access of a fetch or a store write;
     * False when it must retry (no MSHR for a new miss). */
    if (cache_ready(self, 1) < 0)
        return NULL;
    int64_t addr;
    if (site_get_i64(&at_req_addr, request, &addr) < 0)
        return NULL;
    int64_t line = addr >> self->line_shift;
    PyObject *line_obj = NULL, *is_write = NULL, *waiter = NULL;
    PyObject *result = NULL;
    int rejected = cache_rejects(self, line, &line_obj);
    if (rejected) {
        if (rejected > 0)
            result = Py_NewRef(Py_False);
        goto done;
    }
    if (counter_inc1(self->accesses) < 0
        || (is_write = site_get(&at_req_is_write, request)) == NULL)
        goto done;
    Py_ssize_t slot = cache_find(self, line, 1);
    if (slot >= 0) {
        EQObj *events = (EQObj *)self->events;
        int write = PyObject_IsTrue(is_write);
        if (write < 0 || counter_inc1(self->hits) < 0)
            goto done;
        if (write)
            ((int64_t *)self->tags.buf)[slot] |= 1;
        if (eq_push(events, events->now + self->hit_latency,
                    self->on_request_hit, request) < 0)
            goto done;
        result = Py_NewRef(Py_True);
        goto done;
    }
    if (line_box(line, &line_obj) == NULL)
        goto done;
    PyObject *mshr = PyDict_GetItemWithError(self->mshrs, line_obj);
    if (mshr == NULL && PyErr_Occurred())
        goto done;
    if (mshr != NULL) {
        /* Delayed hit: merge into the outstanding miss. */
        Py_INCREF(mshr);
        int rc = counter_inc1(self->delayed_hits) < 0
                 || request_notify_miss(request) < 0
                 || (waiter = PyTuple_Pack(2, self->on_request_merged,
                                           request)) == NULL
                 || cache_merge(mshr, is_write, waiter) < 0;
        Py_DECREF(mshr);
        if (rc)
            goto done;
    }
    else if (counter_inc1(self->misses) < 0
             || request_notify_miss(request) < 0
             || (waiter = PyTuple_Pack(2, self->on_request_filled,
                                       request)) == NULL
             || cache_allocate_mshr(self, line_obj, is_write, waiter) < 0)
        goto done;
    result = Py_NewRef(Py_True);
done:
    Py_XDECREF(line_obj);
    Py_XDECREF(is_write);
    Py_XDECREF(waiter);
    return result;
}

static PyObject *
CacheStage_access_line(CacheStageObj *self, PyObject *const *args,
                       Py_ssize_t nargs)
{
    /* access_line(line_byte_addr, is_write, waiter): an upper level's
     * line access; queues while the MSHRs are full.  Main memory answers
     * after its latency. */
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "access_line expects 3 arguments");
        return NULL;
    }
    if (cache_ready(self, 0) < 0)
        return NULL;
    PyObject *is_write = args[1], *waiter = args[2];
    EQObj *events = (EQObj *)self->events;
    if (counter_inc1(self->accesses) < 0)
        return NULL;
    if (self->tags.obj == NULL) {
        if (eq_push(events, events->now + self->hit_latency,
                    self->on_return_line, waiter) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    long long addr = PyLong_AsLongLong(args[0]);
    if (addr == -1 && PyErr_Occurred())
        return NULL;
    int64_t line = (int64_t)addr >> self->line_shift;
    PyObject *line_obj = NULL, *queued = NULL;
    int ok = 0;
    Py_ssize_t slot = cache_find(self, line, 1);
    if (slot >= 0) {
        int write = PyObject_IsTrue(is_write);
        if (write < 0 || counter_inc1(self->hits) < 0)
            goto done;
        if (write)
            ((int64_t *)self->tags.buf)[slot] |= 1;
        ok = eq_push(events, events->now + self->hit_latency,
                     self->on_return_line, waiter) == 0;
        goto done;
    }
    if (line_box(line, &line_obj) == NULL)
        goto done;
    PyObject *mshr = PyDict_GetItemWithError(self->mshrs, line_obj);
    if (mshr == NULL && PyErr_Occurred())
        goto done;
    if (mshr != NULL) {
        Py_INCREF(mshr);
        ok = counter_inc1(self->delayed_hits) == 0
             && cache_merge(mshr, is_write, waiter) == 0;
        Py_DECREF(mshr);
    }
    else if (PyDict_GET_SIZE(self->mshrs) >= self->mshr_entries)
        ok = counter_inc1(self->mshr_full) == 0
             && (queued = PyTuple_Pack(3, line_obj, is_write,
                                       waiter)) != NULL
             && call_discard(PyObject_CallMethodOneArg(
                    self->queue, str_append, queued)) == 0;
    else
        ok = counter_inc1(self->misses) == 0
             && cache_allocate_mshr(self, line_obj, is_write, waiter) == 0;
done:
    Py_XDECREF(line_obj);
    Py_XDECREF(queued);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
CacheStage_fill_arrived(CacheStageObj *self, PyObject *const *args,
                        Py_ssize_t nargs)
{
    /* _fill_arrived(line, fill_level): the next level produced the line;
     * move it over the link, then install it. */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "_fill_arrived expects 2 arguments");
        return NULL;
    }
    if (cache_ready(self, 1) < 0)
        return NULL;
    PyObject *mshr = PyObject_GetItem(self->mshrs, args[0]);
    if (mshr == NULL)
        return NULL;
    int rc = site_set(&at_mshr_fill_level, mshr, args[1]);
    Py_DECREF(mshr);
    int64_t delay = rc < 0 ? -1 : cache_link_request(self);
    if (delay < 0)
        return NULL;
    EQObj *events = (EQObj *)self->events;
    if (eq_push(events, events->now + delay, self->on_install, args[0]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
cache_insert(CacheStageObj *self, int64_t line, int dirty,
             int count_writeback)
{
    /* Cache._insert: put the line at the front of its set, dropping the
     * set's LRU line when the set is full (``count_writeback``: a dirty
     * victim is written back over the link). */
    int64_t *set = cache_set(self, line);
    int64_t victim = set[self->assoc - 1];
    memmove(set + 1, set, (size_t)(self->assoc - 1) * sizeof(int64_t));
    set[0] = (int64_t)((uint64_t)line << 1) | (dirty ? 1 : 0);
    if (count_writeback && victim != -1 && (victim & 1)
        && (counter_inc1(self->writebacks) < 0
            || cache_link_request(self) < 0))
        return -1;
    return 0;
}

static int
cache_drain(CacheStageObj *self)
{
    /* _drain_mshr_queue: queued line accesses take the MSHRs freed. */
    EQObj *events = (EQObj *)self->events;
    for (;;) {
        Py_ssize_t queued = PyObject_Length(self->queue);
        if (queued < 0)
            return -1;
        if (!queued || PyDict_GET_SIZE(self->mshrs) >= self->mshr_entries)
            return 0;
        PyObject *item = PyObject_CallMethodNoArgs(self->queue, str_popleft);
        if (item == NULL)
            return -1;
        if (!PyTuple_CheckExact(item) || PyTuple_GET_SIZE(item) != 3) {
            Py_DECREF(item);
            PyErr_SetString(PyExc_TypeError,
                            "cache stage: a queued access is "
                            "(line, is_write, waiter)");
            return -1;
        }
        PyObject *line_obj = PyTuple_GET_ITEM(item, 0);
        PyObject *waiter = PyTuple_GET_ITEM(item, 2);
        long long line = PyLong_AsLongLong(line_obj);
        int rc = -1;
        if (line == -1 && PyErr_Occurred())
            goto next;
        if (cache_find(self, (int64_t)line, 1) >= 0) {
            /* Filled while queued: a (late) hit. */
            rc = counter_inc1(self->hits) < 0
                 || eq_push(events, events->now + self->hit_latency,
                            self->on_return_line, waiter) < 0 ? -1 : 0;
            goto next;
        }
        PyObject *mshr = PyDict_GetItemWithError(self->mshrs, line_obj);
        if (mshr != NULL) {
            Py_INCREF(mshr);
            rc = counter_inc1(self->delayed_hits) < 0
                 || cache_merge(mshr, NULL, waiter) < 0 ? -1 : 0;
            Py_DECREF(mshr);
        }
        else if (!PyErr_Occurred())
            rc = counter_inc1(self->misses) < 0
                 || cache_allocate_mshr(self, line_obj,
                                        PyTuple_GET_ITEM(item, 1),
                                        waiter) < 0 ? -1 : 0;
    next:
        Py_DECREF(item);
        if (rc < 0)
            return -1;
    }
}

static PyObject *
CacheStage_install(CacheStageObj *self, PyObject *const *args,
                   Py_ssize_t nargs)
{
    /* The record _install(line, cycle): the line lands, its waiters hear
     * where it came from, and queued accesses take the freed MSHR. */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "_install expects 2 arguments");
        return NULL;
    }
    if (cache_ready(self, 1) < 0 || cache_bump_version(self) < 0)
        return NULL;
    PyObject *line_obj = args[0];
    PyObject *mshr = PyObject_GetItem(self->mshrs, line_obj);
    if (mshr == NULL)
        return NULL;
    PyObject *waiters = NULL, *level = NULL, *fast = NULL;
    int ok = 0, dirty;
    long long line = PyLong_AsLongLong(line_obj);
    if ((line == -1 && PyErr_Occurred())
        || PyDict_DelItem(self->mshrs, line_obj) < 0
        || (dirty = site_truth(&at_mshr_any_write, mshr)) < 0
        || cache_insert(self, (int64_t)line, dirty, 1) < 0
        || (waiters = site_get(&at_mshr_waiters, mshr)) == NULL
        || (level = site_get(&at_mshr_fill_level, mshr)) == NULL
        || (fast = PySequence_Fast(waiters, "waiters: a list")) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(fast); i++) {
        PyObject *waiter = PySequence_Fast_GET_ITEM(fast, i);
        Py_INCREF(waiter);
        int rc = cache_answer(waiter, level);
        Py_DECREF(waiter);
        if (rc < 0)
            goto done;
    }
    ok = cache_drain(self) == 0;
done:
    Py_DECREF(mshr);
    Py_XDECREF(waiters);
    Py_XDECREF(level);
    Py_XDECREF(fast);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
CacheStage_request_line(CacheStageObj *self, PyObject *const *args,
                        Py_ssize_t nargs)
{
    /* The record _request_line(line, cycle): the miss goes to the next
     * level, which answers through the owner's _fill_arrived. */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "_request_line expects 2 arguments");
        return NULL;
    }
    if (cache_ready(self, 1) < 0)
        return NULL;
    long long line = PyLong_AsLongLong(args[0]);
    if (line == -1 && PyErr_Occurred())
        return NULL;
    PyObject *fill = PyObject_GetAttr(self->owner, str_fill_arrived);
    if (fill == NULL)
        return NULL;
    PyObject *waiter = PyTuple_Pack(2, fill, args[0]);
    Py_DECREF(fill);
    PyObject *addr = waiter == NULL ? NULL
        : PyLong_FromLongLong(line << self->line_shift);
    int rc = addr == NULL ? -1 : call_discard(PyObject_CallMethodObjArgs(
        self->next, str_access_line, addr, Py_False, waiter, NULL));
    Py_XDECREF(waiter);
    Py_XDECREF(addr);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
CacheStage_return_line(CacheStageObj *self, PyObject *const *args,
                       Py_ssize_t nargs)
{
    /* The record _return_line(waiter, cycle): a hit (or main memory)
     * answers the upper level. */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "_return_line expects 2 arguments");
        return NULL;
    }
    if (cache_ready(self, 0) < 0 || cache_answer(args[0], self->level) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
CacheStage_request_hit(CacheStageObj *self, PyObject *const *args,
                       Py_ssize_t nargs)
{
    /* The record _request_hit(request, cycle). */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "_request_hit expects 2 arguments");
        return NULL;
    }
    long long cycle = PyLong_AsLongLong(args[1]);
    if ((cycle == -1 && PyErr_Occurred()) || cache_ready(self, 1) < 0
        || request_complete(args[0], self->level, (int64_t)cycle) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
CacheStage_request_answered(CacheStageObj *self, PyObject *const *args,
                            Py_ssize_t nargs, int merged)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "a waiter takes 2 arguments");
        return NULL;
    }
    if (cache_ready(self, 1) < 0
        || request_complete(args[0], merged ? self->merged_level : args[1],
                            ((EQObj *)self->events)->now) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
CacheStage_request_filled(CacheStageObj *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    /* The waiter _request_filled(request, level): a missing request's
     * line arrived from ``level``. */
    return CacheStage_request_answered(self, args, nargs, 0);
}

static PyObject *
CacheStage_request_merged(CacheStageObj *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    /* The waiter _request_merged(request, level): a delayed hit's line
     * arrived. */
    return CacheStage_request_answered(self, args, nargs, 1);
}

static PyObject *
CacheStage_warm_line(CacheStageObj *self, PyObject *const *args,
                     Py_ssize_t nargs)
{
    /* warm_line(addr, dirty): pre-install the line holding ``addr``. */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "warm_line expects 2 arguments");
        return NULL;
    }
    if (cache_ready(self, 1) < 0)
        return NULL;
    long long addr = PyLong_AsLongLong(args[0]);
    if (addr == -1 && PyErr_Occurred())
        return NULL;
    int64_t line = (int64_t)addr >> self->line_shift;
    if (cache_find(self, line, 1) >= 0)
        Py_RETURN_NONE;
    int dirty = PyObject_IsTrue(args[1]);
    if (dirty < 0 || cache_bump_version(self) < 0
        || cache_insert(self, line, dirty, 0) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef CacheStage_methods[] = {
    {"touch", (PyCFunction)CacheStage_touch, METH_O, NULL},
    {"access", (PyCFunction)CacheStage_access, METH_O, NULL},
    {"access_line", (PyCFunction)CacheStage_access_line, METH_FASTCALL,
     NULL},
    {"warm_line", (PyCFunction)CacheStage_warm_line, METH_FASTCALL, NULL},
    {"_fill_arrived", (PyCFunction)CacheStage_fill_arrived, METH_FASTCALL,
     NULL},
    {"_request_line", (PyCFunction)CacheStage_request_line, METH_FASTCALL,
     NULL},
    {"_install", (PyCFunction)CacheStage_install, METH_FASTCALL, NULL},
    {"_return_line", (PyCFunction)CacheStage_return_line, METH_FASTCALL,
     NULL},
    {"_request_hit", (PyCFunction)CacheStage_request_hit, METH_FASTCALL,
     NULL},
    {"_request_filled", (PyCFunction)CacheStage_request_filled,
     METH_FASTCALL, NULL},
    {"_request_merged", (PyCFunction)CacheStage_request_merged,
     METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL}
};

static PyTypeObject CacheStageType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.segmented._ckernels.CacheStage",
    .tp_basicsize = sizeof(CacheStageObj),
    .tp_itemsize = 0,
    .tp_dealloc = (destructor)CacheStage_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled cache level (see memory/cache.py)",
    .tp_traverse = (traverseproc)CacheStage_traverse,
    .tp_clear = (inquiry)CacheStage_clear,
    .tp_methods = CacheStage_methods,
    .tp_init = (initproc)CacheStage_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------- memory stage -- */
/*                                                                      */
/* The C twin of the LoadStoreQueue: its bookkeeping (dispatch with     */
/* entry creation, address_ready with the store frontier, store         */
/* completion, commit with the store's write to the L1D) and its        */
/* per-cycle load issue (cycle: _conflicting_store, _forward,           */
/* _issue_to_cache with the L1D's core-side load access, _load_filled   */
/* and _load_done).  Bound on every run on the compiled event queue:    */
/* traced, clustered, multi-thread and invariant-checked runs too, as   */
/* the LSQ keys its stores by (thread, word) and only the store-set     */
/* violation check (a call back into LoadStoreQueue._detect_violations) */
/* emits trace events.  lsq._c_cycle is the bound run, and dispatch,    */
/* address_ready and commit, the LSQ's entry points, hand their bodies  */
/* to the stage (lsq._c_stage).  State stays in the LSQ's dicts, heaps  */
/* and deques, held here, and in the L1D, reached through its           */
/* CacheStage.  A load completes through the typed record (stage,       */
/* entry), which advance_to fires with no Python frame, and waits in an */
/* MSHR as the waiter (stage, entry), which the cache stage answers in  */
/* C.  A store's data wait is the producer waiter (the stage's          */
/* _store_data_ready, entry) and its completion the record (the stage's */
/* _mark_store_complete, entry).                                        */

typedef struct {
    PyObject_HEAD
    /* Owned references, first to last (mem_refs walks them). */
    PyObject *lsq;              /* the LSQ whose loads complete here */
    PyObject *cache;            /* the L1D's CacheStage */
    PyObject *events;           /* lsq._events, the compiled queue */
    PyObject *fu;               /* lsq.fu_pool's Pipeline engine, or NULL */
    PyObject *entry_cls;        /* IQEntry, for the waiter walk */
    PyObject *lsq_entry_cls;    /* LSQEntry */
    PyObject *request_cls;      /* MemRequest, for a store's write */
    PyObject *memory;           /* lsq._memory (data_access) */
    PyObject *memdep;           /* lsq.memdep; NULL: no store sets */
    PyObject *entries, *order, *unknown_stores, *known_stores;
    PyObject *stores_by_word, *true_stores_by_word, *issued_loads_by_word;
    PyObject *candidates, *frontier_blocked;
    PyObject *occupancy, *forwards, *conflict_waits, *loads, *stores;
    PyObject *dropped;
    PyObject *forward_level, *word_bytes;
    PyObject *heappush, *heappop;       /* _heapq's */
    PyObject *on_store_data, *on_store_complete;
    int64_t forward_latency, size;
    int oracle;                 /* conflicts by true address */
    int conservative;           /* loads wait for the store frontier */
} MemStageObj;

#define MEM_REFS ((offsetof(MemStageObj, on_store_complete)              \
                   - offsetof(MemStageObj, lsq)) / sizeof(PyObject *) + 1)

/* Outcomes of mem_issue_to_cache (_ISSUED, _NO_PORT, _NO_MSHR). */
enum { MEM_ISSUED, MEM_NO_PORT, MEM_NO_MSHR };

/* LSQEntry slots the bookkeeping writes (the load path's are above): */
static slotsite at_lsq_is_store = {&str_is_store},
    at_lsq_addr_ready = {&str_addr_ready_cycle},
    at_lsq_data_ready = {&str_data_ready_cycle},
    at_lsq_predicted = {&str_predicted_dep}, at_inst_mem_addr = {&str_mem_addr};

static int
MemStage_init(MemStageObj *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"lsq", "entry_cls", "lsq_entry_cls",
                             "request_cls", "forward_latency",
                             "forward_level", "word_bytes", NULL};
    PyObject *lsq, *entry_cls, *lsq_entry_cls, *request_cls, *forward_level;
    PyObject *word_bytes;
    long long forward_latency;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO!O!O!LOO!", kwlist, &lsq,
                                     &PyType_Type, &entry_cls, &PyType_Type,
                                     &lsq_entry_cls, &PyType_Type,
                                     &request_cls, &forward_latency,
                                     &forward_level, &PyLong_Type,
                                     &word_bytes))
        return -1;
    PyObject **refs = &self->lsq;
    for (size_t i = 0; i < MEM_REFS; i++)
        Py_CLEAR(refs[i]);
    PyObject *fu_pool = NULL, *policy = NULL, *l1d = NULL, *heapq = NULL;
    int rc = -1;
    self->lsq = Py_NewRef(lsq);
    self->entry_cls = Py_NewRef(entry_cls);
    self->lsq_entry_cls = Py_NewRef(lsq_entry_cls);
    self->request_cls = Py_NewRef(request_cls);
    self->forward_level = Py_NewRef(forward_level);
    self->word_bytes = Py_NewRef(word_bytes);
    self->forward_latency = (int64_t)forward_latency;
    if (attr_into(lsq, "_l1d", &l1d) < 0
        || attr_into(l1d, "_c_stage", &self->cache) < 0
        || attr_into(lsq, "_events", &self->events) < 0
        || attr_into(lsq, "_memory", &self->memory) < 0
        || attr_into(lsq, "memdep", &self->memdep) < 0
        || attr_into(lsq, "_entries", &self->entries) < 0
        || attr_into(lsq, "_order", &self->order) < 0
        || attr_into(lsq, "_unknown_stores", &self->unknown_stores) < 0
        || attr_into(lsq, "_known_stores", &self->known_stores) < 0
        || attr_into(lsq, "_stores_by_word", &self->stores_by_word) < 0
        || attr_into(lsq, "_true_stores_by_word",
                     &self->true_stores_by_word) < 0
        || attr_into(lsq, "_issued_loads_by_word",
                     &self->issued_loads_by_word) < 0
        || attr_into(lsq, "_candidates", &self->candidates) < 0
        || attr_into(lsq, "_frontier_blocked", &self->frontier_blocked) < 0
        || attr_into(lsq, "stat_occupancy", &self->occupancy) < 0
        || attr_into(lsq, "stat_forwards", &self->forwards) < 0
        || attr_into(lsq, "stat_conflict_waits", &self->conflict_waits) < 0
        || attr_into(lsq, "stat_loads", &self->loads) < 0
        || attr_into(lsq, "stat_stores", &self->stores) < 0
        || attr_into(lsq, "stat_dropped_store_writes", &self->dropped) < 0
        || attr_i64_named(lsq, "size", &self->size) < 0
        || attr_into(lsq, "fu_pool", &fu_pool) < 0
        || attr_into(lsq, "policy", &policy) < 0
        || (heapq = PyImport_ImportModule("_heapq")) == NULL
        || attr_into(heapq, "heappush", &self->heappush) < 0
        || attr_into(heapq, "heappop", &self->heappop) < 0
        || attr_into((PyObject *)self, "_store_data_ready",
                     &self->on_store_data) < 0
        || attr_into((PyObject *)self, "_mark_store_complete",
                     &self->on_store_complete) < 0)
        goto done;
    if (Py_TYPE(self->events) != &EQType) {
        PyErr_SetString(PyExc_TypeError,
                        "memory stage: the compiled EventQueue expected");
        goto done;
    }
    if (Py_TYPE(self->cache) != &CacheStageType
        || ((CacheStageObj *)self->cache)->tags.obj == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "memory stage: the L1D's cache stage expected");
        goto done;
    }
    if (!PyDict_CheckExact(self->entries) || !PyList_CheckExact(
            self->unknown_stores) || !PySet_CheckExact(self->known_stores)
        || !PyDict_CheckExact(self->stores_by_word)
        || !PyDict_CheckExact(self->true_stores_by_word)
        || !PyDict_CheckExact(self->issued_loads_by_word)
        || !PyList_CheckExact(self->frontier_blocked)) {
        PyErr_SetString(PyExc_TypeError, "memory stage: an LSQ expected");
        goto done;
    }
    if (self->memdep == Py_None)
        Py_CLEAR(self->memdep);
    if (fu_pool != Py_None) {
        if (attr_into(fu_pool, "_engine", &self->fu) < 0)
            goto done;
        if (Py_TYPE(self->fu) != &PipelineType) {
            PyErr_SetString(PyExc_TypeError,
                            "memory stage: a compiled FU pool expected");
            goto done;
        }
    }
    self->oracle = PyUnicode_Check(policy)
                   && PyUnicode_CompareWithASCIIString(policy, "oracle") == 0;
    self->conservative = PyUnicode_Check(policy)
        && PyUnicode_CompareWithASCIIString(policy, "conservative") == 0;
    rc = 0;
done:
    Py_XDECREF(fu_pool);
    Py_XDECREF(policy);
    Py_XDECREF(l1d);
    Py_XDECREF(heapq);
    return rc;
}

static int
MemStage_traverse(MemStageObj *self, visitproc visit, void *arg)
{
    PyObject **refs = &self->lsq;
    for (size_t i = 0; i < MEM_REFS; i++)
        Py_VISIT(refs[i]);
    return 0;
}

static int
MemStage_clear(MemStageObj *self)
{
    PyObject **refs = &self->lsq;
    for (size_t i = 0; i < MEM_REFS; i++)
        Py_CLEAR(refs[i]);
    return 0;
}

static void
MemStage_dealloc(MemStageObj *self)
{
    PyObject_GC_UnTrack(self);
    MemStage_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
mem_ready(MemStageObj *self)
{
    if (self->lsq == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "memory stage: cleared");
        return -1;
    }
    return 0;
}

static PyObject *
mem_key(PyObject *entry)
{
    /* LoadStoreQueue._timing_key(entry): (entry.inst.thread,
     * entry.word_addr). */
    PyObject *inst = site_get(&at_lsq_inst, entry);
    if (inst == NULL)
        return NULL;
    PyObject *thread = site_get(&at_inst_thread, inst);
    Py_DECREF(inst);
    if (thread == NULL)
        return NULL;
    PyObject *word = site_get(&at_lsq_word, entry);
    PyObject *key = word == NULL ? NULL : PyTuple_Pack(2, thread, word);
    Py_DECREF(thread);
    Py_XDECREF(word);
    return key;
}

static PyObject *
mem_true_key(MemStageObj *self, PyObject *inst)
{
    /* LoadStoreQueue._true_key: (inst.thread, inst.mem_addr //
     * WORD_BYTES). */
    PyObject *thread = site_get(&at_inst_thread, inst);
    PyObject *addr = thread == NULL ? NULL
                     : site_get(&at_inst_mem_addr, inst);
    PyObject *word = addr == NULL ? NULL
                     : PyNumber_FloorDivide(addr, self->word_bytes);
    PyObject *key = word == NULL ? NULL : PyTuple_Pack(2, thread, word);
    Py_XDECREF(thread);
    Py_XDECREF(addr);
    Py_XDECREF(word);
    return key;
}

static int
mem_file(PyObject *by_word, PyObject *key, PyObject *entry)
{
    /* by_word.setdefault(key, []).append(entry) (``key`` stolen). */
    if (key == NULL)
        return -1;
    PyObject *fresh = PyList_New(0);
    PyObject *list = fresh == NULL ? NULL
                     : PyDict_SetDefault(by_word, key, fresh);
    Py_XINCREF(list);
    Py_XDECREF(fresh);
    Py_DECREF(key);
    if (list == NULL)
        return -1;
    int rc = append_to(list, entry);
    Py_DECREF(list);
    return rc;
}

static int
mem_unfile(PyObject *by_word, PyObject *key, PyObject *entry)
{
    /* ``entry`` leaves by_word[key], and an emptied key goes (``key``
     * stolen). */
    if (key == NULL)
        return -1;
    int rc = -1;
    PyObject *list = PyDict_GetItemWithError(by_word, key);
    if (list == NULL) {
        rc = PyErr_Occurred() ? -1 : 0;
        goto done;
    }
    Py_INCREF(list);
    int filed = PyObject_IsTrue(list);
    if (filed > 0)
        filed = PySequence_Contains(list, entry);
    if (filed > 0) {
        Py_ssize_t left;
        if (call_discard(PyObject_CallMethodOneArg(list, str_remove,
                                                   entry)) < 0
            || (left = PyObject_Length(list)) < 0
            || (left == 0 && PyDict_DelItem(by_word, key) < 0))
            filed = -1;
    }
    Py_DECREF(list);
    rc = filed < 0 ? -1 : 0;
done:
    Py_DECREF(key);
    return rc;
}

static int
mem_heappush(MemStageObj *self, PyObject *heap, PyObject *item)
{
    /* heapq.heappush(heap, item) (``item`` stolen). */
    if (item == NULL)
        return -1;
    PyObject *argv[2] = {heap, item};
    int rc = call_discard(PyObject_Vectorcall(self->heappush, argv, 2, NULL));
    Py_DECREF(item);
    return rc;
}

static PyObject *
mem_heappop(MemStageObj *self, PyObject *heap)
{
    return PyObject_Vectorcall(self->heappop, &heap, 1, NULL);
}

static int
mem_store_frontier(MemStageObj *self, int64_t *frontier)
{
    /* LoadStoreQueue.store_frontier: the smallest store seq whose
     * address is unknown, dropping known ones off the heap. */
    PyObject *heap = self->unknown_stores;
    while (PyList_GET_SIZE(heap)) {
        int known = PySet_Contains(self->known_stores,
                                   PyList_GET_ITEM(heap, 0));
        if (known < 0)
            return -1;
        if (!known)
            break;
        PyObject *seq = mem_heappop(self, heap);
        int rc = seq == NULL ? -1 : PySet_Discard(self->known_stores, seq);
        Py_XDECREF(seq);
        if (rc < 0)
            return -1;
    }
    if (!PyList_GET_SIZE(heap)) {
        *frontier = KNEVER;
        return 0;
    }
    long long seq = PyLong_AsLongLong(PyList_GET_ITEM(heap, 0));
    if (seq == -1 && PyErr_Occurred())
        return -1;
    *frontier = (int64_t)seq;
    return 0;
}

static int
mem_advance_frontier(MemStageObj *self)
{
    /* _advance_frontier: loads behind the frontier become candidates. */
    int64_t frontier;
    if (mem_store_frontier(self, &frontier) < 0)
        return -1;
    PyObject *blocked = self->frontier_blocked;
    while (PyList_GET_SIZE(blocked)) {
        PyObject *head = PyList_GET_ITEM(blocked, 0);
        if (!PyTuple_CheckExact(head) || PyTuple_GET_SIZE(head) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "memory stage: a blocked load is (seq, entry)");
            return -1;
        }
        long long seq = PyLong_AsLongLong(PyTuple_GET_ITEM(head, 0));
        if (seq == -1 && PyErr_Occurred())
            return -1;
        if (seq >= frontier)
            return 0;
        PyObject *item = mem_heappop(self, blocked);
        if (item == NULL)
            return -1;
        int rc = append_to(self->candidates, PyTuple_GET_ITEM(item, 1));
        Py_DECREF(item);
        if (rc < 0)
            return -1;
    }
    return 0;
}

static int
mem_release_waiting(MemStageObj *self, PyObject *entry, int if_any)
{
    /* The loads parked on ``entry`` go back to the candidates, and the
     * entry gets a fresh list (``if_any``: only when some are parked). */
    PyObject *waiting = site_get(&at_lsq_waiting, entry);
    if (waiting == NULL)
        return -1;
    int rc = 0;
    if (if_any) {
        rc = PyObject_IsTrue(waiting);
        if (rc <= 0) {
            Py_DECREF(waiting);
            return rc;
        }
    }
    rc = extend_with(self->candidates, waiting) < 0
         || site_set_new(&at_lsq_waiting, entry, PyList_New(0)) < 0
         ? -1 : 0;
    Py_DECREF(waiting);
    return rc;
}

static int
mem_maybe_complete_store(MemStageObj *self, PyObject *entry)
{
    /* _maybe_complete_store: with address and data known, the store
     * completes at the later of the two (now at the earliest). */
    PyObject *addr_ready = site_get(&at_lsq_addr_ready, entry);
    PyObject *data_ready = addr_ready == NULL ? NULL
                           : site_get(&at_lsq_data_ready, entry);
    int rc = -1;
    if (data_ready == NULL)
        goto done;
    if (addr_ready == Py_None || data_ready == Py_None) {
        rc = 0;
        goto done;
    }
    long long a = PyLong_AsLongLong(addr_ready);
    long long d = a == -1 && PyErr_Occurred() ? -1
                  : PyLong_AsLongLong(data_ready);
    if (PyErr_Occurred())
        goto done;
    EQObj *events = (EQObj *)self->events;
    int64_t when = events->now;
    if (a > when)
        when = a;
    if (d > when)
        when = d;
    if (site_set(&at_lsq_completed, entry, Py_True) < 0)
        goto done;
    rc = eq_push_at(events, when, self->on_store_complete, entry);
done:
    Py_XDECREF(addr_ready);
    Py_XDECREF(data_ready);
    return rc;
}

static PyObject *
mem_new_entry(MemStageObj *self, PyObject *inst)
{
    /* LSQEntry(inst). */
    PyTypeObject *tp = (PyTypeObject *)self->lsq_entry_cls;
    PyObject *entry = tp->tp_alloc(tp, 0);
    if (entry == NULL)
        return NULL;
    if (site_set(&at_lsq_inst, entry, inst) < 0
        || site_set_new(&at_lsq_seq, entry, site_get(&at_inst_seq, inst)) < 0
        || site_set_new(&at_lsq_is_store, entry,
                        site_get(&at_inst_is_store, inst)) < 0
        || site_set(&at_lsq_addr, entry, Py_None) < 0
        || site_set(&at_lsq_word, entry, Py_None) < 0
        || site_set(&at_lsq_addr_ready, entry, Py_None) < 0
        || site_set(&at_lsq_data_ready, entry, Py_None) < 0
        || site_set(&at_lsq_issued, entry, Py_False) < 0
        || site_set(&at_lsq_completed, entry, Py_False) < 0
        || site_set_new(&at_lsq_waiting, entry, PyList_New(0)) < 0
        || site_set(&at_lsq_predicted, entry, Py_None) < 0
        || site_set(&at_lsq_level, entry, Py_None) < 0) {
        Py_DECREF(entry);
        return NULL;
    }
    return entry;
}

static PyObject *
MemStage_dispatch(MemStageObj *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* dispatch(inst, data_operand_ready, data_producer):
     * LoadStoreQueue.dispatch, the entry allocated at dispatch. */
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "dispatch expects 3 arguments");
        return NULL;
    }
    if (mem_ready(self) < 0)
        return NULL;
    PyObject *inst = args[0], *ready = args[1], *producer = args[2];
    Py_ssize_t held = PyObject_Length(self->order);
    if (held < 0)
        return NULL;
    if (held >= self->size) {
        PyObject *exc = sim_error();
        if (exc != NULL)
            PyErr_SetString(exc, "LSQ dispatch with no space");
        return NULL;
    }
    PyObject *entry = mem_new_entry(self, inst);
    if (entry == NULL)
        return NULL;
    PyObject *seq = NULL, *pc = NULL, *waiters = NULL, *record = NULL;
    int ok = 0, store;
    if ((seq = site_get(&at_lsq_seq, entry)) == NULL
        || PyDict_SetItem(self->entries, seq, entry) < 0
        || append_to(self->order, entry) < 0
        || (store = site_truth(&at_lsq_is_store, entry)) < 0)
        goto done;
    if (self->memdep != NULL && (pc = site_get(&at_inst_pc, inst)) == NULL)
        goto done;
    if (!store) {
        if (counter_inc1(self->loads) < 0)
            goto done;
        /* Store sets: consult the LFST here, in program order. */
        if (self->memdep != NULL
            && site_set_new(&at_lsq_predicted, entry,
                            PyObject_CallMethodOneArg(
                                self->memdep, str_predicted_store, pc)) < 0)
            goto done;
        ok = 1;
        goto done;
    }
    if (counter_inc1(self->stores) < 0
        || mem_heappush(self, self->unknown_stores, Py_NewRef(seq)) < 0
        || (!self->conservative
            && mem_file(self->true_stores_by_word,
                        mem_true_key(self, inst), entry) < 0)
        || (self->memdep != NULL
            && call_discard(PyObject_CallMethodObjArgs(
                   self->memdep, str_store_fetched, pc, entry, NULL)) < 0))
        goto done;
    if (producer != Py_None && ready == Py_None) {
        /* Wait for the data register: a typed producer waiter. */
        ok = (waiters = site_get(&at_prod_waiters, producer)) != NULL
             && (record = PyTuple_Pack(2, self->on_store_data,
                                       entry)) != NULL
             && append_to(waiters, record) == 0;
        goto done;
    }
    /* entry.data_ready_cycle = data_operand_ready or 0 */
    int truth = PyObject_IsTrue(ready);
    ok = truth >= 0
         && site_set(&at_lsq_data_ready, entry,
                     truth ? ready : zero_obj) == 0;
done:
    Py_XDECREF(seq);
    Py_XDECREF(pc);
    Py_XDECREF(waiters);
    Py_XDECREF(record);
    if (!ok) {
        Py_DECREF(entry);
        return NULL;
    }
    return entry;
}

static PyObject *
MemStage_address_ready(MemStageObj *self, PyObject *const *args,
                       Py_ssize_t nargs)
{
    /* address_ready(inst, cycle): LoadStoreQueue.address_ready, the IQ
     * finished the effective-address calculation. */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "address_ready expects 2 arguments");
        return NULL;
    }
    if (mem_ready(self) < 0)
        return NULL;
    PyObject *inst = args[0], *cycle = args[1];
    PyObject *seq = site_get(&at_inst_seq, inst);
    PyObject *entry = seq == NULL ? NULL
                      : PyObject_GetItem(self->entries, seq);
    PyObject *addr = NULL, *predicted = NULL;
    int ok = 0;
    if (entry == NULL || (addr = site_get(&at_inst_mem_addr, inst)) == NULL
        || site_set(&at_lsq_addr, entry, addr) < 0
        || site_set_new(&at_lsq_word, entry,
                        PyNumber_FloorDivide(addr, self->word_bytes)) < 0
        || site_set(&at_lsq_addr_ready, entry, cycle) < 0)
        goto done;
    int store = site_truth(&at_lsq_is_store, entry);
    if (store < 0)
        goto done;
    if (store) {
        /* A newly placed store may conflict with a refused load. */
        if (PyObject_SetAttr(self->lsq, str_refused, zero_obj) < 0
            || PySet_Add(self->known_stores, seq) < 0
            || mem_file(self->stores_by_word, mem_key(entry), entry) < 0
            || (self->memdep != NULL
                && call_discard(PyObject_CallMethodObjArgs(
                       self->lsq, str_detect_violations, entry, cycle,
                       NULL)) < 0)
            || mem_release_waiting(self, entry, 1) < 0
            || mem_maybe_complete_store(self, entry) < 0
            || mem_advance_frontier(self) < 0)
            goto done;
    }
    else if (self->conservative) {
        int64_t frontier, order;
        if (mem_store_frontier(self, &frontier) < 0
            || site_get_i64(&at_lsq_seq, entry, &order) < 0)
            goto done;
        if (order < frontier ? append_to(self->candidates, entry) < 0
            : mem_heappush(self, self->frontier_blocked,
                           PyTuple_Pack(2, seq, entry)) < 0)
            goto done;
    }
    else if (self->memdep != NULL) {
        /* Store sets: wait on the predicted in-flight store. */
        int64_t order, dep_seq, completed;
        PyObject *dep_inst = NULL, *dep_seq_obj = NULL;
        int wait = 0;
        if ((predicted = site_get(&at_lsq_predicted, entry)) == NULL)
            goto done;
        if (predicted != Py_None) {
            if (site_get_i64(&at_lsq_seq, entry, &order) < 0
                || (dep_seq_obj = site_get(&at_lsq_seq, predicted)) == NULL
                || (dep_seq = PyLong_AsLongLong(dep_seq_obj),
                    dep_seq == -1 && PyErr_Occurred())) {
                Py_XDECREF(dep_seq_obj);
                goto done;
            }
            if (dep_seq < order) {
                wait = (dep_inst = site_get(&at_lsq_inst, predicted)) == NULL
                       || site_get_i64(&at_inst_completed, dep_inst,
                                       &completed) < 0
                       ? -1 : completed < 0;
                if (wait > 0)
                    wait = PyDict_Contains(self->entries, dep_seq_obj);
            }
            Py_XDECREF(dep_inst);
            Py_DECREF(dep_seq_obj);
        }
        if (wait < 0)
            goto done;
        if (wait) {
            PyObject *waiting = site_get(&at_lsq_waiting, predicted);
            int rc = waiting == NULL || counter_inc1(self->conflict_waits) < 0
                     || append_to(waiting, entry) < 0;
            Py_XDECREF(waiting);
            if (rc)
                goto done;
        }
        else if (append_to(self->candidates, entry) < 0)
            goto done;
    }
    else if (append_to(self->candidates, entry) < 0)     /* oracle */
        goto done;
    ok = 1;
done:
    Py_XDECREF(seq);
    Py_XDECREF(entry);
    Py_XDECREF(addr);
    Py_XDECREF(predicted);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
MemStage_store_data_ready(MemStageObj *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    /* The producer waiter _store_data_ready(entry, cycle): the store's
     * data register is ready. */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "_store_data_ready expects 2 arguments");
        return NULL;
    }
    if (mem_ready(self) < 0
        || site_set(&at_lsq_data_ready, args[0], args[1]) < 0
        || mem_maybe_complete_store(self, args[0]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
MemStage_mark_store_complete(MemStageObj *self, PyObject *const *args,
                             Py_ssize_t nargs)
{
    /* The record _mark_store_complete(entry, cycle): the store completes
     * for the ROB, and loads parked on it can forward from it. */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "_mark_store_complete expects 2 arguments");
        return NULL;
    }
    PyObject *inst = mem_ready(self) < 0 ? NULL
                     : site_get(&at_lsq_inst, args[0]);
    int rc = inst == NULL || site_set(&at_inst_completed, inst, args[1]) < 0
             || mem_release_waiting(self, args[0], 0) < 0;
    Py_XDECREF(inst);
    if (rc)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
MemStage_commit(MemStageObj *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* commit(inst, now): LoadStoreQueue.commit, the op leaves; a store
     * writes the data cache (a write the L1D refuses is counted and
     * dropped). */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "commit expects 2 arguments");
        return NULL;
    }
    if (mem_ready(self) < 0)
        return NULL;
    PyObject *inst = args[0];
    PyObject *seq = site_get(&at_inst_seq, inst);
    PyObject *entry = seq == NULL ? NULL
                      : PyObject_GetItem(self->entries, seq);
    PyObject *head = NULL, *pc = NULL, *request = NULL, *accepted = NULL;
    int ok = 0;
    if (entry == NULL || PyDict_DelItem(self->entries, seq) < 0)
        goto done;
    Py_ssize_t held = PyObject_Length(self->order);
    if (held < 0
        || (held && (head = PySequence_GetItem(self->order, 0)) == NULL)
        || call_discard(head == entry
                        ? PyObject_CallMethodNoArgs(self->order, str_popleft)
                        : PyObject_CallMethodOneArg(self->order, str_remove,
                                                    entry)) < 0)
        goto done;
    int store = site_truth(&at_lsq_is_store, entry);
    if (store < 0)
        goto done;
    if (!store) {
        ok = self->memdep == NULL
             || mem_unfile(self->issued_loads_by_word, mem_key(entry),
                           entry) == 0;
        goto done;
    }
    if (mem_unfile(self->stores_by_word, mem_key(entry), entry) < 0
        || (!self->conservative
            && mem_unfile(self->true_stores_by_word,
                          mem_true_key(self, inst), entry) < 0)
        || (self->memdep != NULL
            && ((pc = site_get(&at_inst_pc, inst)) == NULL
                || call_discard(PyObject_CallMethodObjArgs(
                       self->memdep, str_store_left, pc, entry,
                       NULL)) < 0)))
        goto done;
    /* Fire-and-forget write (write-allocate): MemRequest(addr=entry.addr,
     * is_write=True) through MemoryHierarchy.data_access. */
    PyTypeObject *tp = (PyTypeObject *)self->request_cls;
    if ((request = tp->tp_alloc(tp, 0)) == NULL
        || site_set_new(&at_req_addr, request,
                        site_get(&at_lsq_addr, entry)) < 0
        || site_set(&at_req_is_write, request, Py_True) < 0
        || site_set(&at_req_on_complete, request, Py_None) < 0
        || site_set(&at_req_on_miss, request, Py_None) < 0
        || site_set(&at_req_level, request, Py_None) < 0
        || site_set_i64(&at_req_completed, request, -1) < 0
        || (accepted = PyObject_CallMethodOneArg(
                self->memory, str_data_access, request)) == NULL)
        goto done;
    int taken = PyObject_IsTrue(accepted);
    if (taken < 0 || (!taken && counter_inc1(self->dropped) < 0))
        goto done;
    /* Loads still parked go back to the candidates. */
    ok = mem_release_waiting(self, entry, 0) == 0;
done:
    Py_XDECREF(seq);
    Py_XDECREF(entry);
    Py_XDECREF(head);
    Py_XDECREF(pc);
    Py_XDECREF(request);
    Py_XDECREF(accepted);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static int
mem_track_issued(MemStageObj *self, PyObject *entry, PyObject *key)
{
    /* self._issued_loads_by_word.setdefault(key, []).append(entry) */
    Py_INCREF(key);
    return mem_file(self->issued_loads_by_word, key, entry);
}

static int
mem_conflicting_store(MemStageObj *self, PyObject *entry, PyObject *key,
                      PyObject **blocker)
{
    /* _conflicting_store: *blocker is the youngest earlier store to the
     * load's word (a new reference) or NULL; -1 on error. */
    *blocker = NULL;
    PyObject *stores = PyDict_GetItemWithError(
        self->oracle ? self->true_stores_by_word : self->stores_by_word,
        key);
    if (stores == NULL)
        return PyErr_Occurred() ? -1 : 0;
    Py_INCREF(stores);
    int64_t seq;
    PyObject *fast = NULL;
    int rc = -1;
    if (site_get_i64(&at_lsq_seq, entry, &seq) < 0
        || (fast = PySequence_Fast(stores, "stores: a list")) == NULL)
        goto done;
    for (Py_ssize_t i = PySequence_Fast_GET_SIZE(fast); --i >= 0;) {
        if (i >= PySequence_Fast_GET_SIZE(fast))
            continue;           /* the list shrank under a lookup */
        PyObject *store = PySequence_Fast_GET_ITEM(fast, i);
        int64_t store_seq;
        Py_INCREF(store);
        if (site_get_i64(&at_lsq_seq, store, &store_seq) < 0) {
            Py_DECREF(store);
            goto done;
        }
        if (store_seq < seq) {
            *blocker = store;
            break;
        }
        Py_DECREF(store);
    }
    rc = 0;
done:
    Py_DECREF(stores);
    Py_XDECREF(fast);
    return rc;
}

static int
mem_forward(MemStageObj *self, PyObject *entry, PyObject *key, int64_t now)
{
    /* _forward: the load takes the store's data. */
    if (counter_inc1(self->forwards) < 0
        || site_set(&at_lsq_issued, entry, Py_True) < 0
        || (self->memdep != NULL && mem_track_issued(self, entry, key) < 0)
        || site_set(&at_lsq_level, entry, self->forward_level) < 0)
        return -1;
    return eq_push_at((EQObj *)self->events, now + self->forward_latency,
                      (PyObject *)self, entry);
}

static int
mem_miss(MemStageObj *self, PyObject *entry, PyObject *line_obj)
{
    /* A load missed the L1D: the IQ hears of it, then the load merges
     * into the line's MSHR (a delayed hit) or allocates one. */
    CacheStageObj *cache = (CacheStageObj *)self->cache;
    PyObject *inst = NULL, *iq = NULL, *now_obj = NULL, *waiter = NULL;
    PyObject *mshr = NULL;
    int rc = -1;
    if ((iq = PyObject_GetAttr(self->lsq, str_iq)) == NULL)
        goto done;
    if (iq != Py_None
        && ((inst = site_get(&at_lsq_inst, entry)) == NULL
            || (now_obj = PyLong_FromLongLong(
                    ((EQObj *)self->events)->now)) == NULL
            || call_discard(PyObject_CallMethodObjArgs(
                   iq, str_notify_load_miss, inst, now_obj, NULL)) < 0))
        goto done;
    if ((waiter = PyTuple_Pack(2, (PyObject *)self, entry)) == NULL)
        goto done;
    mshr = PyDict_GetItemWithError(cache->mshrs, line_obj);
    if (mshr != NULL) {
        Py_INCREF(mshr);
        if (counter_inc1(cache->delayed_hits) < 0
            || site_set(&at_lsq_level, entry, cache->merged_level) < 0
            || cache_merge(mshr, NULL, waiter) < 0)
            goto done;
    }
    else if (PyErr_Occurred()
             || counter_inc1(cache->misses) < 0
             || cache_allocate_mshr(cache, line_obj, Py_False, waiter) < 0)
        goto done;
    rc = 0;
done:
    Py_XDECREF(inst);
    Py_XDECREF(iq);
    Py_XDECREF(now_obj);
    Py_XDECREF(waiter);
    Py_XDECREF(mshr);
    return rc;
}

static int
mem_issue_to_cache(MemStageObj *self, PyObject *entry, PyObject *key,
                   int64_t now)
{
    /* _issue_to_cache: MEM_ISSUED, or why the load must retry; -1 on
     * error. */
    PipelineObj *fu = (PipelineObj *)self->fu;
    CacheStageObj *cache = (CacheStageObj *)self->cache;
    if (fu != NULL) {
        Py_ssize_t base = fu->mem_port * fu->clusters, cluster;
        for (cluster = 0; cluster < fu->clusters; cluster++) {
            i64vec *units = &fu->heaps[base + cluster];
            if (units->len && units->data[0] <= now)
                break;
        }
        if (cluster == fu->clusters)
            return MEM_NO_PORT;
    }
    int64_t addr;
    if (site_get_i64(&at_lsq_addr, entry, &addr) < 0)
        return -1;
    int64_t line = addr >> cache->line_shift;
    PyObject *line_obj = NULL;
    int rc = -1;
    int rejected = cache_rejects(cache, line, &line_obj);
    if (rejected) {
        if (rejected > 0)
            rc = MEM_NO_MSHR;
        goto done;
    }
    if (counter_inc1(cache->accesses) < 0)
        goto done;
    if (cache_find(cache, line, 1) >= 0) {
        EQObj *events = (EQObj *)self->events;
        if (counter_inc1(cache->hits) < 0
            || site_set(&at_lsq_level, entry, cache->level) < 0
            || eq_push(events, events->now + cache->hit_latency,
                       (PyObject *)self, entry) < 0)
            goto done;
    }
    else if (line_box(line, &line_obj) == NULL
             || mem_miss(self, entry, line_obj) < 0)
        goto done;
    if ((fu != NULL && pipeline_cache_port_raw(fu, now) < 0)
        || site_set(&at_lsq_issued, entry, Py_True) < 0
        || (self->memdep != NULL && mem_track_issued(self, entry, key) < 0))
        goto done;
    rc = MEM_ISSUED;
done:
    Py_XDECREF(line_obj);
    return rc;
}

static int
mem_done(PyObject *stage, PyObject *entry, int64_t when)
{
    /* LoadStoreQueue._load_done(entry, when): the load's data is
     * available. */
    MemStageObj *self = (MemStageObj *)stage;
    if (mem_ready(self) < 0)
        return -1;
    PyObject *inst = site_get(&at_lsq_inst, entry);
    if (inst == NULL)
        return -1;
    PyObject *level = NULL, *when_obj = NULL, *iq = NULL;
    int rc = -1;
    if ((level = site_get(&at_lsq_level, entry)) == NULL
        || site_set(&at_inst_mem_level, inst, level) < 0
        || (when_obj = PyLong_FromLongLong((long long)when)) == NULL
        || site_set(&at_inst_completed, inst, when_obj) < 0
        || set_value_ready(self->entry_cls, inst, when) < 0
        || site_set(&at_lsq_completed, entry, Py_True) < 0
        || (iq = PyObject_GetAttr(self->lsq, str_iq)) == NULL)
        goto done;
    if (iq != Py_None
        && call_discard(PyObject_CallMethodObjArgs(
               iq, str_notify_load_complete, inst, when_obj, NULL)) < 0)
        goto done;
    rc = 0;
done:
    Py_DECREF(inst);
    Py_XDECREF(level);
    Py_XDECREF(when_obj);
    Py_XDECREF(iq);
    return rc;
}

static int
mem_filled(PyObject *stage, PyObject *entry, PyObject *level)
{
    /* LoadStoreQueue._load_filled(entry, level): the line ``entry``
     * missed on arrived from ``level``. */
    MemStageObj *self = (MemStageObj *)stage;
    if (mem_ready(self) < 0)
        return -1;
    PyObject *known = site_get(&at_lsq_level, entry);
    if (known == NULL)
        return -1;
    int unset = known == Py_None;
    Py_DECREF(known);
    if (unset && site_set(&at_lsq_level, entry, level) < 0)
        return -1;
    return mem_done(stage, entry, ((EQObj *)self->events)->now);
}

static int
mem_candidate(MemStageObj *self, PyObject *entry, int64_t now,
              int64_t *refused, PyObject *retry)
{
    /* One candidate of LoadStoreQueue.cycle's loop. */
    int issued = site_truth(&at_lsq_issued, entry);
    if (issued != 0)
        return issued < 0 ? -1 : 0;
    PyObject *key = mem_key(entry), *blocker = NULL, *inst = NULL;
    PyObject *waiting = NULL;
    int rc = -1;
    if (key == NULL
        || mem_conflicting_store(self, entry, key, &blocker) < 0)
        goto done;
    if (blocker != NULL) {
        int64_t completed;
        if ((inst = site_get(&at_lsq_inst, blocker)) == NULL
            || site_get_i64(&at_inst_completed, inst, &completed) < 0)
            goto done;
        if (completed >= 0)
            rc = mem_forward(self, entry, key, now);
        else if (counter_inc1(self->conflict_waits) == 0
                 && (waiting = site_get(&at_lsq_waiting, blocker)) != NULL)
            rc = append_to(waiting, entry);
        goto done;
    }
    int outcome = mem_issue_to_cache(self, entry, key, now);
    if (outcome < 0)
        goto done;
    if (outcome != MEM_ISSUED) {
        if (outcome == MEM_NO_MSHR)
            ++*refused;
        if (PyList_Append(retry, entry) < 0)
            goto done;
    }
    rc = 0;
done:
    Py_XDECREF(key);
    Py_XDECREF(blocker);
    Py_XDECREF(inst);
    Py_XDECREF(waiting);
    return rc;
}

static PyObject *
MemStage_run(MemStageObj *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* run(lsq, now): one cycle of LoadStoreQueue.cycle. */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "run expects 2 arguments");
        return NULL;
    }
    PyObject *lsq = args[0];
    int64_t now = (int64_t)PyLong_AsLongLong(args[1]);
    if (now == -1 && PyErr_Occurred())
        return NULL;
    if (mem_ready(self) < 0)
        return NULL;
    if (lsq != self->lsq) {
        PyErr_SetString(PyExc_ValueError, "memory stage: another LSQ");
        return NULL;
    }
    /* self.stat_occupancy.sample(len(self._order)) */
    Py_ssize_t occupancy = PyObject_Length(self->order);
    if (occupancy < 0
        || dist_sample_i64(self->occupancy, (int64_t)occupancy) < 0)
        return NULL;
    PyObject *candidates = self->candidates, *owner;
    PyObject *retry = NULL, *entry = NULL;
    int64_t version, refused_version, refused = 0;
    Py_ssize_t pending = PyObject_Length(candidates);
    if (pending <= 0)
        return pending < 0 ? NULL : Py_NewRef(Py_None);
    owner = ((CacheStageObj *)self->cache)->owner;
    if (attr_i64(owner, str_version, &version) < 0
        || attr_i64(lsq, str_refused_version, &refused_version) < 0
        || (refused_version == version
            && attr_i64(lsq, str_refused, &refused) < 0))
        return NULL;
    if (refused) {
        if (counter_add(((CacheStageObj *)self->cache)->mshr_full,
                        (Py_ssize_t)refused) < 0)
            return NULL;
        if (refused == pending)
            Py_RETURN_NONE;
        /* Attempt only the candidates behind the refused prefix. */
        PyObject *shift = PyLong_FromLongLong(-(long long)refused);
        int rc = shift == NULL || call_discard(PyObject_CallMethodOneArg(
                     candidates, str_rotate, shift)) < 0;
        Py_XDECREF(shift);
        if (rc)
            return NULL;
    }
    if ((retry = PyList_New(0)) == NULL)
        return NULL;
    int ok = 0;
    Py_ssize_t attempts = pending - (Py_ssize_t)refused;
    for (Py_ssize_t i = 0; i < attempts; i++) {
        if ((entry = PyObject_CallMethodNoArgs(candidates,
                                               str_popleft)) == NULL
            || mem_candidate(self, entry, now, &refused, retry) < 0)
            goto done;
        Py_CLEAR(entry);
    }
    if (extend_with(candidates, retry) < 0
        || attr_set_i64(lsq, str_refused, refused) < 0
        || attr_i64(owner, str_version, &version) < 0
        || attr_set_i64(lsq, str_refused_version, version) < 0)
        goto done;
    ok = 1;
done:
    Py_DECREF(retry);
    Py_XDECREF(entry);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef MemStage_methods[] = {
    {"run", (PyCFunction)MemStage_run, METH_FASTCALL, NULL},
    {"dispatch", (PyCFunction)MemStage_dispatch, METH_FASTCALL, NULL},
    {"address_ready", (PyCFunction)MemStage_address_ready, METH_FASTCALL,
     NULL},
    {"commit", (PyCFunction)MemStage_commit, METH_FASTCALL, NULL},
    {"_store_data_ready", (PyCFunction)MemStage_store_data_ready,
     METH_FASTCALL, NULL},
    {"_mark_store_complete", (PyCFunction)MemStage_mark_store_complete,
     METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL}
};

static PyTypeObject MemStageType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.segmented._ckernels.MemStage",
    .tp_basicsize = sizeof(MemStageObj),
    .tp_itemsize = 0,
    .tp_dealloc = (destructor)MemStage_dealloc,
    /* Not subclassable: the event queue fires the stage's records by
     * its exact type. */
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled memory stage (see pipeline/kernels.py)",
    .tp_traverse = (traverseproc)MemStage_traverse,
    .tp_clear = (inquiry)MemStage_clear,
    .tp_methods = MemStage_methods,
    .tp_init = (initproc)MemStage_init,
    .tp_new = PyType_GenericNew,
};

static struct PyModuleDef ckernels_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.core.segmented._ckernels",
    .m_doc = "Compiled kernel backend for the segmented IQ.",
    .m_size = -1,
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
    for (size_t i = 0; i < sizeof(STAGE_NAMES) / sizeof(*STAGE_NAMES); i++) {
        *STAGE_NAMES[i].slot = PyUnicode_InternFromString(STAGE_NAMES[i].name);
        if (*STAGE_NAMES[i].slot == NULL)
            return NULL;
    }
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
    if (PyType_Ready(&StageType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&StageType);
    if (PyModule_AddObject(module, "DispatchStage",
                           (PyObject *)&StageType) < 0) {
        Py_DECREF(&StageType);
        Py_DECREF(module);
        return NULL;
    }
    if (PyType_Ready(&IssueStageType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&IssueStageType);
    if (PyModule_AddObject(module, "IssueStage",
                           (PyObject *)&IssueStageType) < 0) {
        Py_DECREF(&IssueStageType);
        Py_DECREF(module);
        return NULL;
    }
    static const struct { PyTypeObject *type; const char *name; }
    more[] = {{&FetchStageType, "FetchStage"},
              {&CommitStageType, "CommitStage"},
              {&MemStageType, "MemStage"}, {&CacheStageType, "CacheStage"},
              {&ReplayType, "Replay"}};
    for (size_t i = 0; i < sizeof(more) / sizeof(*more); i++) {
        if (PyType_Ready(more[i].type) < 0
            || PyModule_AddObjectRef(module, more[i].name,
                                     (PyObject *)more[i].type) < 0) {
            Py_DECREF(module);
            return NULL;
        }
    }
    return module;
}
