/* Compiled hot kernels behind the numpy API (ctypes tier).
 *
 * Three kernels, each the single-pass fusion of a numpy sweep sequence
 * whose answers it must reproduce bit-for-bit (the numpy implementations
 * stay in-tree as the parity reference, like _presence_of_dense):
 *
 *   group_argbest   — per-group best candidate with lowest-input-index
 *                     tie-breaks (replaces a lexsort + three temporaries);
 *   daic_round      — the DAIC engine's loop over a step table: a plan
 *                     segment's copy and apply steps (or one propagate)
 *                     in one call, each apply's seed pass and rounds run
 *                     in place on its rows of the state matrices, each
 *                     round's edge-gather -> relax -> better_into body
 *                     fused into one pass over the frontier's out-edges,
 *                     until the table ends or a round cap is hit,
 *                     optionally writing each pass's trace as it goes;
 *   presence_gather — bit-plane presence test, unpack-and-test per edge
 *                     with no intermediate unpacked plane.
 *
 * Compiled once per machine into a content-addressed shared library by
 * repro.perf.backend.cext (cc -O2 -shared -fPIC); no Python.h — every
 * argument is a raw pointer into a numpy array, marshalled via ctypes.
 *
 * Candidate arithmetic must match numpy's vectorized double ops exactly,
 * so each edge function is the same IEEE-754 double expression numpy
 * evaluates; min/max reductions are order-insensitive, which keeps the
 * fused in-place pass bit-identical to numpy's gather-then-scatter form.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Candidate ops (Algorithm.kernel_op): keep in sync with
 * repro.perf.backend.OPS */
#define OP_PLUS_WT 0     /* sssp:    val + wt          */
#define OP_PLUS_ONE 1    /* bfs:     val + 1.0          */
#define OP_MIN_WT 2      /* sswp:    min(val, wt)       */
#define OP_MAX_WT 3      /* ssnp:    max(val, wt)       */
#define OP_DIV_WT 4      /* viterbi: val / wt           */

static inline double candidate_of(int op, double val, double wt)
{
    switch (op) {
    case OP_PLUS_WT:
        return val + wt;
    case OP_PLUS_ONE:
        return val + 1.0;
    case OP_MIN_WT:
        /* np.minimum: NaN on either side propagates (a NaN val must not
         * be silently replaced by the weight) */
        return (val < wt || val != val) ? val : wt;
    case OP_MAX_WT:
        return (val > wt || val != val) ? val : wt;
    default:
        return val / wt;
    }
}

/* Strictly better under the algorithm's order, with numpy-lexsort NaN
 * semantics: NaN sorts after every number, so any non-NaN candidate
 * beats a stored NaN and a NaN candidate never wins. */
static inline int strictly_better(double cand, double best, int minimize)
{
    if (best != best) /* stored NaN: any real candidate replaces it */
        return cand == cand;
    return minimize ? cand < best : cand > best;
}

/* group_argbest: per-group best over (keys, cands); groups are dense in
 * [0, max_key].  seen/best_val/best_idx are caller-zeroed/uninitialised
 * scratch of size max_key+1.  Writes ascending unique keys and the
 * winning *input index* per group; returns the group count. */
int64_t mega_group_argbest(
    const int64_t *keys, const double *cands, int64_t n, int minimize,
    int64_t max_key, uint8_t *seen, double *best_val, int64_t *best_idx,
    int64_t *out_keys, int64_t *out_best)
{
    int64_t i, k, u = 0;
    for (i = 0; i < n; i++) {
        k = keys[i];
        if (!seen[k]) {
            seen[k] = 1;
            best_val[k] = cands[i];
            best_idx[k] = i;
        } else if (strictly_better(cands[i], best_val[k], minimize)) {
            best_val[k] = cands[i];
            best_idx[k] = i;
        }
    }
    for (k = 0; k <= max_key; k++) {
        if (seen[k]) {
            out_keys[u] = k;
            out_best[u] = best_idx[k];
            u++;
        }
    }
    return u;
}

/* Relax one (version, edge) candidate into a value cell.
 *
 * np.minimum/maximum.at followed by better_into(values, old): a NaN value
 * is sticky, a NaN candidate poisons the cell but is never "changed"
 * (NaN fails the strict compare against old), and min/max of reals is
 * order-insensitive.  A strict improvement marks the cell's `next` byte,
 * records the candidate's edge as the cell's round parent, and appends v
 * to the next frontier list the first time any of its versions changes.
 *
 * The edge that last strictly improved a cell is the first edge (in pass
 * order) to reach the cell's final value — exactly group_argbest's
 * lowest-flat-index winner over the k-major candidate list, for every
 * cell that ends the pass changed (the only cells whose parent is read).
 */
static inline void relax(
    double *value, uint8_t *next, int64_t *round_parent, int64_t v,
    double cand, int64_t e, int minimize, uint8_t *mark, int64_t *list,
    int64_t *len)
{
    const double cur = *value;
    if (cur != cur)
        return;
    if (cand != cand) {
        *value = cand;
        *next = 0;
        return;
    }
    if (minimize ? cand < cur : cand > cur) {
        *value = cand;
        *next = 1;
        if (round_parent != NULL)
            *round_parent = e;
        if (!mark[v]) {
            mark[v] = 1;
            list[(*len)++] = v;
        }
    }
}

static int cmp_i64(const void *a, const void *b)
{
    const int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Turn the unordered list of vertices touched by a pass into the next
 * round's frontier: ascending (the gather order of a vectorized CSR
 * gather), restricted to vertices with at least one changed version,
 * with `mark` cleared again.  A long list is rebuilt from one scan of
 * `mark` instead of sorted.  Commits the pass's parents for every
 * changed cell (version k's into parent row parent_rows[k]).  Returns
 * the list length; *popped gets the changed-cell count (the next
 * round's popped events). */
static int64_t settle_frontier(
    int64_t *list, int64_t len, uint8_t *mark, const uint8_t *next,
    int64_t n_versions, int64_t n_vertices,
    int64_t *parent_edge, const int64_t *parent_rows,
    const int64_t *round_parent, int64_t *popped)
{
    int64_t i, k, kept = 0, cells = 0;
    if (len > n_vertices / 8) {
        len = 0;
        for (i = 0; i < n_vertices; i++)
            if (mark[i])
                list[len++] = i;
    } else {
        qsort(list, (size_t)len, sizeof(int64_t), cmp_i64);
    }
    for (i = 0; i < len; i++) {
        const int64_t v = list[i];
        int64_t c = 0;
        mark[v] = 0;
        for (k = 0; k < n_versions; k++) {
            const int64_t cell = k * n_vertices + v;
            if (next[cell]) {
                c++;
                if (parent_edge != NULL)
                    parent_edge[parent_rows[k] * n_vertices + v] =
                        round_parent[cell];
            }
        }
        if (c) {
            list[kept++] = v;
            cells += c;
        }
    }
    *popped = cells;
    return kept;
}

/* Trace of one gathered edge in record mode: stamp its destination with
 * the step's serial (counting the first stamp) and set its byte in the
 * step's edge mask. */
static inline void record_edge(
    int64_t e, const int64_t *dst_all, int64_t *dst_stamp, int64_t serial,
    int64_t *touched, uint8_t *edge_mask)
{
    if (dst_stamp != NULL) {
        int64_t *stamp = dst_stamp + dst_all[e];
        *touched += *stamp != serial;
        *stamp = serial;
    }
    if (edge_mask != NULL)
        edge_mask[e] = 1;
}

/* Trace of one frontier vertex's out-edges [lo, hi) in a recorded
 * round.  Rounds gather ascending edge ids, so a run-boundary check
 * against the last block written keeps the round's block list sorted
 * and unique. */
static inline void record_edges(
    int64_t lo, int64_t hi, const int64_t *dst_all, int64_t epb,
    int64_t *blocks, int64_t *n_blocks, int64_t *last_block,
    int64_t *dst_stamp, int64_t serial, int64_t *touched,
    uint8_t *edge_mask)
{
    int64_t b, j;
    if (lo >= hi)
        return;
    for (b = lo / epb; b <= (hi - 1) / epb; b++) {
        if (b != *last_block) {
            blocks[(*n_blocks)++] = b;
            *last_block = b;
        }
    }
    if (dst_stamp != NULL || edge_mask != NULL)
        for (j = lo; j < hi; j++)
            record_edge(j, dst_all, dst_stamp, serial, touched, edge_mask);
}

/* The DAIC loop over a step table: a segment of copy and apply steps
 * (or one propagate) in one call, each apply's round body fused into
 * one pass per round.
 *
 * The step table holds STEP_COLS int64 per step: kind, the step's rows
 * as an offset range into step_rows, and its seed edges as an offset
 * range into seed_edges (the concatenated batches).  A step's rows name
 * rows of the whole `values` (n_vertices doubles each) and `presence`
 * (n_union_edges bytes each) matrices, which every step reads and
 * writes in place; its K rows are its versions.  parent_rows (nullable)
 * is aligned with step_rows: version k's parents go to parent_edge row
 * parent_rows[offset + k].
 *
 *   STEP_COPY       rows {src, dst}: copy the values, presence and
 *                   (when tracked) parent row of src over dst;
 *   STEP_APPLY      set the seed edges' presence bits in every row, then
 *                   as STEP_SEED;
 *   STEP_SEED       the batch reader's seed pass (every seed edge present
 *                   in version k relaxes from the pre-pass values with
 *                   the frontier gate disabled; the changed cells become
 *                   the frontier), then rounds to a fixpoint;
 *   STEP_PROPAGATE  rounds to a fixpoint from `frontier`'s first K rows
 *                   (first step of a table only).
 *
 * Each round pops the frontier: for every frontier vertex in ascending
 * order and each of its CSR out-edges (ascending), every version whose
 * frontier holds the vertex and whose graph holds the edge relaxes the
 * candidate computed from the *pre-round* source value into the
 * destination.  Changed cells form the next frontier.  Frontier vertices
 * live in a compact sorted list, so a round costs O(K x (frontier +
 * gathered edges)), never a K x n rescan.
 *
 * The call runs steps first_step.. in order.  resume says first_step's
 * copy, presence and seed work already ran and its live frontier sits
 * in `frontier` (the state a stop mid-step leaves).  A cap stops the
 * call between rounds: max_rounds (< 0: none) bounds the rounds run;
 * max_events (< 0: none) bounds the popped events summed over them — a
 * round that would exceed either is not started, and `frontier` then
 * holds the step's live frontier.  Seed passes are not rounds and are
 * never capped.  `frontier` is max_k x n bytes (max_k: the most rows of
 * any non-copy step); the call zeroes every row but a live frontier's.
 *
 * work is one 8-byte-aligned scratch block laid out as below (sized by
 * cext._work_bytes, which must follow this layout).
 *
 * counters[0] the step the call stopped at (n_steps: all ran)
 * counters[1] 1 when it stopped mid-step, with the frontier live
 * counters[2] rounds run
 * counters[3] events popped over those rounds
 * counters[4] events pending in the live frontier (0 unless mid-step)
 * counters[5] seed passes run
 * counters[6] trace rows written (record mode)
 * counters[7] edge-block ids written (record mode)
 * counters[8] 1 when a pass was not started for lack of record space
 * counters[9] that pass's worst-case block count
 *
 * step_out (n_steps x STEP_OUT) is added to, per step: [0] rounds,
 * [1] events popped, [2] trace rows, [3] edge-block ids, [4] vertices
 * the step's passes stamped first (record mode, with dst_stamp).
 *
 * Record mode (record != NULL) writes the trace of every pass run — each
 * step's seed pass first, then its rounds — into the caller buffers of a
 * daic_record (cext._Record mirrors it):
 *
 *   rows    row_cap x DAIC_ROW int64, one row per pass:
 *             [0] events popped: frontier vertices (seed pass: 0)
 *             [1] events generated: gathered edges active in >= 1 version
 *             [2] edges fetched: frontier out-degree sum (seed: n_seed)
 *             [3] vertex writes: vertices with a changed version
 *             [4] version events popped: frontier cells (seed pass: 0)
 *             [5] version events generated: active (version, edge) pairs
 *             [6] version vertex writes: changed cells
 *             [7] edge-block ids the pass appended to `blocks`
 *   blocks  block_cap int64: each pass's sorted unique edge-block ids
 *           (edge // edges_per_block), concatenated in pass order
 *   dst_stamp  (n int64, nullable) set to stamp_base + s at the
 *              destination of every edge step s gathers, active or not
 *   edge_masks (n_steps x M bytes, nullable) row s set at every edge
 *              step s gathers
 *
 * A pass whose row, or whose worst-case block count (a seed pass: its
 * seed count; a round: min(edges fetched, blocks in the graph)), would
 * not fit is not started; counters[8..9] tell the caller to grow the
 * buffers and resume (mid-step when the pass was a round). */
#define DAIC_ROW 8
#define STEP_COLS 5
#define STEP_OUT 5
#define STEP_COPY 0
#define STEP_APPLY 1
#define STEP_SEED 2
#define STEP_PROPAGATE 3

typedef struct {
    int64_t *rows;
    int64_t row_cap;
    int64_t *blocks;
    int64_t block_cap;
    int64_t edges_per_block;
    int64_t *dst_stamp;
    int64_t stamp_base;
    uint8_t *edge_masks;
} daic_record;

void mega_daic_round(
    const int64_t *indptr, const int64_t *src_of_edge,
    const int64_t *dst_all, const double *wt_all,
    const int64_t *steps, int64_t n_steps, const int64_t *step_rows,
    const int64_t *seed_edges, int64_t first_step, int resume,
    uint8_t *frontier, uint8_t *presence, double *values,
    int64_t n_vertices, int64_t n_union_edges, int op, int minimize,
    int64_t *parent_edge, const int64_t *parent_rows,
    void *work, int64_t max_rounds, int64_t max_events,
    int64_t *step_out, int64_t *counters, const daic_record *record)
{
    const int64_t n = n_vertices, M = n_union_edges;
    int64_t *const rows_out = record != NULL ? record->rows : NULL;
    int64_t *const blocks = record != NULL ? record->blocks : NULL;
    int64_t *const dst_stamp = record != NULL ? record->dst_stamp : NULL;
    uint8_t *const edge_masks = record != NULL ? record->edge_masks : NULL;
    const int64_t epb = record != NULL ? record->edges_per_block : 1;
    const int64_t graph_blocks = (M + epb - 1) / epb;
    int64_t s, i, j, k, max_k = 1, span = n;
    for (s = 0; s < n_steps; s++) {
        const int64_t *st = steps + STEP_COLS * s;
        if (st[0] != STEP_COPY && st[2] - st[1] > max_k)
            max_k = st[2] - st[1];
        if (st[4] - st[3] > span)
            span = st[4] - st[3];
    }
    /* work layout: 8-byte members first, byte members last */
    int64_t *cur_list = (int64_t *)work, *next_list = cur_list + n;
    double *snap = (double *)(next_list + n);
    int64_t *round_parent = parent_edge != NULL
                            ? (int64_t *)(snap + max_k * span) : NULL;
    uint8_t *nxt = (uint8_t *)(snap + max_k * span)
                   + (parent_edge != NULL ? max_k * n * sizeof(int64_t) : 0);
    uint8_t *mark = nxt + max_k * n;
    /* the step's value and presence rows; a one-row step also keeps its
     * rows in v0/p0, scalars the relax loop's byte stores cannot alias
     * (the row tables must be reloaded after each of them) */
    double *vrow[max_k], *v0;
    uint8_t *prow[max_k], *p0;
    uint8_t *cur = frontier;
    int64_t stop = n_steps, mid = 0, K = 0, nf = 0, popped = 0;
    int64_t rounds = 0, events = 0, seeded = 0;
    int64_t n_rows = 0, n_blocks = 0, full = 0, need = 0;

    memset(nxt, 0, (size_t)(max_k * n));
    memset(mark, 0, (size_t)n);
    if (first_step < n_steps) {
        /* only a live frontier's rows carry over into the call */
        const int64_t *st = steps + STEP_COLS * first_step;
        const int64_t live = resume || st[0] == STEP_PROPAGATE
                             ? st[2] - st[1] : 0;
        if (live < max_k)
            memset(frontier + live * n, 0, (size_t)((max_k - live) * n));
    }

    for (s = first_step; s < n_steps; s++) {
        const int64_t *st = steps + STEP_COLS * s;
        const int64_t kind = st[0];
        const int64_t *rows = step_rows + st[1];
        const int64_t *prows = parent_rows != NULL ? parent_rows + st[1]
                                                   : NULL;
        const int64_t *seeds = seed_edges != NULL ? seed_edges + st[3]
                                                  : NULL;
        const int64_t n_seed = st[4] - st[3];
        const int64_t serial = record != NULL ? record->stamp_base + s : 0;
        uint8_t *const emask = edge_masks != NULL ? edge_masks + s * M
                                                  : NULL;
        int64_t *const out = step_out + STEP_OUT * s;
        int64_t pairs = 0, active_edges = 0, len = 0, touched = 0;

        K = st[2] - st[1];
        if (kind == STEP_COPY) {
            memcpy(values + rows[1] * n, values + rows[0] * n,
                   (size_t)n * sizeof(double));
            memcpy(presence + rows[1] * M, presence + rows[0] * M,
                   (size_t)M);
            if (parent_edge != NULL)
                memcpy(parent_edge + prows[1] * n, parent_edge + prows[0] * n,
                       (size_t)n * sizeof(int64_t));
            continue;
        }
        for (k = 0; k < K; k++) {
            vrow[k] = values + rows[k] * n;
            prow[k] = presence + rows[k] * M;
        }
        v0 = vrow[0];
        p0 = prow[0];

        if ((s == first_step && resume) || kind == STEP_PROPAGATE) {
            /* cur is the caller's frontier; nxt is all-zero */
            nf = popped = 0;
            for (k = 0; k < K; k++) {
                const uint8_t *row = frontier + k * n;
                for (i = 0; i < n; i++) {
                    mark[i] |= row[i];
                    popped += row[i];
                }
            }
            for (i = 0; i < n; i++) {
                if (mark[i]) {
                    mark[i] = 0;
                    cur_list[nf++] = i;
                }
            }
        } else {
            if (rows_out != NULL
                && (n_rows >= record->row_cap
                    || n_blocks + n_seed > record->block_cap)) {
                full = 1;
                need = n_seed;
                stop = s;
                goto done;
            }
            if (kind == STEP_APPLY)
                for (k = 0; k < K; k++)
                    for (j = 0; j < n_seed; j++)
                        prow[k][seeds[j]] = 1;
            memset(cur, 0, (size_t)(K * n));
            for (j = 0; j < n_seed; j++) {
                const int64_t src = src_of_edge[seeds[j]];
                for (k = 0; k < K; k++)
                    snap[j * K + k] = vrow[k][src];
            }
            for (j = 0; j < n_seed; j++) {
                const int64_t e = seeds[j];
                const int64_t v = dst_all[e];
                const double wt = wt_all[e];
                int edge_active = 0;
                for (k = 0; k < K; k++) {
                    if (!prow[k][e])
                        continue;
                    pairs++;
                    edge_active = 1;
                    relax(vrow[k] + v, nxt + k * n + v,
                          round_parent != NULL ? round_parent + k * n + v
                                               : NULL,
                          v, candidate_of(op, snap[j * K + k], wt), e,
                          minimize, mark, next_list, &len);
                }
                active_edges += edge_active;
            }
            nf = settle_frontier(next_list, len, mark, nxt, K, n,
                                 parent_edge, prows, round_parent, &popped);
            seeded++;
            if (rows_out != NULL) {
                /* seed edges come in batch order: sort their block ids
                 * unless already ascending, then keep one of each run */
                int64_t *b = blocks + n_blocks, u = 0, sorted = 1;
                int64_t *row = rows_out + DAIC_ROW * n_rows++;
                for (j = 0; j < n_seed; j++) {
                    b[j] = seeds[j] / epb;
                    sorted &= j == 0 || b[j] >= b[j - 1];
                    record_edge(seeds[j], dst_all, dst_stamp, serial,
                                &touched, emask);
                }
                if (!sorted)
                    qsort(b, (size_t)n_seed, sizeof(int64_t), cmp_i64);
                for (j = 0; j < n_seed; j++)
                    if (u == 0 || b[j] != b[u - 1])
                        b[u++] = b[j];
                row[0] = 0;
                row[1] = active_edges;
                row[2] = n_seed;
                row[3] = nf;
                row[4] = 0;
                row[5] = pairs;
                row[6] = popped;
                row[7] = u;
                n_blocks += u;
                out[2]++;
                out[3] += u;
                out[4] += touched;
                touched = 0;
            }
            int64_t *tl = cur_list; cur_list = next_list; next_list = tl;
            uint8_t *tb = cur; cur = nxt; nxt = tb;
        }

        while (nf > 0) {
            const int64_t nf_popped = nf, cells_popped = popped;
            int64_t fetched = 0, round_blocks = n_blocks, last_block = -1;
            if ((max_rounds >= 0 && rounds >= max_rounds)
                || (max_events >= 0 && events + popped > max_events)) {
                mid = 1;
                stop = s;
                goto done;
            }
            if (rows_out != NULL) {
                for (i = 0; i < nf; i++)
                    fetched += indptr[cur_list[i] + 1] - indptr[cur_list[i]];
                need = fetched < graph_blocks ? fetched : graph_blocks;
                if (n_rows >= record->row_cap
                    || n_blocks + need > record->block_cap) {
                    full = mid = 1;
                    stop = s;
                    goto done;
                }
                need = 0;
            }
            rounds++;
            events += popped;
            out[0]++;
            out[1] += popped;
            pairs = active_edges = 0;
            len = 0;
            for (i = 0; i < nf; i++) {
                const int64_t src = cur_list[i];
                for (k = 0; k < K; k++)
                    snap[i * K + k] = vrow[k][src];
            }
            for (i = 0; i < nf; i++) {
                const int64_t src = cur_list[i];
                if (rows_out != NULL)
                    record_edges(indptr[src], indptr[src + 1], dst_all, epb,
                                 blocks, &n_blocks, &last_block,
                                 dst_stamp, serial, &touched, emask);
                if (K == 1) {
                    /* one version, whose frontier holds src: its rows
                     * stay in registers across the byte stores */
                    for (j = indptr[src]; j < indptr[src + 1]; j++) {
                        const int64_t v = dst_all[j];
                        if (!p0[j])
                            continue;
                        pairs++;
                        relax(v0 + v, nxt + v,
                              round_parent != NULL ? round_parent + v : NULL,
                              v, candidate_of(op, snap[i], wt_all[j]), j,
                              minimize, mark, next_list, &len);
                    }
                    active_edges = pairs;
                    continue;
                }
                for (j = indptr[src]; j < indptr[src + 1]; j++) {
                    const int64_t v = dst_all[j];
                    const double wt = wt_all[j];
                    int edge_active = 0;
                    for (k = 0; k < K; k++) {
                        if (!cur[k * n + src] || !prow[k][j])
                            continue;
                        pairs++;
                        edge_active = 1;
                        relax(vrow[k] + v, nxt + k * n + v,
                              round_parent != NULL ? round_parent + k * n + v
                                                   : NULL,
                              v, candidate_of(op, snap[i * K + k], wt), j,
                              minimize, mark, next_list, &len);
                    }
                    active_edges += edge_active;
                }
            }
            for (i = 0; i < nf; i++)
                for (k = 0; k < K; k++)
                    cur[k * n + cur_list[i]] = 0;
            nf = settle_frontier(next_list, len, mark, nxt, K, n,
                                 parent_edge, prows, round_parent, &popped);
            if (rows_out != NULL) {
                int64_t *row = rows_out + DAIC_ROW * n_rows++;
                row[0] = nf_popped;
                row[1] = active_edges;
                row[2] = fetched;
                row[3] = nf;
                row[4] = cells_popped;
                row[5] = pairs;
                row[6] = popped;
                row[7] = n_blocks - round_blocks;
                out[2]++;
                out[3] += row[7];
                out[4] += touched;
                touched = 0;
            }
            int64_t *tl = cur_list; cur_list = next_list; next_list = tl;
            uint8_t *tb = cur; cur = nxt; nxt = tb;
        }
    }

done:
    if (mid && cur != frontier) {
        /* frontier is all-zero here: it was the last pass's popped
         * buffer, cleared cell by cell (or the seed pass's, cleared) */
        for (i = 0; i < nf; i++)
            for (k = 0; k < K; k++)
                frontier[k * n + cur_list[i]] = cur[k * n + cur_list[i]];
    }
    counters[0] = stop;
    counters[1] = mid;
    counters[2] = rounds;
    counters[3] = events;
    counters[4] = mid ? popped : 0;
    counters[5] = seeded;
    counters[6] = n_rows;
    counters[7] = n_blocks;
    counters[8] = full;
    counters[9] = full ? need : 0;
}

/* presence_gather: out[k][j] = bit k of the packed presence planes at
 * union edge edge_idx[j].  planes is (ceil(K/8), M) uint8, row-major;
 * out is (K, E) uint8 (viewed as bool by the caller). */
void mega_presence_gather(
    const uint8_t *planes, int64_t n_union_edges,
    const int64_t *edge_idx, int64_t n_edges,
    int64_t n_snapshots, uint8_t *out)
{
    const int64_t n_planes = (n_snapshots + 7) / 8;
    int64_t p, j, b;
    for (p = 0; p < n_planes; p++) {
        const uint8_t *plane = planes + p * n_union_edges;
        const int64_t k_hi =
            (n_snapshots - p * 8) < 8 ? (n_snapshots - p * 8) : 8;
        for (j = 0; j < n_edges; j++) {
            const uint8_t byte = plane[edge_idx[j]];
            for (b = 0; b < k_hi; b++)
                out[(p * 8 + b) * n_edges + j] = (byte >> b) & 1;
        }
    }
}
