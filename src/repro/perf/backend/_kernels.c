/* Compiled hot kernels behind the numpy API (ctypes tier).
 *
 * Four kernels, each the single-pass fusion of a Python or numpy sweep
 * sequence whose answers it must reproduce bit-for-bit (the reference
 * implementations stay in-tree, like _presence_of_dense):
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
 *                     with no intermediate unpacked plane;
 *   replay          — a simulation's whole timing replay: the wave
 *                     scheduler, partition sweeps and spills, batch
 *                     pipelining, every round group's PE/queue/NoC/DRAM
 *                     cost, the approximate-LRU edge cache and the
 *                     row-buffer DRAM model, over flat trace arrays.
 *
 * Compiled once per machine into a shared library addressed by the
 * source and the compiler flags by repro.perf.backend.cext (cc -O2
 * -ffp-contract=off -shared -fPIC); no Python.h — every argument is a raw
 * pointer into a numpy array, marshalled via ctypes.
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

/* replay: a workflow's whole timing replay — WaveScheduler.run over flat
 * arrays (accel.scheduler.FlatWaves), repeating its Python reference
 * (WaveScheduler.replay_reference and TimingModel.group_cost) operation
 * for operation in IEEE-754 doubles, so the cycles and every counter are
 * bit-identical (the build sets -ffp-contract=off: no fused
 * multiply-adds).
 *
 * Waves own consecutive executions (wave_execs, n_waves + 1 offsets) and
 * executions consecutive rounds (exec_rounds, E + 1 offsets).  Per wave:
 * partitions and cross-partition fraction; per execution: touched
 * destinations and phase id; per round: its DAIC_ROW trace row and
 * phase id, its row[7] edge-block ids following the previous round's in
 * `blocks`.  phase_kind maps a phase id to its KIND_*; phase id 0 is the
 * partition sweep's.  ints/doubles hold the timing model's scalars in
 * the RI_* / RD_* layouts (TimingModel.kernel_config).
 *
 * A wave activates when no stream is live, or (pipeline) early once
 * every live stream's next round pops plus generates fewer events than
 * threshold: a multi-partition wave flushes the edge cache and pays its
 * sweep, each execution its spill, and each execution with rounds
 * becomes a live stream.  Then each round group advances every live
 * stream one round and costs the group as the maximum of the PE, queue,
 * NoC and DRAM terms plus the drain overhead.  Between activations and
 * groups the order is the reference's exactly.
 *
 * The edge cache is the approximate LRU of accel.cache.EdgeCacheModel:
 * `stamp` (n_stamp int64, every block id below n_stamp) and state[0],
 * its distinct-access counter, are read and written in place.  With
 * RI_DETAILED the missed blocks of each round go through the row-buffer
 * model of accel.dram.RowBufferDram: `open_rows` (RI_N_BANKS int64) in
 * place, state[1..2] its row hits and misses.
 *
 * work: 4 x E + (the most blocks of any round) int64 scratch.  The
 * inputs are checked first (replay_check): a malformed one returns its
 * REPLAY_BAD_* code, with nothing read out of bounds or written; 0 is
 * success.
 *
 * Outputs: counts (REPLAY_COUNTS int64): events popped, events
 * generated, edges fetched, edge-block hits, misses, vertex reads,
 * vertex writes, rounds, round groups, waves injected early; sums
 * (REPLAY_SUMS doubles): cycles, DRAM bytes, spill bytes, partition
 * switch bytes; phase_cycles (n_phases doubles) and phase_seq (n_phases
 * int64: the order each phase was first charged, -1 never — the
 * reference's dict insertion order); wave_marks (n_waves doubles: the
 * cycles at each wave's activation). */
#define KIND_PLAIN 0
#define KIND_REPAIR 1
#define KIND_TAG 2
#define REPLAY_COUNTS 10
#define REPLAY_SUMS 4
enum {
    RI_N_PES, RI_GEN_THROUGHPUT, RI_QUEUE_PORTS, RI_NOC_PORTS,
    RI_BLOCK_BYTES, RI_DRAM_LATENCY, RI_OVERHEAD, RI_DEPENDENCE_BYTES,
    RI_EVENT_BYTES, RI_SATURATION, RI_ROW_WIDE, RI_CAPACITY, RI_DETAILED,
    RI_BLOCKS_PER_ROW, RI_N_BANKS, RI_CHANNELS, RI_COUNT
};
enum {
    RD_DELETION_FACTOR, RD_TIMING_BYTES_PER_CYCLE,
    RD_MEMORY_BYTES_PER_CYCLE, RD_MAX_COVERAGE, RD_T_BURST, RD_T_ROW_MISS,
    RD_COUNT
};

/* EdgeCacheModel.flush */
#define NEVER_STAMP (-((int64_t)1 << 62))

static inline void charge_phase(
    double *phase_cycles, int64_t *phase_seq, int64_t *seq, int64_t p,
    double cycles)
{
    if (phase_seq[p] < 0)
        phase_seq[p] = (*seq)++;
    phase_cycles[p] = phase_cycles[p] + cycles;
}

/* RowBufferDram.access_round over one round's missed blocks (sorted in
 * place: the controller services a round in block order). */
static double row_buffer_cycles(
    int64_t *missed, int64_t n_missed, const int64_t *ints,
    const double *doubles, int64_t *open_rows, int64_t *state)
{
    int64_t j;
    double cycles = 0.0;
    for (j = 1; j < n_missed; j++)
        if (missed[j] < missed[j - 1]) {
            qsort(missed, (size_t)n_missed, sizeof(int64_t), cmp_i64);
            break;
        }
    for (j = 0; j < n_missed; j++) {
        const int64_t row = missed[j] / ints[RI_BLOCKS_PER_ROW];
        const int64_t bank = row % ints[RI_N_BANKS];
        if (open_rows[bank] == row) {
            state[1]++;
            cycles += doubles[RD_T_BURST];
        } else {
            state[2]++;
            open_rows[bank] = row;
            cycles += doubles[RD_T_ROW_MISS] + doubles[RD_T_BURST];
        }
    }
    return cycles / (double)ints[RI_CHANNELS];
}

/* The replay's input checks, run before anything is read through an
 * offset or id: offsets rise from 0 and end at the array lengths the
 * caller checked (n_execs, n_rounds), phase ids and kinds lie in range,
 * block counts are non-negative and sum to n_blocks, every block id
 * indexes the stamps, and every divisor or bank count is positive.
 * Returns 0 or the REPLAY_BAD_* code of the first failure. */
#define REPLAY_BAD_OFFSETS 1
#define REPLAY_BAD_PHASE 2
#define REPLAY_BAD_BLOCK_COUNT 3
#define REPLAY_BAD_BLOCK 4
#define REPLAY_BAD_CONFIG 5
static int replay_check(
    int64_t n_waves, const int64_t *wave_execs, int64_t n_execs,
    const int64_t *exec_rounds, int64_t n_rounds, const int64_t *exec_phase,
    const int64_t *rows, const int64_t *round_phase, const int64_t *blocks,
    int64_t n_blocks, const int64_t *phase_kind, int64_t n_phases,
    const int64_t *ints, int64_t n_stamp)
{
    static const int divisors[] = {
        RI_N_PES, RI_GEN_THROUGHPUT, RI_QUEUE_PORTS, RI_NOC_PORTS,
        RI_SATURATION, RI_BLOCKS_PER_ROW, RI_N_BANKS, RI_CHANNELS,
    };
    int64_t i, total = 0;
    for (i = 0; i < (int64_t)(sizeof divisors / sizeof divisors[0]); i++)
        if (ints[divisors[i]] < 1)
            return REPLAY_BAD_CONFIG;
    if (wave_execs[0] != 0 || wave_execs[n_waves] != n_execs
        || exec_rounds[0] != 0 || exec_rounds[n_execs] != n_rounds)
        return REPLAY_BAD_OFFSETS;
    for (i = 0; i < n_waves; i++)
        if (wave_execs[i + 1] < wave_execs[i])
            return REPLAY_BAD_OFFSETS;
    for (i = 0; i < n_execs; i++)
        if (exec_rounds[i + 1] < exec_rounds[i])
            return REPLAY_BAD_OFFSETS;
    for (i = 0; i < n_phases; i++)
        if (phase_kind[i] < KIND_PLAIN || phase_kind[i] > KIND_TAG)
            return REPLAY_BAD_PHASE;
    for (i = 0; i < n_execs; i++)
        if (exec_phase[i] < 0 || exec_phase[i] >= n_phases)
            return REPLAY_BAD_PHASE;
    for (i = 0; i < n_rounds; i++) {
        const int64_t nb = rows[i * DAIC_ROW + 7];
        if (round_phase[i] < 0 || round_phase[i] >= n_phases)
            return REPLAY_BAD_PHASE;
        if (nb < 0 || nb > n_blocks - total)
            return REPLAY_BAD_BLOCK_COUNT;
        total += nb;
    }
    if (total != n_blocks)
        return REPLAY_BAD_BLOCK_COUNT;
    {
        /* one unsigned compare per id catches negatives too; no early
         * exit, so the compiler can vectorize the scan */
        uint64_t out_of_range = 0;
        for (i = 0; i < n_blocks; i++)
            out_of_range |= (uint64_t)blocks[i] >= (uint64_t)n_stamp;
        if (out_of_range)
            return REPLAY_BAD_BLOCK;
    }
    return 0;
}

int mega_replay(
    int64_t n_waves, const int64_t *wave_parts, const double *wave_cross,
    const int64_t *wave_execs, int64_t n_execs, const int64_t *exec_rounds,
    const int64_t *exec_touched, const int64_t *exec_phase,
    int64_t n_rounds, const int64_t *rows, const int64_t *round_phase,
    const int64_t *blocks, int64_t n_blocks,
    const int64_t *phase_kind, int64_t n_phases,
    const int64_t *ints, const double *doubles,
    int64_t *stamp, int64_t n_stamp, int64_t *open_rows, int64_t *state,
    int pipeline, int64_t threshold, int64_t *work,
    int64_t *counts, double *sums, double *phase_cycles, int64_t *phase_seq,
    double *wave_marks)
{
    const int bad = replay_check(
        n_waves, wave_execs, n_execs, exec_rounds, n_rounds, exec_phase,
        rows, round_phase, blocks, n_blocks, phase_kind, n_phases, ints,
        n_stamp);
    const int row_wide = ints[RI_ROW_WIDE] != 0;
    const int detailed = ints[RI_DETAILED] != 0;
    const int64_t block_bytes = ints[RI_BLOCK_BYTES];
    const int64_t capacity = ints[RI_CAPACITY];
    const double factor_tag = doubles[RD_DELETION_FACTOR];
    /* per live stream, by position: its execution; per execution: the
     * next round, its end, and the next round's first block */
    int64_t *live = work;
    int64_t *next = work + n_execs;
    int64_t *end = work + 2 * n_execs;
    int64_t *block_at = work + 3 * n_execs;
    int64_t *missed = work + 4 * n_execs;
    int64_t e, r, i, j, w = 0, n_live = 0, seq = 0;
    int64_t distinct = state[0];
    /* the distinct-access count at the last flush (INT64_MIN: none).
     * Rather than rewrite every stamp at each partition sweep, a stamp
     * at or below it reads as flushed — stamps written since the flush
     * all exceed it — and the flush is applied to the array once, at
     * the end. */
    int64_t flushed_at = INT64_MIN;
    double cycles = 0.0, dram_total = 0.0, spill_total = 0.0,
           switch_total = 0.0;

    if (bad)
        return bad;
    memset(counts, 0, REPLAY_COUNTS * sizeof(int64_t));
    for (i = 0; i < n_phases; i++) {
        phase_cycles[i] = 0.0;
        phase_seq[i] = -1;
    }
    /* each execution's first block: the block counts of every round
     * before its first */
    for (e = 0, j = 0; e < n_execs; e++) {
        block_at[e] = j;
        for (r = exec_rounds[e]; r < exec_rounds[e + 1]; r++)
            j += rows[r * DAIC_ROW + 7];
    }

    while (w < n_waves || n_live) {
        int early = 0;
        if (n_live && pipeline && w < n_waves) {
            early = 1;
            for (i = 0; i < n_live && early; i++) {
                const int64_t *head = rows + next[live[i]] * DAIC_ROW;
                early = head[0] + head[1] < threshold;
            }
        }
        if (!n_live || early) {
            const int64_t parts = wave_parts[w];
            wave_marks[w] = cycles;
            if (parts > 1) {
                /* TimingModel.partition_sweep_cycles */
                const double sweep = (double)(
                    parts * (ints[RI_DRAM_LATENCY] + ints[RI_OVERHEAD]));
                flushed_at = distinct;
                switch_total += (double)(parts * block_bytes);
                cycles += sweep;
                if (sweep != 0.0)
                    charge_phase(phase_cycles, phase_seq, &seq, 0, sweep);
            }
            for (e = wave_execs[w]; e < wave_execs[w + 1]; e++) {
                if (parts > 1 && exec_touched[e] != 0) {
                    /* TimingModel.execution_spill_cycles */
                    const double spill = (double)exec_touched[e]
                        * wave_cross[w]
                        * (2.0 * (double)ints[RI_EVENT_BYTES]);
                    const double spill_cycles =
                        spill / doubles[RD_MEMORY_BYTES_PER_CYCLE];
                    spill_total += spill;
                    dram_total += spill;
                    cycles += spill_cycles;
                    if (spill_cycles != 0.0)
                        charge_phase(phase_cycles, phase_seq, &seq, 0,
                                     spill_cycles);
                }
                if (exec_rounds[e] < exec_rounds[e + 1]) {
                    next[e] = exec_rounds[e];
                    end[e] = exec_rounds[e + 1];
                    live[n_live++] = e;
                }
            }
            w++;
            if (!early)
                continue;
            counts[9]++;
        }

        /* one round group: TimingModel.group_cost */
        {
            double pe_events = 0.0, gen_events = 0.0, queue_ops = 0.0,
                   messages = 0.0, dram_bytes = 0.0, raw_events = 0.0;
            double pe, queue, noc, dram, total, share;
            int64_t kept = 0, msgs;
            for (i = 0; i < n_live; i++) {
                const int64_t *row;
                const int64_t *bl;
                int64_t kind, popped, generated, nb, hits = 0, misses,
                        n_missed = 0, miss_bytes;
                double factor;
                e = live[i];
                r = next[e]++;
                row = rows + r * DAIC_ROW;
                kind = phase_kind[round_phase[r]];
                factor = kind == KIND_TAG ? factor_tag : 1.0;
                popped = row_wide ? row[0] : row[4];
                generated = row_wide ? row[1] : row[5];
                pe_events += (double)popped * factor;
                gen_events += (double)generated * factor;
                queue_ops += (double)(popped + generated);
                messages += (double)generated;
                raw_events += (double)popped;

                /* EdgeCacheModel.access_blocks: every age against the
                 * stamps before the round, then every stamp */
                nb = row[7];
                bl = blocks + block_at[e];
                block_at[e] += nb;
                for (j = 0; j < nb; j++) {
                    const int64_t last = stamp[bl[j]] > flushed_at
                        ? stamp[bl[j]] : NEVER_STAMP;
                    /* branch-free: hits and misses interleave at random */
                    const int64_t hit = distinct - last <= capacity;
                    hits += hit;
                    missed[n_missed] = bl[j];
                    n_missed += !hit;
                }
                for (j = 0; j < nb; j++)
                    stamp[bl[j]] = distinct + nb;
                distinct += nb;
                misses = nb - hits;
                counts[3] += hits;
                counts[4] += misses;
                miss_bytes = misses * block_bytes;
                dram_bytes += (double)miss_bytes;
                if (detailed && misses) {
                    const double detailed_cycles = row_buffer_cycles(
                        missed, n_missed, ints, doubles, open_rows, state);
                    const double extra =
                        detailed_cycles * doubles[RD_TIMING_BYTES_PER_CYCLE]
                        - (double)miss_bytes;
                    dram_bytes += extra > 0.0 ? extra : 0.0;
                }
                if (!row_wide && row[1]) {
                    const double dup = (double)row[5] / (double)row[1] - 1.0;
                    dram_bytes += (double)miss_bytes * (dup > 0.0 ? dup : 0.0);
                }
                if (kind != KIND_PLAIN)
                    dram_bytes += (double)(row[1] * ints[RI_DEPENDENCE_BYTES]);

                counts[0] += row[0];
                counts[1] += row[1];
                counts[2] += row[2];
                counts[5] += row[0] + row[1];
                counts[6] += row[3];
                counts[7]++;
            }
            dram_total += dram_bytes;
            pe = pe_events / (double)ints[RI_N_PES]
                + gen_events / (double)ints[RI_GEN_THROUGHPUT];
            queue = queue_ops / (double)ints[RI_QUEUE_PORTS];
            msgs = (int64_t)messages;
            noc = msgs <= 0 ? 0.0 : (double)msgs / (double)ints[RI_NOC_PORTS];
            dram = dram_bytes / doubles[RD_MEMORY_BYTES_PER_CYCLE];
            if (dram_bytes > 0) {
                /* PrefetchModel.latency_cycles */
                const int64_t events = (int64_t)raw_events;
                double coverage = 0.0;
                if (events > 0) {
                    const double fill =
                        (double)events / (double)ints[RI_SATURATION];
                    coverage = doubles[RD_MAX_COVERAGE]
                        * (fill < 1.0 ? fill : 1.0);
                }
                dram += (double)ints[RI_DRAM_LATENCY] * (1.0 - coverage);
            }
            total = pe;
            if (queue > total)
                total = queue;
            if (noc > total)
                total = noc;
            if (dram > total)
                total = dram;
            total = total + (double)ints[RI_OVERHEAD];
            cycles += total;
            counts[8]++;
            share = total / (double)n_live;
            for (i = 0; i < n_live; i++) {
                e = live[i];
                charge_phase(phase_cycles, phase_seq, &seq, exec_phase[e],
                             share);
                if (next[e] < end[e])
                    live[kept++] = e;
            }
            n_live = kept;
        }
    }
    if (flushed_at > INT64_MIN)
        for (j = 0; j < n_stamp; j++)
            if (stamp[j] <= flushed_at)
                stamp[j] = NEVER_STAMP;
    state[0] = distinct;
    sums[0] = cycles;
    sums[1] = dram_total;
    sums[2] = spill_total;
    sums[3] = switch_total;
    return 0;
}
