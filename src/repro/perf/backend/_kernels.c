/* Compiled hot kernels behind the numpy API (ctypes tier).
 *
 * Three kernels, each the single-pass fusion of a numpy sweep sequence
 * whose answers it must reproduce bit-for-bit (the numpy implementations
 * stay in-tree as the parity reference, like _presence_of_dense):
 *
 *   group_argbest   — per-group best candidate with lowest-input-index
 *                     tie-breaks (replaces a lexsort + three temporaries);
 *   daic_round      — the DAIC engine's propagation loop: each round's
 *                     edge-gather -> relax -> better_into body fused into
 *                     one pass over the frontier's out-edges, looping
 *                     until the frontier drains or a round cap is hit,
 *                     optionally writing each round's trace as it goes;
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

/* Relax one (version, edge) candidate into cell (version, v).
 *
 * np.minimum/maximum.at followed by better_into(values, old): a NaN value
 * is sticky, a NaN candidate poisons the cell but is never "changed"
 * (NaN fails the strict compare against old), and min/max of reals is
 * order-insensitive.  A strict improvement marks the cell in `next`,
 * records the candidate's edge as the cell's round parent, and appends v
 * to the next frontier list the first time any of its versions changes.
 *
 * The edge that last strictly improved a cell is the first edge (in pass
 * order) to reach the cell's final value — exactly group_argbest's
 * lowest-flat-index winner over the k-major candidate list, for every
 * cell that ends the pass changed (the only cells whose parent is read).
 */
static inline void relax(
    double *values, uint8_t *next, int64_t cell, int64_t v, double cand,
    int64_t e, int minimize, int64_t *round_parent, uint8_t *mark,
    int64_t *list, int64_t *len)
{
    const double cur = values[cell];
    if (cur != cur)
        return;
    if (cand != cand) {
        values[cell] = cand;
        next[cell] = 0;
        return;
    }
    if (minimize ? cand < cur : cand > cur) {
        values[cell] = cand;
        next[cell] = 1;
        if (round_parent != NULL)
            round_parent[cell] = e;
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
 * changed cell.  Returns the list length; *popped gets the changed-cell
 * count (the next round's popped events). */
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

/* Trace of one pass in record mode: the edge-block ids and touched
 * masks of the out-edges [lo, hi) of one frontier vertex.  Passes gather
 * ascending edge ids, so a run-boundary check against the last block
 * written keeps the pass's block list sorted and unique. */
static inline void record_edges(
    int64_t lo, int64_t hi, const int64_t *dst_all, int64_t epb,
    int64_t *blocks, int64_t *n_blocks, int64_t *last_block,
    uint8_t *dst_mask, uint8_t *edge_mask)
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
    if (dst_mask != NULL)
        for (j = lo; j < hi; j++)
            dst_mask[dst_all[j]] = 1;
    if (edge_mask != NULL)
        memset(edge_mask + lo, 1, (size_t)(hi - lo));
}

/* The DAIC propagation loop, round body fused into one pass per round.
 *
 * Optional seed pass first (seed_edges != NULL, the batch reader's round
 * 0): every seed edge present in version k relaxes from the pre-pass
 * values with the frontier gate disabled; the changed cells become the
 * frontier.  Otherwise the frontier is read from `frontier`.
 *
 * Each round pops the frontier: for every frontier vertex in ascending
 * order and each of its CSR out-edges (ascending), every version whose
 * frontier holds the vertex and whose graph holds the edge relaxes the
 * candidate computed from the *pre-round* source value into the
 * destination.  Changed cells form the next frontier.  Frontier vertices
 * live in a compact sorted list, so a round costs O(K x (frontier +
 * gathered edges)), never a K x n rescan.
 *
 * Rounds run until the frontier is empty or a cap is hit: max_rounds
 * (< 0: none) bounds the rounds run; max_events (< 0: none) bounds the
 * popped events summed over them — a round that would exceed either is
 * not started.  On return `frontier` holds the live frontier (all-zero
 * when converged).
 *
 * parent_edge (nullable) is the engine's (rows x n) parent table;
 * version k's changed cells write row parent_rows[k].  work is one
 * 8-byte-aligned scratch block laid out as below (sized by
 * cext._work_bytes, which must follow this layout).
 *
 * counters[0] rounds run (the seed pass is not a round)
 * counters[1] events popped over those rounds
 * counters[2] events pending in the live frontier (0 when converged)
 * counters[3] trace rows written (record mode)
 * counters[4] edge-block ids written (record mode)
 * counters[5] 1 when a round was not started for lack of record space
 * counters[6] that round's worst-case block count
 *
 * Record mode (record != NULL) writes the trace of every pass run — the
 * seed pass first, then each round — into the caller buffers of a
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
 *   dst_mask  (n bytes, nullable) set at the destination of every
 *             gathered edge, active or not
 *   edge_mask (M bytes, nullable) set at every gathered edge
 *
 * A round whose row, or whose worst-case block count min(edges fetched,
 * blocks in the graph), would not fit is not started, like a capped
 * round; counters[5..6] tell the caller to grow the buffers and call
 * again.  The caller sizes row_cap >= 1 and block_cap >= n_seed so the
 * seed pass always fits. */
#define DAIC_ROW 8

typedef struct {
    int64_t *rows;
    int64_t row_cap;
    int64_t *blocks;
    int64_t block_cap;
    int64_t edges_per_block;
    uint8_t *dst_mask;
    uint8_t *edge_mask;
} daic_record;

void mega_daic_round(
    const int64_t *indptr, const int64_t *src_of_edge,
    const int64_t *dst_all, const double *wt_all,
    const int64_t *seed_edges, int64_t n_seed,
    uint8_t *frontier, const uint8_t *presence, double *values,
    int64_t n_versions, int64_t n_vertices, int64_t n_union_edges,
    int op, int minimize,
    int64_t *parent_edge, const int64_t *parent_rows,
    void *work, int64_t max_rounds, int64_t max_events,
    int64_t *counters, const daic_record *record)
{
    const int64_t K = n_versions, n = n_vertices, M = n_union_edges;
    const size_t cells = (size_t)(K * n);
    const int64_t span = n > n_seed ? n : n_seed;
    int64_t *const rows = record != NULL ? record->rows : NULL;
    int64_t *const blocks = record != NULL ? record->blocks : NULL;
    uint8_t *const dst_mask = record != NULL ? record->dst_mask : NULL;
    uint8_t *const edge_mask = record != NULL ? record->edge_mask : NULL;
    const int64_t epb = record != NULL ? record->edges_per_block : 1;
    const int64_t graph_blocks = (M + epb - 1) / epb;
    /* work layout: 8-byte members first, byte members last */
    int64_t *cur_list = (int64_t *)work, *next_list = cur_list + n;
    double *snap = (double *)(next_list + n);
    int64_t *round_parent = parent_edge != NULL ? (int64_t *)(snap + K * span)
                                                : NULL;
    uint8_t *nxt = (uint8_t *)(snap + K * span)
                   + (parent_edge != NULL ? cells * sizeof(int64_t) : 0);
    uint8_t *mark = nxt + cells;
    uint8_t *cur = frontier;
    int64_t i, j, k, nf = 0, len = 0, popped = 0;
    int64_t rounds = 0, events = 0, pairs = 0, active_edges = 0;
    int64_t n_rows = 0, n_blocks = 0, full = 0, need = 0;

    memset(nxt, 0, cells);
    memset(mark, 0, (size_t)n);

    if (seed_edges != NULL) {
        memset(cur, 0, cells);
        for (j = 0; j < n_seed; j++) {
            const int64_t s = src_of_edge[seed_edges[j]];
            for (k = 0; k < K; k++)
                snap[j * K + k] = values[k * n + s];
        }
        for (j = 0; j < n_seed; j++) {
            const int64_t e = seed_edges[j];
            const int64_t v = dst_all[e];
            const double wt = wt_all[e];
            int edge_active = 0;
            for (k = 0; k < K; k++) {
                if (!presence[k * M + e])
                    continue;
                pairs++;
                edge_active = 1;
                relax(values, nxt, k * n + v, v,
                      candidate_of(op, snap[j * K + k], wt), e, minimize,
                      round_parent, mark, next_list, &len);
            }
            active_edges += edge_active;
        }
        nf = settle_frontier(next_list, len, mark, nxt, K, n,
                             parent_edge, parent_rows, round_parent,
                             &popped);
        if (rows != NULL) {
            /* seed edges come in batch order: sort their block ids
             * unless already ascending, then keep one of each run */
            int64_t *b = blocks, u = 0, sorted = 1;
            for (j = 0; j < n_seed; j++) {
                const int64_t e = seed_edges[j];
                b[j] = e / epb;
                sorted &= j == 0 || b[j] >= b[j - 1];
                if (dst_mask != NULL)
                    dst_mask[dst_all[e]] = 1;
                if (edge_mask != NULL)
                    edge_mask[e] = 1;
            }
            if (!sorted)
                qsort(b, (size_t)n_seed, sizeof(int64_t), cmp_i64);
            for (j = 0; j < n_seed; j++)
                if (u == 0 || b[j] != b[u - 1])
                    b[u++] = b[j];
            rows[0] = 0;
            rows[1] = active_edges;
            rows[2] = n_seed;
            rows[3] = nf;
            rows[4] = 0;
            rows[5] = pairs;
            rows[6] = popped;
            rows[7] = u;
            n_rows = 1;
            n_blocks = u;
        }
        int64_t *tl = cur_list; cur_list = next_list; next_list = tl;
        uint8_t *tb = cur; cur = nxt; nxt = tb;
    } else {
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
    }

    while (nf > 0) {
        const int64_t nf_popped = nf, cells_popped = popped;
        int64_t fetched = 0, round_blocks = n_blocks, last_block = -1;
        if (max_rounds >= 0 && rounds >= max_rounds)
            break;
        if (max_events >= 0 && events + popped > max_events)
            break;
        if (rows != NULL) {
            for (i = 0; i < nf; i++)
                fetched += indptr[cur_list[i] + 1] - indptr[cur_list[i]];
            need = fetched < graph_blocks ? fetched : graph_blocks;
            if (n_rows >= record->row_cap
                || n_blocks + need > record->block_cap) {
                full = 1;
                break;
            }
        }
        rounds++;
        events += popped;
        pairs = active_edges = 0;
        len = 0;
        for (i = 0; i < nf; i++) {
            const int64_t s = cur_list[i];
            for (k = 0; k < K; k++)
                snap[i * K + k] = values[k * n + s];
        }
        for (i = 0; i < nf; i++) {
            const int64_t s = cur_list[i];
            if (rows != NULL)
                record_edges(indptr[s], indptr[s + 1], dst_all, epb,
                             blocks, &n_blocks, &last_block,
                             dst_mask, edge_mask);
            for (j = indptr[s]; j < indptr[s + 1]; j++) {
                const int64_t v = dst_all[j];
                const double wt = wt_all[j];
                int edge_active = 0;
                for (k = 0; k < K; k++) {
                    if (!cur[k * n + s] || !presence[k * M + j])
                        continue;
                    pairs++;
                    edge_active = 1;
                    relax(values, nxt, k * n + v, v,
                          candidate_of(op, snap[i * K + k], wt), j,
                          minimize, round_parent, mark, next_list, &len);
                }
                active_edges += edge_active;
            }
        }
        for (i = 0; i < nf; i++)
            for (k = 0; k < K; k++)
                cur[k * n + cur_list[i]] = 0;
        nf = settle_frontier(next_list, len, mark, nxt, K, n,
                             parent_edge, parent_rows, round_parent,
                             &popped);
        if (rows != NULL) {
            int64_t *row = rows + DAIC_ROW * n_rows++;
            row[0] = nf_popped;
            row[1] = active_edges;
            row[2] = fetched;
            row[3] = nf;
            row[4] = cells_popped;
            row[5] = pairs;
            row[6] = popped;
            row[7] = n_blocks - round_blocks;
        }
        int64_t *tl = cur_list; cur_list = next_list; next_list = tl;
        uint8_t *tb = cur; cur = nxt; nxt = tb;
    }

    if (cur != frontier) {
        /* frontier is all-zero here: it was the last round's popped
         * buffer, cleared cell by cell */
        for (i = 0; i < nf; i++)
            for (k = 0; k < K; k++)
                frontier[k * n + cur_list[i]] = cur[k * n + cur_list[i]];
    }
    counters[0] = rounds;
    counters[1] = events;
    counters[2] = nf > 0 ? popped : 0;
    counters[3] = n_rows;
    counters[4] = n_blocks;
    counters[5] = full;
    counters[6] = full ? need : 0;
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
