/* Compiled hot kernels behind the numpy API (ctypes tier).
 *
 * Four kernels, each the single-pass fusion of a Python or numpy sweep
 * sequence whose answers it must reproduce bit-for-bit (the reference
 * implementations stay in-tree, like _presence_of_dense):
 *
 *   daic_round      — the DAIC engine's loop over a step table: a plan
 *                     segment's copy, apply and KickStarter repair steps
 *                     (or one propagate) in one call, each apply's seed
 *                     pass and rounds run in place on its rows of the
 *                     state matrices, each round's edge-gather -> relax
 *                     -> better_into body fused into one pass over the
 *                     frontier's out-edges, a deletion's tag cascade,
 *                     transpose pull and recompute (and a parent forest
 *                     grounded from converged values) as steps of the
 *                     same table, until the table ends or a round cap is
 *                     hit, optionally writing each pass's trace as it
 *                     goes (mega_daic_check validates a table first);
 *   worklist_eval   — a value-only plan in one call: its from-scratch
 *                     evaluations, its COPY and APPLY steps on FIFO
 *                     worklists whose entries carry the rows a vertex
 *                     improved in (one out-edge fetch for all of them),
 *                     relaxing in place with no rounds (the round
 *                     kernel's fixpoint, reached in fewer relaxations),
 *                     then each marked row's reached count and numpy-
 *                     order checksum (a serve plan, summaries included);
 *   window_merge    — a window slide's slot lookup, CommonGraph checks
 *                     (a refusal is a SLIDE_* code and the offending
 *                     row) and union rewrite, or a sub-window's: kept
 *                     runs copied, batch tags re-based, presence planes
 *                     shifted and the additions merged into their rows;
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
 * order) to reach the cell's final value — exactly the reference
 * group_argbest's lowest-flat-index winner over the k-major candidate
 * list, for every cell that ends the pass changed (the only cells whose
 * parent is read).
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
 * the execution's serial (counting the first stamp) and set its byte in
 * the execution's edge mask. */
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

/* Append edge-block id b to a pass's block list unless it repeats the
 * last one written: a pass that visits its edges (or transpose edges) in
 * ascending order keeps its list sorted and unique this way. */
static inline void record_block(
    int64_t b, int64_t *blocks, int64_t *n_blocks, int64_t *last_block)
{
    if (b != *last_block) {
        blocks[(*n_blocks)++] = b;
        *last_block = b;
    }
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
    for (b = lo / epb; b <= (hi - 1) / epb; b++)
        record_block(b, blocks, n_blocks, last_block);
    if (dst_stamp != NULL || edge_mask != NULL)
        for (j = lo; j < hi; j++)
            record_edge(j, dst_all, dst_stamp, serial, touched, edge_mask);
}

/* Trace of a batch pass (a seed pass, or the deletion reader's first
 * pass): its edges come in batch order, so their block ids are sorted
 * unless already ascending, then one of each run is kept at `b`.  Every
 * edge is stamped and masked.  Returns the block count. */
static int64_t record_batch(
    const int64_t *edges, int64_t n_edges, const int64_t *dst_all,
    int64_t epb, int64_t *b, int64_t *dst_stamp, int64_t serial,
    int64_t *touched, uint8_t *edge_mask)
{
    int64_t j, u = 0, sorted = 1;
    for (j = 0; j < n_edges; j++) {
        b[j] = edges[j] / epb;
        sorted &= j == 0 || b[j] >= b[j - 1];
        record_edge(edges[j], dst_all, dst_stamp, serial, touched, edge_mask);
    }
    if (!sorted)
        qsort(b, (size_t)n_edges, sizeof(int64_t), cmp_i64);
    for (j = 0; j < n_edges; j++)
        if (u == 0 || b[j] != b[u - 1])
            b[u++] = b[j];
    return u;
}

/* Order a list of distinct vertices, each set in `mark`, ascending and
 * clear their marks; a long list is rebuilt from one scan of `mark`. */
static void sort_marked(int64_t *list, int64_t len, uint8_t *mark, int64_t n)
{
    int64_t i;
    if (len > n / 8) {
        len = 0;
        for (i = 0; i < n; i++)
            if (mark[i]) {
                mark[i] = 0;
                list[len++] = i;
            }
        return;
    }
    qsort(list, (size_t)len, sizeof(int64_t), cmp_i64);
    for (i = 0; i < len; i++)
        mark[list[i]] = 0;
}

static inline void put_row(
    int64_t *row, int64_t popped, int64_t generated, int64_t fetched,
    int64_t writes, int64_t version_popped, int64_t version_generated,
    int64_t version_writes, int64_t n_blocks)
{
    row[0] = popped;
    row[1] = generated;
    row[2] = fetched;
    row[3] = writes;
    row[4] = version_popped;
    row[5] = version_generated;
    row[6] = version_writes;
    row[7] = n_blocks;
}

/* The DAIC loop over a step table: a segment of copy, apply and repair
 * steps (or one propagate) in one call, each apply's round body fused
 * into one pass per round.
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
 *   STEP_PROPAGATE  rounds to a fixpoint: as a table's first step from
 *                   `frontier`'s first K rows, after a STEP_PULL from the
 *                   seeds it pulled.
 *
 * KickStarter deletion repair is three steps on one row, TAG, PULL and
 * PROPAGATE, and needs parent tracking and `repair` (a daic_repair,
 * cext._Repair mirrors it).  The n-th TAG of the table writes row n of
 * repair->tagged and repair->stats.
 *
 *   STEP_TAG        the seed edges are the deleted edges.  The deletion
 *                   reader's pass tags every destination whose parent is
 *                   its deleted edge; then each cascade pass follows the
 *                   tagged frontier's out-edges present after the batch or
 *                   deleted by it and tags each untagged destination whose
 *                   parent is that edge.  Then the trim: the source is
 *                   untagged, every tagged vertex's value is reset to the
 *                   identity and its parent to -1, and the deleted edges'
 *                   presence bits are cleared;
 *   STEP_PULL       the in-edges of the tagged region, through the
 *                   transpose (repair->rev_*): every in-neighbour that is
 *                   untagged, reached, and joined by an edge present after
 *                   the batch becomes a seed, in ascending order — the
 *                   frontier of the PROPAGATE that follows (the recompute).
 *                   Nothing happens when no vertex was tagged;
 *   STEP_GROUND     rebuild the row's parent forest from converged values
 *                   (deletion.reconstruct_parents): roots are the vertices
 *                   holding their initial value; level by level, each
 *                   unanchored vertex with a supporting present in-edge
 *                   (candidate == value) from the last level is anchored,
 *                   its parent the lowest such edge id.  A reached vertex
 *                   left unanchored means the values are not a fixpoint:
 *                   the call stops at the step with counters[10] set.
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
 * in `frontier` (the state a stop mid-step leaves; for a TAG, the live
 * cascade frontier).  A cap stops the call between rounds: max_rounds
 * (< 0: none) bounds the rounds run; max_events (< 0: none) bounds the
 * popped events summed over them — a round that would exceed either is
 * not started, and `frontier` then holds the step's live frontier.  Seed,
 * tag and pull passes are not rounds and are never capped.  `frontier`
 * is max_k x n bytes (max_k: the most rows of any non-copy step); the
 * call zeroes every row but a live frontier's.
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
 * counters[10] 1 when a GROUND step found values that are not a fixpoint
 *
 * step_out (n_steps x STEP_OUT) is added to, per step: [0] rounds,
 * [1] events popped, [2] trace rows, [3] edge-block ids, [4] vertices
 * the step's passes stamped first (record mode, with dst_stamp).
 *
 * Record mode (record != NULL) writes the trace of every pass run — each
 * step's seed, tag or pull pass first, then its rounds — into the caller
 * buffers of a daic_record (cext._Record mirrors it):
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
 *              destination of every edge execution s gathers, active or
 *              not
 *   edge_masks (n_steps x M bytes, nullable) row s set at every edge
 *              execution s gathers
 *
 * An execution is a step, except that a repair's TAG, PULL and
 * PROPAGATE are one execution, numbered by its TAG.  Repair passes fill
 * the rows as the repair reference does, with zero version columns:
 * the reader's pass (0, deleted, deleted, direct victims counted per
 * deleted edge), each cascade pass (frontier, edges followed, edges
 * followed, newly tagged) with those edges' blocks, and the pull (tagged,
 * in-edges, in-edges, 0) with the in-edges' blocks offset by
 * repair->rev_block_offset, stamping the seeds and masking the in-edges'
 * forward edges.
 *
 * A pass whose row, or whose worst-case block count (a seed or reader
 * pass: its edge count; a round or cascade pass: min(edges fetched,
 * blocks in the graph); a pull: min(in-edges, blocks in the graph)),
 * would not fit is not started; counters[8..9] tell the caller to grow
 * the buffers and resume (mid-step when the pass was a round or a
 * cascade pass). */
#define DAIC_ROW 8
#define STEP_COLS 5
#define STEP_OUT 5
#define STEP_COPY 0
#define STEP_APPLY 1
#define STEP_SEED 2
#define STEP_PROPAGATE 3
#define STEP_TAG 4
#define STEP_PULL 5
#define STEP_GROUND 6
#define REPAIR_STATS 3

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

/* The repair steps' inputs and outputs.  stats rows: [0] tagged
 * vertices (after the trim), [1] tag events (deleted edges plus edges
 * followed), [2] cascade passes.  The transpose (rev_*) may be NULL in
 * a call that records nothing: a pull then finds the same seeds by
 * scanning the forward edges into the tagged region. */
typedef struct {
    const int64_t *rev_indptr;   /* n + 1: the union transpose's offsets */
    const int64_t *rev_src;      /* M: each transpose edge's in-neighbour */
    const int64_t *rev_origin;   /* M: each transpose edge's forward edge */
    int64_t rev_block_offset;
    int64_t source;
    double identity;
    double source_value;
    uint8_t *tagged;             /* n_repairs x n */
    int64_t *stats;              /* n_repairs x REPAIR_STATS */
} daic_repair;

/* The first step of step s's execution: a repair's PULL and PROPAGATE
 * belong to its TAG. */
static int64_t execution_of(const int64_t *steps, int64_t s)
{
    while (s > 0
           && (steps[STEP_COLS * s] == STEP_PULL
               || (steps[STEP_COLS * s] == STEP_PROPAGATE
                   && steps[STEP_COLS * (s - 1)] == STEP_PULL)))
        s--;
    return s;
}

/* mega_daic_check: refuse a call the loop kernel would misread, before
 * it runs.  Every step's row range lies in [0, n_step_rows) and is
 * non-empty, its seed range in [0, n_seed]; a copy names two rows and no
 * seeds; a PROPAGATE opens the table or follows a PULL; repair steps name
 * one row and need parent rows and repair inputs; a TAG is followed by a
 * PULL, and a PULL by a PROPAGATE, on its row; only APPLY, SEED and TAG
 * take seeds.  Returns 0 with out[0] the most rows of any non-copy step
 * and out[1] the longest seed range; 1 + the first malformed step's
 * index; CHECK_BAD_ROWS when a step row leaves [0, n_rows);
 * CHECK_BAD_SEEDS when a seed leaves [0, n_edges); CHECK_BAD_PARENTS when
 * a parent row (parent_rows, nullable, aligned with step_rows) leaves
 * [0, n_parents). */
#define CHECK_BAD_ROWS (-1)
#define CHECK_BAD_SEEDS (-2)
#define CHECK_BAD_PARENTS (-3)
int64_t mega_daic_check(
    const int64_t *steps, int64_t n_steps, const int64_t *step_rows,
    int64_t n_step_rows, int64_t n_rows, const int64_t *seed_edges,
    int64_t n_seed, int64_t n_edges, const int64_t *parent_rows,
    int64_t n_parents, int repair, int64_t *out)
{
    int64_t i, max_k = 1, span = 0;
    uint64_t bad_rows = 0, bad_seeds = 0, bad_parents = 0;
    for (i = 0; i < n_steps; i++) {
        const int64_t *st = steps + STEP_COLS * i;
        const int64_t kind = st[0], lo = st[1], hi = st[2];
        const int64_t seeds = st[4] - st[3];
        const int64_t prev = i > 0 ? st[-STEP_COLS] : -1;
        const int64_t next = i + 1 < n_steps ? st[STEP_COLS] : -1;
        int ok = 0 <= lo && lo < hi && hi <= n_step_rows && 0 <= st[3]
                 && st[3] <= st[4] && st[4] <= n_seed;
        if (ok) {
            const int64_t row = step_rows[lo];
            const int one = hi - lo == 1;
            const int fixes = parent_rows != NULL && repair;
            switch (kind) {
            case STEP_COPY:
                ok = hi - lo == 2 && !seeds;
                break;
            case STEP_APPLY:
            case STEP_SEED:
                break;
            case STEP_PROPAGATE:
                ok = !seeds && (i == 0 || (prev == STEP_PULL && one
                                           && step_rows[st[-4]] == row));
                break;
            case STEP_TAG:
                ok = one && fixes && next == STEP_PULL
                     && step_rows[st[STEP_COLS + 1]] == row;
                break;
            case STEP_PULL:
                ok = one && !seeds && prev == STEP_TAG
                     && next == STEP_PROPAGATE
                     && step_rows[st[STEP_COLS + 1]] == row;
                break;
            case STEP_GROUND:
                ok = one && !seeds && fixes;
                break;
            default:
                ok = 0;
            }
        }
        if (!ok)
            return i + 1;
        if (kind != STEP_COPY && hi - lo > max_k)
            max_k = hi - lo;
        if (seeds > span)
            span = seeds;
    }
    /* one unsigned compare per id catches negatives too */
    for (i = 0; i < n_step_rows; i++)
        bad_rows |= (uint64_t)step_rows[i] >= (uint64_t)n_rows;
    if (bad_rows)
        return CHECK_BAD_ROWS;
    for (i = 0; i < n_seed; i++)
        bad_seeds |= (uint64_t)seed_edges[i] >= (uint64_t)n_edges;
    if (bad_seeds)
        return CHECK_BAD_SEEDS;
    if (parent_rows != NULL)
        for (i = 0; i < n_step_rows; i++)
            bad_parents |= (uint64_t)parent_rows[i] >= (uint64_t)n_parents;
    if (bad_parents)
        return CHECK_BAD_PARENTS;
    out[0] = max_k;
    out[1] = span;
    return 0;
}

/* What a repair step reads and where it appends its trace (record
 * NULL: not recording): the call's inputs and scratch, set once, and the
 * trace cursors and frontier lists, which the loop kernel copies in and
 * out around each step, so the hot round loop's locals never have their
 * address taken (which slows the round loop down). */
typedef struct {
    const int64_t *indptr, *dst_all;
    const double *wt_all;
    int op;
    int64_t n;
    const daic_repair *repair;
    const daic_record *record;
    int64_t epb, graph_blocks;
    uint8_t *frontier, *mark, *anchored;
    int64_t *best;
    /* per step: its execution's serial and edge mask, its step_out row */
    int64_t serial;
    uint8_t *emask;
    int64_t *out;
    int64_t n_rows, n_blocks, need, nf;
    /* the call's TAG count so far, the frontier lists, the last status */
    int64_t tags;
    int64_t *cur, *next;
    int status;
} repair_pass;

/* a repair step's status: done; stopped for record space before any
 * work, or between two cascade passes (the frontier's bytes then live
 * in the frontier buffer's first row); a GROUND that found values that
 * are not a fixpoint */
#define REPAIR_DONE 0
#define REPAIR_FULL 1
#define REPAIR_FULL_MID 2
#define REPAIR_UNSUPPORTED 3

static int repair_room(repair_pass *ps, int64_t need)
{
    const daic_record *rec = ps->record;
    if (rec == NULL
        || (ps->n_rows < rec->row_cap && ps->n_blocks + need <= rec->block_cap))
        return 1;
    ps->need = need;
    return 0;
}

static void repair_row(
    repair_pass *ps, int64_t popped, int64_t generated, int64_t writes,
    int64_t n_blocks, int64_t touched)
{
    put_row(ps->record->rows + DAIC_ROW * ps->n_rows++, popped, generated,
            generated, writes, 0, 0, 0, n_blocks);
    ps->out[2]++;
    ps->out[3] += n_blocks;
    ps->out[4] += touched;
}

/* STEP_GROUND on one row (see mega_daic_round); ps->anchored and
 * ps->mark are n zeroed bytes, left zeroed.  Returns REPAIR_UNSUPPORTED
 * when a reached vertex has no grounded support. */
static int ground_row(repair_pass *ps, const double *v, const uint8_t *p,
                      int64_t *par)
{
    const int64_t *const indptr = ps->indptr, *const dst_all = ps->dst_all;
    const daic_repair *const repair = ps->repair;
    const int64_t n = ps->n;
    uint8_t *const anchored = ps->anchored, *const mark = ps->mark;
    int64_t *const best = ps->best, *cur = ps->cur, *next = ps->next;
    int64_t i, j, nf = 0, len;
    int bad = 0;
    for (i = 0; i < n; i++) {
        const double init = i == repair->source ? repair->source_value
                                                : repair->identity;
        par[i] = -1;
        if (v[i] == init) {
            anchored[i] = 1;
            cur[nf++] = i;
        }
    }
    /* a vertex first supported from level L is anchored at level L + 1;
     * its supports from earlier levels would have anchored it sooner, so
     * only the last level's out-edges need a look */
    while (nf > 0) {
        len = 0;
        for (i = 0; i < nf; i++) {
            const int64_t u = cur[i];
            for (j = indptr[u]; j < indptr[u + 1]; j++) {
                const int64_t w = dst_all[j];
                if (!p[j] || anchored[w]
                    || candidate_of(ps->op, v[u], ps->wt_all[j]) != v[w])
                    continue;
                if (!mark[w]) {
                    mark[w] = 1;
                    best[w] = j;
                    next[len++] = w;
                } else if (j < best[w]) {
                    best[w] = j;
                }
            }
        }
        for (i = 0; i < len; i++) {
            const int64_t w = next[i];
            mark[w] = 0;
            anchored[w] = 1;
            par[w] = best[w];
        }
        int64_t *tl = cur; cur = next; next = tl;
        nf = len;
    }
    for (i = 0; i < n; i++) {
        bad |= !anchored[i] && v[i] != repair->identity;
        anchored[i] = 0;
    }
    return bad ? REPAIR_UNSUPPORTED : REPAIR_DONE;
}

/* STEP_TAG on one row (see mega_daic_round): the reader's pass, the
 * cascade, then the trim.  resumed: continue the cascade from the live
 * frontier in the frontier buffer's first row. */
static int tag_row(repair_pass *ps, uint8_t *p, double *v, int64_t *par,
                   const int64_t *seeds, int64_t n_seed, int resumed)
{
    const int64_t *const indptr = ps->indptr, *const dst_all = ps->dst_all;
    const daic_repair *const repair = ps->repair;
    const int64_t n = ps->n, rep = ps->tags++;
    uint8_t *const frontier = ps->frontier, *const mark = ps->mark;
    int64_t *cur = ps->cur, *next = ps->next;
    uint8_t *const tagged = repair->tagged + rep * n;
    int64_t *const stats = repair->stats + rep * REPAIR_STATS;
    const daic_record *rec = ps->record;
    int64_t *const dst_stamp = rec != NULL ? rec->dst_stamp : NULL;
    int64_t i, j, nf = 0, touched = 0;
    if (resumed) {
        for (i = 0; i < n; i++)
            if (frontier[i]) {
                frontier[i] = 0;
                cur[nf++] = i;
            }
    } else {
        int64_t writes = 0;
        if (!repair_room(ps, n_seed))
            return REPAIR_FULL;
        memset(tagged, 0, (size_t)n);
        /* the cascade follows edges present after the batch or deleted
         * by it: the deleted edges stay set until the trim */
        for (j = 0; j < n_seed; j++)
            p[seeds[j]] = 1;
        for (j = 0; j < n_seed; j++) {
            const int64_t e = seeds[j], w = dst_all[e];
            if (par[w] != e)
                continue;
            writes++;
            if (!tagged[w]) {
                tagged[w] = mark[w] = 1;
                cur[nf++] = w;
            }
        }
        sort_marked(cur, nf, mark, n);
        stats[1] += n_seed;
        if (rec != NULL) {
            const int64_t u = record_batch(
                seeds, n_seed, dst_all, ps->epb, rec->blocks + ps->n_blocks,
                dst_stamp, ps->serial, &touched, ps->emask);
            ps->n_blocks += u;
            repair_row(ps, 0, n_seed, writes, u, touched);
        }
    }
    while (nf > 0) {
        int64_t fetched = 0, followed = 0, len = 0, last_block = -1;
        const int64_t pass_blocks = ps->n_blocks;
        int64_t *tl;
        for (i = 0; i < nf; i++)
            fetched += indptr[cur[i] + 1] - indptr[cur[i]];
        if (fetched == 0)
            break;
        if (!repair_room(ps, fetched < ps->graph_blocks ? fetched
                                                        : ps->graph_blocks)) {
            /* frontier is all-zero between steps */
            for (i = 0; i < nf; i++)
                frontier[cur[i]] = 1;
            return REPAIR_FULL_MID;
        }
        touched = 0;
        for (i = 0; i < nf; i++) {
            const int64_t u = cur[i];
            for (j = indptr[u]; j < indptr[u + 1]; j++) {
                const int64_t w = dst_all[j];
                if (!p[j])
                    continue;
                followed++;
                if (rec != NULL) {
                    record_block(j / ps->epb, rec->blocks, &ps->n_blocks,
                                 &last_block);
                    record_edge(j, dst_all, dst_stamp, ps->serial, &touched,
                                ps->emask);
                }
                if (par[w] == j && !tagged[w]) {
                    tagged[w] = mark[w] = 1;
                    next[len++] = w;
                }
            }
        }
        if (followed == 0)
            break;
        stats[1] += followed;
        stats[2]++;
        if (rec != NULL)
            repair_row(ps, nf, followed, len, ps->n_blocks - pass_blocks,
                       touched);
        sort_marked(next, len, mark, n);
        tl = cur; cur = next; next = tl;
        nf = len;
    }
    /* the trim */
    tagged[repair->source] = 0;
    nf = 0;
    for (i = 0; i < n; i++)
        if (tagged[i]) {
            nf++;
            v[i] = repair->identity;
            par[i] = -1;
        }
    stats[0] = nf;
    for (j = 0; j < n_seed; j++)
        p[seeds[j]] = 0;
    return REPAIR_DONE;
}

/* STEP_PULL on one row (see mega_daic_round): the seeds go to the
 * frontier list, ascending, and into `cur` (the next PROPAGATE's frontier
 * bytes). */
static int pull_row(repair_pass *ps, const uint8_t *p, const double *v,
                    uint8_t *cur)
{
    const int64_t *const indptr = ps->indptr, *const dst_all = ps->dst_all;
    const daic_repair *const repair = ps->repair;
    const int64_t n = ps->n, rep = ps->tags - 1;
    uint8_t *const mark = ps->mark;
    int64_t *const list = ps->cur;
    const uint8_t *const tagged = repair->tagged + rep * n;
    const int64_t n_tagged = repair->stats[rep * REPAIR_STATS];
    const int64_t *const rev_indptr = repair->rev_indptr;
    const daic_record *rec = ps->record;
    int64_t *const dst_stamp = rec != NULL ? rec->dst_stamp : NULL;
    int64_t i, j, nf = 0, fetched = 0, touched = 0, last_block = -1;
    const int64_t pass_blocks = ps->n_blocks;
    if (n_tagged == 0)
        return REPAIR_DONE;
    /* a seed is untagged and reached; the trim left every tagged
     * vertex at the identity, so the reached test covers both */
    if (rev_indptr == NULL) {
        /* unrecorded, without the transpose: the seed set is the same
         * when read off the forward edges into the region, ascending */
        for (i = 0; i < n; i++) {
            if (v[i] == repair->identity)
                continue;
            for (j = indptr[i]; j < indptr[i + 1]; j++)
                if (p[j] && tagged[dst_all[j]]) {
                    cur[i] = 1;
                    list[nf++] = i;
                    break;
                }
        }
        ps->nf = nf;
        return REPAIR_DONE;
    }
    for (i = 0; i < n; i++)
        if (tagged[i])
            fetched += rev_indptr[i + 1] - rev_indptr[i];
    if (!repair_room(ps, fetched < ps->graph_blocks ? fetched
                                                    : ps->graph_blocks))
        return REPAIR_FULL;
    for (i = 0; i < n; i++) {
        if (!tagged[i])
            continue;
        for (j = rev_indptr[i]; j < rev_indptr[i + 1]; j++) {
            const int64_t e = repair->rev_origin[j];
            const int64_t u = repair->rev_src[j];
            if (rec != NULL) {
                record_block((j + repair->rev_block_offset) / ps->epb,
                             rec->blocks, &ps->n_blocks, &last_block);
                if (ps->emask != NULL)
                    ps->emask[e] = 1;
            }
            if (p[e] && v[u] != repair->identity && !mark[u]) {
                mark[u] = 1;
                list[nf++] = u;
            }
        }
    }
    sort_marked(list, nf, mark, n);
    for (i = 0; i < nf; i++)
        cur[list[i]] = 1;
    if (rec != NULL) {
        if (dst_stamp != NULL)
            for (i = 0; i < nf; i++) {
                int64_t *stamp = dst_stamp + list[i];
                touched += *stamp != ps->serial;
                *stamp = ps->serial;
            }
        repair_row(ps, n_tagged, fetched, 0, ps->n_blocks - pass_blocks,
                   touched);
    }
    ps->nf = nf;
    return REPAIR_DONE;
}

/* One TAG, PULL or GROUND step on row values v, presence p and parent
 * row par; ps->nf is the frontier it leaves.  Out of line, so the round
 * loop's registers stay its own. */
static __attribute__((noinline)) void repair_step(
    repair_pass *ps, int64_t kind, double *v, uint8_t *p, int64_t *par,
    const int64_t *seeds, int64_t n_seed, int resumed, uint8_t *cur)
{
    ps->nf = 0;
    ps->status = kind == STEP_TAG ? tag_row(ps, p, v, par, seeds, n_seed,
                                            resumed)
               : kind == STEP_PULL ? pull_row(ps, p, v, cur)
               : ground_row(ps, v, p, par);
}

/* mega_daic_round's parameters and their names, for its two
 * specializations */
#define DAIC_PARAMS \
    const int64_t *indptr, const int64_t *src_of_edge, \
    const int64_t *dst_all, const double *wt_all, \
    const int64_t *steps, int64_t n_steps, const int64_t *step_rows, \
    const int64_t *seed_edges, int64_t first_step, int resume, \
    uint8_t *frontier, uint8_t *presence, double *values, \
    int64_t n_vertices, int64_t n_union_edges, int op, int minimize, \
    int64_t *parent_edge, const int64_t *parent_rows, \
    void *work, int64_t max_rounds, int64_t max_events, \
    int64_t *step_out, int64_t *counters, const daic_record *record, \
    const daic_repair *repair
#define DAIC_ARGS \
    indptr, src_of_edge, dst_all, wt_all, steps, n_steps, step_rows, \
    seed_edges, first_step, resume, frontier, presence, values, n_vertices, \
    n_union_edges, op, minimize, parent_edge, parent_rows, work, \
    max_rounds, max_events, step_out, counters, record, repair

/* The loop kernel's body, specialized on whether the table holds repair
 * steps: with the repair call site in its step loop, the round loop ran
 * ~5% slower (the registers allocated around the call), so a table
 * without repair steps runs a copy compiled without it, inlined into
 * the entry point. */
static inline __attribute__((always_inline)) void daic_loop(
    DAIC_PARAMS, const int repairs)
{
    const int64_t n = n_vertices, M = n_union_edges;
    int64_t *const rows_out = record != NULL ? record->rows : NULL;
    int64_t *const blocks = record != NULL ? record->blocks : NULL;
    int64_t *const dst_stamp = record != NULL ? record->dst_stamp : NULL;
    uint8_t *const edge_masks = record != NULL ? record->edge_masks : NULL;
    const int64_t epb = record != NULL ? record->edges_per_block : 1;
    const int64_t graph_blocks = (M + epb - 1) / epb;
    int64_t s, i, j, k, max_k = 1, span = n;
    repair_pass ps = {.indptr = indptr, .dst_all = dst_all,
                      .wt_all = wt_all, .op = op, .n = n, .repair = repair,
                      .record = record, .epb = epb,
                      .graph_blocks = graph_blocks, .frontier = frontier};
    for (s = 0; s < n_steps; s++) {
        const int64_t *st = steps + STEP_COLS * s;
        if (st[0] != STEP_COPY && st[2] - st[1] > max_k)
            max_k = st[2] - st[1];
        if (st[4] - st[3] > span)
            span = st[4] - st[3];
        if (s < first_step && st[0] == STEP_TAG)
            ps.tags++;
    }
    /* work layout: 8-byte members first, byte members last */
    int64_t *cur_list = (int64_t *)work, *next_list = cur_list + n;
    double *snap = (double *)(next_list + n);
    int64_t *round_parent = parent_edge != NULL
                            ? (int64_t *)(snap + max_k * span) : NULL;
    uint8_t *nxt = (uint8_t *)(snap + max_k * span)
                   + (parent_edge != NULL ? max_k * n * sizeof(int64_t) : 0);
    uint8_t *mark = nxt + max_k * n;
    /* a GROUND step's anchored marks are nxt's (all-zero between steps)
     * and its per-vertex best edges the round parents' */
    ps.mark = mark;
    ps.anchored = nxt;
    ps.best = round_parent;
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
        const int64_t exec = record != NULL ? execution_of(steps, s) : 0;
        const int64_t serial = record != NULL ? record->stamp_base + exec
                                              : 0;
        uint8_t *const emask = edge_masks != NULL ? edge_masks + exec * M
                                                  : NULL;
        int64_t *const out = step_out + STEP_OUT * s;
        int64_t pairs = 0, active_edges = 0, len = 0, touched = 0;

        if (repairs && kind >= STEP_TAG) {
            /* out of line: the round loop's registers stay its own */
            ps.serial = serial;
            ps.emask = emask;
            ps.out = out;
            ps.n_rows = n_rows;
            ps.n_blocks = n_blocks;
            ps.cur = cur_list;
            ps.next = next_list;
            repair_step(&ps, kind, values + rows[0] * n,
                        presence + rows[0] * M, parent_edge + prows[0] * n,
                        seeds, n_seed, s == first_step && resume, cur);
            n_rows = ps.n_rows;
            n_blocks = ps.n_blocks;
            nf = popped = ps.nf;
            if (ps.status) {
                full = ps.status != REPAIR_UNSUPPORTED;
                mid = ps.status == REPAIR_FULL_MID;
                need = ps.need;
                stop = s;
                goto done;
            }
            continue;
        }

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

        if ((s == first_step && resume)
            || (kind == STEP_PROPAGATE && s == first_step)) {
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
        } else if (kind != STEP_PROPAGATE) {
            /* a seed pass; a PROPAGATE after a PULL starts from the
             * pulled seeds, live in cur and cur_list */
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
                const int64_t u = record_batch(
                    seeds, n_seed, dst_all, epb, blocks + n_blocks,
                    dst_stamp, serial, &touched, emask);
                put_row(rows_out + DAIC_ROW * n_rows++, 0, active_edges,
                        n_seed, nf, 0, pairs, popped, u);
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
                put_row(rows_out + DAIC_ROW * n_rows++, nf_popped,
                        active_edges, fetched, nf, cells_popped, pairs,
                        popped, n_blocks - round_blocks);
                out[2]++;
                out[3] += n_blocks - round_blocks;
                out[4] += touched;
                touched = 0;
            }
            int64_t *tl = cur_list; cur_list = next_list; next_list = tl;
            uint8_t *tb = cur; cur = nxt; nxt = tb;
        }
    }

done:
    /* a cascade stopped between passes has written its frontier bytes */
    if (mid && ps.status != REPAIR_FULL_MID && cur != frontier) {
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
    counters[10] = ps.status == REPAIR_UNSUPPORTED;
}

static __attribute__((noinline)) void daic_loop_repairs(DAIC_PARAMS)
{
    daic_loop(DAIC_ARGS, 1);
}

void mega_daic_round(DAIC_PARAMS)
{
    int64_t s;
    for (s = 0; s < n_steps; s++)
        if (steps[STEP_COLS * s] >= STEP_TAG) {
            daic_loop_repairs(DAIC_ARGS);
            return;
        }
    daic_loop(DAIC_ARGS, 0);
}

/* worklist_eval: a value-only plan in one call — its from-scratch
 * evaluations, then its step table's COPY and APPLY steps, then the
 * summaries of its marked rows — on version-masked FIFO worklists, with
 * no rounds, parents or traces.
 *
 * Rows are the plan's states: `values` is n_rows x n doubles and
 * `applied` n_rows x n_steps bytes, byte t of a row set once the row
 * holds step t's batch.  Edge j's tag says which rows hold it:
 * edge_tag[j] == -1 every row (the base graph the evaluations run on),
 * -2 none, t >= 0 the rows whose applied byte t is set.  So a row's
 * graph at each step is what the round loop's presence row holds there:
 * the base graph plus the batches applied to that row, carried along
 * by COPY.
 *
 *   evaluations  evals (n_evals x 2: row, source): the row starts from
 *                the identity with source_value at the source, whose
 *                event seeds the worklist;
 *   STEP_COPY    rows {src, dst}: copy src's values and applied bytes
 *                over dst;
 *   STEP_APPLY   the step's rows hold its batch from now on; every seed
 *                edge relaxes into every row, and each improved cell
 *                seeds the worklist.
 *
 * Each evaluation group and each APPLY step's rows run in groups of at
 * most WL_ROWS rows, one worklist pass per group.  A worklist entry is a
 * vertex plus the mask of the group's rows in which it improved since it
 * was last popped (a vertex is queued exactly while its mask is
 * non-zero, so the FIFO ring holds each vertex at most once).  A popped
 * vertex's out-edges are fetched once for all of its rows: each edge
 * relaxes, in place from the current value, into the rows of the mask
 * that hold the edge — MEGA's version-tagged event (paper §4), one fetch
 * for every version that needs it.  Candidate and strict-improvement
 * test are the round kernel's, and every order of monotone relaxations
 * reaches the same fixpoint, so every row equals the round loop's bit
 * for bit, except where a NaN candidate makes the order matter: the
 * kernel refuses that one (WORKLIST_NAN).  A FIFO worklist settles every
 * graph whose best paths are simple within n passes of at most n pops;
 * a pass past n * (n + 1) pops climbs a cycle and is refused too
 * (WORKLIST_CEILING), for the round loop to fail or converge as it
 * always has.
 *
 * Then each marked row (marks, n_marks) gets reached[i], its values not
 * equal to the identity, and checksum[i], the sum of its finite values
 * in numpy's order: 0.0 plus numpy's pairwise sum of the compacted
 * values (pairwise_sum).
 *
 * work is int64 scratch: the ring (n), the vertices' row masks (n), the
 * pass's mask of rows per tag (n_steps + 2: tags -2 and -1 first) and
 * the compaction buffer (n doubles).  state (WL_STATE int64) carries a
 * paused plan: [0] the step whose passes run (-1: the evaluations),
 * [1] its next group, [2] 1 while that group's pass is open, [3] the
 * ring's head, [4] its length, [5] pops and [6] edges relaxed over the
 * plan, [7] pops of the open pass.  A WL_START call checks its inputs
 * (a WORKLIST_BAD_* code on a malformed one), fills every row with the
 * identity and starts the plan.  Each call stops
 * after max_pops pops (negative: no cap) with WORKLIST_PAUSED, and a
 * WL_RESUME call carries on from the state.  WORKLIST_DONE once the
 * summaries are written. */
#define WORKLIST_DONE 0
#define WORKLIST_PAUSED 1
#define WORKLIST_NAN 2
#define WORKLIST_CEILING 3
#define WORKLIST_BAD_EVAL (-1)
#define WORKLIST_BAD_STEP (-2)
#define WORKLIST_BAD_TAG (-3)
#define WORKLIST_BAD_MARK (-4)
#define WL_START 0
#define WL_RESUME 1
#define WL_ROWS 64
#define WL_STATE 8

/* numpy's pairwise summation of a contiguous float64 array (its
 * pairwise_sum: a plain loop below 8 elements, eight accumulators up to
 * 128, halves split at a multiple of 8 above). */
static double pairwise_sum(const double *a, int64_t n)
{
    int64_t i, j;
    if (n < 8) {
        double res = 0.0;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        for (j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3]))
              + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    const int64_t half = n / 2 - (n / 2) % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

#define WORKLIST_PARAMS                                                     \
    const int64_t *indptr, const int64_t *src_of_edge,                      \
    const int64_t *dst_all, const double *wt_all, const int32_t *edge_tag,  \
    int64_t n, int64_t M, const int64_t *evals, int64_t n_evals,            \
    const int64_t *steps, int64_t n_steps, const int64_t *step_rows,        \
    int64_t n_step_rows, const int64_t *seed_edges, int64_t n_seed,         \
    double *values, int64_t n_rows, uint8_t *applied, int op, int minimize, \
    double identity, double source_value, const int64_t *marks,             \
    int64_t n_marks, int64_t *reached, double *checksum, int64_t *work,     \
    int64_t *state, int64_t max_pops, int mode
#define WORKLIST_ARGS                                                       \
    indptr, src_of_edge, dst_all, wt_all, edge_tag, n, M, evals, n_evals,   \
    steps, n_steps, step_rows, n_step_rows, seed_edges, n_seed, values,     \
    n_rows, applied, op, minimize, identity, source_value, marks, n_marks,  \
    reached, checksum, work, state, max_pops, mode

/* A fresh call's input checks: 0, or the WORKLIST_BAD_* code. */
static int worklist_check(
    const int32_t *edge_tag, int64_t n, int64_t M, const int64_t *evals,
    int64_t n_evals, const int64_t *steps, int64_t n_steps,
    const int64_t *step_rows, int64_t n_step_rows,
    const int64_t *seed_edges, int64_t n_seed, int64_t n_rows,
    const int64_t *marks, int64_t n_marks)
{
    int64_t i, s;
    for (i = 0; i < n_evals; i++)
        if (evals[2 * i] < 0 || evals[2 * i] >= n_rows
            || evals[2 * i + 1] < 0 || evals[2 * i + 1] >= n)
            return WORKLIST_BAD_EVAL;
    for (s = 0; s < n_steps; s++) {
        const int64_t *st = steps + STEP_COLS * s;
        if ((st[0] != STEP_COPY && st[0] != STEP_APPLY)
            || st[1] < 0 || st[2] < st[1] || st[2] > n_step_rows
            || (st[0] == STEP_COPY && st[2] - st[1] != 2)
            || st[3] < 0 || st[4] < st[3] || st[4] > n_seed)
            return WORKLIST_BAD_STEP;
    }
    for (i = 0; i < n_step_rows; i++)
        if (step_rows[i] < 0 || step_rows[i] >= n_rows)
            return WORKLIST_BAD_STEP;
    for (i = 0; i < n_seed; i++)
        if (seed_edges[i] < 0 || seed_edges[i] >= M)
            return WORKLIST_BAD_STEP;
    for (i = 0; i < M; i++)
        if (edge_tag[i] < -2 || edge_tag[i] >= n_steps)
            return WORKLIST_BAD_TAG;
    for (i = 0; i < n_marks; i++)
        if (marks[i] < 0 || marks[i] >= n_rows)
            return WORKLIST_BAD_MARK;
    return 0;
}

/* Point vr at the rows of pass (s, g) — step s's rows, or the
 * evaluations' for s < 0 — and set bits[t] to the mask of those rows
 * holding step t's batch; returns the pass's row count. */
static int64_t worklist_group(
    const int64_t *evals, int64_t n_evals, const int64_t *steps,
    int64_t n_steps, const int64_t *step_rows, double *values, int64_t n,
    const uint8_t *applied, int64_t s, int64_t g, double **vr,
    uint64_t *bits)
{
    const int64_t *rows = evals;
    int64_t total = n_evals, stride = 2, k, t;
    if (s >= 0) {
        const int64_t *st = steps + STEP_COLS * s;
        rows = step_rows + st[1];
        total = st[2] - st[1];
        stride = 1;
    }
    const int64_t lo = g * WL_ROWS;
    const int64_t K = total - lo < WL_ROWS ? total - lo : WL_ROWS;
    bits[-2] = 0;
    bits[-1] = ~(uint64_t)0;
    for (t = 0; t < n_steps; t++)
        bits[t] = 0;
    for (k = 0; k < K; k++) {
        const int64_t r = rows[(lo + k) * stride];
        const uint8_t *a = applied + r * n_steps;
        vr[k] = values + r * n;
        for (t = 0; t < n_steps; t++)
            if (a[t])
                bits[t] |= (uint64_t)1 << k;
    }
    return K;
}

/* The plan loop for one (op, minimize) pair: the entry point below
 * passes both as constants, so each instance has no candidate switch in
 * its inner loops. */
static inline __attribute__((always_inline)) int worklist_loop(
    WORKLIST_PARAMS, const int op_c, const int minimize_c)
{
    int64_t *ring = work;
    uint64_t *mask = (uint64_t *)(work + n);
    uint64_t *bits = (uint64_t *)(work + 2 * n) + 2;
    double *buf = (double *)(work + 2 * n + 2 + n_steps);
    const int64_t ceiling = n * (n + 1);
    int64_t s = state[0], g = state[1], open = state[2];
    int64_t head = state[3], queued = state[4], pass_pops = state[7];
    int64_t pops = 0, relaxed = 0, i, j, k, K = 0;
    double *vr[WL_ROWS];
    int status = WORKLIST_DONE;

    if (mode != WL_RESUME) {
        for (i = 0; i < n_rows * n; i++)
            values[i] = identity;
        memset(applied, 0, (size_t)(n_rows * n_steps));
        memset(mask, 0, (size_t)n * sizeof(uint64_t));
        s = -1;
        g = open = head = queued = pass_pops = 0;
        state[5] = state[6] = 0;
    } else if (open) {
        K = worklist_group(evals, n_evals, steps, n_steps, step_rows,
                           values, n, applied, s, g, vr, bits);
    }

#define WL_PUSH(V, BIT)                                                    \
    do {                                                                   \
        if (!mask[V]) {                                                    \
            const int64_t tail = head + queued;                            \
            ring[tail < n ? tail : tail - n] = (V);                        \
            queued++;                                                      \
        }                                                                  \
        mask[V] |= (BIT);                                                  \
    } while (0)

    for (;;) {
        if (!open) {
            /* open the next pass: the evaluations' groups, then each
             * APPLY step's (a COPY runs as it is reached) */
            int64_t total = n_evals;
            const int64_t *st = NULL;
            if (s >= n_steps)
                break;
            if (s >= 0) {
                st = steps + STEP_COLS * s;
                if (st[0] == STEP_COPY) {
                    const int64_t from = step_rows[st[1]];
                    const int64_t to = step_rows[st[1] + 1];
                    memcpy(values + to * n, values + from * n,
                           (size_t)n * sizeof(double));
                    memcpy(applied + to * n_steps, applied + from * n_steps,
                           (size_t)n_steps);
                    s++;
                    continue;
                }
                total = st[2] - st[1];
            }
            if (g * WL_ROWS >= total) {
                s++;
                g = 0;
                continue;
            }
            if (st != NULL) {
                const int64_t lo = st[1] + g * WL_ROWS;
                const int64_t hi = st[2] < lo + WL_ROWS ? st[2]
                                                         : lo + WL_ROWS;
                for (i = lo; i < hi; i++)
                    applied[step_rows[i] * n_steps + s] = 1;
            }
            K = worklist_group(evals, n_evals, steps, n_steps, step_rows,
                               values, n, applied, s, g, vr, bits);
            open = 1;
            pass_pops = 0;
            if (st == NULL) {
                for (k = 0; k < K; k++) {
                    const int64_t src = evals[2 * (g * WL_ROWS + k) + 1];
                    vr[k][src] = source_value;
                    WL_PUSH(src, (uint64_t)1 << k);
                }
            } else {
                for (j = st[3]; j < st[4]; j++) {
                    const int64_t e = seed_edges[j];
                    const int64_t u = src_of_edge[e], v = dst_all[e];
                    const double wt = wt_all[e];
                    for (k = 0; k < K; k++) {
                        const double cand = candidate_of(op_c, vr[k][u], wt);
                        relaxed++;
                        if (cand != cand) {
                            status = WORKLIST_NAN;
                            goto out;
                        }
                        if (minimize_c ? cand < vr[k][v] : cand > vr[k][v]) {
                            vr[k][v] = cand;
                            WL_PUSH(v, (uint64_t)1 << k);
                        }
                    }
                }
            }
        }
        while (queued > 0) {
            if (pops == max_pops) {
                status = WORKLIST_PAUSED;
                goto out;
            }
            if (pass_pops == ceiling) {
                status = WORKLIST_CEILING;
                goto out;
            }
            const int64_t u = ring[head];
            const uint64_t m = mask[u];
            const int64_t end = indptr[u + 1];
            mask[u] = 0;
            head = head + 1 == n ? 0 : head + 1;
            queued--;
            pops++;
            pass_pops++;
            if (K == 1) {
                double *row = vr[0];
                const double val = row[u];
                for (j = indptr[u]; j < end; j++) {
                    if (!(bits[edge_tag[j]] & 1))
                        continue;
                    const int64_t v = dst_all[j];
                    const double cand = candidate_of(op_c, val, wt_all[j]);
                    relaxed++;
                    if (cand != cand) {
                        status = WORKLIST_NAN;
                        goto out;
                    }
                    if (minimize_c ? cand < row[v] : cand > row[v]) {
                        row[v] = cand;
                        WL_PUSH(v, 1);
                    }
                }
                continue;
            }
            for (j = indptr[u]; j < end; j++) {
                uint64_t live = m & bits[edge_tag[j]];
                if (!live)
                    continue;
                const int64_t v = dst_all[j];
                const double wt = wt_all[j];
                do {
                    const int kk = __builtin_ctzll(live);
                    double *row = vr[kk];
                    const double cand = candidate_of(op_c, row[u], wt);
                    live &= live - 1;
                    relaxed++;
                    if (cand != cand) {
                        status = WORKLIST_NAN;
                        goto out;
                    }
                    if (minimize_c ? cand < row[v] : cand > row[v]) {
                        row[v] = cand;
                        WL_PUSH(v, (uint64_t)1 << kk);
                    }
                } while (live);
            }
        }
        open = 0;
        g++;
    }
#undef WL_PUSH

    for (i = 0; i < n_marks; i++) {
        const double *row = values + marks[i] * n;
        int64_t hit = 0, kept = 0;
        for (j = 0; j < n; j++) {
            const double x = row[j];
            hit += x != identity;
            if (__builtin_isfinite(x))
                buf[kept++] = x;
        }
        reached[i] = hit;
        checksum[i] = 0.0 + pairwise_sum(buf, kept);
    }
out:
    state[0] = s;
    state[1] = g;
    state[2] = open;
    state[3] = head;
    state[4] = queued;
    state[5] += pops;
    state[6] += relaxed;
    state[7] = pass_pops;
    return status;
}

#define WORKLIST_CASE(OP, MIN)                                            \
    case 2 * (OP) + (MIN):                                                \
        return worklist_loop(WORKLIST_ARGS, OP, MIN)
int mega_worklist_eval(WORKLIST_PARAMS)
{
    if (mode != WL_RESUME) {
        const int bad = worklist_check(
            edge_tag, n, M, evals, n_evals, steps, n_steps, step_rows,
            n_step_rows, seed_edges, n_seed, n_rows, marks, n_marks);
        if (bad)
            return bad;
    }
    switch (2 * op + (minimize != 0)) {
    WORKLIST_CASE(OP_PLUS_WT, 1);
    WORKLIST_CASE(OP_PLUS_ONE, 1);
    WORKLIST_CASE(OP_MIN_WT, 0);
    WORKLIST_CASE(OP_MAX_WT, 1);
    WORKLIST_CASE(OP_DIV_WT, 0);
    default:
        return worklist_loop(WORKLIST_ARGS, op, minimize != 0);
    }
}

/* window_merge: one move of the unified CSR's window — a slide
 * (evolving.window.slide_window) or a sub-window (extract_window) — as
 * run copies over the old union, bit-identical to the numpy bodies.
 *
 * The old union: n_vertices rows through indptr; n_edges slots of src
 * (src_of_edge), dst, wt, add_step and del_step (int32); (n_snapshots +
 * 7) / 8 presence planes of n_edges bytes.  Old snapshots lo .. hi =
 * lo + count - 1 (hi >= 0) become new snapshots 0 .. count - 1 of an
 * n_out-snapshot window: a
 * slot leaves when it is absent from all of them (added at or after hi,
 * or deleted before lo), a batch tag t in [lo, hi) becomes t - lo and
 * any other -1, and the planes shift down by lo bits, carrying between
 * planes, with every bit from count on clear.  n_out is count (a
 * sub-window) or count + 1 (a slide: lo = 1, count = n_snapshots - 1),
 * whose new latest snapshot n_out - 1 repeats old snapshot hi, minus
 * the deletions, plus the additions.
 *
 * A slide's transition: n_del deletions (dels, n_del (src, dst) pairs)
 * and n_add additions (add_src, add_dst, add_wt).  A pair's union slot
 * is a binary search of its row's dst through indptr — the first slot
 * of the pair, as numpy's searchsorted finds it.  The CommonGraph
 * checks run in slide_window's order, and the first that fails returns
 * its SLIDE_* code (keep in sync with repro.perf.backend.SLIDE_*) with
 * the offending deletion or addition row in out[0], before the new
 * union is written:
 *
 *   SLIDE_BAD_VERTEX      a deletion names a vertex outside [0, n);
 *   SLIDE_NOT_LIVE        a deletion's edge is not in snapshot hi;
 *   SLIDE_ADDED_INSIDE    a deletion's edge was added inside the window;
 *   SLIDE_BAD_ADDITION    an addition names a vertex outside [0, n)
 *                         (an EdgeList never does; kept for safety);
 *   SLIDE_DUP_ADDITION    two additions share a pair;
 *   SLIDE_LIVE_DUPLICATE  an addition's edge is in snapshot hi;
 *   SLIDE_READDED         an addition's edge was deleted inside the
 *                         window.
 *
 * A deleted slot keeps its place with del_step n_out - 2 and its latest
 * bit clear, or leaves the union when there is no transition to tag it
 * (n_out == 1).  An addition joins its row after every kept slot of the
 * same or a lower dst, tagged add_step n_out - 2 and present in the
 * latest snapshot only.  del_slots receives each deletion's old slot,
 * add_slots each addition's new slot, per input row.
 *
 * Outputs, each with room for n_edges + n_add slots: out_indptr
 * (n_vertices + 1), out_src (src_of_edge), out_dst, out_wt, out_add,
 * out_del and out_planes, whose (n_out + 7) / 8 planes end up back to
 * back at the new union's length, returned in out[1].  work: 4 * n_add
 * + n_del int64.  Returns SLIDE_OK (0) or a refusal. */
#define SLIDE_OK 0
#define SLIDE_BAD_VERTEX 1
#define SLIDE_NOT_LIVE 2
#define SLIDE_ADDED_INSIDE 3
#define SLIDE_BAD_ADDITION 4
#define SLIDE_DUP_ADDITION 5
#define SLIDE_LIVE_DUPLICATE 6
#define SLIDE_READDED 7

typedef struct {
    int64_t n_edges, cap, lo, hi, count, n_out, n_planes_in, n_planes;
    const int64_t *src, *dst;
    const double *wt;
    const int32_t *add_step, *del_step;
    const uint8_t *planes;
    int64_t *out_indptr, *out_src, *out_dst;
    double *out_wt;
    int32_t *out_add, *out_del;
    uint8_t *out_planes;
} window_move;

/* First slot of [lo, hi) whose dst is >= d (> d with upper). */
static inline int64_t dst_bound(
    const int64_t *dst, int64_t lo, int64_t hi, int64_t d, int upper)
{
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (dst[mid] < d || (upper && dst[mid] == d))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* (src, dst, row) triples in (src, dst) order */
static int cmp_pair(const void *a, const void *b)
{
    const int64_t *x = a, *y = b;
    int k;
    for (k = 0; k < 3; k++)
        if (x[k] != y[k])
            return (x[k] > y[k]) - (x[k] < y[k]);
    return 0;
}

/* Does the window drop a slot with tags (a, d)?  Added at or after hi
 * (hi >= 0, so a == -1 never is), or deleted before lo. */
static inline int window_drops(int32_t a, int32_t d, int32_t lo, int32_t hi)
{
    return (a >= hi) | ((uint32_t)d < (uint32_t)lo);
}

/* The first slot of [i, stop) the window drops; stop if none.  Whole
 * blocks of kept slots are skipped with a branch-free test. */
static int64_t next_drop(
    const int32_t *restrict add, const int32_t *restrict del, int64_t i,
    int64_t stop, int32_t lo, int32_t hi)
{
    int64_t t;
    for (; i + 64 <= stop; i += 64) {
        int any = 0;
        for (t = 0; t < 64; t++)
            any |= window_drops(add[i + t], del[i + t], lo, hi);
        if (any)
            break;
    }
    while (i < stop && !window_drops(add[i], del[i], lo, hi))
        i++;
    return i;
}

/* The run loops below carry every slot of a window move.  gcc's -O2
 * cost model leaves loops of unknown trip count scalar; its cheap model
 * vectorizes them (integer ops only, so the answers are the same). */
#if defined(__GNUC__) && !defined(__clang__)
#define RUN_LOOP __attribute__((optimize("vect-cost-model=cheap")))
#else
#define RUN_LOOP
#endif

/* A batch tag t in [lo, hi) becomes t - lo, any other -1. */
static RUN_LOOP void shift_tags(
    const int32_t *restrict in, int32_t *restrict out, int64_t len,
    int32_t lo, int32_t hi)
{
    int64_t t;
    for (t = 0; t < len; t++)
        out[t] = (in[t] >= lo && in[t] < hi) ? in[t] - lo : -1;
}

/* One output plane: bits r.. of plane a, then (next != NULL) the low r
 * bits of the next plane above them, masked. */
static RUN_LOOP void shift_plane(
    const uint8_t *restrict a, const uint8_t *restrict next,
    uint8_t *restrict out, int64_t len, int r, uint8_t mask)
{
    int64_t t;
    if (next == NULL) {
        for (t = 0; t < len; t++)
            out[t] = (uint8_t)(a[t] >> r) & mask;
    } else {
        for (t = 0; t < len; t++)
            out[t] = (uint8_t)((a[t] >> r) | (next[t] << (8 - r))) & mask;
    }
}

/* Bit `from` of each a byte, ORed into bit `to` of out. */
static RUN_LOOP void copy_bit(
    const uint8_t *restrict a, uint8_t *restrict out, int64_t len,
    int from, int to)
{
    int64_t t;
    for (t = 0; t < len; t++)
        out[t] |= (uint8_t)(((a[t] >> from) & 1) << to);
}

/* Old slots [i0, i1), all kept, to new slots from j0. */
static void copy_run(const window_move *w, int64_t i0, int64_t i1, int64_t j0)
{
    const int64_t len = i1 - i0, m = w->n_edges, q = w->lo >> 3;
    const int r = w->lo & 7;
    int64_t p;
    memcpy(w->out_src + j0, w->src + i0, len * sizeof(int64_t));
    memcpy(w->out_dst + j0, w->dst + i0, len * sizeof(int64_t));
    memcpy(w->out_wt + j0, w->wt + i0, len * sizeof(double));
    shift_tags(w->add_step + i0, w->out_add + j0, len, w->lo, w->hi);
    shift_tags(w->del_step + i0, w->out_del + j0, len, w->lo, w->hi);
    for (p = 0; p < w->n_planes; p++) {
        const int64_t tail = w->count - 8 * p;
        const uint8_t mask = tail >= 8 ? 0xff
            : tail > 0 ? (uint8_t)((1 << tail) - 1) : 0;
        const uint8_t *a = w->planes + (q + p) * m + i0;
        uint8_t *out = w->out_planes + p * w->cap + j0;
        if (q + p >= w->n_planes_in)
            memset(out, 0, len);
        else
            shift_plane(
                a, r && q + p + 1 < w->n_planes_in ? a + m : NULL, out,
                len, r, mask);
    }
    if (w->n_out > w->count)
        /* a slide: the new latest snapshot repeats old snapshot hi */
        copy_bit(
            w->planes + (w->hi >> 3) * m + i0,
            w->out_planes + ((w->n_out - 1) >> 3) * w->cap + j0, len,
            w->hi & 7, (w->n_out - 1) & 7);
}

/* The kept slots of old [i, stop) to new slots from j; the next j.  A
 * dropped slot shortens its row in out_indptr (row lengths until the
 * merge ends). */
static int64_t copy_kept(
    const window_move *w, int64_t i, int64_t stop, int64_t j)
{
    const int32_t lo = (int32_t)w->lo, hi = (int32_t)w->hi;
    while (i < stop) {
        const int64_t start = i;
        i = next_drop(w->add_step, w->del_step, i, stop, lo, hi);
        if (i > start) {
            copy_run(w, start, i, j);
            j += i - start;
        }
        for (; i < stop && window_drops(w->add_step[i], w->del_step[i], lo, hi);
             i++)
            w->out_indptr[w->src[i] + 1]--;
    }
    return j;
}

static void put_addition(
    const window_move *w, int64_t j, int64_t s, int64_t d, double wt)
{
    int64_t p;
    w->out_indptr[s + 1]++;
    w->out_src[j] = s;
    w->out_dst[j] = d;
    w->out_wt[j] = wt;
    w->out_add[j] = (int32_t)(w->n_out - 2);
    w->out_del[j] = -1;
    for (p = 0; p < w->n_planes; p++)
        w->out_planes[p * w->cap + j] = 0;
    w->out_planes[((w->n_out - 1) >> 3) * w->cap + j] =
        (uint8_t)(1 << ((w->n_out - 1) & 7));
}

int mega_window_merge(
    int64_t n_vertices, int64_t n_edges, const int64_t *indptr,
    const int64_t *src, const int64_t *dst, const double *wt,
    const int32_t *add_step, const int32_t *del_step,
    const uint8_t *planes, int64_t n_snapshots,
    int64_t lo, int64_t count, int64_t n_out,
    const int64_t *add_src, const int64_t *add_dst, const double *add_wt,
    int64_t n_add, const int64_t *dels, int64_t n_del, int64_t *work,
    int64_t *out_indptr, int64_t *out_src, int64_t *out_dst, double *out_wt,
    int32_t *out_add, int32_t *out_del, uint8_t *out_planes,
    int64_t *del_slots, int64_t *add_slots, int64_t *out)
{
    const int64_t hi = lo + count - 1;
    const uint8_t *latest = planes + (hi >> 3) * n_edges;
    const int bit = hi & 7;
    int64_t *pairs = work, *ins_pos = work + 3 * n_add;
    int64_t *patch = ins_pos + n_add;
    int64_t i, r, u, p, s, d, slot, n_patch = 0, j = 0, ia = 0, ip = 0;
    window_move w = {
        n_edges, n_edges + n_add, lo, hi, count, n_out,
        (n_snapshots + 7) / 8, (n_out + 7) / 8, src, dst, wt, add_step,
        del_step, planes, out_indptr, out_src, out_dst, out_wt, out_add,
        out_del, out_planes,
    };

    /* -- the CommonGraph checks, in slide_window's order -------------- */
    for (i = 0; i < n_del; i++) {
        s = dels[2 * i];
        d = dels[2 * i + 1];
        if (s < 0 || s >= n_vertices || d < 0 || d >= n_vertices) {
            out[0] = i;
            return SLIDE_BAD_VERTEX;
        }
    }
    for (i = 0; i < n_del; i++) {
        s = dels[2 * i];
        d = dels[2 * i + 1];
        slot = dst_bound(dst, indptr[s], indptr[s + 1], d, 0);
        if (slot == indptr[s + 1] || dst[slot] != d
            || !((latest[slot] >> bit) & 1)) {
            out[0] = i;
            return SLIDE_NOT_LIVE;
        }
        del_slots[i] = slot;
    }
    for (i = 0; i < n_del; i++) {
        if (add_step[del_slots[i]] >= 1) {
            out[0] = i;
            return SLIDE_ADDED_INSIDE;
        }
    }
    for (r = 0; r < n_add; r++) {
        if (add_src[r] < 0 || add_src[r] >= n_vertices || add_dst[r] < 0
            || add_dst[r] >= n_vertices) {
            out[0] = r;
            return SLIDE_BAD_ADDITION;
        }
        pairs[3 * r] = add_src[r];
        pairs[3 * r + 1] = add_dst[r];
        pairs[3 * r + 2] = r;
    }
    qsort(pairs, (size_t)n_add, 3 * sizeof(int64_t), cmp_pair);
    for (r = 1; r < n_add; r++) {
        if (pairs[3 * r] == pairs[3 * r - 3]
            && pairs[3 * r + 1] == pairs[3 * r - 2]) {
            out[0] = pairs[3 * r + 2];
            return SLIDE_DUP_ADDITION;
        }
    }
    for (r = 0; r < n_add; r++) {
        s = pairs[3 * r];
        d = pairs[3 * r + 1];
        slot = dst_bound(dst, indptr[s], indptr[s + 1], d, 0);
        ins_pos[r] = -1;
        if (slot < indptr[s + 1] && dst[slot] == d) {
            if ((latest[slot] >> bit) & 1) {
                out[0] = pairs[3 * r + 2];
                return SLIDE_LIVE_DUPLICATE;
            }
            ins_pos[r] = slot;
        }
    }
    for (r = 0; r < n_add; r++) {
        if (ins_pos[r] >= 0 && del_step[ins_pos[r]] >= 1) {
            out[0] = pairs[3 * r + 2];
            return SLIDE_READDED;
        }
        s = pairs[3 * r];
        ins_pos[r] = dst_bound(
            dst, indptr[s], indptr[s + 1], pairs[3 * r + 1], 1);
    }
    for (i = 0; i < n_del; i++)
        patch[i] = del_slots[i];
    qsort(patch, (size_t)n_del, sizeof(int64_t), cmp_i64);
    for (i = 0; i < n_del; i++)
        if (n_patch == 0 || patch[i] != patch[n_patch - 1])
            patch[n_patch++] = patch[i];

    /* -- the merge: runs of kept slots between the drops, additions and
     * deleted slots; out_indptr holds row lengths until the end ------ */
    out_indptr[0] = 0;
    for (u = 0; u < n_vertices; u++)
        out_indptr[u + 1] = indptr[u + 1] - indptr[u];
    i = 0;
    for (;;) {
        int64_t stop = n_edges;
        if (ia < n_add && ins_pos[ia] < stop)
            stop = ins_pos[ia];
        if (ip < n_patch && patch[ip] < stop)
            stop = patch[ip];
        j = copy_kept(&w, i, stop, j);
        i = stop;
        if (ia < n_add && ins_pos[ia] == i) {
            r = pairs[3 * ia + 2];
            put_addition(&w, j, add_src[r], add_dst[r], add_wt[r]);
            add_slots[r] = j++;
            ia++;
            continue;
        }
        if (i == n_edges)
            break;
        /* a deleted slot: live in snapshot hi, so kept */
        if (n_out > 1) {
            copy_run(&w, i, i + 1, j);
            out_del[j] = (int32_t)(n_out - 2);
            out_planes[((n_out - 1) >> 3) * w.cap + j] &=
                (uint8_t)~(1 << ((n_out - 1) & 7));
            j++;
        } else {
            out_indptr[src[i] + 1]--;
        }
        i++;
        ip++;
    }
    for (u = 0; u < n_vertices; u++)
        out_indptr[u + 1] += out_indptr[u];
    for (p = 1; p < w.n_planes; p++)
        memmove(out_planes + p * j, out_planes + p * w.cap, (size_t)j);
    out[1] = j;
    return SLIDE_OK;
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
