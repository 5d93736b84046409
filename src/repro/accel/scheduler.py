"""Batch scheduler: wave-based concurrent execution with batch pipelining.

The batch scheduling logic (§4.3) "controls which batches are active on
which instances of the graph" and, together with the event scheduler,
keeps all instances proceeding at an even pace.  The simulator expresses a
workflow as an ordered list of *waves*: groups of batch executions with no
mutual dependencies that run concurrently (Algorithm 1's ``parallel for``;
Direct-Hop's independent hops; sibling hops of the Work-Sharing tree).

Within a wave the scheduler advances every stream one round per step,
merging the rounds into a single round group — events from different
streams share the PEs, queue bandwidth, NoC, and DRAM, and the group pays
one drain overhead.  *Batch pipelining* (§3.2, Fig. 11) injects the next
wave early once every live stream has entered its long tail (live events
below the configured threshold), eliminating the tails' underutilized
rounds.

:meth:`WaveScheduler.run` flattens the waves once into :class:`FlatWaves`
(per wave, per execution and per round arrays over the executions'
columnar traces).  On the compiled kernel tier the whole replay — wave
activation, partition sweeps and spills, pipelined injection, every round
group's cost, the edge cache and the row-buffer DRAM model — is one
``replay`` kernel call over those arrays; on the numpy tier
:meth:`WaveScheduler.replay_reference` runs the same schedule in Python
over the same arrays, through :meth:`TimingModel.group_cost`, and is the
reference the kernel must match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.accel.memory import PartitionPlan
from repro.accel.stats import SimCounters
from repro.accel.timing import ROUND_KINDS, ROUND_PLAIN, TimingModel
from repro.engines.trace import TRACE_ROW, ExecutionTrace
from repro.perf import backend

__all__ = [
    "Wave",
    "FlatWaves",
    "WaveScheduler",
    "ScheduleOutcome",
    "flatten_waves",
]

#: phase_cycles key of partition sweeps and spills (phase id 0)
PARTITION = "partition"


@dataclass
class Wave:
    """A group of executions that may run concurrently."""

    executions: list[ExecutionTrace]
    partition: PartitionPlan
    label: str = ""


class FlatWaves(NamedTuple):
    """A wave list as the arrays the replay reads (all int64 unless
    noted).  Waves own consecutive executions and executions consecutive
    rounds; a round's edge blocks follow the previous round's."""

    labels: list[str]
    #: (W,) partitions of each wave
    parts: np.ndarray
    #: (W,) float64 cross-partition fraction of each wave
    cross: np.ndarray
    #: (W + 1,) offsets of each wave's executions
    wave_execs: np.ndarray
    #: (E + 1,) offsets of each execution's rounds
    exec_rounds: np.ndarray
    #: (E,) each execution's touched destinations
    touched: np.ndarray
    #: (E,) each execution's phase id
    exec_phase: np.ndarray
    #: (R, TRACE_ROW) trace rows
    rows: np.ndarray
    #: (R,) each round's phase id
    round_phase: np.ndarray
    #: (B,) edge-block ids, concatenated in round order
    blocks: np.ndarray
    #: phase id -> name; id 0 is :data:`PARTITION`
    phases: list[str]


@dataclass
class ScheduleOutcome:
    cycles: float
    counters: SimCounters
    phase_cycles: dict[str, float] = field(default_factory=dict)
    round_groups: int = 0
    waves_injected_early: int = 0
    #: (wave label, cycles elapsed while the wave was the newest active)
    wave_cycles: list[tuple[str, float]] = field(default_factory=list)


def flatten_waves(waves: list[Wave]) -> FlatWaves:
    """Concatenate the waves' executions' trace chunks into flat arrays."""
    row_chunks: list[np.ndarray] = []
    block_chunks: list[np.ndarray] = []
    chunk_phases: list[str] = []
    exec_rounds = [0]
    touched: list[int] = []
    exec_phases: list[str] = []
    wave_execs = [0]
    for wave in waves:
        for e in wave.executions:
            row_chunks += e.row_chunks
            block_chunks += e.block_chunks
            chunk_phases += e.chunk_phases
            exec_rounds.append(exec_rounds[-1] + e.n_rounds)
            touched.append(e.touched_dst_count)
            exec_phases.append(e.phase)
        wave_execs.append(len(touched))
    phases = list(dict.fromkeys([PARTITION, *exec_phases, *chunk_phases]))
    ids = {p: i for i, p in enumerate(phases)}
    i64 = np.int64
    return FlatWaves(
        labels=[w.label for w in waves],
        parts=np.array([w.partition.n_partitions for w in waves], dtype=i64),
        cross=np.array(
            [w.partition.cross_fraction for w in waves], dtype=np.float64
        ),
        wave_execs=np.array(wave_execs, dtype=i64),
        exec_rounds=np.array(exec_rounds, dtype=i64),
        touched=np.array(touched, dtype=i64),
        exec_phase=np.array([ids[p] for p in exec_phases], dtype=i64),
        rows=(
            np.concatenate(row_chunks)
            if row_chunks
            else np.zeros((0, TRACE_ROW), dtype=i64)
        ),
        round_phase=np.repeat(
            np.array([ids[p] for p in chunk_phases], dtype=i64),
            np.fromiter(map(len, row_chunks), dtype=i64, count=len(row_chunks)),
        ),
        blocks=(
            np.concatenate(block_chunks)
            if block_chunks
            else np.zeros(0, dtype=i64)
        ),
        phases=phases,
    )


class WaveScheduler:
    """Advances waves of execution streams through the timing model."""

    def __init__(
        self,
        timing: TimingModel,
        pipeline: bool = False,
        threshold_events: int | None = None,
    ) -> None:
        self.timing = timing
        self.pipeline = pipeline
        self.threshold = (
            threshold_events
            if threshold_events is not None
            else timing.config.pipeline_threshold_events
        )

    def run(self, waves: list[Wave]) -> ScheduleOutcome:
        flat = flatten_waves(waves)
        replay = backend.get_backend().replay
        if replay is None:
            return self.replay_reference(flat)
        return self._replay_compiled(flat, replay)

    def replay_reference(self, flat: FlatWaves) -> ScheduleOutcome:
        """The schedule in Python over flat arrays (the kernel's reference).

        A wave activates when no stream is live, or early (pipelining)
        once every live stream's next round holds fewer popped plus
        generated events than the threshold; then every live stream
        advances one round per round group, its share of the group's
        cycles going to its execution's phase.
        """
        timing = self.timing
        outcome = ScheduleOutcome(0.0, SimCounters())
        counters = outcome.counters
        phases = flat.phases
        rows = flat.rows.tolist()
        round_phase = flat.round_phase.tolist()
        exec_rounds = flat.exec_rounds.tolist()
        block_at = np.concatenate(
            ([0], np.cumsum(flat.rows[:, TRACE_ROW - 1]))
        ).tolist()
        n_waves = len(flat.labels)
        marks: list[float] = []
        #: live streams: [next round, end round, execution phase]
        active: list[list] = []
        w = 0
        while w < n_waves or active:
            if not active or (
                self.pipeline
                and w < n_waves
                and all(
                    rows[s[0]][0] + rows[s[0]][1] < self.threshold
                    for s in active
                )
            ):
                early = bool(active)
                marks.append(outcome.cycles)
                part = PartitionPlan(
                    int(flat.parts[w]), 0.0, 0.0, float(flat.cross[w])
                )
                sweep = timing.partition_sweep_cycles(part, counters)
                outcome.cycles += sweep
                if sweep:
                    outcome.phase_cycles[PARTITION] = (
                        outcome.phase_cycles.get(PARTITION, 0.0) + sweep
                    )
                for e in range(flat.wave_execs[w], flat.wave_execs[w + 1]):
                    spill = timing.execution_spill_cycles(
                        int(flat.touched[e]), part, counters
                    )
                    outcome.cycles += spill
                    if spill:
                        outcome.phase_cycles[PARTITION] = (
                            outcome.phase_cycles.get(PARTITION, 0.0) + spill
                        )
                    lo, hi = exec_rounds[e], exec_rounds[e + 1]
                    if lo < hi:
                        active.append([lo, hi, phases[flat.exec_phase[e]]])
                w += 1
                if not early:
                    continue
                outcome.waves_injected_early += 1
            group = []
            for s in active:
                r = s[0]
                s[0] += 1
                group.append((
                    phases[round_phase[r]],
                    rows[r],
                    flat.blocks[block_at[r]:block_at[r + 1]],
                ))
            cost = timing.group_cost(group, counters)
            outcome.cycles += cost.total
            outcome.round_groups += 1
            share = cost.total / len(active)
            for s in active:
                outcome.phase_cycles[s[2]] = (
                    outcome.phase_cycles.get(s[2], 0.0) + share
                )
            active[:] = [s for s in active if s[0] < s[1]]
        outcome.wave_cycles = _wave_cycles(flat.labels, marks, outcome.cycles)
        return outcome

    def _replay_compiled(self, flat: FlatWaves, replay) -> ScheduleOutcome:
        """One ``replay`` kernel call; the timing model's cache and DRAM
        state are read and written back as the reference would leave
        them."""
        timing = self.timing
        cache = timing.cache
        dram = timing.dram_model
        phase_kind = np.array(
            [ROUND_KINDS.get(p, ROUND_PLAIN) for p in flat.phases],
            dtype=np.int64,
        )
        state = np.array(
            [
                cache.distinct_accesses,
                0 if dram is None else dram.row_hits,
                0 if dram is None else dram.row_misses,
            ],
            dtype=np.int64,
        )
        ints, doubles = timing.kernel_config()
        out = replay(
            flat.parts, flat.cross, flat.wave_execs, flat.exec_rounds,
            flat.touched, flat.exec_phase, flat.rows, flat.round_phase,
            flat.blocks, phase_kind, ints, doubles, cache.stamp,
            None if dram is None else dram.open_rows, state,
            self.pipeline, self.threshold,
        )
        (events_popped, events_generated, edges_fetched, hits, misses,
         vertex_reads, vertex_writes, rounds, groups,
         early) = out.counts.tolist()
        cycles, dram_bytes, spill_bytes, switch_bytes = out.sums.tolist()
        cache.distinct_accesses = int(state[0])
        cache.hits += hits
        cache.misses += misses
        if dram is not None:
            dram.row_hits, dram.row_misses = int(state[1]), int(state[2])
        counters = SimCounters(
            events_popped=events_popped,
            events_generated=events_generated,
            edges_fetched=edges_fetched,
            edge_block_hits=hits,
            edge_block_misses=misses,
            vertex_reads=vertex_reads,
            vertex_writes=vertex_writes,
            dram_bytes=dram_bytes,
            spill_bytes=spill_bytes,
            partition_switch_bytes=switch_bytes,
            rounds=rounds,
        )
        phase_cycles = out.phase_cycles.tolist()
        order = sorted(
            (seq, p) for p, seq in enumerate(out.phase_seq.tolist())
            if seq >= 0
        )
        return ScheduleOutcome(
            cycles=cycles,
            counters=counters,
            phase_cycles={flat.phases[p]: phase_cycles[p] for __, p in order},
            round_groups=groups,
            waves_injected_early=early,
            wave_cycles=_wave_cycles(
                flat.labels, out.wave_marks.tolist(), cycles
            ),
        )


def _wave_cycles(
    labels: list[str], marks: list[float], end: float
) -> list[tuple[str, float]]:
    """(label, cycles) of each labelled wave, from the cycle count at
    each wave's activation (``marks``) and at the end."""
    ends = marks[1:] + [end]
    return [
        (label, stop - start)
        for label, start, stop in zip(labels, marks, ends)
        if label
    ]
