"""Reference batch kernel for the columnar engine (pure Python).

``run_batch`` executes one LLC's queue of access runs, issued in
program order by any of the core paths sharing that LLC, against the
columnar cache state — flat ``tags`` / ``dirty`` / ``age`` arrays —
with exactly the per-line algorithm of :meth:`CorePath.access_line`:
private probe,
dirty-victim write-back into the LLC, demand LLC access, memory-write
propagation.  Counters come out bit-identical to the per-line engine
because this *is* the per-line engine, re-expressed over arrays.

The function is written as scalar loops over flat integer buffers,
with no Python objects, so the same source serves two backends:

* interpreted, as the always-available correctness fallback (hosts
  without a C compiler run it) and the differential reference for the
  compiled kernel;
* a line-for-line C translation (:mod:`repro.machine.nativekernel`),
  the backend the default ``columnar`` engine loads when it can.

Array contract (all int64 unless noted; any indexable buffer works —
the columnar engine passes its ``array('q')`` queues and flat numpy
views as they are, and the C kernel receives the same buffers by
address):

``scal``
    ``[n_runs, p_sets, p_ways, l_sets, l_ways, l2_hit, llc_hit,
    n_segs, l_clock, has_private, home_node, lat_local, lat_remote,
    node_shift, n_slots]``.  The clock is the LLC's monotonic LRU
    counter; strictly increasing ages make every LRU choice unique, so
    there is no tie-breaking to get wrong.  ``node_shift`` turns a line
    address into its home node id.  Every slot shares one private-cache
    geometry (``p_sets`` x ``p_ways``, or none when ``has_private`` is
    0).
``q_base`` / ``q_count`` / ``q_write``
    The LLC's run queue, ``n_runs`` entries each, in program order:
    first line, line count, and write flag (0/1).  A run never crosses
    a page, so it has one home node; the kernel derives node,
    remoteness and memory latency per run from ``scal``.
``q_seg``
    ``n_segs`` segment starts as ``(first_run, slot)`` pairs, flat.
    Segment ``i`` is runs ``q_seg[2i]`` up to the next segment's first
    run (the last one up to ``n_runs``), all issued by core path
    ``slot``; ``q_seg[0]`` is 0.  A slot may own any number of
    segments, interleaved with other slots'.
``slots``
    The slot table: ``pt, pd, pa`` for each slot in turn
    (``slots[3 * slot + k]``), that slot's private tag/dirty/age
    matrices.  Unused when ``has_private`` is 0.
``lt/ld/la``
    The LLC's tag/dirty/age matrices.  Tags are int64 (``-1`` =
    invalid way), dirty bits uint8, ages int64; every matrix is
    flattened row-major ``[set * ways + way]``.
``victims``
    Out: line addresses written back to memory, in eviction order.
    Callers size it at two entries per queued line (the worst case:
    one LLC install victim plus one demand victim).
``out``
    Out (length 32), overwritten: the LLC and machine-wide results,
    ``[l_hits, l_misses, l_evictions, l_dirty_evictions, n_victims,
    l_clock', qpi_crossings, 0 .. 0, reads_node0 .. reads_node15]``
    (node reads from slot 16).
``slot_out``
    In/out, ``SLOT_SIZE`` entries per slot for ``n_slots`` slots:
    ``[p_hits, p_misses, p_evictions, p_dirty_evictions, cycles,
    p_clock, 0, 0]``.  On entry only ``p_clock`` is read (each slot's
    private LRU clock); every other entry is overwritten, and
    ``p_clock`` comes back advanced.
"""

from __future__ import annotations

from typing import Any

#: Any int-indexable buffer: ``array('q')``, a flat numpy view.
Buffer = Any

# out[] slot indices, mirrored by the C kernel.
OUT_L_HITS = 0
OUT_L_MISSES = 1
OUT_L_EVICTIONS = 2
OUT_L_DIRTY = 3
OUT_N_VICTIMS = 4
OUT_L_CLOCK = 5
OUT_QPI = 6
OUT_READS_BASE = 16
OUT_SIZE = 32
# slot_out[] entry indices within one slot's block, mirrored by C.
SLOT_P_HITS = 0
SLOT_P_MISSES = 1
SLOT_P_EVICTIONS = 2
SLOT_P_DIRTY = 3
SLOT_CYCLES = 4
SLOT_P_CLOCK = 5
SLOT_SIZE = 8
#: Length of the ``scal`` vector.
SCAL_SIZE = 15
#: Node ids the kernels can attribute reads to (out[] slots 16..31).
MAX_NODES = OUT_SIZE - OUT_READS_BASE


def run_batch(scal: Buffer, q_base: Buffer, q_count: Buffer,
              q_write: Buffer, q_seg: Buffer, slots: Buffer, lt: Buffer,
              ld: Buffer, la: Buffer, victims: Buffer, out: Buffer,
              slot_out: Buffer) -> None:  # noqa: C901
    """Execute one LLC's queue of access runs; see the module docstring."""
    for index in range(len(out)):
        out[index] = 0
    n_runs = scal[0]
    p_sets = scal[1]
    p_ways = scal[2]
    l_sets = scal[3]
    l_ways = scal[4]
    l2_hit = scal[5]
    llc_hit = scal[6]
    n_segs = scal[7]
    l_clock = scal[8]
    has_private = scal[9]
    home_node = scal[10]
    lat_local = scal[11]
    lat_remote = scal[12]
    node_shift = scal[13]
    n_slots = scal[14]
    for slot in range(n_slots):
        so = slot * SLOT_SIZE
        for index in range(SLOT_SIZE):
            if index != SLOT_P_CLOCK:
                slot_out[so + index] = 0
    n_victims = 0
    for seg in range(n_segs):
        # Switch to the segment's core path: its private matrices, its
        # clock, its counters.  The LLC state carries straight over.
        first_run = q_seg[2 * seg]
        slot = q_seg[2 * seg + 1]
        end_run = q_seg[2 * seg + 2] if seg + 1 < n_segs else n_runs
        so = slot * SLOT_SIZE
        if has_private != 0:
            pt = slots[3 * slot]
            pd = slots[3 * slot + 1]
            pa = slots[3 * slot + 2]
        p_clock = slot_out[so + SLOT_P_CLOCK]
        cycles = 0
        for r in range(first_run, end_run):
            base = q_base[r]
            count = q_count[r]
            is_write = q_write[r]
            node = base >> node_shift
            remote = 1 if node != home_node else 0
            mem_latency = lat_remote if remote != 0 else lat_local
            if has_private != 0:
                p_si = base % p_sets
                p_tag = base // p_sets
                for i in range(count):
                    line = base + i
                    p_row = p_si * p_ways
                    hit_w = -1
                    free_w = -1
                    for w in range(p_ways):
                        t = pt[p_row + w]
                        if t == p_tag:
                            hit_w = w
                            break
                        if free_w < 0 and t == -1:
                            free_w = w
                    if hit_w >= 0:
                        if is_write != 0:
                            pd[p_row + hit_w] = 1
                        pa[p_row + hit_w] = p_clock
                        p_clock += 1
                        slot_out[so + SLOT_P_HITS] += 1
                        cycles += l2_hit
                    else:
                        slot_out[so + SLOT_P_MISSES] += 1
                        if free_w < 0:
                            # LRU victim: the way with the oldest age.
                            free_w = 0
                            best = pa[p_row]
                            for w in range(1, p_ways):
                                if pa[p_row + w] < best:
                                    best = pa[p_row + w]
                                    free_w = w
                            slot_out[so + SLOT_P_EVICTIONS] += 1
                            if pd[p_row + free_w] != 0:
                                slot_out[so + SLOT_P_DIRTY] += 1
                                # Write-back into the LLC
                                # (install_dirty): re-ages on hit, may
                                # displace a dirty LLC line all the way
                                # to memory.
                                victim = pt[p_row + free_w] * p_sets + p_si
                                wb_si = victim % l_sets
                                wb_tag = victim // l_sets
                                wb_row = wb_si * l_ways
                                wb_hit = -1
                                wb_free = -1
                                for w in range(l_ways):
                                    t = lt[wb_row + w]
                                    if t == wb_tag:
                                        wb_hit = w
                                        break
                                    if wb_free < 0 and t == -1:
                                        wb_free = w
                                if wb_hit < 0:
                                    if wb_free < 0:
                                        wb_free = 0
                                        best = la[wb_row]
                                        for w in range(1, l_ways):
                                            if la[wb_row + w] < best:
                                                best = la[wb_row + w]
                                                wb_free = w
                                        out[OUT_L_EVICTIONS] += 1
                                        if ld[wb_row + wb_free] != 0:
                                            out[OUT_L_DIRTY] += 1
                                            victims[n_victims] = (
                                                lt[wb_row + wb_free]
                                                * l_sets + wb_si)
                                            n_victims += 1
                                    wb_hit = wb_free
                                    lt[wb_row + wb_hit] = wb_tag
                                ld[wb_row + wb_hit] = 1
                                la[wb_row + wb_hit] = l_clock
                                l_clock += 1
                        pt[p_row + free_w] = p_tag
                        pd[p_row + free_w] = 1 if is_write != 0 else 0
                        pa[p_row + free_w] = p_clock
                        p_clock += 1
                        # Demand fill from the LLC — always clean: LLC
                        # dirty bits come solely from install_dirty.
                        l_si = line % l_sets
                        l_tag = line // l_sets
                        l_row = l_si * l_ways
                        l_hit = -1
                        l_free = -1
                        for w in range(l_ways):
                            t = lt[l_row + w]
                            if t == l_tag:
                                l_hit = w
                                break
                            if l_free < 0 and t == -1:
                                l_free = w
                        if l_hit >= 0:
                            # Demand hit keeps the existing dirty bit.
                            la[l_row + l_hit] = l_clock
                            l_clock += 1
                            out[OUT_L_HITS] += 1
                            cycles += llc_hit
                        else:
                            out[OUT_L_MISSES] += 1
                            if l_free < 0:
                                l_free = 0
                                best = la[l_row]
                                for w in range(1, l_ways):
                                    if la[l_row + w] < best:
                                        best = la[l_row + w]
                                        l_free = w
                                out[OUT_L_EVICTIONS] += 1
                                if ld[l_row + l_free] != 0:
                                    out[OUT_L_DIRTY] += 1
                                    victims[n_victims] = (
                                        lt[l_row + l_free] * l_sets + l_si)
                                    n_victims += 1
                            lt[l_row + l_free] = l_tag
                            ld[l_row + l_free] = 0
                            la[l_row + l_free] = l_clock
                            l_clock += 1
                            out[OUT_READS_BASE + node] += 1
                            if remote != 0:
                                out[OUT_QPI] += 1
                            cycles += mem_latency
                    p_si += 1
                    if p_si == p_sets:
                        p_si = 0
                        p_tag += 1
            else:
                # No private level: demand runs hit the LLC directly and
                # writes dirty it (CacheLevel.access semantics).
                for i in range(count):
                    line = base + i
                    l_si = line % l_sets
                    l_tag = line // l_sets
                    l_row = l_si * l_ways
                    l_hit = -1
                    l_free = -1
                    for w in range(l_ways):
                        t = lt[l_row + w]
                        if t == l_tag:
                            l_hit = w
                            break
                        if l_free < 0 and t == -1:
                            l_free = w
                    if l_hit >= 0:
                        if is_write != 0:
                            ld[l_row + l_hit] = 1
                        la[l_row + l_hit] = l_clock
                        l_clock += 1
                        out[OUT_L_HITS] += 1
                        cycles += llc_hit
                    else:
                        out[OUT_L_MISSES] += 1
                        if l_free < 0:
                            l_free = 0
                            best = la[l_row]
                            for w in range(1, l_ways):
                                if la[l_row + w] < best:
                                    best = la[l_row + w]
                                    l_free = w
                            out[OUT_L_EVICTIONS] += 1
                            if ld[l_row + l_free] != 0:
                                out[OUT_L_DIRTY] += 1
                                victims[n_victims] = (
                                    lt[l_row + l_free] * l_sets + l_si)
                                n_victims += 1
                        lt[l_row + l_free] = l_tag
                        ld[l_row + l_free] = 1 if is_write != 0 else 0
                        la[l_row + l_free] = l_clock
                        l_clock += 1
                        out[OUT_READS_BASE + node] += 1
                        if remote != 0:
                            out[OUT_QPI] += 1
                        cycles += mem_latency
        slot_out[so + SLOT_CYCLES] += cycles
        slot_out[so + SLOT_P_CLOCK] = p_clock
    out[OUT_N_VICTIMS] = n_victims
    out[OUT_L_CLOCK] = l_clock
