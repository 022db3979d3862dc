"""Optional C batch kernel for the columnar engine (ctypes-loaded).

A line-for-line translation of :func:`repro.machine.pykernel.run_batch`
into C, compiled once per source hash with the host C compiler into a
small shared object and loaded with :mod:`ctypes`, bound once with
raw-pointer arguments.  No build step and no new Python dependency: if
there is no working compiler (or ``REPRO_NO_CC`` is set),
:func:`load_native_kernel` returns ``None`` and the engine falls back
to the interpreted kernel, bit-identically but several times slower.

The compiled object is cached under ``$REPRO_KERNEL_CACHE`` (default:
a ``repro-kernel-cache`` directory in the system temp dir), keyed by
the SHA-256 of the source, so editing the C below transparently
rebuilds and stale objects are never reused.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional

#: Kill switch: set to any non-empty value to skip compilation and use
#: the interpreted kernel (useful for differential-testing the C one).
NO_CC_ENV = "REPRO_NO_CC"
#: Where compiled kernels are cached between runs.
CACHE_ENV = "REPRO_KERNEL_CACHE"
#: Folded into the cache key so flag changes rebuild cached objects.
_BUILD_TAG = "march-native-1|"

_C_SOURCE = r"""
#include <stdint.h>

/* Batch kernel for the columnar cache engine.  The algorithm is the
 * per-line access path of CorePath.access_line, verbatim: private
 * probe, dirty-victim write-back into the LLC (install_dirty), demand
 * LLC fill, memory-write propagation, over one LLC's queue whose
 * segments switch between the private caches of the core paths that
 * share it.  Array layouts, the slot table and the out[]/slot_out[]
 * entries are documented in repro/machine/pykernel.py, whose results
 * this file reproduces bit for bit.  The only deviations are mechanical:
 * every set probe is one fused pass that finds the matching way, the
 * first invalid way, and the minimum-age way together (the reference
 * makes up to three passes), and set indices for the straight-line
 * demand walk advance incrementally instead of dividing per line.
 * Ages are strictly increasing, so the min-age way is unique and the
 * fused pass picks the same victim as the reference's argmin. */

#define OUT_L_HITS      0
#define OUT_L_MISSES    1
#define OUT_L_EVICTIONS 2
#define OUT_L_DIRTY     3
#define OUT_N_VICTIMS   4
#define OUT_L_CLOCK     5
#define OUT_QPI         6
#define OUT_READS_BASE  16
#define OUT_SIZE        32

#define SLOT_P_HITS      0
#define SLOT_P_MISSES    1
#define SLOT_P_EVICTIONS 2
#define SLOT_P_DIRTY     3
#define SLOT_CYCLES      4
#define SLOT_P_CLOCK     5
#define SLOT_SIZE        8

/* Hit probe: the way holding `tag`, or -1.  Written as a branch-free
 * conditional select so the compiler can vectorize the 16-way int64
 * compare (a tag is present at most once, so "last match" == "the
 * match"). */
static inline __attribute__((always_inline))
int64_t find_way(const int64_t *restrict tags,
                 int64_t ways, int64_t tag)
{
    int64_t hw = -1;
    for (int64_t w = 0; w < ways; w++)
        hw = (tags[w] == tag) ? w : hw;
    return hw;
}

/* Miss-path victim choice, one fused pass: the first invalid way if
 * any, else the minimum-age way.  Ages are unique, so the min-age way
 * is exactly the reference implementation's argmin. */
static inline __attribute__((always_inline))
void pick_victim(const int64_t *restrict tags,
                 const int64_t *restrict ages,
                 int64_t ways,
                 int64_t *free_w, int64_t *vic_w)
{
    int64_t fw = -1, vw = 0;
    int64_t best = ages[0];
    for (int64_t w = 0; w < ways; w++) {
        if (fw < 0 && tags[w] == -1) fw = w;
        if (ages[w] < best) { best = ages[w]; vw = w; }
    }
    *free_w = fw;
    *vic_w = vw;
}

/* The whole batch loop, parameterised on the way counts.  Forced
 * inline into each caller below so a call site passing literal way
 * counts gets the scan loops fully unrolled and vectorized (16-way
 * int64 compares become a handful of SIMD ops).  Counters live in
 * locals: the LLC's for the whole batch, a slot's for one segment. */
static inline __attribute__((always_inline))
void run_batch_impl(const int64_t *restrict scal,
                    const int64_t *restrict q_base,
                    const int64_t *restrict q_count,
                    const int64_t *restrict q_write,
                    const int64_t *restrict q_seg,
                    const int64_t *restrict slots,
                    int64_t *restrict lt, uint8_t *restrict ld,
                    int64_t *restrict la,
                    int64_t *restrict victims, int64_t *restrict out,
                    int64_t *restrict slot_out,
                    const int64_t p_ways, const int64_t l_ways)
{
    const int64_t n_runs = scal[0];
    const int64_t p_sets = scal[1];
    const int64_t l_sets = scal[3];
    const int64_t l2_hit = scal[5], llc_hit = scal[6];
    const int64_t n_segs = scal[7];
    int64_t l_clock = scal[8];
    const int64_t has_private = scal[9];
    const int64_t home_node = scal[10];
    const int64_t lat_local = scal[11], lat_remote = scal[12];
    const int64_t node_shift = scal[13];
    const int64_t n_slots = scal[14];
    int64_t n_victims = 0;
    int64_t l_hits = 0, l_misses = 0, l_evictions = 0, l_dirty = 0;

    for (int64_t s = 0; s < OUT_SIZE; s++) out[s] = 0;
    for (int64_t s = 0; s < n_slots; s++) {
        int64_t *so = slot_out + s * SLOT_SIZE;
        for (int64_t k = 0; k < SLOT_SIZE; k++)
            if (k != SLOT_P_CLOCK) so[k] = 0;
    }
    for (int64_t seg = 0; seg < n_segs; seg++) {
        /* Switch to the segment's core path: its private matrices,
         * clock and counters.  The LLC state carries straight over. */
        const int64_t first_run = q_seg[2 * seg];
        const int64_t slot = q_seg[2 * seg + 1];
        const int64_t end_run =
            seg + 1 < n_segs ? q_seg[2 * seg + 2] : n_runs;
        int64_t *restrict so = slot_out + slot * SLOT_SIZE;
        int64_t *restrict pt = (int64_t *)(intptr_t)slots[3 * slot];
        uint8_t *restrict pd = (uint8_t *)(intptr_t)slots[3 * slot + 1];
        int64_t *restrict pa = (int64_t *)(intptr_t)slots[3 * slot + 2];
        int64_t p_clock = so[SLOT_P_CLOCK];
        int64_t p_hits = 0, p_misses = 0, p_evictions = 0, p_dirty = 0;
        int64_t cycles = 0;
        for (int64_t r = first_run; r < end_run; r++) {
            const int64_t base = q_base[r];
            const int64_t count = q_count[r];
            const int64_t is_write = q_write[r];
            const int64_t node = base >> node_shift;
            const int64_t remote = node != home_node;
            const int64_t mem_latency = remote ? lat_remote : lat_local;
            /* Consecutive lines walk consecutive sets: advance the set
             * index and wrap the tag incrementally, no div/mod per
             * line. */
            int64_t l_si = base % l_sets;
            int64_t l_tag = base / l_sets;
            if (has_private) {
                int64_t p_si = base % p_sets;
                int64_t p_tag = base / p_sets;
                for (int64_t i = 0; i < count; i++) {
                    const int64_t p_row = p_si * p_ways;
                    const int64_t hit_w = find_way(pt + p_row, p_ways,
                                                   p_tag);
                    if (hit_w >= 0) {
                        if (is_write) pd[p_row + hit_w] = 1;
                        pa[p_row + hit_w] = p_clock++;
                        p_hits++;
                        cycles += l2_hit;
                    } else {
                        p_misses++;
                        int64_t free_w, vic_w;
                        pick_victim(pt + p_row, pa + p_row, p_ways,
                                    &free_w, &vic_w);
                        if (free_w < 0) {
                            free_w = vic_w;
                            p_evictions++;
                            if (pd[p_row + free_w]) {
                                p_dirty++;
                                const int64_t victim =
                                    pt[p_row + free_w] * p_sets + p_si;
                                const int64_t wb_si = victim % l_sets;
                                const int64_t wb_tag = victim / l_sets;
                                const int64_t wb_row = wb_si * l_ways;
                                int64_t wb_hit = find_way(lt + wb_row,
                                                          l_ways, wb_tag);
                                if (wb_hit < 0) {
                                    int64_t wb_free, wb_vic;
                                    pick_victim(lt + wb_row, la + wb_row,
                                                l_ways, &wb_free,
                                                &wb_vic);
                                    if (wb_free < 0) {
                                        wb_free = wb_vic;
                                        l_evictions++;
                                        if (ld[wb_row + wb_free]) {
                                            l_dirty++;
                                            victims[n_victims++] =
                                                lt[wb_row + wb_free]
                                                * l_sets + wb_si;
                                        }
                                    }
                                    wb_hit = wb_free;
                                    lt[wb_row + wb_hit] = wb_tag;
                                }
                                ld[wb_row + wb_hit] = 1;
                                la[wb_row + wb_hit] = l_clock++;
                            }
                        }
                        pt[p_row + free_w] = p_tag;
                        pd[p_row + free_w] = is_write ? 1 : 0;
                        pa[p_row + free_w] = p_clock++;
                        const int64_t l_row = l_si * l_ways;
                        const int64_t l_hit = find_way(lt + l_row, l_ways,
                                                       l_tag);
                        if (l_hit >= 0) {
                            la[l_row + l_hit] = l_clock++;
                            l_hits++;
                            cycles += llc_hit;
                        } else {
                            l_misses++;
                            int64_t l_free, l_vic;
                            pick_victim(lt + l_row, la + l_row, l_ways,
                                        &l_free, &l_vic);
                            if (l_free < 0) {
                                l_free = l_vic;
                                l_evictions++;
                                if (ld[l_row + l_free]) {
                                    l_dirty++;
                                    victims[n_victims++] =
                                        lt[l_row + l_free] * l_sets + l_si;
                                }
                            }
                            lt[l_row + l_free] = l_tag;
                            ld[l_row + l_free] = 0;
                            la[l_row + l_free] = l_clock++;
                            out[OUT_READS_BASE + node]++;
                            if (remote) out[OUT_QPI]++;
                            cycles += mem_latency;
                        }
                    }
                    if (++p_si == p_sets) { p_si = 0; p_tag++; }
                    if (++l_si == l_sets) { l_si = 0; l_tag++; }
                }
            } else {
                for (int64_t i = 0; i < count; i++) {
                    const int64_t l_row = l_si * l_ways;
                    const int64_t l_hit = find_way(lt + l_row, l_ways,
                                                   l_tag);
                    if (l_hit >= 0) {
                        if (is_write) ld[l_row + l_hit] = 1;
                        la[l_row + l_hit] = l_clock++;
                        l_hits++;
                        cycles += llc_hit;
                    } else {
                        l_misses++;
                        int64_t l_free, l_vic;
                        pick_victim(lt + l_row, la + l_row, l_ways,
                                    &l_free, &l_vic);
                        if (l_free < 0) {
                            l_free = l_vic;
                            l_evictions++;
                            if (ld[l_row + l_free]) {
                                l_dirty++;
                                victims[n_victims++] =
                                    lt[l_row + l_free] * l_sets + l_si;
                            }
                        }
                        lt[l_row + l_free] = l_tag;
                        ld[l_row + l_free] = is_write ? 1 : 0;
                        la[l_row + l_free] = l_clock++;
                        out[OUT_READS_BASE + node]++;
                        if (remote) out[OUT_QPI]++;
                        cycles += mem_latency;
                    }
                    if (++l_si == l_sets) { l_si = 0; l_tag++; }
                }
            }
        }
        so[SLOT_P_HITS] += p_hits;
        so[SLOT_P_MISSES] += p_misses;
        so[SLOT_P_EVICTIONS] += p_evictions;
        so[SLOT_P_DIRTY] += p_dirty;
        so[SLOT_CYCLES] += cycles;
        so[SLOT_P_CLOCK] = p_clock;
    }
    out[OUT_L_HITS] = l_hits;
    out[OUT_L_MISSES] = l_misses;
    out[OUT_L_EVICTIONS] = l_evictions;
    out[OUT_L_DIRTY] = l_dirty;
    out[OUT_N_VICTIMS] = n_victims;
    out[OUT_L_CLOCK] = l_clock;
}

void repro_run_batch(const int64_t *restrict scal,
                     const int64_t *restrict q_base,
                     const int64_t *restrict q_count,
                     const int64_t *restrict q_write,
                     const int64_t *restrict q_seg,
                     const int64_t *restrict slots,
                     int64_t *restrict lt, uint8_t *restrict ld,
                     int64_t *restrict la,
                     int64_t *restrict victims, int64_t *restrict out,
                     int64_t *restrict slot_out)
{
    const int64_t p_ways = scal[2], l_ways = scal[4];
    /* Specialised clones for the default-scale geometries; the way
     * counts become compile-time constants inside the inlined body. */
    if (p_ways == 16 && l_ways == 16)
        run_batch_impl(scal, q_base, q_count, q_write, q_seg, slots, lt,
                       ld, la, victims, out, slot_out, 16, 16);
    else if (p_ways == 8 && l_ways == 8)
        run_batch_impl(scal, q_base, q_count, q_write, q_seg, slots, lt,
                       ld, la, victims, out, slot_out, 8, 8);
    else
        run_batch_impl(scal, q_base, q_count, q_write, q_seg, slots, lt,
                       ld, la, victims, out, slot_out, p_ways, l_ways);
}
"""

#: Batch-kernel signature: ``scal``, the three run queues, the segment
#: starts, the slot table, the LLC tag/dirty/age state, ``victims``,
#: ``out`` and ``slot_out`` (see :func:`repro.machine.pykernel.run_batch`).
#: The interpreted kernel takes the buffers themselves; the C kernel
#: takes their addresses (plain ints), so a call converts no array
#: objects at all.
KernelFn = Callable[..., None]

#: Memoised load result: unset, or (kernel-or-None).
_LOADED: list = []


def _cache_dir() -> Path:
    configured = os.environ.get(CACHE_ENV)
    if configured:
        return Path(configured)
    return Path(tempfile.gettempdir()) / "repro-kernel-cache"


def _compile(cache: Path, digest: str) -> Path:
    """Compile the embedded source into ``cache``; returns the .so path."""
    lib_path = cache / f"colkernel-{digest}.so"
    if lib_path.is_file():
        return lib_path
    cache.mkdir(parents=True, exist_ok=True)
    source_path = cache / f"colkernel-{digest}.c"
    source_path.write_text(_C_SOURCE, encoding="utf-8")
    compiler = os.environ.get("CC", "cc")
    build_path = cache / f"colkernel-{digest}.{os.getpid()}.tmp.so"
    base_cmd = [compiler, "-O3", "-shared", "-fPIC", "-o", str(build_path),
                str(source_path)]
    try:
        # The cache directory is machine-local, so tuning for the host
        # CPU is safe and lets the way scans use the widest SIMD.
        subprocess.run(base_cmd + ["-march=native"],
                       check=True, capture_output=True, timeout=120)
    except subprocess.CalledProcessError:
        subprocess.run(base_cmd, check=True, capture_output=True,
                       timeout=120)
    # Atomic publish so concurrent builders never load a half-written
    # object; the loser's rename simply overwrites with identical bits.
    os.replace(build_path, lib_path)
    return lib_path


def load_native_kernel() -> Optional[KernelFn]:
    """The compiled batch kernel, or ``None`` when unavailable.

    Compilation happens at most once per process; failures (no
    compiler, sandboxed filesystem, ``REPRO_NO_CC`` set) are memoised
    as unavailable so the engine registry probes cheaply.
    """
    if _LOADED:
        return _LOADED[0]
    kernel: Optional[KernelFn] = None
    if not os.environ.get(NO_CC_ENV):
        try:
            digest = hashlib.sha256(
                (_BUILD_TAG + _C_SOURCE).encode("utf-8")).hexdigest()[:16]
            lib_path = _compile(_cache_dir(), digest)
            lib = ctypes.CDLL(str(lib_path))
            fn = lib.repro_run_batch
            # Raw pointers: callers pass buffer addresses as ints.
            fn.argtypes = [ctypes.c_void_p] * 12
            fn.restype = None
            kernel = fn
        except (OSError, subprocess.SubprocessError, ValueError):
            kernel = None
    _LOADED.append(kernel)
    return kernel
