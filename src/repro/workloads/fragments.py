"""Data-access fragments: the sharing behaviors the paper's taxonomy
(Figure 1) distinguishes.

Each fragment is a generator composed with ``yield from``; all flush
the blocks they build.  The important sharing archetypes:

* ``private_work``     — cache-resident compute; update-silent stores
  injected at a controllable rate (duplicate stores of the just-written
  value).
* ``stream_walk``      — line-stride walk of a footprint larger than
  the L2: capacity misses (specjbb's dominant class).
* ``read_shared``      — read-mostly shared data.
* ``false_share_update`` — each thread stores only its own word of
  shared lines: pure false sharing (LVP's ancillary target, §3.1).
* ``ts_flag_pulse``    — store flag=1, work, store flag=0 with *plain*
  stores: a temporally silent pair outside any locking idiom (MESTI
  captures it, SLE cannot — §5.3.2's "not all TSS occurs in
  synchronization references").
* ``migratory_update`` — lock-protected object whose data genuinely
  changes: the lock's silent pair is capturable, the data movement is
  true sharing.
* ``conservative_cs``  — a single global lock guarding per-thread
  *disjoint* data: the over-conservative locking SLE transparently
  parallelizes (raytrace's win).
* ``kernel_section``   — kernel-style lock (shared PC, isync) around a
  small critical section.
"""

from __future__ import annotations

from repro.common.rng import SplitRng
from repro.cpu.program import BlockBuilder
from repro.workloads.locks import acquire_lock, release_lock
from repro.workloads.regions import Region

_VALUE_SPACE = 1 << 30


def private_work(
    b: BlockBuilder,
    rng: SplitRng,
    region: Region,
    n_ops: int,
    us_prob: float = 0.1,
    store_frac: float = 0.25,
    load_frac: float = 0.35,
):
    """One block of cache-resident compute over a private region."""
    regs: list[int] = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < load_frac:
            dst = b.fresh()
            b.load(region.word(rng.randrange(region.lines), rng.randrange(8)), dst)
            regs.append(dst)
        elif roll < load_frac + store_frac:
            addr = region.word(rng.randrange(region.lines), rng.randrange(8))
            value = rng.randrange(1, _VALUE_SPACE)
            b.store(addr, value)
            if rng.random() < us_prob:
                b.store(addr, value)  # guaranteed update-silent store
        else:
            srcs = tuple(regs[-rng.randrange(0, 3):]) if regs else ()
            dst = b.fresh()
            b.alu(dst, srcs, latency=1)
            regs.append(dst)
        if len(regs) > 8:
            del regs[:-8]
    yield b.take()


def dependent_walk(
    b: BlockBuilder,
    rng: SplitRng,
    regions: "list[tuple[Region, int | None]]",
    root_word: int | None = None,
):
    """A pointer-chasing walk: each load's address depends on the
    previous load's value (modeled as a timing dependence).

    ``regions`` lists ``(region, word)`` hops; ``word=None`` picks a
    random word.  When the root load hits a temporally-silent or
    falsely-shared line, LVP's early value delivery lets the dependent
    misses issue a full round-trip earlier — the paper's §3 benefit.
    """
    prev = None
    for region, word in regions:
        line = rng.randrange(region.lines)
        w = word if word is not None else rng.randrange(8)
        dst = b.fresh()
        b.load(region.word(line, w), dst, sregs=(prev,) if prev is not None else ())
        prev = dst
    b.alu(b.fresh(), (prev,), latency=1)
    yield b.take()


def compute_chain(b: BlockBuilder, n_ops: int, latency: int = 3):
    """A dependent ALU chain: serial compute (FP math, traversal).

    Unlike :func:`private_work`, this cannot be hidden by width — it
    models the ray-intersection / per-tuple computation that keeps a
    thread busy between synchronization episodes.

    The block (at least one op) is a prefix of one shared chain per
    latency, built once (:meth:`~repro.cpu.program.BlockBuilder.alu_chain`).
    """
    b.alu_chain(n_ops, latency)
    yield b.take()


def stream_walk(
    b: BlockBuilder,
    state: dict,
    region: Region,
    n_lines: int,
    write_frac: float = 0.3,
    rng: SplitRng | None = None,
):
    """Walk ``n_lines`` of a large region at line stride (capacity misses)."""
    cursor = state.setdefault("stream_cursor", 0)
    for i in range(n_lines):
        addr = region.word(cursor, 0)
        if rng is not None and rng.random() < write_frac:
            b.store(addr, cursor + 1)
        else:
            b.load(addr, b.fresh())
        cursor = (cursor + 1) % region.lines
        if (i + 1) % 16 == 0:
            yield b.take()
    state["stream_cursor"] = cursor
    if b.pending:
        yield b.take()


def read_shared(b: BlockBuilder, rng: SplitRng, region: Region, n_ops: int):
    """Read-mostly accesses to shared data."""
    for _ in range(n_ops):
        b.load(region.word(rng.randrange(region.lines), rng.randrange(8)), b.fresh())
    yield b.take()


def false_share_update(
    b: BlockBuilder, rng: SplitRng, region: Region, tid: int, n_ops: int
):
    """Per-thread word updates inside lines shared with other threads."""
    for _ in range(n_ops):
        addr = region.word(rng.randrange(region.lines), tid)
        dst = b.fresh()
        b.load(addr, dst)
        b.store(addr, rng.randrange(1, _VALUE_SPACE), sregs=(dst,))
    yield b.take()


def ts_flag_pulse(
    b: BlockBuilder, flag_addr: int, work_ops: int = 6, busy_value: int = 1
):
    """A plain-store temporally silent pair: flag up, work, flag down."""
    b.store(flag_addr, busy_value)
    for _ in range(work_ops):
        b.alu(latency=1)
    b.store(flag_addr, 0)
    yield b.take()


def migratory_update(
    b: BlockBuilder,
    rng: SplitRng,
    lock_addr: int,
    data: Region,
    tid: int,
    pc: int,
    n_words: int = 4,
    kernel: bool = False,
    unsafe_isync_prob: float = 0.0,
):
    """Lock-protected read-modify-write of genuinely changing data."""
    yield from acquire_lock(
        b, rng, lock_addr, pc, held=tid + 1, kernel=kernel,
        unsafe_isync_prob=unsafe_isync_prob,
    )
    for i in range(n_words):
        line = rng.randrange(data.lines)
        word = rng.randrange(8)
        dst = b.fresh()
        b.load(data.word(line, word), dst)
        b.store(data.word(line, word), rng.randrange(1, _VALUE_SPACE), sregs=(dst,))
    release_lock(b, lock_addr, pc=pc + 4)
    yield b.take()


def conservative_cs(
    b: BlockBuilder,
    rng: SplitRng,
    lock_addr: int,
    slabs: Region,
    tid: int,
    n_threads: int,
    pc: int,
    n_ops: int = 6,
):
    """Global lock around per-thread *disjoint* data (SLE's best case)."""
    lines_per_thread = max(1, slabs.lines // n_threads)
    first = tid * lines_per_thread
    yield from acquire_lock(b, rng, lock_addr, pc, held=tid + 1)
    for _ in range(n_ops):
        line = first + rng.randrange(lines_per_thread)
        word = rng.randrange(8)
        if rng.random() < 0.5:
            b.load(slabs.word(line, word), b.fresh())
        else:
            b.store(slabs.word(line, word), rng.randrange(1, _VALUE_SPACE))
    release_lock(b, lock_addr, pc=pc + 4)
    yield b.take()


def kernel_section(
    b: BlockBuilder,
    rng: SplitRng,
    lock_addr: int,
    data: Region,
    pc: int,
    tid: int,
    n_ops: int = 3,
    unsafe_isync_prob: float = 0.02,
):
    """Kernel-style critical section: shared-PC lock + isync + tiny CS."""
    yield from acquire_lock(
        b, rng, lock_addr, pc, held=tid + 1, kernel=True,
        unsafe_isync_prob=unsafe_isync_prob,
    )
    for _ in range(n_ops):
        line = rng.randrange(data.lines)
        dst = b.fresh()
        b.load(data.word(line, 0), dst)
        b.store(data.word(line, 1), rng.randrange(1, _VALUE_SPACE), sregs=(dst,))
    release_lock(b, lock_addr, pc=pc + 4)
    yield b.take()
