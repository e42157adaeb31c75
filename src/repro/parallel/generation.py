"""Sharded (multi-process) generation for DoppelGANger.

Batched generation (Figure 4 of the paper) is embarrassingly parallel
across samples: the generator is a pure function of (parameters, noise).
This module splits a generation request into the same fixed *blocks* the
serial path uses -- at most ``batch_size`` samples each -- with every
block's noise tensors drawn from the caller's generator *in plan order,
in the parent process*, before any work is dispatched.  Each worker then
receives the model as a serialized state archive plus its blocks' noise,
and the results are reassembled in plan order.

Because workers never touch an RNG, ``generate(n, workers=k)`` is
bit-identical to ``generate(n)`` for every ``k`` -- and the serial path
consumes the caller's generator exactly as a plain batched loop would, so
adding ``workers=`` changed no previously-seeded output
(docs/architecture.md, "Parallel execution").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.observability import events as obs_events
from repro.parallel.pool import ProcessPool, effective_workers

__all__ = ["BlockPlan", "plan_blocks", "plan_request",
           "generate_encoded_sharded"]


@dataclass(frozen=True)
class BlockPlan:
    """One generation block: ``size`` samples using pre-drawn ``noise``."""

    size: int
    noise: tuple  # (z_a | None, z_m, z_f) arrays, drawn in the parent
    cond: np.ndarray | None  # encoded attribute rows, or None


def plan_blocks(n: int, batch_size: int) -> list[int]:
    """Block sizes for ``n`` samples: full batches plus a remainder."""
    if n < 0:
        raise ValueError("n must be >= 0")
    sizes = [batch_size] * (n // batch_size)
    if n % batch_size:
        sizes.append(n % batch_size)
    return sizes


def plan_request(model, n: int, rng: np.random.Generator,
                 attributes: np.ndarray | None = None) -> list[BlockPlan]:
    """Plan one generation request into blocks with pre-drawn noise.

    This is the single place a request is turned into model batches: the
    serial path, the sharded path, and the serving batcher all plan
    through it, so "the blocks of ``generate(n, seed)``" means the same
    thing everywhere.  Noise for every block is drawn from ``rng`` here,
    in plan order, which is what makes a request's output independent of
    where (or with what else) its blocks are later executed.

    Args:
        model: A trained :class:`~repro.core.doppelganger.DoppelGANger`.
        n: Number of objects requested.
        rng: The request's randomness source, consumed in plan order.
        attributes: Optional raw attribute rows (n, m) to condition on.
    """
    if attributes is not None and len(attributes) != n:
        raise ValueError("attributes must have n rows")
    sizes = plan_blocks(n, model.config.batch_size)
    blocks, done = [], 0
    for size in sizes:
        cond = None
        if attributes is not None:
            cond = model.encoder.encode_attributes(
                attributes[done:done + size])
        blocks.append(BlockPlan(
            size=size,
            noise=model._draw_block_noise(size, rng,
                                          conditioned=cond is not None),
            cond=cond))
        done += size
    return blocks


def _generate_shard(task) -> list[tuple]:
    """Worker entry: load the model from its state blob, run its blocks."""
    model_blob, blocks = task
    from repro.core.doppelganger import DoppelGANger

    model = DoppelGANger.load_bytes(model_blob)
    return [model._generate_block(b.size, b.noise, b.cond) for b in blocks]


def generate_encoded_sharded(model, blocks: list[BlockPlan],
                             workers: int) -> list[tuple]:
    """Run generation blocks across worker processes, in block order.

    Each worker receives the model as a serialized state archive
    (:meth:`DoppelGANger.save_bytes`) and a contiguous run of blocks;
    results are reassembled in plan order so the output is independent of
    the worker count.
    """
    workers = effective_workers(workers, len(blocks))
    groups = [list(g) for g in np.array_split(np.asarray(blocks,
                                                         dtype=object),
                                              workers) if len(g)]
    blob = model.save_bytes()
    # Shard layout depends on the requested worker count, so the event is
    # transient: it appears in the raw stream for debugging but never in
    # the canonical log, which must be worker-count invariant.
    obs_events.emit("generation.shard",
                    {}, volatile={"workers": workers,
                                  "shards": [len(g) for g in groups],
                                  "payload_bytes": len(blob)},
                    transient=True)
    tasks = [(blob, group) for group in groups]
    grouped = ProcessPool(workers).map(_generate_shard, tasks)
    return [triple for group in grouped for triple in group]
