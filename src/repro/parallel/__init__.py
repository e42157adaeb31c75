"""Process-parallel execution layer.

Three pieces, built on one :class:`~repro.parallel.pool.ProcessPool`
abstraction:

- **parallel sweeps** (:mod:`repro.parallel.sweep`): each (dataset, model,
  seed) cell of a benchmark sweep trains in a worker subprocess and returns
  its model as model archive bytes, with deterministic per-cell seed
  spawning, structured failure records, and per-cell wall/CPU timing;
- **sharded generation** (:mod:`repro.parallel.generation`): a generation
  request is split into fixed blocks whose noise is drawn up front in the
  parent, so ``generate(n, workers=k)`` is bit-identical for every ``k``;
- **result caching** (:mod:`repro.parallel.cache`): trained sweep cells
  are stored on disk as model archives keyed by (config hash, dataset
  fingerprint, seed), so repeated sweeps skip finished cells.

See docs/architecture.md ("Parallel execution") for the worker model and
the determinism contract.
"""

from repro.parallel.cache import (SweepCache, cell_cache_key,
                                  config_fingerprint, dataset_fingerprint)
from repro.parallel.generation import (BlockPlan, generate_encoded_sharded,
                                       plan_blocks)
from repro.parallel.pool import ProcessPool, effective_workers, start_method
from repro.parallel.sweep import (CellOutcome, CellTiming, SweepCell,
                                  build_cells, run_cells)

__all__ = [
    "ProcessPool", "effective_workers", "start_method",
    "SweepCache", "cell_cache_key", "config_fingerprint",
    "dataset_fingerprint",
    "BlockPlan", "plan_blocks", "generate_encoded_sharded",
    "SweepCell", "CellTiming", "CellOutcome", "build_cells", "run_cells",
]
