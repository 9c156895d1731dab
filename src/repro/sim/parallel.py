"""Parallel trial execution over a process pool, deterministically seeded.

Every campaign in this repository, Monte-Carlo or event-driven, is
embarrassingly parallel: trials are independent by construction, because
each one draws from its own ``RngFactory(seed).generator(label, trial=t)``
stream.  Its one caller is :func:`repro.sim.runner.run_trials`.
:func:`map_trials` exploits exactly that structure — workers derive the
*same* per-trial generators the serial loop would have built, so a
parallel run with a given seed produces bit-identical results to a
serial run, regardless of worker count, chunking or scheduling order.

Requirements on tasks
---------------------
A task handed to :func:`map_trials` is called one way,
``task(gen, trial, context=...)``, and must be a *spawn-safe picklable
callable*: a top-level function, a bound method of a picklable object,
or a :func:`functools.partial` over either.  Plain ``lambda``\\ s work
for serial execution (``context.workers == 1``) but cannot cross a
process boundary; :func:`map_trials` raises a :class:`SimulationError` with that
diagnosis up front rather than letting the pool fail obscurely.

Start method
------------
The process pool starts with ``fork`` where the platform offers it
(workers inherit the parent's imports — near-zero startup) and ``spawn``
otherwise, and lives for one :func:`map_trials` call.  Tasks must stay
spawn-safe either way: nothing may depend on inherited process state,
since the same code must run on platforms where ``spawn`` is the only
option.  A collecting campaign's trial contexts cross that boundary
whole, both ways: the :meth:`RunContext.for_trial` template goes out
with each chunk, and each trial's context comes back with its result.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from ..exceptions import SimulationError
from ..obs.context import NULL_CONTEXT, RunContext
from ..rng import RngFactory

__all__ = ["map_trials", "resolve_workers", "resolve_seed"]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` request to a concrete positive count.

    ``None`` and ``1`` mean serial execution; ``0`` means one worker per
    CPU this process may run on (its affinity set, where the platform has
    one); any other positive integer is taken literally.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise SimulationError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1
    return int(workers)


def resolve_seed(seed: Optional[int]) -> int:
    """Pin ``seed`` down to a concrete integer.

    ``None`` draws fresh OS entropy — once, in the parent — so that
    every worker (and the serial fallback) derives the same per-trial
    streams within one campaign, and the resolved value can be recorded
    for later exact reruns.
    """
    if seed is None:
        return int(np.random.SeedSequence().entropy)
    return int(seed)


def _run_chunk(
    task: Callable[..., Any],
    seed: int,
    label: str,
    trial_indices: Sequence[int],
    context: Optional[RunContext] = None,
) -> List[Any]:
    """Run a contiguous block of trials (top-level: spawn-picklable).

    Rebuilds the :class:`RngFactory` from the resolved seed inside the
    worker, so each trial's generator is exactly the one the serial loop
    would have produced for the same ``(seed, label, trial)`` triple.

    ``context`` is the campaign context's :meth:`RunContext.for_trial`
    template (fresh instruments, so it pickles without the caller's
    callbacks).  With it, each trial runs under a fresh ``for_trial``
    context, and each entry of the returned list becomes
    ``(result, trial_context)``; the caller merges the trial contexts in
    trial order, which is what makes metrics, monitor output *and* trace
    output identical across worker counts.  Without it, every trial
    gets :data:`NULL_CONTEXT`.
    """
    factory = RngFactory(seed)
    results = []
    for t in trial_indices:
        gen = factory.generator(label, trial=t)
        if context is None:
            results.append(task(gen, t, context=NULL_CONTEXT))
        else:
            trial_context = context.for_trial(seed)
            outcome = task(gen, t, context=trial_context)
            results.append((outcome, trial_context))
    return results


#: Target number of pool tasks per worker: enough to keep the load
#: balanced, few enough to amortise dispatch.
CHUNKS_PER_WORKER = 4


def map_trials(
    task: Callable[..., Any],
    trials: int,
    *,
    seed: Optional[int],
    label: str,
    context: RunContext = NULL_CONTEXT,
) -> List[Any]:
    """Run ``task`` once per trial; results come back in trial order.

    ``task`` is called as ``task(gen, trial, context=trial_context)``,
    where ``gen`` is the ``(seed, label, trial)`` stream the serial loop
    would have used.  The task must consume only ``gen`` for randomness;
    that is what makes the fan-out order-invariant.

    ``context.workers`` follows :func:`resolve_workers` (``1`` serial
    in-process, ``0`` one process per CPU).  A parallel call opens a process pool,
    hands each worker about :data:`CHUNKS_PER_WORKER` contiguous blocks
    of trials, and shuts the pool down before it returns.

    With a ``context`` that collects (any of its metrics, monitor or
    flight recorder enabled), every trial's ``trial_context`` is a fresh
    :meth:`RunContext.for_trial` context built inside the worker, and
    the trial contexts merge back via :meth:`RunContext.merge_trial`
    once all trials are in — in trial order, never completion order, so
    aggregate metrics, event logs, alert streams, trace JSONL and
    suspects blocks are identical for every worker count.  The recorder
    is keyed on the resolved campaign seed, so its hash samplers admit
    exactly the requests the serial loop would.  A ``context`` that
    records nothing hands every trial :data:`NULL_CONTEXT`.
    """
    if trials < 1:
        raise SimulationError(f"need at least one trial, got {trials}")
    workers = resolve_workers(context.workers)
    seed = resolve_seed(seed)
    # A context that records nothing skips per-trial collection.
    template = context.for_trial(seed) if context.collecting else None
    if workers == 1 or trials == 1:
        results = _run_chunk(task, seed, label, range(trials), template)
    else:
        try:
            pickle.dumps((task, template))
        except Exception as exc:
            raise SimulationError(
                "parallel execution requires the task to be picklable (a "
                "top-level function, a bound method of a picklable object, or "
                f"a functools.partial over either); got {task!r}: {exc}"
            ) from exc
        size = max(1, math.ceil(trials / (workers * CHUNKS_PER_WORKER)))
        available = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in available else "spawn"
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context(method)
        ) as pool:
            futures = [
                pool.submit(
                    _run_chunk, task, seed, label,
                    list(range(lo, min(trials, lo + size))), template,
                )
                for lo in range(0, trials, size)
            ]
            results = []
            for future in futures:
                results.extend(future.result())
    if template is None:
        return results
    unwrapped: List[Any] = []
    for outcome, trial_context in results:
        context.merge_trial(trial_context)
        unwrapped.append(outcome)
    return unwrapped
