"""Parallel trial execution over a process pool, deterministically seeded.

Every Monte-Carlo campaign in this repository is embarrassingly
parallel: trials are independent by construction, because each one draws
from its own ``RngFactory(seed).generator(label, trial=t)`` stream.  The
:class:`ParallelExecutor` exploits exactly that structure — workers
derive the *same* per-trial generators the serial loop would have built,
so a parallel run with a given seed produces bit-identical results to a
serial run, regardless of worker count, chunking or scheduling order.

Requirements on tasks
---------------------
A task handed to :meth:`ParallelExecutor.map_trials` must be a
*spawn-safe picklable callable*: a top-level function, a bound method of
a picklable object, or a :func:`functools.partial` over either.  Plain
``lambda``\\ s work for serial execution (``workers=1``) but cannot cross
a process boundary; the executor raises a :class:`SimulationError` with
that diagnosis up front rather than letting the pool fail obscurely.

Start method
------------
The default multiprocessing context is ``fork`` where the platform
offers it (workers inherit the parent's imports — near-zero startup) and
``spawn`` otherwise.  Tasks must stay spawn-safe either way: nothing may
depend on inherited process state, since the same code must run on
platforms where ``spawn`` is the only option.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError
from ..obs.context import NULL_CONTEXT, RunContext
from ..rng import RngFactory

__all__ = ["ParallelExecutor", "resolve_workers", "resolve_seed"]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` request to a concrete positive count.

    ``None`` and ``1`` mean serial execution; ``0`` means one worker per
    available CPU; any other positive integer is taken literally.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise SimulationError(f"workers must be >= 0, got {workers}")
    if workers == 0:
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
    pass_trial: bool,
    args: Tuple[Any, ...],
    kwargs: Mapping[str, Any],
    context: Optional[RunContext] = None,
) -> List[Any]:
    """Run a contiguous block of trials (top-level: spawn-picklable).

    Rebuilds the :class:`RngFactory` from the resolved seed inside the
    worker, so each trial's generator is exactly the one the serial loop
    would have produced for the same ``(seed, label, trial)`` triple.

    ``context`` is the campaign context's :meth:`RunContext.for_trial`
    template (fresh instruments, so it pickles without the caller's
    callbacks).  With it, the task receives a fresh ``for_trial``
    context per trial as a ``context=`` keyword, and each entry of the returned list becomes
    ``(result, snapshot)``; the caller merges the snapshots in trial
    order, which is what makes metrics, monitor output *and* trace
    output identical across worker counts.
    """
    factory = RngFactory(seed)
    results = []
    for t in trial_indices:
        gen = factory.generator(label, trial=t)
        call_kwargs = kwargs
        trial_context = None
        if context is not None:
            trial_context = context.for_trial(seed)
            call_kwargs = {**kwargs, "context": trial_context}
        if pass_trial:
            outcome = task(gen, t, *args, **call_kwargs)
        else:
            outcome = task(gen, *args, **call_kwargs)
        if trial_context is not None:
            results.append((outcome, trial_context.snapshot()))
        else:
            results.append(outcome)
    return results


class ParallelExecutor:
    """Fans independent trials out over worker processes.

    Parameters
    ----------
    workers:
        Worker processes: ``1`` (default) runs serially in-process,
        ``0`` uses every available CPU, ``n > 1`` uses exactly ``n``.
    chunk_size:
        Trials dispatched per pool task.  ``None`` picks a size that
        gives each worker a handful of chunks (amortising dispatch
        overhead while keeping the load balanced).
    mp_context:
        Multiprocessing start-method name (``"fork"``, ``"spawn"``,
        ``"forkserver"``).  ``None`` picks ``fork`` where available,
        ``spawn`` otherwise.

    The executor is reusable across :meth:`map_trials` calls (the pool
    is created lazily and kept warm) and doubles as a context manager.
    """

    #: Target number of chunks per worker when ``chunk_size`` is unset.
    CHUNKS_PER_WORKER = 4

    def __init__(
        self,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        self._workers = resolve_workers(workers)
        if chunk_size is not None and chunk_size < 1:
            raise SimulationError(f"chunk_size must be positive, got {chunk_size}")
        self._chunk_size = chunk_size
        if mp_context is not None:
            available = multiprocessing.get_all_start_methods()
            if mp_context not in available:
                raise SimulationError(
                    f"unknown start method {mp_context!r}; available: {available}"
                )
        self._mp_context = mp_context
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def workers(self) -> int:
        """Resolved worker count (``0`` requests are already expanded)."""
        return self._workers

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (no-op when serial or never used)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            method = self._mp_context
            if method is None:
                available = multiprocessing.get_all_start_methods()
                method = "fork" if "fork" in available else "spawn"
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=multiprocessing.get_context(method),
            )
        return self._pool

    def _chunks(self, trials: int) -> List[range]:
        size = self._chunk_size
        if size is None:
            size = max(1, math.ceil(trials / (self._workers * self.CHUNKS_PER_WORKER)))
        return [range(lo, min(trials, lo + size)) for lo in range(0, trials, size)]

    def map_trials(
        self,
        task: Callable[..., Any],
        trials: int,
        seed: Optional[int] = None,
        label: str = "trial",
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Mapping[str, Any]] = None,
        pass_trial: bool = False,
        context: RunContext = NULL_CONTEXT,
    ) -> List[Any]:
        """Run ``task`` once per trial; results come back in trial order.

        ``task`` is called as ``task(gen, *args, **kwargs)`` — or
        ``task(gen, trial, *args, **kwargs)`` with ``pass_trial=True`` —
        where ``gen`` is the ``(seed, label, trial)`` stream the serial
        loop would have used.  The task must consume only ``gen`` for
        randomness; that is what makes the fan-out order-invariant.

        With a ``context`` that collects (any of its metrics, monitor or
        flight recorder enabled), the task must additionally accept a
        ``context=`` keyword: every trial records into a fresh
        :meth:`RunContext.for_trial` context built inside the worker,
        and the trials' snapshots merge back via
        :meth:`RunContext.merge_trial` once all trials are in — in trial
        order, never completion order, so aggregate metrics, event logs,
        alert streams, trace JSONL and suspects blocks are identical for
        every worker count.  The recorder is keyed on the resolved
        campaign seed, so its hash samplers admit exactly the requests
        the serial loop would.  The executor's own worker count governs
        the fan-out; ``context.workers`` is for callers that build one.
        """
        if trials < 1:
            raise SimulationError(f"need at least one trial, got {trials}")
        kwargs = dict(kwargs or {})
        seed = resolve_seed(seed)
        # A context that records nothing skips per-trial collection.
        template = context.for_trial(seed) if context.collecting else None
        if self._workers == 1 or trials == 1:
            results = _run_chunk(
                task, seed, label, range(trials), pass_trial, args, kwargs,
                template,
            )
        else:
            try:
                pickle.dumps((task, args, kwargs, template))
            except Exception as exc:
                raise SimulationError(
                    "parallel execution requires the task and its arguments to be "
                    "picklable (a top-level function, a bound method of a picklable "
                    f"object, or a functools.partial over either); got {task!r}: {exc}"
                ) from exc
            pool = self._ensure_pool()
            futures = [
                pool.submit(
                    _run_chunk, task, seed, label, list(chunk), pass_trial,
                    args, kwargs, template,
                )
                for chunk in self._chunks(trials)
            ]
            results = []
            for future in futures:
                results.extend(future.result())
        if template is None:
            return results
        unwrapped: List[Any] = []
        for outcome, snapshot in results:
            context.merge_trial(snapshot)
            unwrapped.append(outcome)
        return unwrapped
