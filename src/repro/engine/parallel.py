"""Process-pool fan-out and the canonical per-point sweep seed.

* :func:`imap` applies a picklable function to a list of payloads over a
  ``concurrent.futures.ProcessPoolExecutor`` and yields the results in
  submission order.  It is the primitive the ``process-pool`` execution
  backend of :mod:`repro.api` — and with it the CLI's ``--parallel N`` —
  is built on.  The process-pool machinery is imported only when a pool
  starts.
* :func:`point_seed` derives the seed of one sweep point from the master
  seed and the point's own parameters; :meth:`repro.api.Session.sweep`
  injects it into every point of a seeded sweep.

Determinism holds under any worker count and any completion order: results
come back in submission order, and the seed of a point never depends on
which worker ran it or on the grid shape.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Mapping, Optional, Sequence

from repro.local.randomness import derive_seed
from repro.obs import get_recorder

__all__ = ["imap", "point_seed"]


def _canonical_value(value: object) -> object:
    """Canonicalize a point value the way the cache-key layer does: numeric
    identity over representation (``1`` and ``1.0`` are the same parameter
    value — the schema normalizes them to one number) and sequence identity
    over container flavour (``RunRequest`` freezes lists to tuples and thaws
    them back, so ``(1, 2)`` and ``[1, 2]`` describe the same run).  Without
    this, equal points could derive *different* seeds depending on which
    spelling reached :func:`point_seed`."""
    # bool is an int subclass but a distinct parameter value (and a distinct
    # canonical JSON encoding), so it passes through untouched.
    if isinstance(value, float) and not isinstance(value, bool) and value.is_integer():
        return int(value)
    if isinstance(value, (list, tuple)):
        # Lists are the thawed (kwargs-side) spelling, so canonicalizing
        # tuples onto them keeps list-valued points' derived seeds stable
        # across this change.
        return [_canonical_value(item) for item in value]
    return value


def point_seed(master_seed: int, point: Mapping[str, object]) -> int:
    """The deterministic per-point seed: derived from the master seed and the
    point's sorted ``(name, canonical value)`` pairs, independent of worker
    scheduling, container flavour, and int/float spelling."""
    components = tuple(
        sorted((name, repr(_canonical_value(value))) for name, value in point.items())
    )
    return derive_seed(master_seed, "sweep-point", components) % (2**31)


def imap(
    function: Callable[[Dict[str, object]], object],
    payloads: Sequence[Dict[str, object]],
    max_workers: Optional[int],
) -> Iterator[object]:
    """Apply ``function`` to every payload over a process pool, yielding
    results in submission order.

    All payloads are submitted eagerly (before the first yield) and results
    stream back as the corresponding future resolves, so a slow first
    payload does not idle the other workers.  ``max_workers=None`` lets the
    pool pick one worker per CPU.  A single payload runs in-process: there
    is nothing to fan out, so no pool is started.
    """
    if len(payloads) <= 1:
        for payload in payloads:
            yield function(payload)
        return

    from concurrent.futures import ProcessPoolExecutor

    recorder = get_recorder()
    pool = ProcessPoolExecutor(max_workers=max_workers)
    try:
        with recorder.span("parallel.submit", tasks=len(payloads), max_workers=max_workers):
            futures = [pool.submit(function, payload) for payload in payloads]
        for future in futures:
            yield future.result()
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
