"""Per-layer spans and counters, recorded from outside the package.

Each traced function is replaced by a wrapper at the module attribute its
callers look it up through (for example `randmodel.moment_direct`, which
`cli` calls as an attribute, and `charsum.first_primes`, which `charsum`
imported by name).  Spans nest on one stack, so a layer's self time is its
duration minus the time of the traced calls it made.  Spans are aggregated
by name as they close rather than stored one by one: `alpha_cutoff` alone
closes 55,000 of them per density table.
"""

from __future__ import annotations

import inspect
import logging
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

class Tracer:
    """Spans and counters of one round.

    With peaks=True only the calls given a peak name are wrapped, and their
    tracemalloc peaks are the only figures kept: tracemalloc slows Python-level
    code several-fold, so peaks come from a round of their own.
    """

    def __init__(self, peaks=False):
        self.peaks = peaks
        self.total = defaultdict(float)   # span name -> summed duration
        self.self_time = defaultdict(float)  # span name -> duration minus child spans
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = defaultdict(int)
        self._stack: list[list[float]] = []
        self._undo = []

    # -- spans -------------------------------------------------------------

    def wrap(self, module, attr, span, count=None, peak=None):
        """Replace module.attr by a timed wrapper.

        span is the span name, or a function of the call's bound arguments
        giving it; count(tracer, arguments, result) adds counters after the
        call; peak names a maximum (in bytes) of tracemalloc's peak inside
        the call.
        """
        if self.peaks and not peak:
            return
        if not self.peaks:
            peak = None
        fn = getattr(module, attr)
        signature = inspect.signature(fn) if count or callable(span) else None

        def wrapper(*args, **kwargs):
            arguments = None
            if signature:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            if peak:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span(arguments) if callable(span) else span, frame)
            if peak:
                used = tracemalloc.get_traced_memory()[1] - base
                self.maxima[peak] = max(self.maxima[peak], used)
            if count:
                count(self, arguments, result)
            return result

        setattr(module, attr, wrapper)
        self._undo.append(lambda: setattr(module, attr, fn))

    def _close(self, span, frame):
        duration = time.perf_counter() - frame[0]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        self.total[span] += duration
        self.self_time[span] += duration - frame[1]
        self.calls[span] += 1

    def unwrap(self):
        while self._undo:
            self._undo.pop()()

    # -- the import-time sieve -----------------------------------------------

    def profile_sieve_during(self, import_fn):
        """Run import_fn with a profile hook timing calls of sieve_primes.

        legsums.primes sieves 2^16 while it is being imported, before any
        attribute exists to wrap, so this one call is caught by a profile
        hook that is active only during the import.
        """
        starts = []

        def hook(frame, event, arg):
            if frame.f_code.co_name != "sieve_primes":
                return
            if event == "call":
                starts.append((time.perf_counter(), frame.f_locals.get("limit", 0)))
            elif event == "return" and starts:
                t0, limit = starts.pop()
                self.total["primes.sieve"] += time.perf_counter() - t0
                self.calls["primes.sieve"] += 1
                self.maxima["primes.sieve_limit"] = max(self.maxima["primes.sieve_limit"], limit)

        sys.setprofile(hook)
        try:
            return import_fn()
        finally:
            sys.setprofile(None)

    # -- log records -----------------------------------------------------------

    def count_log_records(self, logger_name, counter):
        if self.peaks:
            return
        tracer = self

        class _Count(logging.Handler):
            def emit(self, record):
                tracer.counts[counter] += 1

        handler = _Count()
        logger = logging.getLogger(logger_name)
        logger.addHandler(handler)
        self._undo.append(lambda: logger.removeHandler(handler))
