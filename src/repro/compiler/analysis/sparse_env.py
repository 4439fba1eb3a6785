"""Register environments with per-region write logs, for sparse joins.

Both structured abstract interpreters over the IR — the interval
interpreter (:mod:`.ranges`) and the LDS-race symbolic evaluator
(:mod:`..lint.lds_races`) — keep a value environment ``env`` and a
predicate-tree environment ``penv`` keyed by ``id(reg)``.  At an ``If``
they evaluate both arms from one entry state and join the results; in a
loop they compare each iteration with the one before.  Copying and
joining the *whole* environment at each of those points costs
O(registers), although an arm or an iteration usually writes a handful.

:class:`SparseEnv` instead records, for the innermost open *region* (an
``If`` arm, a loop iteration), the entry value of every register the
region writes or refines.  A join visits only the union of the two arms'
logs, a loop compares only what the iteration wrote, and rolling a
region back restores just its log.  A register outside every log holds
the very same value object in both arms, so the joins' identity
short-circuit (``a is b``) skips it without comparing values.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Log marker for "the register had no entry when the region opened".
MISSING = object()

Log = Dict[int, Tuple[object, object]]


class SparseEnv:
    """``env``/``penv`` dictionaries plus the open region's write log."""

    __slots__ = ("env", "penv", "log")

    def __init__(self):
        self.env: Dict[int, object] = {}
        self.penv: Dict[int, object] = {}
        #: id(reg) -> (env value, penv value) when the region opened
        self.log: Log = {}

    def touch(self, rid: int) -> None:
        if rid not in self.log:
            self.log[rid] = (self.env.get(rid, MISSING),
                             self.penv.get(rid, MISSING))

    def set(self, rid: int, value) -> None:
        if rid not in self.log:
            self.touch(rid)
        self.env[rid] = value

    def set_pred(self, rid: int, tree) -> None:
        if rid not in self.log:
            self.touch(rid)
        self.penv[rid] = tree

    def open(self) -> Log:
        """Start a nested region; returns the enclosing region's log."""
        outer = self.log
        self.log = {}
        return outer

    def close(self, outer: Log) -> Log:
        """End the current region and return its log.

        Its writes become writes of ``outer``: an entry the enclosing
        region lacks still holds that region's entry value, because
        nothing wrote the register between the two openings.
        """
        log = self.log
        for rid, entry in log.items():
            if rid not in outer:
                outer[rid] = entry
        self.log = outer
        return log

    def undo(self, log: Log) -> None:
        """Restore every register ``log`` recorded to its entry value."""
        env, penv = self.env, self.penv
        for rid, (value, tree) in log.items():
            if value is MISSING:
                env.pop(rid, None)
            else:
                env[rid] = value
            if tree is MISSING:
                penv.pop(rid, None)
            else:
                penv[rid] = tree

    def entry(self, rid: int, *logs: Log) -> Tuple[object, object]:
        """``(env, penv)`` values of ``rid`` when the first of ``logs``
        that recorded it opened (``None`` for no entry); the current
        values if none did."""
        for log in logs:
            old = log.get(rid)
            if old is not None:
                value, tree = old
                return (None if value is MISSING else value,
                        None if tree is MISSING else tree)
        return self.env.get(rid), self.penv.get(rid)
