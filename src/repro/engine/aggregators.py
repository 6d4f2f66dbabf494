"""Global aggregators (Pregel's reduce-and-broadcast primitive).

Vertices contribute values during superstep ``s``; the reduced result
is readable by every vertex during superstep ``s + 1``.  A program
declares its aggregators by name (:meth:`VertexProgram.aggregators`);
PageRank sums its ranks with :class:`SumAggregator`, the one reduction
a shipped program uses.
"""

from __future__ import annotations

import abc


class Aggregator(abc.ABC):
    """An associative, commutative reduction with an identity element."""

    def __init__(self):
        self._value = self.identity()

    @abc.abstractmethod
    def identity(self):
        """The neutral element."""

    @abc.abstractmethod
    def reduce(self, a, b):
        """Merge two partial values."""

    def accumulate(self, value) -> None:
        """Fold *value* into the running reduction."""
        self._value = self.reduce(self._value, value)

    @property
    def value(self):
        """Current reduced value."""
        return self._value


class SumAggregator(Aggregator):
    """Sum of contributions."""

    def identity(self):
        """The neutral element of this reduction."""
        return 0

    def reduce(self, a, b):
        """Merge two partial values."""
        return a + b
