"""The geometric target-error ladder shared by the MIN-INCREMENT variants.

MIN-INCREMENT (Section 2.2) runs one GREEDY-INSERT summary per target error
``e_i = (1 + eps)^i`` for ``i = 0, 1, ..., ceil(log_{1+eps} U)``.  Because
consecutive targets are a factor ``(1 + eps)`` apart, some target ``e_j``
always satisfies ``e_opt <= e_j <= (1 + eps) * e_opt`` (inequality 2 of the
paper), which is where the (1 + eps, 1) guarantee comes from.

One deliberate refinement (documented in DESIGN.md item 5): the ladder is
prepended with the *exact* levels ``e = 0`` and ``e = 1/2``.  Stream values
are integers, so bucket errors are half-integers: every achievable error
below the ladder base 1 is exactly 0 or 1/2, and without these levels the
``(1 + eps)`` factor breaks for small optima (for the stream ``[0, 2, 3]``
with B = 2 the optimum is 1/2, but the best pure-geometric level is 1 --
a factor-2 answer).  Two extra levels repair the guarantee for every
integer stream and cost O(1) words.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from repro.exceptions import InvalidParameterError

#: Most levels a ladder may hold.  Each level backs one summary, so the
#: count bounds a stream's memory and build time; ``epsilon=1e-4`` at the
#: default universe ``2**15`` needs about 97k levels.
MAX_LADDER_LEVELS = 1 << 17


class ErrorLadder(Sequence):
    """Immutable ascending sequence of target errors.

    Parameters
    ----------
    epsilon:
        The approximation parameter, ``0 < epsilon < 1``.
    universe:
        The size ``U`` of the integer value domain ``[0, U)``.  The largest
        possible histogram error is ``(U - 1) / 2`` (one bucket spanning the
        whole domain), so the ladder stops at the first level ``>= U / 2``.
    include_zero_level:
        Prepend the exact levels ``e = 0`` and ``e = 1/2`` (default True;
        see module docs).
    """

    def __init__(
        self,
        epsilon: float,
        universe: int,
        *,
        include_zero_level: bool = True,
    ):
        if not 0 < epsilon < 1:
            raise InvalidParameterError(
                f"epsilon must lie in (0, 1), got {epsilon}"
            )
        if universe < 2:
            raise InvalidParameterError(
                f"universe must be at least 2, got {universe}"
            )
        fixed = 2 if include_zero_level else 0
        # Closed-form count first: a tiny epsilon (or one where
        # 1 + epsilon == 1.0) would otherwise spin the loop below for
        # millions of steps, or forever.
        count = fixed + self.expected_size(epsilon, universe)
        if count > MAX_LADDER_LEVELS:
            raise InvalidParameterError(
                f"epsilon={epsilon} with universe={universe} needs {count} "
                f"ladder levels, more than the {MAX_LADDER_LEVELS} allowed; "
                "use a larger epsilon"
            )
        self.epsilon = epsilon
        self.universe = universe
        levels: list[float] = [0.0, 0.5] if include_zero_level else []
        e = 1.0
        top = universe / 2.0
        while True:
            levels.append(e)
            if e >= top:
                break
            e *= 1.0 + epsilon
        self._levels = tuple(levels)

    def __len__(self) -> int:
        return len(self._levels)

    def __getitem__(self, i):
        return self._levels[i]

    def __iter__(self) -> Iterator[float]:
        return iter(self._levels)

    def __repr__(self) -> str:
        return (
            f"ErrorLadder(epsilon={self.epsilon}, universe={self.universe}, "
            f"levels={len(self._levels)})"
        )

    def covering_level(self, error: float) -> float:
        """Smallest ladder level ``>= error``.

        This is the ``e_j`` of inequality 2: for any achievable optimal
        error, the returned level is within a ``(1 + eps)`` factor of it.
        """
        if error < 0:
            raise InvalidParameterError(f"error must be >= 0, got {error}")
        for level in self._levels:
            if level >= error:
                return level
        return self._levels[-1]

    @staticmethod
    def expected_size(epsilon: float, universe: int) -> int:
        """The O(eps^-1 log U) level count the theory predicts (no zero level)."""
        if universe <= 2:
            return 1
        return 1 + math.ceil(math.log(universe / 2.0) / math.log1p(epsilon))
