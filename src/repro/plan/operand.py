"""The one rule for "is this the model operand I already quantized?".

Every reuse of work done on an operand across calls — a plan's
quantized model block, the named FullyConnected memo, a crop's range
scan — and every check that requests share one operand (the serving
coalescer, the coalesced lowering) asks the same question, and answers
it here:

* :func:`hold_operand` is what a memo keeps: the array itself when
  nothing can write it (:func:`frozen`), else a private copy;
* :func:`same_operand` tests an operand against what was held: the
  very array, still frozen, matches with no pass over it; anything
  else matches only by value (``np.array_equal``), so an operand edited
  in place, or a different one, never reuses stale work.

A held copy cannot alias anything, so no content hash is needed: a
zero-copy view into a recycled shared-memory block is writable through
its buffer and is therefore copied when held.
"""

from __future__ import annotations

import numpy as np


def frozen(array: np.ndarray) -> bool:
    """Can nothing write *array*?  True when it and every array under it
    (its ``.base`` chain) are read-only; a base that is not an array
    (a buffer, a memory map) is not trusted."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return array is None


def hold_operand(operand: np.ndarray) -> np.ndarray:
    """What a memo keeps to recognise *operand* later: *operand* itself
    when it is :func:`frozen`, else a private copy of it."""
    return operand if frozen(operand) else operand.copy()


def same_operand(held: np.ndarray, operand: np.ndarray) -> bool:
    """Is *operand* the one *held* (from :func:`hold_operand`) was taken
    from, with the same values?  The held array itself matches while it
    stays frozen; any other array matches only element for element."""
    if held is operand:
        return frozen(operand)
    return np.array_equal(held, operand)
