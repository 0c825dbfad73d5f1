"""Numpy kernels: the dense route's block apply and the updates that build its matrices.

An amplitude array has shape ``(2**n, *batch)``: the n qubits index the
leading axis, qubit 0 most significant (weight ``2**(n-1-q)``), and any
trailing axes are independent states (the columns of a unitary, or a
batch of states).  The array must be C-contiguous, so that its reshaped
views write through.

``apply_blocks`` is the one kernel that touches a statevector: it applies
a sequence of small dense matrices, one matmul per block over the whole
array.  It works in two state-size buffers, the input and one spare, and
moves each block's qubits to the front by a transposing copy into the
spare.  The axis order is tracked between blocks and restored once at
the end, so a block costs one copy and one matmul.

``apply_one_qubit`` and ``apply_controlled_one_qubit`` build those block
matrices, and the basis walk's tables, on identities of at most 32 × 32.
Each picks a path from the 2×2 matrix: a diagonal one (Z, S, T)
multiplies the half where the target is 1 (and the other half, if that
entry is not 1); an anti-diagonal one (X, Y) swaps the two halves and
then applies its phases; any other one (H, A) does the general 2×2
update.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np


def _pairs(amps: np.ndarray, n: int, t: int, c: Optional[int] = None):
    """A view of amps with qubit t on its own axis (where qubit c is 1), and that axis."""
    batch = amps.shape[1:]
    if c is None:
        return amps.reshape((1 << t, 2, 1 << (n - 1 - t)) + batch), 1
    lo, hi = (c, t) if c < t else (t, c)
    view = amps.reshape((1 << lo, 2, 1 << (hi - lo - 1), 2, 1 << (n - 1 - hi)) + batch)
    if c < t:
        return view[:, 1], 2
    return view[:, :, :, 1], 1


def _update(v: np.ndarray, axis: int, mat: np.ndarray) -> None:
    """mat on ``axis`` of v, in place.

    The diagonal and anti-diagonal paths are kept for speed: building the 57
    block matrices of the 17-qubit dense apply takes about 10 ms with them,
    14 ms with the general path alone and 22 ms with each update routed
    through ``apply_blocks`` (best of 5, 2-core host).
    """
    m00, m01, m10, m11 = mat.ravel()
    if m01 == 0 and m10 == 0:
        for bit, d in ((0, m00), (1, m11)):
            if d != 1:
                v[(slice(None),) * axis + (bit,)] *= d
        return
    pair = [1] * v.ndim
    pair[axis] = 2
    flipped = v[(slice(None),) * axis + (slice(None, None, -1),)]
    if m00 == 0 and m11 == 0:
        v[...] = flipped
        if m01 != 1 or m10 != 1:
            v *= np.array([m01, m10]).reshape(pair)
        return
    swapped = flipped * np.array([m01, m10]).reshape(pair)
    v *= np.array([m00, m11]).reshape(pair)
    v += swapped


def apply_one_qubit(amps: np.ndarray, n: int, q: int, mat: np.ndarray) -> None:
    """In-place single-qubit update amps <- (I ⊗ mat ⊗ I) amps."""
    _update(*_pairs(amps, n, q), mat)


def apply_controlled_one_qubit(amps: np.ndarray, n: int, c: int, t: int, mat: np.ndarray) -> None:
    """In-place controlled update: mat on qubit t where qubit c is 1."""
    _update(*_pairs(amps, n, t, c), mat)


def apply_blocks(
    amps: np.ndarray, n: int, blocks: Iterable[tuple[Sequence[int], np.ndarray]]
) -> np.ndarray:
    """Apply each ``(qubits, u)`` in turn and return the result.

    ``u`` is the 2**m × 2**m matrix of the block in the basis where
    ``qubits[0]`` is the most significant of its m qubits.  ``amps`` is
    overwritten: it serves as one of the two buffers, and the result is
    either it or the spare buffer, in the usual qubit order.
    """
    shape = amps.shape
    tensor = (2,) * n + (-1,)
    cur, spare = amps, np.empty_like(amps)
    order = list(range(n))  # order[i] is the qubit on axis i of cur
    for qubits, u in blocks:
        m = len(qubits)
        chosen = set(qubits)
        new_order = list(qubits) + [q for q in order if q not in chosen]
        axes = [order.index(q) for q in new_order] + [n]
        np.copyto(spare.reshape(tensor), cur.reshape(tensor).transpose(axes))
        np.matmul(u, spare.reshape(1 << m, -1), out=cur.reshape(1 << m, -1))
        order = new_order
    if order != list(range(n)):
        axes = [order.index(q) for q in range(n)] + [n]
        np.copyto(spare.reshape(tensor), cur.reshape(tensor).transpose(axes))
        cur = spare
    return cur.reshape(shape)
