"""Node sets as ``int`` bitmasks: bit *i* stands for node *i*.

The scheduling core keeps every hot node set in this form — the
availability profile's base and cumulative release sweep, the sweep
cursor's materialized states and window claims, each reservation's
node set, and the free set placement picks from.  Node ids are dense
``0..N-1`` (``Cluster`` numbers them with ``range``), so a set is one
arbitrary-precision integer and the set algebra is word-parallel:
union ``|``, intersection ``&``, difference ``& ~``, size
``bit_count()``.  On a 64-node machine a mask difference costs about a
tenth of the equivalent ``frozenset`` operation, and the gap widens
with machine width.

This module is the single owner of the format: the conversions to and
from ascending id lists live here and nowhere else.
"""

from __future__ import annotations

from itertools import compress, islice
from typing import Iterable, List

__all__ = ["mask_of", "ids_of", "lowest"]

# '0'/'1' characters -> 0/1 bytes, so a reversed binary rendering of a
# mask becomes the selector ``compress`` needs (all in C, no Python
# loop over bits).
_BITS = bytes.maketrans(b"01", b"\x00\x01")

#: Up to this many ids, :func:`lowest` peels bits one at a time.  Peeling
#: costs one Python step per id and rendering costs one pass over the
#: whole mask: peeling is cheaper up to about five ids at 64 nodes and
#: about sixteen at 1024, and most placements ask for four nodes or
#: fewer (docs/PERF.md, "Bitmask node sets").
_FEW = 4


def mask_of(ids: Iterable[int]) -> int:
    """The mask holding exactly the node ids ``ids``."""
    mask = 0
    for node_id in ids:
        mask |= 1 << node_id
    return mask


def _selector(mask: int) -> bytes:
    # ``bin`` renders the most significant bit first; reversed, byte i
    # is bit i.
    return bin(mask)[:1:-1].encode("ascii").translate(_BITS)


def ids_of(mask: int) -> List[int]:
    """The node ids in ``mask``, ascending."""
    if not mask:
        return []
    selector = _selector(mask)
    return list(compress(range(len(selector)), selector))


def lowest(mask: int, k: int) -> List[int]:
    """The ``k`` lowest node ids in ``mask``, ascending (all of them
    when ``mask`` holds fewer)."""
    if k <= _FEW:
        # Peel the lowest set bit k times: cheaper than rendering the
        # whole mask when only a handful of ids is wanted.
        out = []
        while mask and k > 0:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
            k -= 1
        return out
    if not mask:
        return []
    selector = _selector(mask)
    return list(islice(compress(range(len(selector)), selector), k))
