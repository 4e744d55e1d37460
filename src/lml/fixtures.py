"""Small graph families used as verifier inputs and test fixtures.

All three constructors reject degenerate dimensions that would need
loops or parallel edges: FiniteGraph is simple and raises ValueError on
either.
"""

from __future__ import annotations

from .balls import FiniteGraph


def _build(vertex_count, pairs):
    return FiniteGraph(vertex_count, [(min(e), max(e)) for e in pairs])


def cycle_graph(n):
    """The n-cycle, n >= 3."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return _build(n, ((i, (i + 1) % n) for i in range(n)))


def torus_grid(w, h):
    """The w x h grid with both directions wrapped; 4-regular for w, h >= 3."""
    if w < 3 or h < 3:
        raise ValueError("torus grid needs w, h >= 3")
    pairs = []
    for j in range(h):
        for i in range(w):
            pairs.append((j * w + i, j * w + (i + 1) % w))
            pairs.append((j * w + i, ((j + 1) % h) * w + i))
    return _build(w * h, pairs)


def fixture_klein(w, h):
    """w x h grid closed up with a flipped seam.

    Horizontal edges (i,j)-(i+1 mod w, j); vertical edges (i,j)-(i,j+1)
    for j < h-1; seam edges (i,h-1)-((w-1-i) mod w, 0).  4-regular, and
    simple once w >= 5 and h >= 3; smaller dimensions are rejected when
    they would force a loop or parallel edge.  w must be even so the seam
    is fixed-point-free.
    """
    if w < 2 or w % 2:
        raise ValueError("width must be even and at least 2")
    if h < 1:
        raise ValueError("height must be at least 1")
    pairs = []
    for j in range(h):
        for i in range(w):
            pairs.append((j * w + i, j * w + (i + 1) % w))
    for j in range(h - 1):
        for i in range(w):
            pairs.append((j * w + i, (j + 1) * w + i))
    for i in range(w):
        pairs.append(((h - 1) * w + i, (w - 1 - i) % w))
    return _build(w * h, pairs)
