"""Brute-force embedding oracle over the signed permutation group B_n.

Independent of cubecrys.decide: it reads only integer generators and
decides whether some injective homomorphism into B_n has the same trace
as the given action on every element.  Equal characters of two real
representations of a finite group make them conjugate over the reals,
so this is the hyperoctahedral verdict.
"""

from __future__ import annotations

import itertools

import groups as G


def signed_permutation_matrices(n: int) -> list:
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            rows = [[0] * n for _ in range(n)]
            for col in range(n):
                rows[perm[col]][col] = signs[col]
            out.append(tuple(map(tuple, rows)))
    return out


def _extend(gens, images, n):
    """Map element -> image along breadth-first products, or None."""
    ident = G.identity(n)
    image = {ident: ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for g, s in zip(gens, images):
                b = G.mul(a, g)
                t = G.mul(image[a], s)
                if b in image:
                    if image[b] != t:
                        return None
                else:
                    image[b] = t
                    fresh.append(b)
        frontier = fresh
    return image


def embeds(gens, n: int) -> bool:
    """Is the integer action of <gens> real-conjugate into B_n?"""
    pool = signed_permutation_matrices(n)
    candidates = []
    for g in gens:
        key = (G.order(g), G.det(g), G.trace(g))
        candidates.append([s for s in pool
                           if (G.order(s), G.det(s), G.trace(s)) == key])
    for images in itertools.product(*candidates):
        image = _extend(gens, images, n)
        if image is None or len(set(image.values())) != len(image):
            continue
        if all(G.trace(p) == G.trace(s) for p, s in image.items()):
            return True
    return False
