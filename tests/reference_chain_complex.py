"""The chain complex that `finitetopo.complexes` built before its chain
tree: every chain or simplex is a tuple of names, and each boundary column
slices out one position at a time and looks the face up by its name.

Kept only as a reference for the property tests, which compare its
per-degree sizes and boundary matrices with those of `chain_complex`.
"""

from finitetopo import IntegerMatrix, Poset, SimplicialComplex


def reference_bases(k: SimplicialComplex | Poset, mask: int | None = None) -> list[list[tuple[str, ...]]]:
    """The faces of k by dimension as name tuples: a poset's chains inside
    mask from bottom to top, each grown by every member strictly above its
    top, or a complex's simplices in lexicographic order."""
    if isinstance(k, SimplicialComplex):
        return k.faces_by_dim()
    if mask is None:
        mask = k.full_mask()
    names = k.elements
    members = [i for i in range(len(names)) if mask >> i & 1]
    above = {i: [j for j in members if j != i and k.le(names[i], names[j])] for i in members}
    levels: list[list[tuple[str, ...]]] = []
    level = [((names[i],), i) for i in members]
    while level:
        levels.append([chain for chain, _ in level])
        level = [(chain + (names[j],), j) for chain, top in level for j in above[top]]
    return levels


def reference_chain_complex(k: SimplicialComplex | Poset, mask: int | None = None):
    """(per-degree sizes, boundary matrices); column j of ∂d is
    {index of the j-th face minus its i-th vertex: (-1)^i}."""
    bases = reference_bases(k, mask)
    index = [{f: i for i, f in enumerate(level)} for level in bases]
    boundaries = []
    for d in range(1, len(bases)):
        columns = [{index[d - 1][f[:i] + f[i + 1:]]: (-1) ** i for i in range(d + 1)} for f in bases[d]]
        boundaries.append(IntegerMatrix(len(bases[d - 1]), columns))
    return tuple(map(len, bases)), tuple(boundaries)
