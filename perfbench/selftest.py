"""Tests of the benchmark's reference checks on cases known by hand.

    python3 perfbench/selftest.py

Uses only the standard library and does not import finitetopo, so the
checks are tested apart from the program they check.
"""

from __future__ import annotations

import unittest

import reference as ref

# six-element model of the circle: three minima under three maxima
SIX_CYCLE = (
    ["x0", "x1", "x2", "y0", "y1", "y2"],
    [("x0", "y0"), ("x0", "y1"), ("x1", "y1"), ("x1", "y2"), ("x2", "y2"), ("x2", "y0")],
)
BOUNDARY_TETRAHEDRON = [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")]
# six-vertex projective plane; H1 = Z/2, H2 = 0
PROJECTIVE_PLANE = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]


class ChainsAndFaces(unittest.TestCase):
    def test_six_cycle_chains(self):
        chains = ref.poset_chains(*SIX_CYCLE)
        self.assertEqual(ref.f_vector(chains), [6, 6])
        self.assertEqual(ref.euler(chains), 0)

    def test_chains_follow_the_transitive_closure(self):
        # a < b < c given by covers only: 3 + 3 + 1 chains, including a < c
        chains = ref.poset_chains(["a", "b", "c"], [("a", "b"), ("b", "c")])
        self.assertEqual(ref.f_vector(chains), [3, 3, 1])
        self.assertIn(("a", "c"), chains)

    def test_boundary_of_tetrahedron(self):
        faces = ref.complex_faces(BOUNDARY_TETRAHEDRON)
        self.assertEqual(ref.f_vector(faces), [4, 6, 4])
        self.assertEqual(ref.euler(faces), 2)

    def test_cycle_is_rejected(self):
        with self.assertRaises(ValueError):
            ref.strict_up_sets(["a", "b"], [("a", "b"), ("b", "a")])


class HomologyChecks(unittest.TestCase):
    def test_six_cycle_is_a_circle(self):
        chains = ref.poset_chains(*SIX_CYCLE)
        self.assertEqual(ref.homology_problems(chains, [1, 1], [[], []]), [])
        self.assertNotEqual(ref.homology_problems(chains, [1, 0], [[], []]), [])

    def test_boundary_of_tetrahedron_is_a_sphere(self):
        faces = ref.complex_faces(BOUNDARY_TETRAHEDRON)
        self.assertEqual(ref.homology_problems(faces, [1, 0, 1], [[], [], []]), [])
        # right Euler characteristic, wrong groups: caught by the ranks
        self.assertNotEqual(ref.homology_problems(faces, [1, 1, 2], [[], [], []]), [])

    def test_projective_plane_has_two_torsion(self):
        faces = ref.complex_faces([tuple(str(v) for v in f) for f in PROJECTIVE_PLANE])
        # over GF(2) the 2-cycle survives, over GF(3) it does not
        self.assertEqual(ref.boundary_ranks(faces, 2)[1:3], [5, 9])
        self.assertEqual(ref.boundary_ranks(faces, 3)[1:3], [5, 10])
        self.assertEqual(ref.homology_problems(faces, [1, 0, 0], [[], [2], []]), [])
        # torsion-free claims with the same Euler characteristic fail over GF(2)
        wrong = ref.homology_problems(faces, [1, 0, 0], [[], [], []])
        self.assertTrue(any("GF(2)" in p for p in wrong))
        self.assertFalse(any("GF(3)" in p for p in wrong))
        # Z/3 in place of Z/2 fails over both fields
        wrong = ref.homology_problems(faces, [1, 0, 0], [[], [3], []])
        self.assertTrue(any("GF(2)" in p for p in wrong) and any("GF(3)" in p for p in wrong))

    def test_trimmed(self):
        self.assertEqual(ref.trimmed([1, 1, 0, 0]), [1, 1])
        self.assertEqual(ref.trimmed([[], [2], []]), [[], [2]])


class Components(unittest.TestCase):
    def test_epsilon_components(self):
        coords = {"a": (0.0, 0.0), "b": (0.1, 0.0), "c": (0.2, 0.05), "d": (1.0, 1.0)}
        self.assertEqual(ref.epsilon_components(coords, 0.15),
                         {frozenset("abc"), frozenset("d")})
        self.assertEqual(len(ref.epsilon_components(coords, 0.05)), 4)

    def test_two_arc_cover_of_six_cycle(self):
        # arcs meeting in two separate points: the nerve is an edge, the
        # completion a circle, like the six-cycle itself
        elements, relations = SIX_CYCLE
        above = ref.strict_up_sets(elements, relations)
        parts = {"A": frozenset({"x0", "x1", "x2", "y0", "y1"}), "B": frozenset({"x1", "x2", "y2"})}
        self.assertEqual(ref.nerve_euler(parts), 1)
        completion = ref.completion_euler(parts, lambda m: ref.comparability_components(m, above))
        self.assertEqual(completion, ref.poset_euler(elements, relations))

    def test_face_set_components(self):
        faces = ref.complex_faces([("a", "b"), ("c",)])
        self.assertEqual(ref.face_set_components(faces), {frozenset("ab"), frozenset("c")})


if __name__ == "__main__":
    unittest.main()
