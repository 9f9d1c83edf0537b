"""Shared brute-force oracles, kept independent of the library internals.

Everything here recomputes from scratch with the dumbest correct method:
faces by powerset enumeration, ranks by Gaussian elimination over Fraction,
F2 ranks by xor-ing bit rows.  Tests compare the library against these.
Eighteen exceptions are kept as differential oracles for the code that
replaced them: ``build_parser``, the argparse parser of the CLI, for the
table-driven parser in ``torictop.cli``; the dense field kernel (``rref``,
``reduce_against``, ``kernel_basis`` and the field objects) for the sparse
eliminator in ``linalg``; ``reference_smith_normal_form``, an earlier
Smith normal form, and ``column_first_smith_normal_form``, the previous
one, which cleared the pivot column before the pivot row, for
``homology.smith_normal_form``; ``dense_boundary_matrices`` and
``dense_smith_normal_form``, the dense Z path the sparse unit-pivot phase
replaced, for ``homology.boundary_columns`` and ``smith_normal_form``;
``face_ring_cohomology``, the library's previous cohomology engine, for
``cohomology_ring``; the integer adjugate ``unimodular_inverse`` for
``quasitoric.linear_forms``; ``per_subset_wedge_splitting``, the previous
wedge splitting that builds and reduces every full subcomplex, for
``wedge_splitting``; ``summand_scan_certificates``, the previous
projection certificates, which materialize every subset's summand and scan
the facets for each, for ``projection._certificates``; the symbolic mod-2
presentations (``cube_presentation``, ``product_presentation``, ``cube_parameters``) for
``cohomology_ring`` over F2 and ``cube_census``; ``split_by_double_loop``,
the p x n residue loop, for ``splitting.split``; ``two_part_vanishing_rule``,
the even-degree check plus the odd-degree loop of the projection
certificate, for ``splitting.vanishing_range_check``;
``pairwise_maximal_faces``, the maximal-face filter of ``full_subcomplex``,
for ``complexes._maximal``; ``dict_direct_sum`` and
``dict_join_homology``, the dict accumulations of the wedge total and of
the join Kuenneth sum, for ``GradedHomology.direct_sum``;
``echelon_reduced_homology`` and ``echelon_chain_homology``, the field path
that ranked dense rows by ``linalg.echelon``, for the field ranks that
``homology`` reads off the Smith form;
``all_columns_reduced_homology`` and ``all_columns_chain_homology``, which
build every boundary map whole and reduce each on its own, for the
top-down reduction with clearing of ``reduced_homology`` and
``chain_homology``;
``prime_power_merge_torsion``, the previous ``merge_torsion``, which
regroups prime powers found by trial division, for ``merge_torsion``;
and ``steenrod_hit_loop``, the candidate walk of the mod-2 hit search,
for the closed form of ``projection.steenrod_hit_search``.
``cellular_moment_angle_homology`` computes the homology of Z_K from its
cellular chain complex, with no wedge splitting, for ``wedge_splitting``.
``field_ranks_from_z`` derives field Betti numbers from integral homology
by universal coefficients, degree by degree, where the library applies them
map by map.  Besides the oracles it holds test inputs and
probes: ``stellar_sphere`` builds polytopal spheres around a given complex,
``stacked_sphere_facets`` the boundaries of stacked polytopes,
and the ``face_listings`` fixture records each face listing the library
makes.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from torictop import __version__, cli, linalg
from torictop.cli import (
    _cmd_bott,
    _cmd_cube_census,
    _cmd_fixtures,
    _cmd_hvec,
    _cmd_nontrivial,
    _cmd_projection,
    _cmd_qtm,
    _cmd_split,
    _cmd_zk,
)
from torictop.complexes import (
    PolytopeDual,
    SimplicialComplex,
    _vertices_of,
    full_subcomplex,
    h_vector_of,
)
from torictop.errors import CapExceededError, ConsistencyError, InputError
from torictop.homology import (
    GradedHomology,
    IntegerMatrix,
    SNFResult,
    _columns,
    boundary_columns,
    merge_torsion,
    reduced_homology,
    smith_normal_form,
)
from torictop.momentangle import WedgeSplitting, WedgeSummand, _cap_for
from torictop.projection import (
    CERT_DIMENSION,
    CERT_NONE,
    CERT_SIMPLEX,
    CERT_VANISHING,
    SummandCertificate,
)
from torictop.quasitoric import (
    CharacteristicMatrix,
    CohomologyPresentation,
    require_admissible,
    validate_characteristic,
)
from torictop.splitting import residue_class, vanishing_range_check


def powerset_faces(maximal_faces) -> set[tuple[int, ...]]:
    """All faces (as sorted tuples, including the empty tuple)."""
    faces = set()
    for mf in maximal_faces:
        mf = tuple(sorted(mf))
        for r in range(len(mf) + 1):
            faces.update(itertools.combinations(mf, r))
    faces.add(())
    return faces


def face_counts_by_card(maximal_faces) -> dict[int, int]:
    counts: dict[int, int] = {}
    for f in powerset_faces(maximal_faces):
        counts[len(f)] = counts.get(len(f), 0) + 1
    return counts


def h_from_f_polynomial(f_entries, n) -> tuple[int, ...]:
    """h-vector via the generating polynomial sum_i f_{i-1} (t-1)^(n-i).

    Independent of the alternating-sum formula: expand the polynomial and
    read h_k off the coefficient of t^(n-k).
    """
    # poly[d] = coefficient of t^d
    poly = [0] * (n + 1)
    for i in range(n + 1):  # f_entries[i] = f_{i-1}
        # (t-1)^(n-i)
        e = n - i
        for d in range(e + 1):
            poly[d] += f_entries[i] * math.comb(e, d) * (-1) ** (e - d)
    return tuple(poly[n - k] for k in range(n + 1))


def fraction_rank(rows) -> int:
    """Gaussian elimination over Fraction; the reference rank."""
    A = [[Fraction(x) for x in row] for row in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    rank = 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = Fraction(1) / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        rank += 1
        r += 1
        if r == m:
            break
    return rank


def f2_rank(rows) -> int:
    """Rank over F2, each row packed into one int."""
    packed = []
    for row in rows:
        v = 0
        for j, x in enumerate(row):
            if x % 2:
                v |= 1 << j
        packed.append(v)
    rank = 0
    for c in range(max((len(r) for r in rows), default=0)):
        bit = 1 << c
        piv = next((i for i, v in enumerate(packed) if v & bit), None)
        if piv is None:
            continue
        pv = packed.pop(piv)
        packed = [v ^ pv if v & bit else v for v in packed]
        rank += 1
    return rank


def mod_p_rank(rows, p) -> int:
    """Rank over F_p by Gaussian elimination on Python ints (no overflow)."""
    A = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(max((len(r) for r in A), default=0)):
        piv = next((i for i in range(rank, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][c], p - 2, p)
        A[rank] = [x * inv % p for x in A[rank]]
        for i in range(rank + 1, len(A)):
            f = A[i][c]
            A[i] = [(x - f * y) % p for x, y in zip(A[i], A[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# The Smith normal form the library used before its two-step kernel, which
# enforces divisibility inside the elimination: after each pivot it scans the
# remaining block and restarts on an entry the pivot does not divide.  It is
# the oracle of ``homology.smith_normal_form``.


def reference_smith_normal_form(A: IntegerMatrix) -> SNFResult:
    """Invariant factors by row/column reduction.

    Pivot rule: among nonzero entries of the working submatrix take the one
    of smallest absolute value, ties broken by lowest row then lowest column.
    """
    M = [list(r) for r in A.entries]
    rows, cols = A.rows, A.cols
    diag: list[int] = []
    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = M[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        M[t], M[pi] = M[pi], M[t]
        if pj != t:
            for row in M:
                row[t], row[pj] = row[pj], row[t]
        if M[t][t] < 0:
            M[t] = [-x for x in M[t]]
        while True:
            # clear the pivot column
            restart = False
            for i in range(t + 1, rows):
                if M[i][t]:
                    q = M[i][t] // M[t][t]
                    M[i] = [a - q * b for a, b in zip(M[i], M[t])]
                    if M[i][t]:
                        # remainder became a smaller pivot
                        M[t], M[i] = M[i], M[t]
                        if M[t][t] < 0:
                            M[t] = [-x for x in M[t]]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if M[t][j]:
                    q = M[t][j] // M[t][t]
                    for row in M:
                        row[j] -= q * row[t]
                    if M[t][j]:
                        for row in M:
                            row[t], row[j] = row[j], row[t]
                        if M[t][t] < 0:
                            M[t] = [-x for x in M[t]]
                        restart = True
                        break
            if restart:
                continue
            # enforce divisibility of the remaining block by the pivot
            culprit = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if M[i][j] % M[t][t]:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            M[t] = [a + b for a, b in zip(M[t], M[culprit])]
        diag.append(M[t][t])
        t += 1
        if t == rows or t == cols:
            break
    return SNFResult(tuple(diag))


# The previous two-step Smith form: it cleared the pivot column with whole-row
# subtractions before it reduced the pivot row, and took the first nonzero
# remainder as the next pivot, so entries grow on dense input (about three
# minutes on the seeded dense 50 x 50 matrix of the tests).  It is a second
# oracle of ``homology.smith_normal_form``, on small or sparse input only.


def column_first_smith_normal_form(A: IntegerMatrix) -> SNFResult:
    """Invariant factors: clear the pivot's column, then its row, then fix
    divisibility with ``merge_torsion``."""
    M = [list(r) for r in A.entries]
    diag: list[int] = []
    while True:
        best = 0
        for i, row in enumerate(M):
            for j, v in enumerate(row):
                if v and (not best or abs(v) < best):
                    best, pi, pj = abs(v), i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        while True:
            prow, piv = M[pi], M[pi][pj]
            for i, row in enumerate(M):
                if row[pj] and i != pi:
                    q = row[pj] // piv
                    M[i] = row = [a - q * b for a, b in zip(row, prow)]
                    if row[pj]:
                        pi = i
                        break
            else:
                # the column is clear, so column operations change the pivot row only
                for j, v in enumerate(prow):
                    if j != pj:
                        prow[j] = v % piv
                nonzero = [j for j, v in enumerate(prow) if v and j != pj]
                if not nonzero:
                    break
                pj = nonzero[0]
        diag.append(abs(piv))
        del M[pi]
        for row in M:
            del row[pj]
    rest = merge_torsion(diag)
    return SNFResult((1,) * (len(diag) - len(rest)) + rest)


# ---------------------------------------------------------------------------
# The dense Z path the library used before its sparse unit-pivot phase: dense
# augmented boundary matrices read off K's face listing, and the whole-row-
# then-column Smith form on the whole matrix.  Together they are the oracle
# of ``homology.boundary_columns`` and of the unit pivots of
# ``homology.smith_normal_form``.


def dense_boundary_matrices(K: SimplicialComplex) -> tuple[list[IntegerMatrix], list[int]]:
    """Boundary maps of the empty-face-augmented chain complex of K as dense
    matrices (position k + 1 -> position k), and the chain group dimensions."""
    basis = list(K.faces_by_card().values())
    index = K._face_index
    dims = [len(lst) for lst in basis]
    mats = []
    for c in range(1, len(basis)):
        rows = [[0] * dims[c] for _ in range(dims[c - 1])]
        for col, mask in enumerate(basis[c]):
            sign = 1
            rem = mask
            while rem:
                low = rem & -rem
                rows[index[mask & ~low]][col] = sign
                sign = -sign
                rem &= rem - 1
        mats.append(IntegerMatrix(dims[c - 1], dims[c], tuple(map(tuple, rows))))
    return mats, dims


def dense_smith_normal_form(A: IntegerMatrix) -> SNFResult:
    """Invariant factors: reduce the pivot's whole row, then its whole column,
    re-pivot on the least remainder, and fix divisibility with ``merge_torsion``."""
    M = [list(r) for r in A.entries]
    diag: list[int] = []
    while True:
        best = 0
        for i, row in enumerate(M):
            for j, v in enumerate(row):
                if v and (not best or abs(v) < best):
                    best, pi, pj = abs(v), i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        while True:
            prow, piv = M[pi], M[pi][pj]
            support = [row for row in M if row[pj]]
            for j, v in enumerate(prow):
                if v and j != pj:
                    q = v // piv
                    for row in support:
                        row[j] -= q * row[pj]
            nonzero = [j for j, v in enumerate(prow) if v and j != pj]
            if nonzero:
                pj = min(nonzero, key=lambda j: abs(prow[j]))
                continue
            nonzero = [i for i, row in enumerate(M) if row[pj] % piv]
            if not nonzero:
                break
            for row in support:
                row[pj] %= piv
            prow[pj] = piv
            pi = min(nonzero, key=lambda i: abs(M[i][pj]))
        diag.append(abs(piv))
        del M[pi]
        for row in M:
            del row[pj]
    rest = merge_torsion(diag)
    return SNFResult((1,) * (len(diag) - len(rest)) + rest)


def dense_chain_homology(mats: list[IntegerMatrix], dims: list[int], base_degree: int = 0) -> GradedHomology:
    """Integral homology of the chain complex of ``mats`` (C_{k+1} -> C_k, with
    dim C_k = dims[k]) from the dense Smith form of each map."""
    snfs = [dense_smith_normal_form(A) for A in mats] + [SNFResult(())]
    groups = {base_degree + k: (dim - (snfs[k - 1].rank if k else 0) - snfs[k].rank, snfs[k].torsion)
              for k, dim in enumerate(dims)}
    return GradedHomology.from_dict("Z", groups)


def dense_reduced_homology(K: SimplicialComplex) -> GradedHomology:
    """Reduced integral homology of |K| by the dense path."""
    return dense_chain_homology(*dense_boundary_matrices(K), -1)


# ---------------------------------------------------------------------------
# The path the library used before clearing: every boundary map built whole,
# from every face, and its Smith form taken on its own, in no order.  It is
# the oracle of the top-down reduction in ``homology._homology_from_boundaries``,
# which leaves out the columns of d_k on the unit pivot rows of d_{k+1}.


def all_boundary_columns(K: SimplicialComplex) -> tuple[list[list[dict[int, int]]], list[int]]:
    """Every boundary map of K's augmented chain complex, with no column left
    out, and the chain group dimensions."""
    dims = list(K.face_counts().values())
    return [boundary_columns(K, k, ()) for k in range(len(dims) - 1)], dims


def all_columns_homology(maps: list[list[dict[int, int]]], dims: list[int], base_degree: int,
                         coeff: str) -> GradedHomology:
    """Homology over ``coeff`` of the chain complex of the whole maps ``maps``
    (C_{k+1} -> C_k as sparse columns, with dim C_k = dims[k]): over Z the
    rank and torsion of each map's Smith form, over F_p the invariant factors
    p does not divide, over Q all of them."""
    p = linalg.coeff_prime(coeff, allow_z=True)
    snfs = [smith_normal_form(cols) for cols in maps]
    ranks = [sum(1 for d in snf.diagonal if not p or d % p) for snf in snfs] + [0]  # p: None or 0
    groups = {base_degree + k: (dim - (ranks[k - 1] if k else 0) - ranks[k],
                                snfs[k].torsion if p is None and k < len(snfs) else ())
              for k, dim in enumerate(dims)}
    return GradedHomology.from_dict(coeff, groups)


def all_columns_reduced_homology(K: SimplicialComplex, coeff: str) -> GradedHomology:
    """Reduced homology of |K| over ``coeff`` from every column of every map."""
    return all_columns_homology(*all_boundary_columns(K), -1, coeff)


def all_columns_chain_homology(mats: list[IntegerMatrix], coeff: str) -> GradedHomology:
    """``chain_homology`` of the maps ``mats`` from every column of every map."""
    dims = [mats[0].rows] + [A.cols for A in mats]
    return all_columns_homology([_columns(A) for A in mats], dims, 0, coeff)


# ---------------------------------------------------------------------------
# The field path the library used before every coefficient read the Smith
# form: dense rows rebuilt from ``all_boundary_columns``, each map ranked
# by ``linalg.echelon``.  It is the oracle of the universal-coefficient ranks
# that ``reduced_homology`` and ``chain_homology`` read off the Smith form.


def echelon_chain_homology(mats: list[list[list[int]]], dims: list[int], base_degree: int,
                           coeff: str) -> GradedHomology:
    """Homology over the field ``coeff`` of the chain complex of the dense maps
    ``mats`` (C_{k+1} -> C_k, with dim C_k = dims[k]), each map's rank the
    number of ``linalg.echelon`` pivots of its rows."""
    p = linalg.coeff_prime(coeff)
    ranks = [len(linalg.echelon(rows, p)) for rows in mats] + [0]
    groups = {base_degree + k: (dim - (ranks[k - 1] if k else 0) - ranks[k], ())
              for k, dim in enumerate(dims)}
    return GradedHomology.from_dict(coeff, groups)


def dense_rows(cols: list[dict[int, int]], n: int) -> list[list[int]]:
    """The n dense rows of a map given as sparse columns."""
    rows = [[0] * len(cols) for _ in range(n)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows[i][j] = x
    return rows


def echelon_reduced_homology(K: SimplicialComplex, coeff: str) -> GradedHomology:
    """Reduced homology of |K| over a field by the echelon path."""
    maps, dims = all_boundary_columns(K)
    return echelon_chain_homology([dense_rows(cols, n) for cols, n in zip(maps, dims)], dims, -1,
                                  coeff)


# ---------------------------------------------------------------------------
# The cellular chain complex of Z_K, the oracle of the wedge splitting, its
# degree shift |I| + 1, the join Kuenneth formula and the cone skip.  Z_K is
# the union of (D^2)^sigma x (S^1)^([m] - sigma) over the faces sigma of K.
# With D^2 = e0 u e1 u e2 and d e2 = e1, its cells are the pairs (sigma,
# omega) of a face and a vertex set disjoint from it, in dimension
# 2|sigma| + |omega|, and d(sigma, omega) is the sum over i in sigma of
# +-(sigma - i, omega + i), with the Koszul sign of the cells before i: 2 for
# each vertex of sigma, 1 for each vertex of omega (Buchstaber and Panov,
# Toric Topology, ch. 4).  The boundary keeps sigma u omega, so the complex is
# the direct sum of its blocks, one for each vertex set I = sigma u omega;
# each block is reduced on its own, in the true cell dimensions, and no
# homology of a full subcomplex is read.


def cellular_blocks(K: SimplicialComplex):
    """The blocks of the cellular chain complex of Z_K, one for each vertex set
    I: |I|, the counts of the cells (sigma, I - sigma) by |sigma|, and the
    boundary maps from |sigma| = c to c - 1 as dense rows."""
    faces = [frozenset(f) for f in powerset_faces(K.maximal_faces)]
    for size in range(K.m + 1):
        for I in map(frozenset, itertools.combinations(range(1, K.m + 1), size)):
            cells: dict[int, list[frozenset]] = {}
            for sigma in faces:
                if sigma <= I:
                    cells.setdefault(len(sigma), []).append(sigma)
            index = {sigma: j for block in cells.values() for j, sigma in enumerate(block)}
            maps = []
            for c in range(1, len(cells)):
                rows = [[0] * len(cells[c]) for _ in cells[c - 1]]
                for j, sigma in enumerate(cells[c]):
                    for i in sigma:
                        before = sum(1 for k in I - sigma if k < i)  # the odd cells before i
                        rows[index[sigma - {i}]][j] = -1 if before % 2 else 1
                maps.append(rows)
            yield size, [len(cells[c]) for c in range(len(cells))], maps


def cellular_moment_angle_homology(K: SimplicialComplex, coeff: str) -> GradedHomology:
    """Unreduced homology of Z_K from its cellular chain complex: over Z by
    ``dense_smith_normal_form``, over F_p by ``mod_p_rank``."""
    p = None if coeff == "Z" else int(coeff[1:])
    terms = []
    for size, dims, maps in cellular_blocks(K):
        if p is None:
            snfs = [dense_smith_normal_form(IntegerMatrix(len(rows), len(rows[0]),
                                                          tuple(map(tuple, rows))))
                    for rows in maps]
            ranks, torsion = [s.rank for s in snfs], [s.torsion for s in snfs]
        else:
            ranks, torsion = [mod_p_rank(rows, p) for rows in maps], [()] * len(maps)
        ranks.append(0)
        torsion.append(())
        for c, dim in enumerate(dims):  # a cell (sigma, I - sigma) has dimension |sigma| + |I|
            terms.append((c + size, dim - (ranks[c - 1] if c else 0) - ranks[c], torsion[c]))
    return dict_direct_sum(coeff, terms)


def stacked_sphere_facets(n: int, m: int, rng: random.Random) -> list[list[int]]:
    """Facets of the boundary of a stacked n-polytope on m vertices: the
    boundary of the n-simplex with ``rng``-chosen facets subdivided by the
    vertices n + 2, ..., m in turn."""
    facets = [frozenset(f) for f in itertools.combinations(range(1, n + 2), n)]
    for v in range(n + 2, m + 1):
        old = facets.pop(rng.randrange(len(facets)))
        facets.extend((old - {u}) | {v} for u in sorted(old))
    return sorted(sorted(f) for f in facets)


# ---------------------------------------------------------------------------
# The dense field kernel the library used before its sparse eliminator:
# field objects, RREF, normal forms and kernels.  It is the oracle of
# ``linalg.echelon``, ``normal_form`` and ``kernel_vectors``, and the field
# arithmetic of the oracles below, which so share no code with the engine.


class PrimeField:
    """Arithmetic in F_p with elements stored as ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, a: int) -> int:
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0


class RationalField:
    """Arithmetic in Q via Fraction."""

    zero, one, from_int = Fraction(0), Fraction(1), Fraction

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    def inv(self, a):
        return self.one / a

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0


def field_for_tag(coeff: str):
    """Map a coefficient tag ('Q', 'F2', 'F3', ...) to a field object."""
    if coeff == "Q":
        return RationalField()
    if coeff.startswith("F") and coeff[1:].isdecimal():
        return PrimeField(int(coeff[1:]))
    raise InputError(f"unknown coefficient tag {coeff!r}; use 'Q' or 'F<p>'")


def rref(rows: list[list], ncols: int, field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form: (reduced nonzero rows, pivot columns).

    Every pivot row is zero in the other pivot columns, so the result depends
    only on the row space, not on the order of the input rows.
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    m = len(work)
    for c in range(ncols):
        piv = next((i for i in range(r, m) if not field.is_zero(work[i][c])), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = field.inv(work[r][c])
        prow = work[r] = [field.mul(inv, x) for x in work[r]]
        support = [j for j, x in enumerate(prow) if not field.is_zero(x)]
        for i, row in enumerate(work):
            f = row[c]
            if i != r and not field.is_zero(f):
                for j in support:
                    row[j] = field.sub(row[j], field.mul(f, prow[j]))
        pivots.append(c)
        r += 1
        if r == m:
            break
    return work[:r], pivots


def reduce_against(vec: list, rref_rows: list[list], pivots: list[int], field) -> list:
    """Normal form of vec modulo the row space given in RREF."""
    v = list(vec)
    for row, p in zip(rref_rows, pivots):
        c = v[p]
        if not field.is_zero(c):
            v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
    return v


def kernel_basis(rows: list[list], ncols: int, field) -> list[list]:
    """Basis of the right kernel of the matrix, one vector per free column."""
    red, pivots = rref(rows, ncols, field)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for row, p in zip(red, pivots):
            v[p] = field.neg(row[f])
        basis.append(v)
    return basis


def brute_boundaries(maximal_faces):
    """Augmented boundary matrices from scratch (tuples, not bitmasks).

    Returns (mats, dims) where mats[k] maps the span of (k+1)-vertex faces
    to the span of k-vertex faces, and dims[k] counts k-vertex faces.
    """
    faces = powerset_faces(maximal_faces)
    top = max(len(f) for f in faces)
    by_card = [sorted(f for f in faces if len(f) == c) for c in range(top + 1)]
    index = [{f: i for i, f in enumerate(lst)} for lst in by_card]
    dims = [len(lst) for lst in by_card]
    mats = []
    for c in range(1, top + 1):
        rows = [[0] * dims[c] for _ in range(dims[c - 1])]
        for col, f in enumerate(by_card[c]):
            for t in range(len(f)):
                sub = f[:t] + f[t + 1 :]
                rows[index[c - 1][sub]][col] = (-1) ** t
        mats.append(rows)
    return mats, dims


def brute_reduced_betti(maximal_faces, rank_fn=fraction_rank) -> dict[int, int]:
    """Reduced Betti numbers over Q (or F2 with rank_fn=f2_rank)."""
    mats, dims = brute_boundaries(maximal_faces)
    ranks = [rank_fn(m) if m and m[0] else 0 for m in mats]
    betti = {}
    for k, dim in enumerate(dims):
        out_rank = ranks[k - 1] if k >= 1 else 0
        in_rank = ranks[k] if k < len(mats) else 0
        b = dim - out_rank - in_rank
        if b:
            betti[k - 1] = b
    return betti


FIELD_TAGS = (("Q", 0), ("F2", 2), ("F3", 3))  # each tag with the p of echelon


def field_ranks_from_z(groups: dict, p: int) -> dict[int, int]:
    """Betti numbers over F_p, or Q for p = 0, of the integral groups
    {degree: (free rank, torsion)}, by universal coefficients: the free rank
    plus the invariant factors divisible by p in the degree and the one below."""
    def tors(d):
        return sum(1 for t in groups.get(d, (0, ()))[1] if p and t % p == 0)

    ranks = {d: groups.get(d, (0, ()))[0] + tors(d) + tors(d - 1)
             for d in set(groups) | {d + 1 for d in groups}}
    return {d: r for d, r in ranks.items() if r}


def field_ranks(h) -> dict[int, int]:
    """{degree: rank} of a homology over a field, after checking it has no torsion."""
    assert not any(tors for _, tors in h.as_dict().values()), h
    return {d: r for d, (r, _) in h.as_dict().items()}


def graded_tensor_unreduced(u1: dict[int, int], u2: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for d1, r1 in u1.items():
        for d2, r2 in u2.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + r1 * r2
    return {d: r for d, r in out.items() if r}


def unreduce(reduced: dict[int, int]) -> dict[int, int]:
    """Reduced ranks of a connected space -> unreduced ranks."""
    out = dict(reduced)
    out[0] = out.get(0, 0) + 1
    return out


def reduce_ranks(unreduced: dict[int, int]) -> dict[int, int]:
    out = dict(unreduced)
    out[0] = out.get(0, 0) - 1
    return {d: r for d, r in out.items() if r}


def random_complex_faces(rng: random.Random, m: int, n_faces: int, max_card: int):
    """Random maximal-face candidates (may be redundant; that is fine)."""
    faces = []
    for _ in range(n_faces):
        card = rng.randint(1, max_card)
        faces.append(sorted(rng.sample(range(1, m + 1), min(card, m))))
    return faces


def stellar_sphere(l_facets, k: int) -> tuple[int, list[list[int]]]:
    """(m, sorted facets) of a polytopal (k-2)-sphere whose full subcomplex on
    1..k is the complex L with maximal faces ``l_facets`` on 1..k.

    Starts from the boundary of the simplex on 1..k and stellarly subdivides
    each minimal non-face of L other than 1..k, in order of size, on the new
    vertices k+1, k+2, ...  A subdivided face stops being a face, and a subset
    of 1..k that contains none of them stays one, so the full subcomplex on
    1..k is L.  The minimal non-faces form an antichain, so each is still a
    face when its turn comes.
    Stellar subdivisions of the boundary of a simplicial polytope are again
    such boundaries (Ewald and Shephard, Math. Ann. 210 (1974)), so the result
    is the dual complex of a simple (k-1)-polytope.
    """
    faces = powerset_faces(l_facets)
    non_faces = [s for r in range(1, k) for s in itertools.combinations(range(1, k + 1), r)
                 if s not in faces and all(t in faces for t in itertools.combinations(s, r - 1))]
    facets = [set(range(1, k + 1)) - {v} for v in range(1, k + 1)]
    for m, sigma in enumerate(map(set, non_faces), start=k + 1):
        facets = ([f for f in facets if not sigma <= f]
                  + [f - {u} | {m} for f in facets if sigma <= f for u in sigma])
    return k + len(non_faces), sorted(sorted(f) for f in facets)


@pytest.fixture
def face_listings(monkeypatch) -> list[SimplicialComplex]:
    """The complexes whose faces are listed during the test, once per listing,
    recorded at the one listing point, ``SimplicialComplex._faces``."""
    listed = []
    listing = SimplicialComplex.__dict__["_faces"]
    func = listing.func
    monkeypatch.setattr(listing, "func", lambda K: listed.append(K) or func(K))
    return listed


def run_python(code: str, timeout: float = 20) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports torictop from src,
    under a timeout, so that a call that never returns fails a test instead
    of hanging it."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=timeout)


def steenrod_hit_loop(s: int) -> tuple[int, int] | None:
    """The previous ``steenrod_hit_search``: try j = 1, 2, ..., s // 2 and
    return (s - j, j) for the first j whose bits lie in those of s - j, so
    it walks s / 2 candidates when s = 2^e - 1."""
    for j in range(1, s // 2 + 1):
        r = s - j
        if j & ~r == 0:  # C(r, j) odd
            return (r, j)
    return None


def pascal_parity_table(limit: int):
    """Rows 0..limit of Pascal's triangle mod 2."""
    rows = [[1]]
    for r in range(1, limit + 1):
        prev = rows[-1]
        row = [1] + [(prev[i - 1] + prev[i]) % 2 for i in range(1, r)] + [1]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# the face-ring cohomology engine, kept as the oracle for cohomology_ring
#
# It presents H*(M; k) as the face ring k[K] divided by the linear forms of
# the characteristic matrix and runs one dense RREF per degree over every
# face-supported monomial.  cohomology_ring must agree with it byte for byte.


def _compositions(total: int, parts: int):
    """Positive integer compositions of ``total`` into ``parts`` slots."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _support_mask(exp: tuple[int, ...]) -> int:
    mask = 0
    for i, e in enumerate(exp):
        if e:
            mask |= 1 << i
    return mask


class _DegreeSystem:
    """Monomial columns and relation reducer for one polynomial degree."""

    def __init__(self, cols, col_index, rref_rows, pivots, basis_cols, field):
        self.cols = cols
        self.col_index = col_index
        self.rref_rows = rref_rows
        self.pivots = pivots
        self.basis_cols = basis_cols  # column indices of surviving monomials
        self.field = field

    @property
    def basis(self):
        return tuple(self.cols[c] for c in self.basis_cols)

    def normal_form(self, vec):
        red = reduce_against(vec, self.rref_rows, self.pivots, self.field)
        return tuple(red[c] for c in self.basis_cols)


def face_ring_cohomology(
    P: PolytopeDual, lam: CharacteristicMatrix, coeff: str = "Q"
) -> CohomologyPresentation:
    """Compute the field cohomology presentation of the quasitoric manifold.

    Raises ConsistencyError when a computed dimension disagrees with the
    h-vector; that equality is a theorem, so a failure means corrupt input
    or a bug, never a property of valid data.
    """
    report = validate_characteristic(P, lam)
    if not report.valid:
        raise InputError(
            f"characteristic matrix fails on face {report.failing_face} "
            f"(determinant {report.failing_det})"
        )
    field = field_for_tag(coeff)
    K = P.complex
    n, m = P.n, P.m
    h = h_vector_of(P).entries

    sigma0 = min(K.maximal_faces)
    in_sigma0 = set(sigma0)
    priority = list(sigma0) + [v for v in range(1, m + 1) if v not in in_sigma0]

    def key(exp):
        return tuple(exp[v - 1] for v in priority)

    faces = sorted(
        {mask for lst in K.faces_by_card().values() for mask in lst if mask},
        key=lambda f: f.bit_count(),
    )
    face_verts = {}
    for f in faces:
        vs = []
        x = f
        v = 1
        while x:
            if x & 1:
                vs.append(v)
            x >>= 1
            v += 1
        face_verts[f] = vs
    face_set = set(faces)

    def monomials(k):
        if k == 0:
            return [(0,) * m]
        out = []
        for f in faces:
            vs = face_verts[f]
            if len(vs) > k:
                continue
            for comp in _compositions(k, len(vs)):
                exp = [0] * m
                for v, e in zip(vs, comp):
                    exp[v - 1] = e
                out.append(tuple(exp))
        out.sort(key=key, reverse=True)
        return out

    lam_field = [[field.from_int(x) for x in row] for row in lam.rows]

    systems: dict[int, _DegreeSystem] = {}
    prev_monomials: list[tuple[int, ...]] = []
    for k in range(0, n + 2):
        cols = monomials(k)
        col_index = {c: i for i, c in enumerate(cols)}
        rows = []
        if k >= 1:
            for i in range(n):
                lam_row = lam_field[i]
                for mu in prev_monomials:
                    vec = [field.zero] * len(cols)
                    hit = False
                    for j in range(m):
                        c = lam_row[j]
                        if field.is_zero(c):
                            continue
                        exp = list(mu)
                        exp[j] += 1
                        texp = tuple(exp)
                        idx = col_index.get(texp)
                        if idx is None:
                            continue  # non-face monomial: zero in the face ring
                        vec[idx] = field.add(vec[idx], c)
                        hit = True
                    if hit:
                        rows.append(vec)
        rref_rows, pivots = rref(rows, len(cols), field)
        basis_cols = [c for c in range(len(cols)) if c not in set(pivots)]
        basis_cols.reverse()  # ascending priority order: smallest monomials first
        systems[k] = _DegreeSystem(cols, col_index, rref_rows, pivots, basis_cols, field)
        if k == 1 and sorted(pivots) != list(range(n)):
            raise ConsistencyError(
                "linear forms failed to pivot on the first maximal face; "
                "the unimodular minor should have made this impossible"
            )
        want = h[k] if k <= n else 0
        if len(basis_cols) != want:
            raise ConsistencyError(
                f"degree {2 * k} has dimension {len(basis_cols)}, "
                f"h-vector predicts {want}"
            )
        prev_monomials = cols

    basis = {k: systems[k].basis for k in range(n + 1)}

    mult_h2 = {}
    for k in range(1, n):
        table = []
        target = systems[k + 1]
        for b2 in basis[1]:
            row = []
            for bt in basis[k]:
                prod = tuple(a + b for a, b in zip(b2, bt))
                if _support_mask(prod) in face_set:
                    vec = [field.zero] * len(target.cols)
                    vec[target.col_index[prod]] = field.one
                    row.append(target.normal_form(vec))
                else:
                    row.append(tuple([field.zero] * len(target.basis_cols)))
            table.append(tuple(row))
        mult_h2[k] = tuple(table)

    pres = CohomologyPresentation(
        coeff=coeff,
        n=n,
        m=m,
        h=h,
        pivot_face=sigma0,
        basis=basis,
        mult_h2=mult_h2,
    )
    if coeff == "F2":
        # the squares, reduced here on their own, are the product diagonal
        target = systems[2]
        cols_out = []
        for b2 in basis[1]:
            sq = tuple(2 * e for e in b2)
            vec = [field.zero] * len(target.cols)
            vec[target.col_index[sq]] = field.one
            cols_out.append(tuple(target.normal_form(vec)))
        assert pres.squaring_cols == tuple(cols_out)
    return pres


# ---------------------------------------------------------------------------
# the per-subset wedge splitting, kept as the oracle for wedge_splitting
#
# It builds and reduces every full subcomplex K_I, cones and join summands
# included.  wedge_splitting must agree with it byte for byte.


def per_subset_wedge_splitting(
    K: SimplicialComplex,
    coeff: str = "Z",
    size_filter: set[int] | None = None,
    cap: int | None = None,
    homology=reduced_homology,
) -> WedgeSplitting:
    """Enumerate the wedge summands of the suspended moment-angle complex.

    ``size_filter`` restricts to subsets I with |I| in the given set.  The
    enumeration refuses to run past the cap (default 16 vertices with exact
    coefficients, 24 over a finite field) unless ``cap`` overrides it.
    Summands with vanishing homology are only counted.  ``homology(K_I,
    coeff)`` reduces each full subcomplex: the library's by default, or an
    oracle such as ``echelon_reduced_homology``.
    """
    limit = _cap_for(coeff, cap)
    if K.m > limit:
        raise CapExceededError(
            f"m={K.m} exceeds the enumeration cap {limit}; pass a larger cap to override"
        )
    if size_filter is not None:
        size_filter = set(size_filter)
        if any(s < 1 or s > K.m for s in size_filter):
            raise InputError("size filter values must lie in 1..m")

    summands: list[WedgeSummand] = []
    trivial = 0
    terms = []
    for mask in range(1, 1 << K.m):
        size = mask.bit_count()
        if size_filter is not None and size not in size_filter:
            continue
        hom = homology(full_subcomplex(K, _vertices_of(mask)), coeff)
        if hom.is_trivial():
            trivial += 1
            continue
        summands.append(WedgeSummand(subset=_vertices_of(mask), homology=hom))
        terms.extend((deg + size + 1, rank, tors) for deg, (rank, tors) in hom.groups)
    summands.sort(key=lambda s: (len(s.subset), s.subset))
    return WedgeSplitting(
        m=K.m,
        coeff=coeff,
        summands=tuple(summands),
        trivial_count=trivial,
        total=dict_direct_sum(coeff, terms),
    )


# ---------------------------------------------------------------------------
# the previous projection certificates, kept as the oracle for
# projection._certificates
#
# Every one of the 2^m - 1 summands is materialized, with empty homology when
# the splitting drops it, and each one scans the facets of K for dim K_I and
# the face test.  Patched in for projection._certificates, it must give the
# same report bytes.


def _certify_summand(subset, sub_homology, is_face, sub_dim, p) -> SummandCertificate:
    size = len(subset)
    i = residue_class(size, p)
    target_dim = 2 * i + 1
    if is_face:
        return SummandCertificate(subset, i, CERT_SIMPLEX, {"face": True})
    if size == i:
        # not a simplex, so dim K_I <= |I| - 2 and the summand has dimension
        # at most 2|I| = 2i < 2i+1
        top_cell = size + 2 + sub_dim
        details = {"dim_K_I": sub_dim, "top_cell": top_cell, "bound": 2 * size,
                   "target_sphere": target_dim}
        if sub_dim > size - 2 or top_cell > 2 * size:
            return SummandCertificate(subset, i, CERT_NONE, details)
        return SummandCertificate(subset, i, CERT_DIMENSION, details)
    # the degrees of the suspended summand that p-local homology sees
    degrees = [deg + size + 2 for deg, (rank, tors) in sub_homology.groups
               if rank > 0 or any(t % p == 0 for t in tors)]
    details = {"source_degrees": degrees, "target_sphere": target_dim}
    ok = vanishing_range_check(degrees, target_dim, p)
    return SummandCertificate(subset, i, CERT_VANISHING if ok else CERT_NONE, details)


def summand_scan_certificates(P: PolytopeDual, p: int, cap: int | None) -> list:
    K = P.complex
    kept = {s.subset: s.homology for s in per_subset_wedge_splitting(K, "Z", cap=cap).summands}
    certs = []
    for subset in sorted(map(_vertices_of, range(1, 1 << K.m)), key=lambda I: (len(I), I)):
        mask = sum(1 << (v - 1) for v in subset)
        # K_I's largest face has `top` vertices: dim K_I = top - 1, and I
        # spans a face exactly when top = |I|
        top = max((f & mask).bit_count() for f in K.masks)
        hom = kept.get(subset, GradedHomology("Z", ()))
        certs.append(_certify_summand(subset, hom, top == len(subset), top - 1, p))
    return certs


# ---------------------------------------------------------------------------
# the previous maximal-face filter, direct sums and torsion regrouping, kept
# as oracles for complexes._maximal, GradedHomology.direct_sum and
# homology.merge_torsion
#
# full_subcomplex compared every pair of restricted faces; wedge_splitting
# folded its total, and the join Kuenneth sum its groups, into a rank dict
# and a torsion dict by degree; merge_torsion split each order into prime
# powers by trial division, which never ends on an order with a large prime
# factor, so the oracle takes small orders only.


def pairwise_maximal_faces(faces) -> list[int]:
    """The masks among ``faces`` that lie in no other, in increasing order;
    the empty face stays only when it is the only face."""
    distinct = set(faces)
    return sorted(f for f in distinct if not any(f != g and f & ~g == 0 for g in distinct))


def prime_power_merge_torsion(parts: list[int]) -> tuple[int, ...]:
    """Invariant factors of a direct sum of cyclic groups Z/d.

    Splits each d into prime powers, then regroups the largest powers of
    every prime into one factor, the next largest into the next, and so on,
    which restores the divisibility chain.
    """
    by_prime: dict[int, list[int]] = {}
    for d in parts:
        d = abs(d)
        if d <= 1:
            continue
        p = 2
        while p * p <= d:
            if d % p == 0:
                e = 0
                while d % p == 0:
                    d //= p
                    e += 1
                by_prime.setdefault(p, []).append(e)
            p += 1
        if d > 1:
            by_prime.setdefault(d, []).append(1)
    for exps in by_prime.values():
        exps.sort(reverse=True)
    depth = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for level in range(depth):
        f = 1
        for p, exps in by_prime.items():
            if level < len(exps):
                f *= p ** exps[level]
        factors.append(f)
    return tuple(sorted(factors))


def dict_direct_sum(coeff: str, terms) -> GradedHomology:
    """The direct sum of (degree, rank, cyclic orders) terms, as the wedge
    total was accumulated: ranks and orders in two dicts, merged at the end."""
    total_rank: dict[int, int] = {}
    total_tors: dict[int, list[int]] = {}
    for d, rank, tors in terms:
        total_rank[d] = total_rank.get(d, 0) + rank
        if tors:
            total_tors.setdefault(d, []).extend(tors)
    assembled = {
        d: (total_rank.get(d, 0), prime_power_merge_torsion(total_tors.get(d, [])))
        for d in set(total_rank) | set(total_tors)
    }
    return GradedHomology.from_dict(coeff, assembled)


def dict_join_homology(A: GradedHomology, B: GradedHomology) -> GradedHomology:
    """Reduced homology of a join from its two sides by the Kuenneth sum, as
    ``momentangle._join_homology`` accumulated it before ``direct_sum``."""
    rank: dict[int, int] = {}
    tors: dict[int, list[int]] = {}
    for i, (ra, ta) in A.groups:
        for j, (rb, tb) in B.groups:
            d = i + j + 1
            rank[d] = rank.get(d, 0) + ra * rb
            cross = [math.gcd(a, b) for a in ta for b in tb]  # Z/a (x) Z/b = Tor = Z/gcd
            tors.setdefault(d, []).extend(list(ta) * rb + list(tb) * ra + cross)
            tors.setdefault(d + 1, []).extend(cross)
    return GradedHomology.from_dict(
        A.coeff,
        {d: (rank.get(d, 0), prime_power_merge_torsion(tors.get(d, [])))
         for d in set(rank) | set(tors)},
    )


# ---------------------------------------------------------------------------
# small quadratic presentations over F2, kept as oracles for cohomology_ring
# and cube_census
#
# The symbolic mod-2 presentations the library used for the 3-cube and for
# products of two simplices, before every presentation came from
# cohomology_ring.  Copied unchanged from the library, except that the
# record is a frozen dataclass.


@dataclass(frozen=True)
class QuadraticPresentationF2:
    """Symbolic mod-2 presentation for the two low-dimensional families.

    kind 'cube': F2[x,y,z] / (x^2+x(ay+bz), y^2+y(cx+dz), z^2+z(ex+fy));
    kind 'two-simplices': F2[x,y] / (x^(k'-l+1)(x+y)^l, y^(n-k'+1)).
    """

    kind: str
    params: tuple[int, ...]
    valid: bool | None
    h2_dim: int
    h4_dim: int
    squaring: tuple[tuple[int, ...], ...]  # rows over the degree-4 basis
    h2_names: tuple[str, ...]

    def squaring_matrix(self) -> list[list[int]]:
        return [list(r) for r in self.squaring]

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "params": list(self.params),
            "valid": self.valid,
            "h2_dim": self.h2_dim,
            "h4_dim": self.h4_dim,
            "squaring": [list(r) for r in self.squaring],
        }


def cube_determinant_f2(a: int, b: int, c: int, d: int, e: int, f: int) -> int:
    """F2 determinant of [[1,c,e],[a,1,f],[b,d,1]]."""
    return (1 + f * d + c * a + c * f * b + e * a * d + e * b) % 2


def cube_presentation(a: int, b: int, c: int, d: int, e: int, f: int) -> QuadraticPresentationF2:
    """Quadratic presentation attached to a quasitoric manifold over the 3-cube.

    Validity demands every pairwise product ac, df, be to vanish and the
    determinant to be 1: these are exactly the mod-2 shadows of the
    unimodular principal minors of a characteristic matrix in refined form.
    (The pair condition be = 0 is forced by the 2x2 principal minor on the
    first and third stages, symmetrically to ac and df.)
    """
    a, b, c, d, e, f = (int(x) % 2 for x in (a, b, c, d, e, f))
    valid = (
        a * c == 0 and d * f == 0 and b * e == 0 and cube_determinant_f2(a, b, c, d, e, f) == 1
    )
    squaring = (
        (a, c, 0),
        (b, 0, e),
        (0, d, f),
    )
    return QuadraticPresentationF2(
        kind="cube",
        params=(a, b, c, d, e, f),
        valid=valid,
        h2_dim=3,
        h4_dim=3,
        squaring=squaring,
        h2_names=("x", "y", "z"),
    )


def _poly_mul(p1: dict, p2: dict) -> dict:
    out: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in p1.items():
        for (i2, j2), c2 in p2.items():
            k = (i1 + i2, j1 + j2)
            out[k] = (out.get(k, 0) + c1 * c2) % 2
    return {k: v for k, v in out.items() if v}


def product_presentation(n: int, kprime: int, ell: int) -> QuadraticPresentationF2:
    """Mod-2 presentation for quasitoric manifolds over a product of two simplices."""
    if not (0 <= ell <= kprime <= n):
        raise InputError("need 0 <= l <= k' <= n")
    x_plus_y = {(1, 0): 1, (0, 1): 1}
    r1 = {(kprime - ell + 1, 0): 1}
    for _ in range(ell):
        r1 = _poly_mul(r1, x_plus_y)
    r2 = {(0, n - kprime + 1): 1}
    relations = [r1, r2]
    field = PrimeField(2)

    def degree_system(d):
        cols = [(d - j, j) for j in range(d + 1)]
        col_index = {c: i for i, c in enumerate(cols)}
        rows = []
        for r in relations:
            deg_r = max(i + j for (i, j) in r)
            if deg_r > d:
                continue
            extra = d - deg_r
            for t in range(extra + 1):
                vec = [0] * len(cols)
                for (i, j), c in r.items():
                    vec[col_index[(i + extra - t, j + t)]] ^= c
                rows.append(vec)
        rref_rows, pivots = rref(rows, len(cols), field)
        basis_cols = [c for c in range(len(cols)) if c not in set(pivots)]
        return cols, rref_rows, pivots, basis_cols

    cols1, rr1, pv1, b1 = degree_system(1)
    cols2, rr2, pv2, b2 = degree_system(2)
    sq_cols = []
    for c in b1:
        i, j = cols1[c]
        vec = [0] * len(cols2)
        vec[cols2.index((2 * i, 2 * j))] = 1
        red = reduce_against(vec, rr2, pv2, field)
        sq_cols.append(tuple(red[cc] for cc in b2))
    squaring = tuple(
        tuple(col[r] for col in sq_cols) for r in range(len(b2))
    )
    names = tuple("xy"[cols1[c].index(1)] if 1 in cols1[c] else "?" for c in b1)
    return QuadraticPresentationF2(
        kind="two-simplices",
        params=(n, kprime, ell),
        valid=None,
        h2_dim=len(b1),
        h4_dim=len(b2),
        squaring=squaring,
        h2_names=names,
    )


def unimodular_inverse(rows: list[list[int]]) -> list[list[int]]:
    """Integer inverse of a square matrix with determinant +-1 (adjugate)."""
    n = len(rows)
    d = linalg.det_int(rows)
    if d not in (1, -1):
        raise ValueError(f"matrix has determinant {d}, not a unit")
    inv = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            inv[j][i] = (-1) ** (i + j) * linalg.det_int(minor) * d
    return inv


def cube_parameters(P: PolytopeDual, lam: CharacteristicMatrix) -> QuadraticPresentationF2:
    """Extract the mod-2 quadratic presentation from quasitoric data over the 3-cube.

    Works for any admissible matrix, not only refined ones: the column
    submatrix on the first maximal face is inverted over the integers and
    used to rewrite the remaining columns.
    """
    if P.n != 3 or P.m != 6:
        raise InputError("cube parameters need a 3-polytope with 6 facets")
    K = P.complex
    # antipodal pairing: each vertex has exactly one non-neighbor
    partner = {}
    for v in range(1, 7):
        non = [w for w in range(1, 7) if w != v and not K.has_face([v, w])]
        if len(non) != 1:
            raise InputError("dual complex is not the boundary of the 3-dimensional cross-polytope")
        partner[v] = non[0]
    require_admissible(P, lam)
    sigma0 = min(K.maximal_faces)
    free = [partner[v] for v in sigma0]
    S = unimodular_inverse(lam.column_submatrix(sigma0))
    B = linalg.matmul_int(S, lam.column_submatrix(free), 3)
    Bbar = [[x % 2 for x in row] for row in B]
    for k in range(3):
        if Bbar[k][k] != 1:
            raise ConsistencyError("diagonal of the reduced matrix must be odd for admissible data")
    a, b = Bbar[0][1], Bbar[0][2]
    c, d = Bbar[1][0], Bbar[1][2]
    e, f = Bbar[2][0], Bbar[2][1]
    return cube_presentation(a, b, c, d, e, f)


# ---------------------------------------------------------------------------
# the p-local rules as they were written twice, before each had one copy


def split_by_double_loop(b, p: int) -> list[tuple[int, GradedHomology]]:
    """(i, homology) of each wedge piece: for every i, a pass over every k."""
    out = []
    for i in range(1, p):
        groups = {}
        for k in range(1, b.n_top + 1):
            if (k - i) % (p - 1) == 0 and b.b[k]:
                groups[2 * k + 1] = (b.b[k], ())
        out.append((i, GradedHomology.from_dict("Z", groups)))
    return out


def two_part_vanishing_rule(degrees, target_dim: int, p: int) -> bool:
    """The old library check, which failed only an even degree 2j above the
    sphere with j >= l + p - 1, and the certificate's loop on odd degrees."""
    ell = (target_dim - 1) // 2
    ok = not any(d % 2 == 0 and d > target_dim and d // 2 >= ell + p - 1 for d in degrees)
    for d in degrees:
        if d % 2 and d > target_dim and d >= 2 * (ell + p - 1):
            ok = False
    return ok


# ---------------------------------------------------------------------------
# the argparse parser the CLI had before its table-driven parser, unchanged
# but for the module docstring it reads


def _add_io(sub, input_required=True):
    if input_required:
        sub.add_argument("--input", help="path to a JSON input file")
        sub.add_argument("--fixture", help="name of a bundled fixture")
    sub.add_argument("--output", help="write the report here instead of stdout")
    sub.add_argument("--text", action="store_true", help="human-readable output")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="torictop", description=cli.__doc__.split("\n")[0])
    ap.add_argument("--version", action="version", version=f"torictop {__version__}")
    subs = ap.add_subparsers(dest="command", required=True)

    s = subs.add_parser("hvec", help="f-vector and h-vector of a polytope")
    _add_io(s)
    s.set_defaults(func=_cmd_hvec)

    s = subs.add_parser("zk", help="moment-angle wedge splitting and homology")
    _add_io(s)
    s.add_argument("--coeff", default="Z", help="Z, Q or F<p> (default Z)")
    s.add_argument("--sizes", help="comma-separated |I| filter, e.g. 2,3")
    s.add_argument("--cap", type=int, help="override the enumeration cap")
    s.set_defaults(func=_cmd_zk)

    s = subs.add_parser("qtm", help="cohomology presentation of a quasitoric manifold")
    _add_io(s)
    s.add_argument("--coeff", default="Q", help="Q or F<p> (default Q)")
    s.set_defaults(func=_cmd_qtm)

    s = subs.add_parser("split", help="p-local pieces of the suspended manifold")
    _add_io(s)
    s.add_argument("--p", type=int, required=True, help="odd prime")
    s.add_argument("--u", type=int, help="override the primitive root (validated, no effect)")
    s.set_defaults(func=_cmd_split)

    s = subs.add_parser("projection", help="certificates for the suspended quotient map")
    _add_io(s)
    s.add_argument("--p", type=int, required=True, help="odd prime")
    s.add_argument("--cap", type=int, help="override the enumeration cap")
    s.set_defaults(func=_cmd_projection)

    s = subs.add_parser("nontrivial", help="one-sided non-triviality verdicts")
    _add_io(s, input_required=True)
    s.add_argument(
        "--two-simplices", nargs=2, type=int, metavar=("N", "K"),
        help="run the arithmetic test for a product of simplices instead of a file",
    )
    s.set_defaults(func=_cmd_nontrivial)

    s = subs.add_parser("cube-census", help="all quadratic presentations over the 3-cube")
    _add_io(s, input_required=False)
    s.set_defaults(func=_cmd_cube_census)

    s = subs.add_parser("bott", help="characteristic data for a projective-bundle tower")
    _add_io(s)
    s.set_defaults(func=_cmd_bott)

    s = subs.add_parser("fixtures", help="list or dump bundled fixtures")
    s.add_argument("--name", help="dump this fixture instead of listing")
    s.add_argument("--output", help="write the report here instead of stdout")
    s.add_argument("--text", action="store_true", help="human-readable output")
    s.set_defaults(func=_cmd_fixtures)

    return ap
