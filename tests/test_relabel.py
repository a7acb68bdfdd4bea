"""Relabelling the basis moves the qc split along and changes no output.

A qc frame is an index split, eta_r = e^{v_r} and xi_r = e_{v_r}.  Every
catalog and perfbench/gen.py frame is `horizontal 1 2 3 4 vertical 5 6 7`, so
a read that confuses a position with an index would go unseen there.  Each
pipeline case is rewritten in a permuted basis e'_{p(i)} = e_i, moving the
differentials, the omegas and the split, printed and parsed back, and must
give the same report, pass flag, adapted shape and duality verdicts.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from qcalc.catalog import source
from qcalc.exterior import Form, LieAlgebra
from qcalc.family import specialize
from qcalc.parser import AlgebraDocument, parse, print_document
from qcalc.qc import adapted_shape, check_bi1, check_compatibility
from qcalc.report import build_report
from qcalc.scalars import replace
from oracles import document
from test_conformal import G2_ROTATED, PIPELINE_CASES

# p(1), ..., p(7): vertical sets (1, 2, 3), (2, 5, 7), then neither block increasing
FIXED = [(4, 5, 6, 7, 1, 2, 3), (1, 3, 4, 6, 2, 5, 7), (7, 3, 1, 5, 6, 2, 4)]
PERMS = [dict(zip(range(1, 8), p)) for p in FIXED] + [
    dict(zip(range(1, 8), random.Random(seed).sample(range(1, 8), 7))) for seed in range(3)
]

NOT_BI1 = source("heisenberg").replace("d e6 = e13 + e42", "d e6 = e13 - e24 + e27 + e45")
OFF_H = source("heisenberg").replace("omega1 = e12 + e34", "omega1 = e12 + e34 + e56")


def move(f: Form, perm: dict[int, int]) -> Form:
    out = Form.zero(f.dim, f.degree)
    for key, c in f.terms.items():
        out = out + Form.monomial(f.dim, c, tuple(perm[i] for i in key))
    return out


def relabel(doc: AlgebraDocument, perm: dict[int, int]) -> AlgebraDocument:
    g, qc = doc.algebra, doc.frame
    diffs = {perm[k]: move(f, perm) for k, f in enumerate(g.differentials, start=1)}
    moved = AlgebraDocument(
        LieAlgebra(g.name, g.dim, tuple(diffs[k] for k in range(1, g.dim + 1)), g.param),
        replace(
            qc,
            horizontal=tuple(perm[i] for i in qc.horizontal),
            vertical=tuple(perm[i] for i in qc.vertical),
            omegas=tuple(move(om, perm) for om in qc.omegas),
        ),
    )
    return parse(print_document(moved))


def case_document(name: str) -> AlgebraDocument:
    return parse(G2_ROTATED) if name == "g2_rot" else document(name)


def algebra(doc: AlgebraDocument, mu):
    g = doc.algebra
    return specialize(g, Fraction(mu)) if mu is not None else g


@lru_cache(maxsize=None)
def original(name: str, mu):
    doc = case_document(name)
    g, frame = algebra(doc, mu), doc.frame
    return build_report(g, frame), adapted_shape(g, frame)


@pytest.mark.parametrize("perm", PERMS, ids=[f"p{i}" for i in range(len(PERMS))])
@pytest.mark.parametrize("name,mu", PIPELINE_CASES)
def test_relabelled_basis_gives_the_same_report(name, mu, perm):
    doc = case_document(name)
    moved = relabel(doc, perm)
    assert moved.frame.vertical == tuple(perm[v] for v in doc.frame.vertical)
    g, frame = algebra(moved, mu), moved.frame
    report, shape = original(name, mu)
    assert report[1]
    assert build_report(g, frame) == report
    got = adapted_shape(g, frame)
    assert got == (None if shape is None else tuple(move(f, perm) for f in shape))


@pytest.mark.parametrize("perm", PERMS, ids=[f"p{i}" for i in range(len(PERMS))])
def test_relabelled_failures_stay_failures(perm):
    doc = relabel(parse(NOT_BI1), perm)
    g, frame = doc.algebra, doc.frame
    assert check_compatibility(g, frame)
    assert check_bi1(g, frame) == (False, [
        "(xi_1 . d eta_2)|_H != -(xi_2 . d eta_1)|_H",
        "(xi_2 . d eta_3)|_H != -(xi_3 . d eta_2)|_H",
    ])
    doc = relabel(parse(OFF_H), perm)
    assert not check_compatibility(doc.algebra, doc.frame)
