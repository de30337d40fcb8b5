"""Adjoint on the measure model: closed form, adjoint identity, kernel, and
the points of Graph(-G*) and Graph G* from the operator table."""

from fractions import Fraction

from hypothesis import given

from gossez_lab.adjoint import apply_Gstar
from gossez_lab.fitz import OP_G_SECOND, OP_NEGG_SECOND, OPERATORS
from gossez_lab.gossez import apply_G
from gossez_lab.spaces import (
    ModelMeasure,
    PairPoint,
    SparseSeq,
    TailSeq,
    couple,
    pair_measure,
)

from strategies import model_measures, rationals, seq, sparse_seqs

F = Fraction

# (mu, -G* mu) and (mu, G* mu): the Fitzpatrick graphs of G and -G in the
# second system.
graph_negGstar_point = OPERATORS[OP_G_SECOND].fitz_point
graph_Gstar_point = OPERATORS[OP_NEGG_SECOND].fitz_point


def test_apply_Gstar_examples():
    limit_functional = ModelMeasure(SparseSeq.zero(), F(1))
    assert apply_Gstar(limit_functional) == TailSeq.constant(-1)
    atom = ModelMeasure.from_atomic(SparseSeq.unit(1))
    assert apply_Gstar(atom) == TailSeq.constant(1, head=[0])
    assert apply_Gstar(ModelMeasure.zero()) == TailSeq.zero()


@given(sparse_seqs(), model_measures())
def test_adjoint_identity(y, mu):
    assert couple(y, apply_Gstar(mu)) == pair_measure(mu, apply_G(y))


@given(model_measures(), model_measures(), rationals())
def test_adjoint_linear(mu, nu, c):
    assert apply_Gstar(mu + nu.scale(c)) == apply_Gstar(mu) + apply_Gstar(nu).scale(c)


@given(model_measures())
def test_model_kernel_is_trivial(mu):
    # on the model the adjoint is injective: only the zero measure maps to 0
    assert apply_Gstar(mu).is_zero() == mu.is_zero()
    assert graph_negGstar_point(mu).y.is_zero() == mu.is_zero()


def test_kernel_examples():
    assert apply_Gstar(ModelMeasure.zero()).is_zero()
    assert not apply_Gstar(ModelMeasure.from_atomic(SparseSeq.unit(1))).is_zero()
    assert not apply_Gstar(ModelMeasure(SparseSeq.zero(), F(1))).is_zero()


def test_graph_negGstar_point_examples():
    x = seq(2, -1)
    embedded = graph_negGstar_point(ModelMeasure.from_atomic(x))
    assert embedded == PairPoint.second(ModelMeasure.from_atomic(x), apply_G(x))
    unit_mass = ModelMeasure(SparseSeq.zero(), F(1))
    assert graph_negGstar_point(unit_mass) == PairPoint.second(unit_mass, TailSeq.ones())
    zero = graph_negGstar_point(ModelMeasure.zero())
    assert zero == PairPoint.zero(zero.system)


@given(model_measures())
def test_coupling_values_on_adjoint_graphs(mu):
    a = mu.infinity_mass
    gstar = apply_Gstar(mu)
    assert pair_measure(mu, -gstar) == a * a
    assert pair_measure(mu, gstar) == -a * a


@given(model_measures())
def test_graph_points_consistent(mu):
    assert graph_negGstar_point(mu).y == -apply_Gstar(mu)
    assert graph_Gstar_point(mu).y == apply_Gstar(mu)
