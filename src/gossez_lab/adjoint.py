"""The adjoint of G on the measure model.

On a measure mu = (atomic part, mass a at infinity) the adjoint acts in
closed form as

    G* mu = -a * ones - G(atomic),

always a convergent TailSeq, and satisfies <y, G* mu> = <mu, G y> for every
finitely supported y.  The model cannot represent the measures that make G*
fail injectivity (atom-free, mass-free, yet nonzero); ``in_kernel_model``
decides the kernel restricted to the model only.
"""

from __future__ import annotations

from .gossez import _shifted_G
from .spaces import ModelMeasure, PairPoint, TailSeq


def apply_Gstar(mu: ModelMeasure) -> TailSeq:
    """Closed-form adjoint value: -(mass at infinity) * ones - G(atomic).

    Runs G's kernel once with the sign flipped and the mass as a shift, on
    integer numerators over one common denominator: no separate image of
    the atomic part and no TailSeq subtraction.
    """
    return _shifted_G(mu.atomic, -1, -mu.infinity_mass)


def in_kernel_model(mu: ModelMeasure) -> bool:
    """Kernel membership within the model: no atoms and no mass at infinity.

    Equivalent to apply_Gstar(mu) == 0 for representable measures.  The
    nonzero kernel elements of the full adjoint are invisible here.
    """
    return mu.is_zero()


def graph_negGstar_point(mu: ModelMeasure) -> PairPoint:
    """The graph point (mu, -G* mu) of the sign-flipped adjoint.

    For a purely atomic mu this is the canonical embedding of the graph
    point (atomic, G atomic); the mass at infinity adds the constant
    direction a * ones.
    """
    return PairPoint.second(mu, -apply_Gstar(mu))


def graph_Gstar_point(mu: ModelMeasure) -> PairPoint:
    """The graph point (mu, G* mu) of the adjoint itself."""
    return PairPoint.second(mu, apply_Gstar(mu))
