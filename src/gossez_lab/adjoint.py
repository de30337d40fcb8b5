"""The adjoint of G on the measure model.

On a measure mu = (atomic part, mass a at infinity) the adjoint acts in
closed form as

    G* mu = -a * ones - G(atomic),

always a convergent TailSeq, and satisfies <y, G* mu> = <mu, G y> for every
finitely supported y.  Within the model G* is injective: only the zero
measure maps to 0.  The measures that make the full adjoint fail
injectivity (atom-free, mass-free, yet nonzero) are not representable.

The graphs Graph(-G*) and Graph G* are the Fitzpatrick graphs of G and -G
in the second system; their points are ``fitz_point`` of the
``fitz.OPERATORS`` entries ``G-second`` and ``negG-second``.
"""

from __future__ import annotations

from .gossez import _shifted_G
from .spaces import ModelMeasure, TailSeq


def apply_Gstar(mu: ModelMeasure) -> TailSeq:
    """Closed-form adjoint value: -(mass at infinity) * ones - G(atomic).

    Runs G's kernel once with the sign flipped and the mass as a shift, on
    integer numerators over one common denominator: no separate image of
    the atomic part and no TailSeq subtraction.
    """
    return _shifted_G(mu.atomic, -1, -mu.infinity_mass)
