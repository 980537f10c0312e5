"""Drinfeld modules over F_q[T], twisted polynomial isogenies, and the
recursive towers they generate, with exhaustive small-field verification."""

from .drinfeld import APoly, DrinfeldModule, is_supersingular, j_invariant, phi_a
from .field import FieldCtx, embed, make_field
from .isogeny import TowerParams, XChain, eta, lambda_poly, q_poly
from .ore import Subspace, TwistedPoly, kernel, solve_affine, splitting_degree
from .towers import RSU, TowerPoint, enumerate_rational, ihara_bound, rsu

__all__ = [
    "APoly",
    "DrinfeldModule",
    "FieldCtx",
    "RSU",
    "Subspace",
    "TowerParams",
    "TowerPoint",
    "TwistedPoly",
    "XChain",
    "embed",
    "enumerate_rational",
    "eta",
    "ihara_bound",
    "is_supersingular",
    "j_invariant",
    "kernel",
    "lambda_poly",
    "make_field",
    "phi_a",
    "q_poly",
    "rsu",
    "solve_affine",
    "splitting_degree",
]

__version__ = "0.1.0"
