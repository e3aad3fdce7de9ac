"""nilsym: exact symplectic/contact structure detection for nilpotent Lie
algebras presented by rational structure constants.

All arithmetic is exact (Fractions end to end); negative verdicts are
proofs that a generic polynomial vanishes identically, positive verdicts
ship a rational witness form.
"""

from .exterior import Multivector, indices_of, mask_of, wedge_sign
from .mpoly import MPoly, find_nonvanishing_point
from .liealg import (LieAlgebra, UcsProfile, direct_product, jacobi_violation,
                     upper_central_series)
from .cecomplex import CEComplex, betti_numbers, build_complex, cocycle_basis
from .detect import (ContactVerdict, FormCheckReport, SymplecticVerdict,
                     contact_decide, contact_polynomial, pfaffian_polynomial,
                     symplectic_decide, verify_claimed_form)
from .catalog import (CatalogEntry, CatalogError, builtin, parse_catalog,
                      parse_catalog_file, parse_form, render_catalog,
                      render_form)

__version__ = "0.1.0"

__all__ = [
    "Multivector", "MPoly", "LieAlgebra", "UcsProfile",
    "CEComplex", "SymplecticVerdict", "ContactVerdict",
    "FormCheckReport", "CatalogEntry", "CatalogError",
    "mask_of", "indices_of", "wedge_sign", "find_nonvanishing_point",
    "jacobi_violation", "upper_central_series",
    "direct_product",
    "build_complex", "cocycle_basis",
    "betti_numbers", "symplectic_decide", "contact_decide",
    "pfaffian_polynomial", "contact_polynomial",
    "verify_claimed_form",
    "builtin", "parse_catalog", "parse_catalog_file", "parse_form",
    "render_catalog", "render_form",
]
