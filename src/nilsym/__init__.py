"""nilsym: exact symplectic/contact structure detection for nilpotent Lie
algebras presented by rational structure constants.

All arithmetic is exact (Fractions end to end); negative verdicts are
proofs that a generic polynomial vanishes identically, positive verdicts
ship a rational witness form.
"""

from .exterior import Multivector, indices_of, mask_of, wedge_sign
from .mpoly import MPoly, find_nonvanishing_point
from .liealg import (LieAlgebra, UcsProfile, change_basis, direct_product,
                     instantiate_params, jacobi_holds, jacobi_violation,
                     upper_central_series)
from .cecomplex import (CEComplex, CochainBasisReport, betti_numbers,
                        build_complex, cocycle_basis, d_squared_is_zero)
from .detect import (ContactVerdict, FormCheckReport, SymplecticVerdict,
                     contact_decide, contact_polynomial, pfaffian_polynomial,
                     product_symplectic_witness, symplectic_decide,
                     verify_claimed_form)
from .catalog import (CatalogEntry, CatalogError, builtin, parse_catalog,
                      parse_catalog_file, parse_form, render_catalog,
                      render_form)

__version__ = "0.1.0"

__all__ = [
    "Multivector", "MPoly", "LieAlgebra", "UcsProfile",
    "CEComplex", "CochainBasisReport", "SymplecticVerdict", "ContactVerdict",
    "FormCheckReport", "CatalogEntry", "CatalogError",
    "mask_of", "indices_of", "wedge_sign", "find_nonvanishing_point",
    "jacobi_holds", "jacobi_violation", "upper_central_series",
    "direct_product", "change_basis", "instantiate_params",
    "build_complex", "d_squared_is_zero", "cocycle_basis",
    "betti_numbers", "symplectic_decide", "contact_decide",
    "pfaffian_polynomial", "contact_polynomial",
    "product_symplectic_witness", "verify_claimed_form",
    "builtin", "parse_catalog", "parse_catalog_file", "parse_form",
    "render_catalog", "render_form",
]
