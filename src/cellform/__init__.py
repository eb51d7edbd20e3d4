"""cellform: exact arithmetic for convergent configurations, the leading
coefficients of their cellular integrals, and the modular-form
supercongruences they satisfy."""

__version__ = "0.1.0"

from .catalog import Catalog
from .configurations import (
    Configuration,
    DihedralStructure,
    MultiplicationSite,
    NotMultipliableError,
    apery_power_family,
    apery_power_sigma,
    canonical_configuration,
    canonical_dihedral,
    dual,
    enumerate_convergent,
    format_configuration,
    is_convergent,
    multiplication_triples,
    multiply,
    parse_configuration,
    star_product_pair,
)
from .ctengine import (
    IntervalFormProduct,
    ModelError,
    SequenceRecord,
    best_model,
    constant_term,
    leading_coefficients,
    linear_form_model,
)
from .sequences import (
    a_sigma8,
    apery_a,
    apery_b,
    apery_values,
    harmonic,
    lemma_suite,
    rising_factorial,
)
from .modforms import (
    ETA4_2Z_4Z,
    ETA6_4Z,
    ETA12_2Z,
    EtaProductSpec,
    eta_qexp,
    gamma_cm,
    gamma_cm_power_identity,
    gamma_eta12_pointcount,
    legendre_trace,
    legendre_traces,
    two_squares,
)
from .ffhyper import (
    build_table,
    hyp2f1_exact,
    hyp_greene,
    orthogonality_check,
    teichmuller,
    truncated_2f1_mod_p2,
    truncated_2f1_reference,
)
from .congruences import (
    CongruenceCase,
    CongruenceReport,
    verify_ahlgren,
    verify_beukers,
    verify_conjecture1,
    verify_coster,
    verify_thm1,
    verify_thm2,
)
from .recfit import PolyRecurrence, check_self_duality_symmetry, fit
