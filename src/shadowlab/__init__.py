"""shadowlab: exact counting and bound verification for Kruskal-Katona-type
extremal problems on colored hypergraphs, set families, subspace families,
and forbidding systems.

Importing the package registers every layer module in `sys.modules` without
running it: a layer's source is compiled on the first attribute access
(`importlib.util.LazyLoader`).  Each command's handler is in the layer it
drives, and `from . import formats` binds a layer without running it, so a
command compiles only the layers it runs.  The public names below resolve
through the module `__getattr__` (PEP 562).
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# each public name by the layer that defines it
_EXPORTS = {
    "entropy": "ExactDistribution check_cregular_corollary check_key_inequality "
               "check_lemma_disjoint_support check_shearer conditional_entropy entropy",
    "checks": "check_partial_shadow_bound count_partial_shadow_targets weighted_joint_sum",
    "errors": "BoundViolationError CapacityError ValidationError",
    "forbidding": "ForbiddingSystem check_generalized_kk is_compatible qlinear_system repeats_system "
                  "verify_forbidding_axioms",
    "hypergraph": "ColoredHypergraph SetFamily check_kruskal_katona shadow validate",
    "numkit": "gaussian_binom product_falling shadow_bound",
    "problems": "PROBLEMS Problem rainbow_cliques",
    "qlinalg": "SubspaceFamily check_q_kruskal_katona enumerate_subspaces rref",
    "reports": "BoundReport ValidationReport",
    "search": "random_probe search_mixed_4subsets search_rainbow_triangle",
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"

for _layer in (*_EXPORTS, "constructions", "formats"):
    _spec = find_spec(f"{__name__}.{_layer}")
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = _module = module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    if _layer not in _HOME:  # `shadowlab.entropy` is the function, as `from .entropy import entropy` bound it
        globals()[_layer] = _module
del _layer, _spec, _module


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
