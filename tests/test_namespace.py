"""The public namespace: each core module's ``__all__`` lists only names that
the module defines, and ``privsq`` re-exports exactly those lists."""

import ast
import importlib
import inspect

import pytest

import privsq

CORE = ("layout", "tensor", "metric", "entropy", "private_states", "squashed")

# every name privsq exported while it kept its own list; none may disappear
EARLIER_PACKAGE_NAMES = """
__version__ LayoutError SystemLayout fresh_label DensityOperator PureStateVector Isometry kron
partial_trace permute_systems eigh purify apply_stinespring dephase haar_unitary random_density
random_pure trace_distance fidelity FidelityPair uhlmann_align matched_extension vn_entropy
cond_entropy cond_mutual_info total_correlation dual_total_correlation binary_entropy
cond_entropy_continuity cmi_continuity PrivateStateSpec ghz_state max_entangled uniform_classical
private_state purify_private_state privacy_deviation approx_private_state random_private_spec
SquashingAnsatz OptimizerConfig BoundReport extend_by_squashing squashing_value
squashed_multi_upper private_identity_residual key_length_bound key_rate_bound
channel_squashed_upper
""".split()


def top_level_definitions(module) -> set[str]:
    """Names that ``module``'s own source binds by ``def``, ``class`` or
    assignment at top level (not by an import)."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", CORE)
def test_a_core_module_lists_only_names_it_defines_and_the_package_exports_them(name):
    module = importlib.import_module(f"privsq.{name}")
    defined = top_level_definitions(module)
    for public in module.__all__:
        obj = getattr(module, public)
        assert public in defined, f"{name}.{public} is not defined in {name}"
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, f"{name}.{public}"
        assert getattr(privsq, public) is obj, f"privsq.{public} is not {name}.{public}"


def test_the_package_list_is_the_core_lists_in_order_and_keeps_every_earlier_name():
    lists = [importlib.import_module(f"privsq.{name}").__all__ for name in CORE]
    assert privsq.__all__ == ["__version__"] + [n for names in lists for n in names]
    assert len(set(privsq.__all__)) == len(privsq.__all__)
    assert set(EARLIER_PACKAGE_NAMES) <= set(privsq.__all__)
    for public in privsq.__all__:
        assert hasattr(privsq, public), public
