"""The public surface: what each module exports, and the argument checks of the entry points."""

import ast
import inspect

import numpy as np
import pytest

import compound_kit
from compound_kit import (
    IndexTuple,
    InvalidArgumentError,
    adjugate,
    adjugate_via_compound,
    binom,
    closed_form_inverse_nminus1,
    combinat,
    errors,
    exterior,
    gf2_solve,
    inverse_compound,
    is_decomposable,
    least_squares,
    matio,
    numerics,
    preprocess_distinct,
    rank_one_inverse,
    reconstruction_residual,
    recover_singular_values,
    recovery,
    reference,
    sign_reversal_pair,
    wedge,
    wedge_matrix,
)

MODULES = (combinat, errors, exterior, matio, numerics, recovery, reference)


def defined_names(module) -> set[str]:
    """Names that the module's own top-level statements bind, imports excluded."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__.split(".")[-1])
def test_module_exports_only_names_it_defines(module):
    assert module.__all__
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(module.__all__) <= defined_names(module)


def test_package_exports_the_module_lists_in_order():
    assert compound_kit.__all__ == [
        "__version__", *(name for module in MODULES for name in module.__all__)
    ]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(compound_kit, name) is getattr(module, name)
    # the reference route is bound only where it is defined
    assert not set(reference.__all__) & set(vars(recovery))


@pytest.mark.parametrize(
    "call, args, error",
    [
        pytest.param(binom, (-1, 2), InvalidArgumentError, id="binom-negative"),
        pytest.param(IndexTuple, ((), 3), InvalidArgumentError, id="index-tuple-empty"),
        pytest.param(IndexTuple, ((1, 2, 3), 2), InvalidArgumentError, id="index-tuple-too-long"),
        pytest.param(wedge, (), InvalidArgumentError, id="wedge-no-vectors"),
        pytest.param(wedge, ([1.0, 0.0], [1.0, 0.0, 0.0]), InvalidArgumentError,
                     id="wedge-unequal-lengths"),
        pytest.param(wedge, ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]), InvalidArgumentError,
                     id="wedge-k-above-n"),
        pytest.param(wedge_matrix, (np.ones(1), 3, 0), InvalidArgumentError,
                     id="wedge-matrix-k-zero"),
        pytest.param(wedge_matrix, (np.ones(1), 3, 3), InvalidArgumentError,
                     id="wedge-matrix-k-equals-n"),
        pytest.param(wedge_matrix, ([1.0, np.inf, 0.0], 3, 1), InvalidArgumentError,
                     id="wedge-matrix-non-finite"),
        pytest.param(is_decomposable, (np.ones(2), 3, 1), InvalidArgumentError,
                     id="is-decomposable-length"),
        pytest.param(adjugate, (np.ones((2, 3)),), InvalidArgumentError, id="adjugate-non-square"),
        pytest.param(adjugate_via_compound, (np.ones((2, 3)),), InvalidArgumentError,
                     id="adjugate-via-compound-non-square"),
        pytest.param(adjugate, (np.zeros((0, 0)),), InvalidArgumentError, id="adjugate-empty"),
        pytest.param(adjugate_via_compound, (np.zeros((0, 0)),), InvalidArgumentError,
                     id="adjugate-via-compound-empty"),
        pytest.param(sign_reversal_pair, (0,), InvalidArgumentError, id="sign-reversal-pair-zero"),
        pytest.param(least_squares, (np.eye(2), np.ones(3)), InvalidArgumentError,
                     id="least-squares-rhs-length"),
        pytest.param(gf2_solve, (np.eye(2, dtype=int), np.ones(3, dtype=int)),
                     InvalidArgumentError, id="gf2-solve-rhs-length"),
        pytest.param(recover_singular_values, (np.ones(1), 2, 2), InvalidArgumentError,
                     id="singular-values-k-equals-r"),
        pytest.param(recover_singular_values, (np.ones(1), 2, 0), InvalidArgumentError,
                     id="singular-values-k-zero"),
        pytest.param(closed_form_inverse_nminus1, (np.ones((2, 3)),), InvalidArgumentError,
                     id="closed-form-non-square"),
        pytest.param(closed_form_inverse_nminus1, (np.ones((1, 1)),), InvalidArgumentError,
                     id="closed-form-one-by-one"),
        # the input contract of the recovery entry points
        pytest.param(rank_one_inverse, (np.ones((3, 3)), 2, 2, 1), InvalidArgumentError,
                     id="rank-one-shape"),
        pytest.param(inverse_compound, (np.ones((1, 1)), 2, 2, 0), InvalidArgumentError,
                     id="inverse-compound-k-zero"),
        pytest.param(rank_one_inverse, (np.ones((1, 1)), 2, 2, 0), InvalidArgumentError,
                     id="rank-one-k-zero"),
        pytest.param(rank_one_inverse, (np.ones((1, 1)), 2, 2, 3), InvalidArgumentError,
                     id="rank-one-k-above-min"),
        pytest.param(preprocess_distinct, (np.ones((2, 3)), 3, 2), InvalidArgumentError,
                     id="preprocess-row-count"),
        pytest.param(preprocess_distinct, (np.ones((1, 1)), 2, 0), InvalidArgumentError,
                     id="preprocess-k-zero"),
        pytest.param(preprocess_distinct, (np.ones((0, 3)), 2, 3), InvalidArgumentError,
                     id="preprocess-k-above-n"),
        # M must have the shape of compound(A, k), here (6, 6); a (1, 6) M would broadcast
        pytest.param(reconstruction_residual, (np.eye(4), np.ones((1, 6)), 2),
                     InvalidArgumentError, id="residual-shape"),
    ],
)
def test_argument_checks_raise_their_error(call, args, error):
    with pytest.raises(error) as info:
        call(*args)
    # an empty matrix is named by its shape, not by an internal call it reaches
    if any(getattr(arg, "shape", None) == (0, 0) for arg in args):
        assert "(0, 0)" in str(info.value)


@pytest.mark.parametrize(
    "M, k",
    [(np.ones((1, 1)), 0), (np.ones((1, 1)), -1), (np.ones((1, 1)), 3), (np.ones((3, 3)), 1)],
    ids=["k-zero", "k-negative", "k-above-min", "shape"],
)
def test_recovery_entry_points_share_one_input_contract(M, k):
    messages = []
    for call in (inverse_compound, rank_one_inverse):
        with pytest.raises(InvalidArgumentError) as info:
            call(M, 2, 2, k)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
