"""The package namespace."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import spdprivacy
from spdprivacy import (
    DimensionError,
    DomainError,
    ExperimentSpec,
    RngState,
    TangentVector,
    identity,
    run_image,
    run_synthetic,
    sample_synthetic_spd,
    sensitivity_extrinsic,
    sensitivity_frechet_le,
)
from spdprivacy.geometry import invvecd_stack
from spdprivacy.mechanisms import laplace_chains_stack, tangent_gaussian_stack

# A use of numpy's random module, e.g. np.random.default_rng.
NUMPY_RANDOM = re.compile(r"\b(np|numpy)\.random\b")

# A use of an RngState's numpy generator, e.g. rng.generator.random().
GENERATOR = re.compile(r"\.generator\b")

# The name of the Laplace chain kernel.
CHAIN_KERNEL = re.compile(r"\b_laplace_chains\b")

# A read of a mechanism row's chain field, e.g. row.chain.
CHAIN_FIELD = re.compile(r"\.chain\b")

# A call of numpy's symmetric eigensolvers, or float64's largest value.
FLOAT64_EDGE = re.compile(r"\b(np|numpy)\.linalg\.eig|finfo\(float\)\.max")

# A Sphinx cross-reference in a docstring or comment, e.g. :func:`load_pnm`.
ROLE_REF = re.compile(r":(func|class|data|meth):`([\w.]+)`")


def test_every_exported_name_resolves():
    missing = [name for name in spdprivacy.__all__ if not hasattr(spdprivacy, name)]
    assert missing == []
    assert len(set(spdprivacy.__all__)) == len(spdprivacy.__all__)


def resolves(module, role, name):
    """Whether ``name`` under ``role`` names an object: a ``:meth:`` an
    attribute of a class of ``module`` (of the class it names, if dotted),
    any other bare name an attribute of ``module``, a dotted one absolutely."""
    if role == "meth":
        owner, _, attr = name.rpartition(".")
        classes = [getattr(module, owner, None)] if owner else [
            obj for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
        ]
        return any(inspect.isclass(c) and hasattr(c, attr) for c in classes)
    if "." not in name:
        return hasattr(module, name)
    try:
        pkgutil.resolve_name(name)
    except (ImportError, AttributeError, ValueError):
        return False
    return True


def test_docstring_cross_references_resolve():
    # a docstring that still names a deleted or renamed object fails here
    unresolved = []
    for path in sorted(Path(spdprivacy.__file__).parent.glob("*.py")):
        dotted = "spdprivacy" if path.stem == "__init__" else f"spdprivacy.{path.stem}"
        module = importlib.import_module(dotted)
        for role, name in ROLE_REF.findall(path.read_text(encoding="utf-8")):
            if not resolves(module, role, name):
                unresolved.append(f"{path.name}: :{role}:`{name}`")
    assert unresolved == []


def modules_matching(pattern, allowed):
    """Names of the package's modules, but ``allowed``, whose source
    matches ``pattern``."""
    return [
        path.name
        for path in sorted(Path(spdprivacy.__file__).parent.glob("*.py"))
        if path.name not in allowed and pattern.search(path.read_text(encoding="utf-8"))
    ]


def test_randomness_only_through_rng_state():
    # every draw comes from an RngState, so a seed and a substream path fix
    # the output whatever the run or thread count; sampling.py alone builds one
    assert modules_matching(NUMPY_RANDOM, {"sampling.py"}) == []


def test_release_noise_only_in_mechanisms():
    # Mechanism.release draws every release's noise and, with
    # laplace_chains_stack, alone runs the chain kernel; sampling.py draws
    # datasets, and no other module draws at all
    assert modules_matching(GENERATOR, {"mechanisms.py", "sampling.py"}) == []
    assert modules_matching(CHAIN_KERNEL, {"mechanisms.py"}) == []


def test_chain_read_only_in_mechanisms():
    # Mechanism.release owns the trial stream layout of both row kinds, so
    # no caller (the harness, the CLI) branches on the row being a chain
    assert modules_matching(CHAIN_FIELD, {"mechanisms.py"}) == []


def test_float64_edge_only_in_geometry():
    # what float64 can hold is decided once: geometry alone decomposes
    # matrices (admitting them as SPD) and bounds their exponentials
    assert modules_matching(FLOAT64_EDGE, {"geometry.py"}) == []


def spec(**overrides):
    fields = dict(kind="synthetic", mechanism="tangent_analytic", epsilon_grid=(0.5,),
                  delta_grid=(1e-6,), n=4, trials=1)
    return ExperimentSpec(**{**fields, **overrides})


# Every entry point that takes a matrix size or a count: a call with one
# bad value, the error it must raise (a size is a DimensionError, a count a
# DomainError) and the name the message gives the argument.
INTEGER_ARGUMENTS = {
    "identity": (identity, DimensionError, "dimension"),
    "TangentVector": (lambda v: TangentVector(v, [0.0]), DimensionError, "ambient dimension"),
    "invvecd_stack": (lambda v: invvecd_stack(np.zeros(1), v), DimensionError, "dimension"),
    "sample_synthetic_spd": (
        lambda v: sample_synthetic_spd(RngState(1), v, 0.25), DimensionError, "k"
    ),
    "ExperimentSpec.k": (lambda v: spec(k=v), DimensionError, "k"),
    "sensitivity_frechet_le": (lambda v: sensitivity_frechet_le(v, 1.0), DomainError, "n"),
    "sensitivity_extrinsic": (lambda v: sensitivity_extrinsic(v, 1.0), DomainError, "n"),
    "tangent_gaussian_stack": (
        lambda v: tangent_gaussian_stack(RngState(1), identity(2), 1.0, v), DomainError, "size"
    ),
    "laplace_chains_stack.burn_in": (
        lambda v: laplace_chains_stack(RngState(1), identity(2), 1.0, v, 2), DomainError, "burn_in"
    ),
    "laplace_chains_stack.n_chains": (
        lambda v: laplace_chains_stack(RngState(1), identity(2), 1.0, 10, v),
        DomainError,
        "n_chains",
    ),
    "ExperimentSpec.trials": (lambda v: spec(trials=v), DomainError, "trials"),
    "ExperimentSpec.n": (lambda v: spec(n=v), DomainError, "n"),
    "ExperimentSpec.burn_in": (lambda v: spec(burn_in=v), DomainError, "burn_in"),
    "ExperimentSpec.seed": (lambda v: spec(seed=v), DomainError, "seed"),
    "RngState": (RngState, DomainError, "seed"),
    "run_synthetic.threads": (
        lambda v: run_synthetic(spec(), threads=v), DomainError, "threads"
    ),
    "run_image.threads": (
        lambda v: run_image(spec(kind="image", image_dir="unread", n=None), threads=v),
        DomainError,
        "threads",
    ),
}


@pytest.mark.parametrize("bad", [2.5, -1, "3"])
@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_arguments_validated(name, bad):
    # rejected with the package's error, never truncated or left to a TypeError
    call, error, what = INTEGER_ARGUMENTS[name]
    with pytest.raises(error, match=f"^{what} must be"):
        call(bad)
