"""The command-line boundary, fuzzed: mutated generator documents and
extreme option values, drawn by hypothesis under the derandomized profile
that `conftest.py` loads.  Whatever the input, `main` returns 0, 1, 2 or 64
with no exception escaping it, and stderr holds at most one JSON document:
exactly one, the whole of it, on exit 1 or 2.

Every drawn value is either small work or refused before any work starts
(a step count of 2**53 or more, a count above its cap), so no example
starts a long run or allocates past a budget."""

import contextlib
import copy
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import renyiflow.matcore as mc
from renyiflow.cli import main
from renyiflow.generator import qubit_xz_generator, random_gns_generator

EXIT_CODES = {0, 1, 2, 64}
FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _doc(G) -> dict:
    return {"label": G.label, "sigma": mc.matrix_to_rows(G.sigma),
            "terms": [{"V": mc.matrix_to_rows(t.V), "omega": t.omega, "weight": t.weight} for t in G.terms]}


BASES = (_doc(qubit_xz_generator()), _doc(random_gns_generator(np.random.default_rng(14), 3, min_sigma_eig=0.15)))

# values a cell, a number or a whole field may be replaced by
CELLS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-8, 1e-13, -1e-13, 1.0 + 1e-12, 1e308, -1e308, 1e200,
                         1e155, 1e-300, 5e-324, float("nan"), float("inf"), -float("inf"), 2**64, -(2**70),
                         True, False, None, "1.0", "x", "", [1.0], [], {}, [[0.0]]])
FIELDS = st.sampled_from([None, 0, 1.5, "", "x", "missing.csv", [], {}, [[]], [[1.0, 0.0]], True])


def _paths(doc) -> list[tuple]:
    """Paths (key or index sequences) to every value inside doc."""
    out = []

    def walk(node, path):
        out.append(path)
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, path + (k,))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, path + (i,))

    walk(doc, ())
    return out[1:]


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    """A generator document with one to three mutations: a cell or a field
    replaced, a key dropped, a row or term duplicated or dropped."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        paths = _paths(doc)
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent, key = _parent(doc, path), path[-1]
        kind = draw(st.sampled_from(["cell", "field", "drop", "duplicate"]))
        if kind in ("cell", "field"):
            # a copy: a later mutation must not edit the strategy's own list
            parent[key] = copy.deepcopy(draw(CELLS if kind == "cell" else FIELDS))
        elif kind == "drop":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    return doc


def run(argv) -> tuple[int, str, str]:
    """main(argv) with stdout and stderr captured; warnings are not shown."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_exit(code: int, out: str, err: str) -> None:
    """An exit code of the four, at most one JSON document on stderr, and on
    exit 1 or 2 that document alone, naming the error (or, from `validate`,
    the failures reported on stdout with stderr empty)."""
    assert code in EXIT_CODES, (code, err)
    documents = 0
    for line in err.splitlines():
        with contextlib.suppress(ValueError):
            documents += isinstance(json.loads(line), dict)
    assert documents <= 1, err
    if code in (1, 2) and not err and json.loads(out).get("valid") is False:
        return
    if code in (1, 2):
        doc = json.loads(err)
        assert doc["error"] in ("validation", "numerical") and isinstance(doc["detail"], str), err


COMMANDS = st.sampled_from([
    ["validate"],
    ["dbcheck", "--alphas", "0.5,2"],
    ["simulate", "--t-end", "0.5", "--dt", "0.1", "--alphas", "1,2"],
    ["gradflow", "--samples", "1", "--alphas", "1,2"],
    ["fig1", "--alphas", "1,2,3"],
    ["compare", "--alpha0", "2", "--alpha1", "3"],
])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


@FUZZ
@given(doc=mutated_documents(), command=COMMANDS)
def test_mutated_generator_documents(workdir, doc, command):
    path = workdir / "generator.json"
    path.write_text(json.dumps(doc))
    check_exit(*run([command[0], "--generator", str(path), *command[1:]]))


NUMBERS = ["0", "-1", "1e-300", "0.5", "1e300", "nan", "inf", "-inf", "x", ""]
INTEGERS = ["0", "1", "-1", "2", str(2**53), str(10**24), "1.5", "x"]
ORDERS = ["1", "2", "0.5", "0", "-1", "nan", "inf", "1e308", "1e-308", "0.5:1e308:0.5", "1:2:0", "", ",", "2,x"]


@st.composite
def extreme_options(draw):
    """A command on qubit-xz with each of its numeric options drawn from
    values at and beyond their limits (or left out)."""
    pick = lambda values: draw(st.sampled_from(values))  # noqa: E731
    command = pick(["simulate", "gradflow", "compare", "constants", "dbcheck", "fig1"])
    argv = [command, "--generator", "builtin:qubit-xz"]
    if command == "simulate":
        # every drawn (t-end, dt) is one short grid or a step count refused up front
        argv += ["--t-end", pick(NUMBERS), "--dt", pick(["0.1", "1e-300", "1e300", "0", "-1", "nan", "inf"]),
                 "--store-every", pick(INTEGERS), "--alphas", pick(ORDERS),
                 "--rho0", pick(["random", "sigma", "near-sigma", "near-sigma:2", "near-sigma:nan", "nope"])]
    elif command == "gradflow":
        argv += ["--samples", pick(["0", "1", "-1", str(10**9), "x"]), "--alphas", pick(ORDERS)]
    elif command == "compare":
        argv += ["--alpha0", pick(ORDERS[:9]), "--alpha1", pick(ORDERS[:9]),
                 "--rho0", pick(["auto", "sigma", "random", "near-sigma:0.5"])]
        if draw(st.booleans()):
            argv += ["--eps", pick(["0", "1", "-1", "1e-300", "0.5", "nan", "inf"])]
    elif command == "constants":
        argv += ["--starts", pick(["-1", str(10**9), "x", "0"])]
    else:
        argv += ["--alphas", pick(ORDERS)]
    if command in ("simulate", "gradflow", "compare", "constants"):
        argv += ["--seed", pick(["0", "-1", str(2**64), str(10**30), "x"])]
    return argv


@FUZZ
@given(argv=extreme_options())
def test_extreme_option_values(argv):
    check_exit(*run(argv))
