import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import renyiflow.cli as cli
import renyiflow.matcore as mc
from renyiflow.cli import MAX_RANGE_ORDERS, main, parse_alphas
from renyiflow.errors import DomainError, NonFiniteError, ValidationError
from renyiflow.generator import JumpTerms, qubit_xz_generator, random_gns_generator

from .oracles import jump_term, norm_functional_by_state, sandwiched_state, sandwiched_trace


SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def generator_doc(G, weights=False):
    """A generator file's document from the generator's own terms, in the
    layout the benchmark writes (no weights unless asked)."""
    terms = [{"V": mc.matrix_to_rows(t.V), "omega": t.omega} for t in G.terms]
    if weights:
        for entry, t in zip(terms, G.terms):
            entry["weight"] = t.weight
    return {"label": G.label, "sigma": mc.matrix_to_rows(G.sigma), "terms": terms}


@pytest.fixture()
def generator_file(tmp_path):
    # full eigen-jump basis at the maximally mixed qubit state
    from renyiflow.generator import eigen_jump_terms

    sigma = np.eye(2) / 2.0
    doc = {
        "label": "uniform-jump",
        "sigma": mc.matrix_to_rows(sigma),
        "terms": [
            {"V": mc.matrix_to_rows(t.V), "omega": t.omega, "weight": t.weight}
            for t in eigen_jump_terms(mc.density_spectrum(sigma, strict=True))
        ],
    }
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestParsing:
    def test_comma_list(self):
        assert parse_alphas("1,2,4") == [1.0, 2.0, 4.0]

    def test_range(self):
        vals = parse_alphas("0.25:6:0.25")
        assert len(vals) == 24
        assert vals[0] == 0.25 and vals[-1] == 6.0
        assert 2.0 in vals

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            parse_alphas("0,1")

    @pytest.mark.parametrize("spec", ["1,nan", "nan:2:0.5", "1:inf:0.5", "1:2:nan"])
    def test_rejects_nan_and_unbounded_ranges(self, spec):
        with pytest.raises(DomainError):
            parse_alphas(spec)

    @pytest.mark.parametrize("spec", ["0.1:1e308:1e-300", "0.1:1e9:1e-6", "-1e308:1e308:1"])
    def test_rejects_range_beyond_the_order_cap(self, spec):
        # an infinite or huge count is refused before any list is built
        with pytest.raises(DomainError, match="above the cap"):
            parse_alphas(spec)

    def test_range_at_the_order_cap(self):
        assert len(parse_alphas(f"1:{MAX_RANGE_ORDERS}:1")) == MAX_RANGE_ORDERS

    def test_overflowing_range_exits_one(self, capsys):
        code, _, err = run(["fig1", "--generator", "builtin:carlen-maas", "--alphas", "0.1:1e308:1e-300"], capsys)
        assert code == 1 and "above the cap" in json.loads(err)["detail"]

    def test_keeps_infinite_order(self):
        # the detailed-balance weight kernel is defined at alpha = infinity
        assert parse_alphas("2,inf") == [2.0, np.inf]


class TestCommands:
    def test_validate_builtin(self, capsys):
        code, out, _ = run(["validate", "--generator", "builtin:qubit-xz"], capsys)
        assert code == 0
        assert "GNS: pass" in out

    def test_validate_json_file(self, generator_file, capsys):
        code, out, _ = run(["validate", "--generator", generator_file], capsys)
        assert code == 0
        assert "GNS: pass" in out and "primitive: True" in out

    def test_validate_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "label": "bad",
            "sigma": mc.matrix_to_rows(np.eye(2) / 2.0),
            "terms": [{"V": mc.matrix_to_rows(np.eye(2)), "omega": 0.0}],
        }))
        code, out, _ = run(["validate", "--generator", str(bad)], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["valid"] is False and doc["failures"]

    def test_fig1_minimum_at_two(self, tmp_path, capsys):
        out_path = tmp_path / "fig1.csv"
        code, _, _ = run(
            ["fig1", "--generator", "builtin:carlen-maas",
             "--alphas", "0.25:6:0.25", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "alpha,residual"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 24
        best = min(rows, key=lambda r: r[1])
        assert best[0] == 2.0 and best[1] <= 1e-9

    def test_dbcheck_json(self, capsys):
        code, out, _ = run(
            ["dbcheck", "--generator", "builtin:depolarizing?gamma=0.5&n=2"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"]["gns"] is True
        assert doc["verdicts"]["kms"] is True

    def test_simulate_monotone_columns(self, tmp_path, capsys):
        out_path = tmp_path / "sim.csv"
        code, _, _ = run(
            ["simulate", "--generator", "builtin:qubit-xz", "--rho0", "random",
             "--seed", "7", "--alphas", "1,2", "--t-end", "2", "--dt", "0.002",
             "--store-every", "20", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "t,alpha,D,I"
        by_alpha = {}
        for ln in lines[1:]:
            t, a, D, I = map(float, ln.split(","))
            by_alpha.setdefault(a, []).append(D)
        for a, Ds in by_alpha.items():
            assert all(d2 <= d1 + 1e-9 for d1, d2 in zip(Ds, Ds[1:]))

    def test_rho0_file_named_like_near_sigma_is_read(self, tmp_path, monkeypatch, capsys):
        rho = mc.random_density(np.random.default_rng(5), 2, floor=0.2)
        (tmp_path / "near-sigma-state.csv").write_text(mc.matrix_to_csv_block("rho0", rho))
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(["simulate", "--generator", "builtin:qubit-xz", "--rho0", "near-sigma-state.csv",
                          "--alphas", "2", "--t-end", "0.1", "--dt", "0.1", "--out", "o.csv"], capsys)
        assert code == 0
        D0 = float((tmp_path / "o.csv").read_text().splitlines()[1].split(",")[2])
        ref = sandwiched_state(mc.require_density(rho), qubit_xz_generator().sigma_dec, 2.0).divergence()
        assert D0 == pytest.approx(ref, rel=1e-12)

    def test_gradflow_residuals_small(self, tmp_path, capsys):
        out_path = tmp_path / "gf.csv"
        code, _, _ = run(
            ["gradflow", "--generator", "builtin:qubit-xz", "--samples", "5",
             "--alphas", "0.5,1,2", "--seed", "3", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "sample,alpha,residual"
        for ln in lines[1:]:
            assert float(ln.split(",")[2]) <= 1e-8

    def test_constants_report(self, tmp_path, capsys):
        code, out, _ = run(
            ["constants", "--generator", "builtin:qubit-xz", "--seed", "1",
             "--starts", "4"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == []
        assert doc["K_lower"] <= doc["K_est"] <= doc["K_upper"] + 1e-6

    def test_compare_report(self, capsys):
        code, out, _ = run(
            ["compare", "--generator", "builtin:qubit-xz", "--alpha0", "2",
             "--alpha1", "3", "--seed", "5"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True

    def test_compare_start_order_inside_the_order_one_window(self, capsys):
        # alpha0 = 1 + 1e-7 lies within ALPHA_ONE_WINDOW of 1: D_start is the
        # relative entropy, and the monitor's order stack beta(t) starts
        # inside the window
        code, out, _ = run(["compare", "--generator", "builtin:qubit-xz", "--alpha0", "1.0000001",
                            "--alpha1", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["D_start"] == 0.01674664943948201  # 0.0167466494394820306 to 20 digits
        assert doc["max_forward_increase"] <= 1e-14
        # such an order stack has no sandwiched state, whose divergence
        # divides by alpha - 1, but its trace power Z has no such factor
        G = qubit_xz_generator()
        rho = mc.hermitize(0.7 * G.sigma + 0.3 * mc.random_density(np.random.default_rng(3), 2))
        orders = np.array([1.0000001, 2.0, 3.0])
        with pytest.raises(DomainError):
            sandwiched_state(rho, G.sigma_dec, orders)
        F = np.log(sandwiched_trace(rho, G.sigma_dec, orders)) / orders
        ref = [norm_functional_by_state(rho, G.sigma, b) for b in orders]
        np.testing.assert_allclose(F, ref, rtol=1e-12, atol=1e-15)

    def test_unknown_command_usage_exit(self, capsys):
        assert main(["frobnicate"]) == 64

    def test_missing_file_validation_exit(self, capsys):
        code, _, err = run(["dbcheck", "--generator", "nope.json"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "validation"

    def test_numerical_failure_exit(self, tmp_path, capsys):
        # a stationary state with a zero eigenvalue is singular
        code, _, err = run(
            ["simulate", "--generator", "builtin:depolarizing?sigma=0,1", "--rho0", "random",
             "--seed", "1", "--alphas", "2", "--t-end", "40", "--dt", "2.0",
             "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2
        assert json.loads(err)["error"] == "numerical"

    def test_config_file_merging(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out_path = tmp_path / "out.csv"
        cfg.write_text(json.dumps({"alphas": "1:3:1", "out": str(out_path)}))
        code, _, _ = run(
            ["fig1", "--generator", "builtin:qubit-xz", "--config", str(cfg)], capsys
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + alpha in {1,2,3}

    @pytest.mark.parametrize("flags", [["--alphas", "0.5,1"], ["--alphas=0.5,1"], ["--alph", "0.5,1"]],
                             ids=["separate", "joined", "abbreviated"])
    @pytest.mark.parametrize("before", [True, False], ids=["config-first", "config-last"])
    def test_command_line_overrides_config(self, tmp_path, capsys, flags, before):
        # the file holds defaults: an option given on the command line keeps its value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphas": "1:3:1"}))
        command = ["fig1", "--generator", "builtin:carlen-maas", *flags]
        config = ["--config", str(cfg)]
        code, out, _ = run(config + command if before else command + config, capsys)
        assert code == 0
        assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["0.5", "1"]

    def test_config_fills_only_absent_options(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 1, "alphas": "2", "seed": 9}))
        argv = ["gradflow", "--generator", "builtin:qubit-xz", "--seed", "3"]
        code, out, _ = run(argv + ["--config", str(cfg)], capsys)
        assert code == 0
        assert out == run(argv + ["--samples", "1", "--alphas", "2"], capsys)[1]

    def test_config_before_or_after_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphas": "1:3:1"}))
        command = ["fig1", "--generator", "builtin:carlen-maas"]
        for argv in (["--config", str(cfg)] + command, command + ["--config", str(cfg)]):
            code, out, _ = run(argv, capsys)
            assert code == 0
            assert len(out.strip().splitlines()) == 4, argv


class TestEntropyLadder:
    """`compare --rho0 auto` scores its ladder toward sigma at once, up to
    the first rung whose chi-square bound clears."""

    @staticmethod
    def sequential(G, eps, seed):
        # the rung-by-rung search, each rung validated and decomposed on its own
        w = mc.random_density(np.random.default_rng(seed), G.n, floor=0.05)
        delta = 0.5
        for k in range(60):
            rho = mc.require_density((1.0 - delta) * G.sigma + delta * w, name="rho")
            if sandwiched_state(rho, G.sigma_dec, 1.0).divergence() <= 0.8 * eps:
                return k, rho
            delta *= 0.7
        return None, None

    @pytest.mark.parametrize("eps", [0.1, 1e-3, 1e-6, 1e-10])
    def test_picks_the_rung_of_the_sequential_search(self, eps, eigensolves, validations):
        G = qubit_xz_generator()
        k, want = self.sequential(G, eps, 5)
        assert k is not None
        assert np.array_equal(cli._shrink_to_entropy(G, eps, 5), want)
        # one decomposition of the ladder checks and scores the rungs up to the cut
        assert eigensolves(lambda: cli._shrink_to_entropy(G, eps, 5)) == 1
        assert validations(lambda: cli._shrink_to_entropy(G, eps, 5)) == 0

    def test_rung_index_varies_with_eps(self):
        G = qubit_xz_generator()
        assert len({self.sequential(G, eps, 5)[0] for eps in (0.1, 1e-3, 1e-6, 1e-10)}) == 4

    @staticmethod
    def whole_ladder(G, eps, seed):
        # every one of the 60 rungs checked and scored from one decomposition
        w = mc.random_density(np.random.default_rng(seed), G.n, floor=0.05)
        rungs = mc.hermitize((1.0 - cli._LADDER) * G.sigma + cli._LADDER * w)
        state = sandwiched_state(rungs, G.sigma_dec, 1.0)
        for k, (rho, wmin, D) in enumerate(zip(rungs, state.dec.values[:, 0], state.divergence())):
            mc.check_density(rho, wmin, name="rho")
            if D <= 0.8 * eps:
                return k, rho
        return None, None

    @staticmethod
    def last_cleared_rung(G, eps, seed):
        # k*: the first rung whose bound log(1 + delta_k^2 chi^2(w)) on the
        # relative entropy is at most 0.8 eps, with chi^2(w) summed in
        # sigma's eigenbasis; None when no rung's bound clears
        w = mc.random_density(np.random.default_rng(seed), G.n, floor=0.05)
        U, lam = G.sigma_dec.vectors, G.sigma_dec.values
        chi2 = np.sum(np.abs(U.conj().T @ (w - G.sigma) @ U) ** 2 / np.sqrt(np.outer(lam, lam)))
        cleared = np.flatnonzero(np.log1p(cli._LADDER[:, 0, 0] ** 2 * chi2) <= 0.8 * eps)
        return int(cleared[0]) if cleared.size else None

    @staticmethod
    def decomposed_rungs(monkeypatch, fn):
        # how many matrices each np.linalg.eigh call of fn receives
        sizes, real = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *r, **k: sizes.append(len(a)) or real(a, *r, **k))
        try:
            fn()
        finally:
            monkeypatch.undo()
        return sizes

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 4),
        gen_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
        eps=st.one_of(st.just(1e-300), st.floats(-18.0, -0.3).map(lambda u: 10.0**u)),
    )
    def test_cut_ladder_picks_the_rung_of_the_whole_ladder(self, n, gen_seed, seed, eps):
        G = random_gns_generator(np.random.default_rng(gen_seed), n)
        k, want = self.whole_ladder(G, eps, seed)
        if k is None:
            with pytest.raises(ValidationError, match="entropy ball"):
                cli._shrink_to_entropy(G, eps, seed)
        else:
            assert cli._shrink_to_entropy(G, eps, seed).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, gen_seed, seed", [(2, 11, 5), (3, 12, 6), (4, 13, 7)])
    @pytest.mark.parametrize("eps", [0.3, 1e-2, 1e-5, 1e-9, 1e-12])
    def test_decomposes_the_rungs_up_to_the_first_cleared_bound(self, monkeypatch, n, gen_seed, seed, eps):
        G = random_gns_generator(np.random.default_rng(gen_seed), n)
        k_star = self.last_cleared_rung(G, eps, seed)
        assert k_star is not None
        sizes = self.decomposed_rungs(monkeypatch, lambda: cli._shrink_to_entropy(G, eps, seed))
        assert len(sizes) == 1 and sizes[0] <= k_star + 1
        assert self.whole_ladder(G, eps, seed)[0] <= k_star

    @pytest.mark.parametrize("eps", [1e-16, 1e-17])
    def test_rungs_past_the_cut_are_scored_when_none_before_it_is_chosen(self, monkeypatch, eps):
        # relative entropies near 1e-16 are rounding noise, which may score
        # every rung up to k* above 0.8 eps although its bound clears (here,
        # n = 4 at eps = 1e-16: k* = 50, rung 56 chosen); the rest of the
        # ladder is then decomposed in a second call
        G = random_gns_generator(np.random.default_rng(39), 4)
        k_star = self.last_cleared_rung(G, eps, 0)
        k, want = self.whole_ladder(G, eps, 0)
        sizes = self.decomposed_rungs(monkeypatch, lambda: cli._shrink_to_entropy(G, eps, 0))
        assert sizes == [k_star + 1] + ([59 - k_star] if k > k_star else [])
        assert cli._shrink_to_entropy(G, eps, 0).tobytes() == want.tobytes()

    def test_decomposes_the_whole_ladder_when_no_bound_clears(self, monkeypatch):
        G = qubit_xz_generator()
        assert self.last_cleared_rung(G, 1e-300, 5) is None
        sizes = self.decomposed_rungs(monkeypatch, lambda: cli._shrink_to_entropy(G, 1e-300, 5))
        assert sizes == [60]


class TestConfigValues:
    """A config value passes through its option's own conversion, as if
    given on the command line; a bad value, or a key that names no option
    of the command (such as the internal `fn`), exits 1 with JSON detail."""

    SIMULATE = ["simulate", "--generator", "builtin:qubit-xz", "--t-end", "0.1", "--dt", "0.05"]
    FIG1 = ["fig1", "--generator", "builtin:carlen-maas"]

    @pytest.mark.parametrize("argv, doc, flags", [
        (SIMULATE, {"dt": "x"}, None),
        (FIG1, {"alphas": 2}, ["--alphas", "2"]),
        (["gradflow", "--generator", "builtin:qubit-xz"], {"samples": "3"}, ["--samples", "3"]),
        (SIMULATE, {"seed": 1.5}, None),
        (FIG1, {"fn": 1}, None),
    ], ids=["dt-not-a-number", "alphas-a-number", "samples-a-string", "seed-not-an-int", "internal-fn"])
    def test_value_converted_as_on_the_command_line(self, tmp_path, capsys, argv, doc, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(argv + ["--config", str(cfg)], capsys)
        if flags is None:
            assert code == 1
            assert json.loads(err)["error"] == "validation"
        else:
            assert (code, err) == (0, "")
            assert out == run(argv + flags, capsys)[1]


class TestMalformedInputs:
    """Each malformed input exits 1 with JSON detail, never a traceback."""

    def assert_validation_exit(self, argv, capsys):
        code, _, err = run(argv, capsys)
        assert code == 1
        assert json.loads(err)["error"] == "validation"

    def test_generator_without_sigma(self, generator_file, tmp_path, capsys):
        doc = json.loads(open(generator_file).read())
        del doc["sigma"]
        path = tmp_path / "nosigma.json"
        path.write_text(json.dumps(doc))
        self.assert_validation_exit(["dbcheck", "--generator", str(path)], capsys)

    @pytest.mark.parametrize("spec, detail", [
        ("near-sigmaTYPO", "unrecognized rho0 spec 'near-sigmaTYPO'"),
        ("near-sigma:", "near-sigma mixing weight: '' is not a number"),
        ("near-sigma:-0.5", "near-sigma mixing weight -0.5 outside [0, 1]"),
        ("near-sigma:2", "near-sigma mixing weight 2.0 outside [0, 1]"),
    ], ids=["typo", "blank-weight", "negative-weight", "weight-above-one"])
    def test_near_sigma_spec_is_the_name_or_the_name_and_a_weight(self, spec, detail, capsys):
        code, _, err = run(["simulate", "--generator", "builtin:qubit-xz", "--rho0", spec,
                            "--t-end", "0.1", "--dt", "0.01"], capsys)
        assert code == 1
        assert json.loads(err)["detail"] == detail

    def test_generator_matrix_file_missing(self, generator_file, tmp_path, capsys):
        doc = json.loads(open(generator_file).read())
        doc["sigma"] = "absent.csv"
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(doc))
        self.assert_validation_exit(["dbcheck", "--generator", str(path)], capsys)

    def test_generator_not_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"label": "x", "sigma": [[0.5, 0.0')
        self.assert_validation_exit(["dbcheck", "--generator", str(path)], capsys)

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000 + "0" + "}" * 100_000],
                             ids=["arrays", "objects"])
    @pytest.mark.parametrize("argv", [["dbcheck", "--generator", "PATH"],
                                      ["--config", "PATH", "validate", "--generator", "builtin:qubit-xz"]],
                             ids=["generator", "config"])
    def test_deeply_nested_json(self, text, argv, tmp_path, capsys):
        # 100 000 levels: past the stdlib decoder's recursion limit, and deep
        # enough that a decoder without one would overflow the C stack
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, _, err = run([str(path) if a == "PATH" else a for a in argv], capsys)
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "validation"
        assert doc["detail"].startswith(f"{path}: not valid JSON (maximum recursion depth exceeded")

    def test_sigma_text_cell(self, tmp_path, capsys):
        # a number written as text is refused, not read as the number
        doc = generator_doc(qubit_xz_generator())
        doc["sigma"][0][0] = "0.5"
        path = tmp_path / "text.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["dbcheck", "--generator", str(path)], capsys)
        assert code == 1
        assert json.loads(err)["detail"] == "sigma: rows must be equal-length lists of reals"

    @pytest.mark.parametrize("cell, detail", [
        (("sigma", 1, 3), "sigma: rows must be equal-length lists of reals"),
        (("V", 1, 3), "term 1: V: rows must be equal-length lists of reals"),
    ], ids=["sigma", "V"])
    @pytest.mark.parametrize("value", [False, True])
    @pytest.mark.parametrize("command", ["dbcheck", "validate"])
    def test_boolean_cell_among_numbers(self, cell, detail, value, command, tmp_path, capsys):
        # a true or false cell is refused, not read as 1 or 0 (false reads as the cell's own 0.0)
        doc = generator_doc(qubit_xz_generator())
        field, i, j = cell
        rows = doc["sigma"] if field == "sigma" else doc["terms"][1]["V"]
        rows[i][j] = value
        path = tmp_path / "boolean.json"
        path.write_text(json.dumps(doc))
        code, out, err = run([command, "--generator", str(path)], capsys)
        assert code == 1
        assert (json.loads(err)["detail"] if command == "dbcheck" else json.loads(out)["failures"][0]).endswith(detail)

    @pytest.mark.parametrize("field", ["sigma", "V"])
    @pytest.mark.parametrize("command", ["dbcheck", "validate"])
    def test_generator_matrix_file_unreadable(self, field, command, tmp_path, capsys):
        doc = generator_doc(qubit_xz_generator())
        (tmp_path / "dir.csv").mkdir()
        if field == "sigma":
            doc["sigma"] = "dir.csv"
        else:
            doc["terms"][1]["V"] = "dir.csv"
        path = tmp_path / "unreadable.json"
        path.write_text(json.dumps(doc))
        code, out, err = run([command, "--generator", str(path)], capsys)
        assert code == 1
        detail = json.loads(err)["detail"] if command == "dbcheck" else json.loads(out)["failures"][0]
        assert detail == f"cannot read {tmp_path / 'dir.csv'}: Is a directory"

    @pytest.mark.parametrize("content, reason", [(None, "Is a directory"), (b"matrix,rho0,2\n\xff\n", "utf-8")],
                             ids=["directory", "not-utf8"])
    @pytest.mark.parametrize("command", [
        ["simulate", "--t-end", "0.1", "--dt", "0.01"],
        ["compare", "--alpha0", "2", "--alpha1", "3"],
    ], ids=["simulate", "compare"])
    def test_rho0_file_unreadable(self, content, reason, command, tmp_path, capsys):
        path = tmp_path / "rho0.csv"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        code, _, err = run([command[0], "--generator", "builtin:qubit-xz", "--rho0", str(path), *command[1:]],
                           capsys)
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "validation"
        assert doc["detail"].startswith(f"cannot read {path}: ") and reason in doc["detail"]

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
    def test_rho0_file_without_a_block(self, text, tmp_path, capsys):
        path = tmp_path / "rho0.csv"
        path.write_text(text)
        code, _, err = run(["simulate", "--generator", "builtin:qubit-xz", "--rho0", str(path),
                            "--t-end", "0.1", "--dt", "0.01"], capsys)
        assert code == 1
        assert json.loads(err)["detail"] == "empty matrix block"

    def test_rho0_non_numeric_cell(self, tmp_path, capsys):
        path = tmp_path / "rho0.csv"
        path.write_text("matrix,rho0,2\n0.5,0,x,0\n0,0,0.5,0\n")
        self.assert_validation_exit(
            ["simulate", "--generator", "builtin:qubit-xz", "--rho0", str(path),
             "--t-end", "0.1", "--dt", "0.01"],
            capsys,
        )

    @pytest.mark.parametrize("argv", [
        ["fig1", "--generator", "builtin:carlen-maas", "--alphas", "1,x"],
        ["dbcheck", "--generator", "builtin:depolarizing?gamma=x"],
        ["simulate", "--generator", "builtin:qubit-xz", "--rho0", "near-sigma:x",
         "--t-end", "0.1", "--dt", "0.01"],
    ])
    def test_non_numeric_parameter(self, argv, capsys):
        self.assert_validation_exit(argv, capsys)

    @pytest.mark.parametrize("command", [
        ["compare", "--alpha0", "2", "--alpha1", "3"],
        ["constants", "--starts", "1"],
    ])
    def test_one_level_generator_has_no_gap(self, command, capsys):
        code, _, err = run([command[0], "--generator", "builtin:depolarizing?n=1", *command[1:]], capsys)
        assert code == 1
        assert "nonzero mode" in json.loads(err)["detail"]

    @pytest.mark.parametrize("spec, detail", [
        ("builtin:depolarizing?n=-2", "n=-2"),
        ("builtin:depolarizing?n=0", "n=0"),
        ("builtin:depolarizing?n=17", "n=17"),
        ("builtin:depolarizing?n=100000", "n=100000"),
        ("builtin:depolarizing?sigma=" + ",".join(["0.0625"] * 17), "17 entries"),
        ("builtin:qubit-xz?n=3", "'n'"),
        ("builtin:depolarizing?gamma=1&size=3", "'size'"),
        ("builtin:depolarizing?sigma=", "'sigma'"),
        ("builtin:depolarizing?n", "'n'"),
        ("builtin:depolarizing?n=3&sigma=0.5,0.5", "both"),
        ("builtin:depolarizing?n=2&n=3", "2 times"),
    ], ids=["negative-n", "zero-n", "n-above-16", "huge-n", "sigma-above-16", "key-of-no-parameter", "unknown-key",
            "blank-sigma", "blank-n", "n-and-sigma", "repeated-n"])
    def test_builtin_parameters_checked_before_anything_is_built(self, spec, detail, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a matrix was allocated before the spec was checked")

        monkeypatch.setattr(np, "eye", refuse)
        monkeypatch.setattr(cli, "depolarizing_generator", refuse)
        monkeypatch.setattr(cli, "qubit_xz_generator", refuse)
        code, _, err = run(["dbcheck", "--generator", spec], capsys)
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "validation" and detail in doc["detail"]

    def test_simulate_grid_above_the_byte_budget(self, monkeypatch, capsys):
        real = np.arange

        def arange(*args, **kwargs):
            if len(range(*(int(a) for a in args))) > 10**6:
                raise AssertionError("a grid was allocated before its size was checked")
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "arange", arange)
        code, _, err = run(["simulate", "--generator", "builtin:qubit-xz", "--t-end", "1e9", "--dt", "1e-6",
                            "--alphas", "2"], capsys)
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "validation" and "budget" in doc["detail"]

    @pytest.mark.parametrize("command, option, cap", [
        ("gradflow", "--samples", cli.MAX_SAMPLES), ("constants", "--starts", cli.MAX_STARTS),
    ])
    @pytest.mark.parametrize("excess", [1, 10**12])
    def test_count_above_its_cap_checked_before_anything_is_built(
            self, command, option, cap, excess, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError(f"work began before {option} was checked")

        monkeypatch.setattr(cli, "load_generator", refuse)
        monkeypatch.setattr(mc, "random_density", refuse)
        monkeypatch.setattr(cli.flow, "lsi_constants", refuse)
        code, _, err = run([command, "--generator", "builtin:qubit-xz", option, str(cap + excess)], capsys)
        assert code == 1
        doc = json.loads(err)
        assert doc == {"error": "validation", "detail": f"{option} {cap + excess} outside 0..{cap}"}

    @pytest.mark.parametrize("argv, name", [
        (["simulate", "--generator", "builtin:qubit-xz", "--t-end", "1", "--dt", "0.1"], "integrate"),
        (["gradflow", "--generator", "builtin:qubit-xz", "--samples", "1"], "gradient_flow_residual"),
        (["constants", "--generator", "builtin:qubit-xz", "--starts", "1"], "lsi_constants"),
    ], ids=["simulate", "gradflow", "constants"])
    def test_out_of_memory_exits_validation_naming_the_command(self, argv, name, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.11 PiB")

        monkeypatch.setattr(cli.flow, name, exhausted)
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "validation", "command": argv[0],
                                   "detail": "out of memory: Unable to allocate 7.11 PiB"}

    @pytest.mark.parametrize("argv, target", [
        (["dbcheck", "--generator", "builtin:qubit-xz"], "balance_report"),
        (["simulate", "--generator", "builtin:qubit-xz", "--t-end", "1", "--dt", "0.1"], "integrate"),
    ], ids=["dbcheck", "simulate"])
    def test_linear_algebra_failure_exits_numerical_naming_the_command(self, argv, target, monkeypatch, capsys):
        def diverged(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli.bc if target == "balance_report" else cli.flow, target, diverged)
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "numerical", "command": argv[0],
                                   "detail": "linear algebra: SVD did not converge"}

    @pytest.mark.parametrize("argv", [
        ["simulate", "--generator", "builtin:qubit-xz", "--rho0", "random", "--t-end", "0.1", "--dt", "0.01"],
        ["gradflow", "--generator", "builtin:qubit-xz", "--samples", "1"],
        ["constants", "--generator", "builtin:qubit-xz", "--starts", "1"],
        ["compare", "--generator", "builtin:qubit-xz", "--alpha0", "2", "--alpha1", "3"],
    ], ids=["simulate", "gradflow", "constants", "compare"])
    @pytest.mark.parametrize("where", ["command-line", "config"])
    def test_negative_seed(self, argv, where, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        code, out, err = run(argv + (["--seed", "-1"] if where == "command-line" else ["--config", str(cfg)]), capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "validation", "detail": "--seed -1 is negative"}

    def test_store_every_beyond_the_step_count_bound(self, capsys):
        code, out, err = run(["simulate", "--generator", "builtin:qubit-xz", "--t-end", "0.1", "--dt", "0.01",
                              "--store-every", str(10**24)], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err)["detail"] == f"store_every={10**24} outside 1 .. 2**53 - 1"

    @pytest.mark.parametrize("scale, detail", [(1e200, "term 0: <V, V> is not finite"),
                                               (1e140, "the Frobenius norm of L is not finite")],
                             ids=["term-norm", "generator-norm"])
    @pytest.mark.parametrize("command", ["dbcheck", "validate"])
    def test_jump_operator_whose_norm_overflows(self, scale, detail, command, tmp_path, capsys):
        # qubit-xz written to a file with its X term scaled: <V, V> = 2 scale^2, and ||L||_F above that
        doc = generator_doc(qubit_xz_generator())
        doc["terms"][0]["V"] = (scale * np.array(doc["terms"][0]["V"])).tolist()
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run([command, "--generator", str(path)], capsys)
        assert code == 1
        assert detail in (json.loads(err)["detail"] if command == "dbcheck" else json.loads(out)["failures"][0])

    @pytest.mark.parametrize("n", [17, 64])
    def test_generator_file_above_the_largest_dimension(self, n, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the terms were converted before sigma's size was checked")

        for name in ("_jump_stack", "build_gns"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(cli.JumpTerms, "of", refuse)
        monkeypatch.setattr(mc, "matrix_to_rows", refuse)
        sigma = [[1.0 / n if 2 * j == k else 0.0 for k in range(2 * n)] for j in range(n)]
        path = tmp_path / "large.json"
        path.write_text(json.dumps({"sigma": sigma, "terms": [{"V": sigma}, {"V": "V.csv"}]}))
        code, _, err = run(["dbcheck", "--generator", str(path)], capsys)
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "validation" and f"sigma is {n} x {n}, above n = 16" in doc["detail"]

    def test_jump_operator_larger_than_sigma(self, generator_file, tmp_path, capsys):
        doc = json.loads(open(generator_file).read())
        doc["terms"][0]["V"] = mc.matrix_to_rows(np.diag([1.0, -1.0, 0.0]))
        path = tmp_path / "sizes.json"
        path.write_text(json.dumps(doc))
        self.assert_validation_exit(["dbcheck", "--generator", str(path)], capsys)

    @pytest.mark.parametrize("key, value", [("weight", "abc"), ("omega", float("nan")),
                                            ("weight", float("inf")), ("weight", True), ("omega", False)],
                             ids=["text-weight", "nan-omega", "inf-weight", "boolean-weight", "boolean-omega"])
    @pytest.mark.parametrize("command", ["dbcheck", "validate"])
    def test_term_number_not_a_finite_real(self, key, value, command, tmp_path, capsys):
        # qubit-xz written to a file, one term number broken
        doc = generator_doc(qubit_xz_generator(), weights=True)
        doc["terms"][1][key] = value
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out, err = run([command, "--generator", str(path)], capsys)
        assert code == 1
        detail = json.loads(err)["detail"] if command == "dbcheck" else json.loads(out)["failures"][0]
        assert f"term 1: {key}" in detail

    @pytest.mark.parametrize("V, message", [
        (np.diag([1.0, -1.0, 0.0]), "term 1: V has shape (3, 3), sigma has shape (2, 2)"),
        ([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.0]], "term 1: V: rows"),
        ([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, "x", 0.0]], "term 1: V: rows"),
        ([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, "-1.0", 0.0]], "term 1: V: rows"),
    ], ids=["larger-operator", "ragged-rows", "non-numeric-cell", "numeric-text-cell"])
    def test_ragged_jump_operators_name_the_term(self, V, message, tmp_path, capsys):
        doc = generator_doc(qubit_xz_generator())
        doc["terms"][1]["V"] = mc.matrix_to_rows(V) if isinstance(V, np.ndarray) else V
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["dbcheck", "--generator", str(path)], capsys)
        assert code == 1
        assert message in json.loads(err)["detail"]

    @pytest.mark.parametrize("command", [
        ["simulate", "--t-end", "0.1", "--dt", "0.01"],
        ["compare", "--alpha0", "2", "--alpha1", "3"],
    ])
    def test_rho0_of_another_size(self, command, tmp_path, capsys):
        path = tmp_path / "rho0.csv"
        path.write_text(mc.matrix_to_csv_block("rho0", np.eye(3) / 3.0))
        self.assert_validation_exit(
            [command[0], "--generator", "builtin:qubit-xz", "--rho0", str(path), *command[1:]], capsys
        )

    @pytest.mark.parametrize("argv", [
        ["simulate", "--generator", "builtin:qubit-xz", "--alphas", "inf", "--t-end", "0.1", "--dt", "0.01"],
        ["gradflow", "--generator", "builtin:qubit-xz", "--samples", "1", "--alphas", "inf"],
        ["dbcheck", "--generator", "builtin:qubit-xz", "--alphas", "nan"],
        ["simulate", "--generator", "builtin:qubit-xz", "--t-end", "nan", "--dt", "0.01"],
        ["simulate", "--generator", "builtin:qubit-xz", "--t-end", "-1", "--dt", "0.01"],
        ["simulate", "--generator", "builtin:qubit-xz", "--t-end", "0.1", "--dt", "nan"],
        ["compare", "--generator", "builtin:qubit-xz", "--alpha0", "2", "--alpha1", "inf"],
        ["dbcheck", "--generator", "builtin:depolarizing?gamma=nan"],
        ["dbcheck", "--generator", "builtin:depolarizing?gamma=inf"],
        ["simulate", "--generator", "builtin:qubit-xz", "--t-end", "1", "--dt", "1e-300"],
        ["gradflow", "--generator", "builtin:qubit-xz", "--samples", "-2"],
        ["constants", "--generator", "builtin:qubit-xz", "--starts", "-1"],
        ["simulate", "--generator", "builtin:qubit-xz", "--t-end", "0.1", "--dt", "0.01", "--store-every", "0"],
        ["simulate", "--generator", "builtin:qubit-xz", "--t-end", "0.1", "--dt", "0.01", "--store-every", "-3"],
    ], ids=["simulate-inf-order", "gradflow-inf-order", "dbcheck-nan-order", "nan-t-end",
            "negative-t-end", "nan-dt", "compare-inf-order", "nan-rate", "inf-rate", "tiny-dt",
            "negative-samples", "negative-starts", "zero-store-every", "negative-store-every"])
    def test_non_finite_or_negative_number(self, argv, capsys):
        self.assert_validation_exit(argv, capsys)

    @pytest.mark.parametrize("eps", ["nan", "-1", "0", "inf", "0.2"])
    def test_compare_eps_outside_its_interval(self, eps, capsys):
        # checked before the initial-state ladder: qubit-xz has smin^2/2 = 0.125
        code, _, err = run(["compare", "--generator", "builtin:qubit-xz", "--alpha0", "2", "--alpha1", "3",
                            "--eps", eps], capsys)
        assert code == 1
        assert json.loads(err)["detail"] == f"eps={float(eps)} outside (0, 0.125)"

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_validate_non_finite_rate(self, rate, capsys):
        code, out, err = run(["validate", "--generator", f"builtin:depolarizing?gamma={rate}"], capsys)
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["valid"] is False
        assert "positive and finite" in doc["failures"][0]

    @pytest.mark.parametrize("spec", ["builtin:depolarizing?n=3", "builtin:carlen-maas"])
    def test_gradflow_without_jump_terms(self, spec, capsys):
        code, _, err = run(["gradflow", "--generator", spec, "--samples", "1", "--alphas", "2"], capsys)
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "validation"
        assert "has no jump-term decomposition" in doc["detail"]


NON_FINITE = pytest.mark.parametrize("argv, detail", [
    (["simulate", "--generator", "builtin:qubit-xz", "--t-end", "0.2", "--dt", "0.1", "--alphas", "2000"],
     "non-finite divergence or Fisher information at t=0, alpha=2000"),
    (["compare", "--generator", "builtin:qubit-xz", "--alpha0", "2", "--alpha1", "1e300"],
     "non-finite result in D_end, max_forward_increase"),
], ids=["simulate-order-2000", "compare-order-1e300"])


class TestNonFiniteResults:
    """A result that overflows or is undefined exits 2 with JSON detail
    before anything is written; no artifact holds NaN or an infinity."""

    @NON_FINITE
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_exits_numerical_without_an_artifact(self, argv, detail, tmp_path, capsys):
        out = tmp_path / "artifact"
        code, stdout, err = run([*argv, "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert json.loads(err) == {"error": "numerical", "detail": detail}
        assert not out.exists()

    @NON_FINITE
    def test_stderr_is_one_json_document_with_warnings_shown(self, argv, detail):
        # a fresh interpreter whose filters show every warning: the warnings
        # the failing command raised go into its error document, not before it
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-W", "default", "-c",
                               "import sys; from renyiflow import cli; sys.exit(cli.main(sys.argv[1:]))", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        doc = json.loads(proc.stderr)
        assert (doc["error"], doc["detail"]) == ("numerical", detail)
        assert all(w.startswith("RuntimeWarning: ") for w in doc["warnings"])

    def test_fmt_refuses_non_finite(self):
        for x in (np.inf, -np.inf, np.nan):
            with pytest.raises(NonFiniteError):
                cli._fmt(x)

    def test_fig1_echoes_an_infinite_order(self, capsys):
        code, out, _ = run(["fig1", "--generator", "builtin:carlen-maas", "--alphas", "2,inf"], capsys)
        assert code == 0
        assert out.splitlines()[2].startswith("inf,")

    @pytest.mark.parametrize("alpha", ["1e307", "1e308", "inf"])
    def test_dbcheck_at_the_largest_orders(self, alpha, capsys):
        # 2 alpha overflows from about 9e307 on; the weight kernel must still
        # approach its alpha = inf limit, where carlen-maas is not balanced
        code, out, _ = run(["dbcheck", "--generator", "builtin:carlen-maas", "--alphas", alpha], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["srd_residuals"][f"{float(alpha):g}"] == pytest.approx(0.0102328, rel=1e-5)
        assert doc["verdicts"]["srd"] is False


def test_success_emits_the_commands_warnings_again(tmp_path, capsys):
    # the pure initial state is pruned from the trace with a warning, which
    # cli.main records while the command runs and emits again on exit 0
    path = tmp_path / "pure.csv"
    path.write_text(mc.matrix_to_csv_block("rho0", np.diag([1.0, 0.0]).astype(complex)))
    with pytest.warns(UserWarning, match="pruned 1 "):
        code, _, err = run(["simulate", "--generator", "builtin:qubit-xz", "--rho0", str(path),
                            "--alphas", "2", "--t-end", "0.1", "--dt", "0.01"], capsys)
    assert (code, err) == (0, "")


class TestOutPath:
    """--out writes through the path it names: a symlink keeps pointing at
    the artifact, a FIFO stays a FIFO, a replaced file keeps its mode, a new
    one gets the umask's, and an unwritable path exits 1."""

    FIG1 = ["fig1", "--generator", "builtin:carlen-maas", "--alphas", "1,2"]

    def artifact(self, capsys) -> str:
        code, out, _ = run(self.FIG1, capsys)
        assert code == 0
        return out

    def test_symlink_stays_a_link(self, tmp_path, capsys):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target.name)
        assert run([*self.FIG1, "--out", str(link)], capsys)[0] == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_text() == self.artifact(capsys)

    @pytest.fixture()
    def umask_022(self):
        old = os.umask(0o022)
        yield
        os.umask(old)

    def test_new_file_gets_the_umask_mode(self, tmp_path, capsys, umask_022):
        out = tmp_path / "new.csv"
        assert run([*self.FIG1, "--out", str(out)], capsys)[0] == 0
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o644

    def test_replaced_file_keeps_its_mode(self, tmp_path, capsys, umask_022):
        out = tmp_path / "old.csv"
        out.write_text("old\n")
        os.chmod(out, 0o640)
        assert run([*self.FIG1, "--out", str(out)], capsys)[0] == 0
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o640
        os.chmod(out, 0o644)
        assert run([*self.FIG1, "--out", str(out)], capsys)[0] == 0
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o644
        assert out.read_text() == self.artifact(capsys)

    def test_symlink_target_keeps_its_mode(self, tmp_path, capsys, umask_022):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        os.chmod(target, 0o644)
        link.symlink_to(target.name)
        assert run([*self.FIG1, "--out", str(link)], capsys)[0] == 0
        assert link.is_symlink() and stat.S_IMODE(os.stat(target).st_mode) == 0o644

    def test_fifo_receives_the_artifact(self, tmp_path, capsys):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run([*self.FIG1, "--out", str(fifo)], capsys)[0] == 0
            received = os.read(fd, 1 << 16).decode()
        finally:
            os.close(fd)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert received == self.artifact(capsys)

    def test_missing_directory_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.csv"
        code, stdout, err = run([*self.FIG1, "--out", str(out)], capsys)
        assert (code, stdout) == (1, "")
        doc = json.loads(err)
        assert doc["error"] == "validation"
        assert doc["detail"].startswith(f"cannot write {out}")
        assert not out.parent.exists()


class TestComparePinskerBound:
    def test_eps_below_the_bound_exits_validation(self, capsys):
        # the ladder's last rung has a computed D1 of 0.0, but
        # ||rho0 - sigma||_F^2 / 2 = 9.5e-17 bounds it from below
        code, out, err = run(["compare", "--generator", "builtin:qubit-xz", "--alpha0", "2", "--alpha1", "3",
                              "--eps", "1e-300"], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err)["detail"].startswith("initial relative entropy 9.5")

    def test_eps_above_the_bound_passes(self, capsys):
        code, out, _ = run(["compare", "--generator", "builtin:qubit-xz", "--alpha0", "2", "--alpha1", "3",
                            "--eps", "1e-16"], capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True


def generator_object(path):
    """The object a generator file decodes to, without its true/false flag."""
    return cli._load_generator_json(path)[0]


def decoded(read, path) -> str:
    """What a reader makes of a file: its object's repr (exact for every
    double, and telling an int from a float), or its error message."""
    try:
        return repr(read(str(path)))
    except ValidationError as exc:
        return f"ValidationError: {exc}"


@pytest.fixture(scope="class")
def decoder_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("decoder")


class TestGeneratorDecoder:
    """A generator file decodes to the stdlib's object, or fails with the
    stdlib's message, whichever decoder reads it."""

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=16))
    @example(values=[0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e-5])
    def test_doubles_decode_to_the_stdlib_bits(self, values, decoder_dir):
        path = decoder_dir / "doubles.json"
        for text in (json.dumps(values), "[" + ",".join("%.17g" % v for v in values) + "]"):
            doc = f'{{"label": "doubles", "values": {text}}}'
            path.write_text(doc)
            assert decoded(generator_object, path) == repr(json.loads(doc))

    @pytest.mark.parametrize("raw, stdlib_object", [
        (b'{"label": "x", "omega": NaN}', True),
        (b'{"label": "x", "omega": [Infinity, -Infinity]}', True),
        (b'{"label": "x", "omega": 1e400}', True),
        (b'{"label": 18446744073709551616}', True),
        (b'{"label": "\\ud800"}', True),
        (b'\xef\xbb\xbf{"label": "x"}', False),
        (b'{"label": "a", "label": "b"}', True),
        (b'{"label": "x", "deep": ' + b"[" * 600 + b"]" * 600 + b"}", True),
        (b'{"label": "x", "deep": ' + b"[" * 1025 + b"]" * 1025 + b"}", False),
        # closing brackets inside a string, after an escaped backslash and quote, hide no depth
        (b'{"label": "\\\\\\"' + b"]" * 2000 + b'", "deep": ' + b"[" * 1025 + b"]" * 1025 + b"}", False),
    ], ids=["nan", "infinity", "1e400", "label-2**64", "lone-surrogate", "utf8-bom", "duplicate-keys",
            "nesting-600", "nesting-1025", "brackets-in-a-string"])
    def test_fenced_document_gives_the_stdlib_outcome(self, raw, stdlib_object, tmp_path):
        path = tmp_path / "fenced.json"
        path.write_bytes(raw)
        stdlib = decoded(cli._load_json, path)
        assert decoded(generator_object, path) == stdlib
        assert stdlib.startswith("ValidationError: ") != stdlib_object

    def test_benchmark_layout_is_not_decoded_by_the_stdlib(self, monkeypatch, tmp_path):
        G = random_gns_generator(np.random.default_rng(4008), 8, min_sigma_eig=0.15)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(generator_doc(G)))
        monkeypatch.setattr(cli, "_load_json", lambda p: pytest.fail(f"stdlib decoded {p}"))
        # nor are its cells checked one by one: its text holds no true or false
        monkeypatch.setattr(cli, "_has_bool", lambda rows: pytest.fail("per-cell pass"))
        assert np.array_equal(cli.load_generator(str(path)).L_eig, G.L_eig)


class TestGeneratorFile:
    """The jump terms load as one stack, the same generator as in memory."""

    @pytest.mark.parametrize("name", ["qubit-xz", "gns-2", "gns-3", "gns-4", "gns-5", "gns-6", "gns-7", "gns-8"])
    def test_round_trip_is_bit_identical(self, name, tmp_path):
        if name == "qubit-xz":
            G = qubit_xz_generator()
        else:
            n = int(name.split("-")[1])
            G = random_gns_generator(np.random.default_rng(4000 + n), n, min_sigma_eig=0.15)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(generator_doc(G)))
        H = cli.load_generator(str(path))
        for a, b in zip(G.jump_stacks, H.jump_stacks):
            assert np.array_equal(a, b)
        assert np.array_equal(G.L_eig, H.L_eig)
        assert np.array_equal(G.terms.omega, H.terms.omega)

    def test_operator_from_a_csv_path(self, tmp_path):
        G = random_gns_generator(np.random.default_rng(4003), 3, min_sigma_eig=0.15)
        doc = generator_doc(G)
        (tmp_path / "v4.csv").write_text(mc.matrix_to_csv_block("V4", G.terms[4].V))
        doc["terms"][4]["V"] = "v4.csv"
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        H = cli.load_generator(str(path))
        assert np.array_equal(H.jump_stacks[0], G.jump_stacks[0])
        assert np.array_equal(H.L_eig, G.L_eig)

    def test_explicit_weight_rescales_as_the_per_term_oracle(self, tmp_path):
        G = qubit_xz_generator()
        doc = generator_doc(G)
        doc["terms"][0]["V"] = mc.matrix_to_rows(0.7 * G.terms[0].V)
        doc["terms"][0]["weight"] = 3.0
        doc["terms"][1]["weight"] = 0.5
        path = tmp_path / "weighted.json"
        path.write_text(json.dumps(doc))
        H = cli.load_generator(str(path))
        for j, w in enumerate((3.0, 0.5)):
            ref = jump_term(mc.rows_to_matrix(doc["terms"][j]["V"]), 0.0, w)
            assert np.array_equal(H.terms.V[j], ref.V)
            assert H.terms.weight[j] == ref.weight

    def test_stack_normalizes_as_the_per_term_oracle(self):
        rng = np.random.default_rng(12)
        V = np.array([mc.random_complex(rng, 4) for _ in range(6)])
        weights = [None, 2.5, None, 0.3, float(np.real(np.vdot(V[4], V[4]))), 7.0]
        stack = JumpTerms.of(V, np.zeros(6), weights)
        for j, w in enumerate(weights):
            ref = jump_term(V[j], 0.0, w)
            assert np.array_equal(stack.V[j], ref.V)
            assert stack.weight[j] == ref.weight


class TestSigmaContext:
    @pytest.fixture(scope="class")
    def gns8_file(self, tmp_path_factory):
        G = random_gns_generator(np.random.default_rng(8), 8, min_sigma_eig=0.15, label="gns-8")
        path = tmp_path_factory.mktemp("gns8") / "gns8.json"
        path.write_text(json.dumps(generator_doc(G)))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["dbcheck", "--alphas", "0.25,0.5,1,1.5,2,3,4,6"],
    ], ids=["validate", "dbcheck"])
    def test_one_eigensolve_per_balance_report(self, gns8_file, argv, eigensolves, capsys):
        # sigma's decomposition at load; every check reads it
        codes = []
        assert eigensolves(lambda: codes.append(main([argv[0], "--generator", gns8_file, *argv[1:]]))) == 1
        assert codes == [0]

    def test_validate_takes_only_the_bkm_residual(self, gns8_file, monkeypatch, capsys):
        orders = []
        real = cli.bc.srd_residual
        monkeypatch.setattr(cli.bc, "srd_residual", lambda G, a: orders.append(a) or real(G, a))
        assert main(["validate", "--generator", gns8_file]) == 0
        assert orders == [1.0]


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--generator", "builtin:qubit-xz", "--rho0", "random",
                "--seed", "11", "--alphas", "0.5,2", "--t-end", "1", "--dt", "0.005",
                "--store-every", "10"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fig1_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["fig1", "--generator", "builtin:carlen-maas", "--alphas", "0.5:4:0.5"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestParserCache:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_help_text_unchanged(self):
        cli.build_parser().parse_args(["compare", "--generator", "builtin:qubit-xz", "--alpha0", "2",
                                       "--alpha1", "3"])
        assert cli.build_parser().format_help() == cli.build_parser.__wrapped__().format_help()

    def test_successive_calls_match_fresh_parsers(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphas": "1:3:1"}))
        calls = [
            ["validate", "--generator", "builtin:qubit-xz"],
            ["--config", str(cfg), "fig1", "--generator", "builtin:carlen-maas"],
            ["fig1", "--generator", "builtin:carlen-maas"],
            ["dbcheck", "--generator", "builtin:qubit-xz", "--config", str(cfg)],
            ["dbcheck", "--generator", "builtin:qubit-xz"],
            ["simulate", "--generator", "builtin:qubit-xz", "--dt", "0.1"],
            ["simulate", "--generator", "builtin:qubit-xz", "--rho0", "random", "--seed", "3",
             "--alphas", "2", "--t-end", "0.5", "--dt", "0.01", "--store-every", "5"],
            ["compare", "--generator", "builtin:qubit-xz", "--alpha0", "2", "--alpha1", "3", "--seed", "5"],
            ["frobnicate"],
            ["--help"],
            ["compare", "--help"],
        ]

        def run_all(fresh):
            results = []
            for argv in calls:
                if fresh:
                    cli.build_parser.cache_clear()
                code = main(argv)
                out = capsys.readouterr()
                results.append((code, out.out.encode(), out.err.encode()))
            return results

        cli.build_parser.cache_clear()
        warm = run_all(fresh=False)
        assert cli.build_parser.cache_info().misses == 1
        fresh = run_all(fresh=True)
        assert [code for code, _, _ in warm] == [0, 0, 0, 0, 0, 64, 0, 0, 64, 0, 0]
        assert warm == fresh
        # the config reached only the call that named it
        assert len(warm[1][1].splitlines()) == 4 and len(warm[2][1].splitlines()) > 4
        assert warm[3][1] != warm[4][1]
