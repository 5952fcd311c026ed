import json
import shutil
import subprocess
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hermlie.cli import main

DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

STD6_J = [
    ["0", "-1", "0", "0", "0", "0"],
    ["1", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "-1", "0", "0"],
    ["0", "0", "1", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "-1"],
    ["0", "0", "0", "0", "1", "0"],
]
IDENTITY6 = [["1" if i == j else "0" for j in range(6)] for i in range(6)]


@pytest.fixture
def cx1_file(tmp_path):
    path = tmp_path / "cx_type_I.json"
    path.write_text(json.dumps({"schema": 1, "dim": 6, "salamon": "(0,21,0,0,43,0)"}))
    return str(path)


@pytest.fixture
def structure_file(tmp_path):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps({"schema": 1, "J": STD6_J, "metric": IDENTITY6}))
    return str(path)


@pytest.fixture
def j_file(tmp_path):
    path = tmp_path / "j.json"
    path.write_text(json.dumps({"schema": 1, "J": STD6_J}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDescribe:
    def test_counterexample(self, capsys, cx1_file):
        code, out, _ = run_cli(capsys, "describe", cx1_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["two_step_solvable"] is True
        assert doc["fingerprint"]["unimodular"] is False
        assert doc["fingerprint"]["derived_series"] == [2, 0]

    def test_abelian(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"dim": 4, "salamon": "(0,0,0,0)"}))
        code, out, _ = run_cli(capsys, "describe", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["fingerprint"]["derived_series"] == [0]
        assert doc["fingerprint"]["center_dim"] == 4

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "describe", str(path))
        assert code == 2 and "invalid JSON" in err

    def test_constants_document(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps({"dim": 2, "constants": [[1, 2, 2, "1"]]})
        )
        code, out, _ = run_cli(capsys, "describe", str(path))
        assert code == 0 and json.loads(out)["salamon"] == "(0,21)"

    def test_both_fields_rejected(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dim": 2, "salamon": "(0,21)", "constants": []}))
        code, _, err = run_cli(capsys, "describe", str(path))
        assert code == 2


class TestCheck:
    def test_skt_passes(self, capsys, cx1_file, structure_file):
        code, out, _ = run_cli(capsys, "check", cx1_file, structure_file, "--condition", "skt")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"] == {"kahler": False, "balanced": False, "skt": True}
        assert doc["decomposition"] == {"s": 0, "r": 2, "l": 1, "pure_type": "I"}
        assert doc["residuals"]["skt"] == 0.0 and doc["residuals"]["balanced"] > 0

    def test_kahler_fails_with_exit_1(self, capsys, cx1_file, structure_file):
        code, _, _ = run_cli(capsys, "check", cx1_file, structure_file, "--condition", "kahler")
        assert code == 1

    def test_incompatible_metric_exit_2(self, capsys, cx1_file, tmp_path):
        bad = [[("2" if i == j == 0 else ("1" if i == j else "0")) for j in range(6)] for i in range(6)]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"J": STD6_J, "metric": bad}))
        code, _, err = run_cli(capsys, "check", cx1_file, str(path))
        assert code == 2

    def test_byte_deterministic(self, capsys, cx1_file, structure_file):
        _, out1, _ = run_cli(capsys, "check", cx1_file, structure_file)
        _, out2, _ = run_cli(capsys, "check", cx1_file, structure_file)
        assert out1 == out2


class TestShear:
    @pytest.fixture
    def shear_file(self, tmp_path):
        # the counterexample data: a = span{e2, e5}, w = -bracket
        doc = {
            "dim": 6,
            "a": [["0", "1", "0", "0", "0", "0"], ["0", "0", "0", "0", "1", "0"]],
            "omega": [
                {"i": 1, "j": 2, "value": ["0", "-1", "0", "0", "0", "0"]},
                {"i": 3, "j": 4, "value": ["0", "0", "0", "0", "-1", "0"]},
            ],
            "J": STD6_J,
            "metric": IDENTITY6,
        }
        path = tmp_path / "shear.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_skt_true(self, capsys, shear_file):
        code, out, _ = run_cli(capsys, "shear", shear_file, "--kind", "skt")
        assert code == 0
        assert json.loads(out)["verdicts"]["skt"] is True

    def test_balanced_false(self, capsys, shear_file):
        code, out, _ = run_cli(capsys, "shear", shear_file, "--kind", "balanced")
        assert code == 1

    def test_build(self, capsys, shear_file):
        code, out, _ = run_cli(capsys, "shear", shear_file, "--kind", "build")
        assert code == 0
        doc = json.loads(out)
        assert doc["algebra"]["salamon"] == "(0,21,0,0,43,0)"
        assert doc["two_step_solvable"] is True

    def test_cross_check(self, capsys, shear_file):
        code, out, _ = run_cli(capsys, "shear", shear_file, "--kind", "skt", "--cross-check")
        assert code == 0
        assert json.loads(out)["cross_check"]["agreement"] is True

    def test_invalid_data(self, capsys, tmp_path):
        doc = {
            "dim": 4,
            "a": [["1", "0", "0", "0"]],
            "omega": [{"i": 2, "j": 3, "value": ["0", "0", "0", "1"]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "shear", str(path), "--kind", "build")
        assert code == 2


class TestSearchCommand:
    def test_kahler_witness(self, capsys, tmp_path, j_file):
        alg = tmp_path / "two_r3.json"
        alg.write_text(json.dumps({"dim": 6, "salamon": "(25,-15,46,-36,0,0)"}))
        code, out, _ = run_cli(capsys, "search", str(alg), j_file, "--target", "kahler")
        assert code == 0
        doc = json.loads(out)
        assert doc["search"]["status"] == "found"
        assert doc["search"]["exact_verified"] is True
        assert "metric_exact" in doc

    def test_not_found_exit_1(self, capsys, cx1_file, j_file, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": [0, 1], "max_iterations": 200}))
        code, out, _ = run_cli(
            capsys, "search", cx1_file, j_file, "--target", "kahler", "--config", str(cfg)
        )
        assert code == 1
        assert json.loads(out)["search"]["status"] == "not_found"

    def test_seed_env_override(self, capsys, cx1_file, j_file, monkeypatch):
        monkeypatch.setenv("HERMLIE_SEEDS", "3")
        code, out, _ = run_cli(capsys, "search", cx1_file, j_file, "--target", "skt")
        assert code == 0
        assert json.loads(out)["search"]["seed"] == 3

    def test_bad_j_exit_2(self, capsys, cx1_file, tmp_path):
        bad = [["1" if i == j else "0" for j in range(6)] for i in range(6)]
        path = tmp_path / "badj.json"
        path.write_text(json.dumps({"J": bad}))
        code, _, err = run_cli(capsys, "search", cx1_file, str(path), "--target", "skt")
        assert code == 2


class TestCatalogCommand:
    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["entries"]) >= 20

    def test_verification(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--verify")
        assert code == 0
        doc = json.loads(out)
        assert all(row["ok"] for row in doc["verification"])


class TestVerifyPaper:
    def test_tampered_catalog_fails(self, capsys, monkeypatch):
        import hermlie.verify as verify_mod

        original = verify_mod.verify_catalog

        def tampered():
            rows = list(original())
            rows.append(("tampered entry", "standard", False))
            return rows

        monkeypatch.setattr(verify_mod, "verify_catalog", tampered)
        results = verify_mod.run_criteria(numbers={7}, out=lambda line: None)
        assert len(results) == 1 and not results[0].passed
        assert "tampered entry" in results[0].details

    def test_json_flag_shape(self, capsys, monkeypatch):
        # run two cheap criteria through the CLI surface
        import hermlie.verify as verify_mod

        criteria = tuple(c for c in verify_mod.CRITERIA if c[0] in (1, 2))
        monkeypatch.setattr(verify_mod, "CRITERIA", criteria)
        code, out, _ = run_cli(capsys, "verify-paper", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert [c["number"] for c in doc["criteria"]] == [1, 2]


class TestConsoleScript:
    def test_entry_point_installed(self):
        exe = shutil.which("hermlie")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "catalog"], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["entries"]


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _shear_doc(data):
    return {
        "dim": data.dim,
        "a": [[str(c) for c in v] for v in data.a.basis()],
        "omega": [
            {"i": i, "j": j, "value": [str(c) for c in v]}
            for (i, j), v in sorted(data.omega.values.items())
        ],
    }


class TestRoundTrip:
    def test_build_output_reads_back(self, capsys, tmp_path):
        from hermlie.documents import load_algebra

        code, out, _ = run_cli(capsys, "shear", _write(tmp_path, "s.json", {
            "dim": 4,
            "a": [["1", "0", "0", "0"]],
            "omega": [{"i": 1, "j": 2, "value": ["-1", "0", "0", "0"]}],
        }), "--kind", "build")
        assert code == 0
        doc = json.loads(out)["algebra"]
        assert "salamon" in doc and "constants" in doc
        code, _, _ = run_cli(capsys, "describe", _write(tmp_path, "a.json", doc))
        assert code == 0
        assert load_algebra(doc).dim == 4

    def test_d10_generated_shear_reads_back(self, capsys, tmp_path):
        from hermlie.documents import load_algebra
        from hermlie.generators import random_complex_shear
        from hermlie.shear import build_shear

        data, _, _ = random_complex_shear(3, "typeI", 10)
        code, out, _ = run_cli(capsys, "shear", _write(tmp_path, "s.json", _shear_doc(data)),
                               "--kind", "build")
        assert code == 0
        doc = json.loads(out)["algebra"]
        assert "salamon" not in doc  # ambiguous index pairs above dimension 9
        assert load_algebra(doc) == build_shear(data)
        code, described, _ = run_cli(capsys, "describe", _write(tmp_path, "a.json", doc))
        assert code == 0 and json.loads(described)["dim"] == 10

    @pytest.mark.parametrize("profile", ["typeI", "typeIII"])
    @pytest.mark.parametrize("dim", [4, 6, 8, 10])
    def test_described_salamon_reads_back(self, capsys, tmp_path, dim, profile):
        from hermlie.documents import algebra_doc, load_algebra
        from hermlie.generators import random_complex_shear
        from hermlie.shear import build_shear

        for seed in range(3):
            L = build_shear(random_complex_shear(seed, profile, dim)[0])
            code, out, err = run_cli(capsys, "describe", _write(tmp_path, "a.json", algebra_doc(L)))
            assert code == 0, err
            report = json.loads(out)
            if dim > 9:
                assert "salamon" not in report
            else:
                assert load_algebra({"dim": dim, "salamon": report["salamon"]}) == L

    def test_disagreeing_fields_rejected(self, capsys, tmp_path):
        doc = {"dim": 2, "salamon": "(0,21)", "constants": [[1, 2, 1, "1"]]}
        code, _, err = run_cli(capsys, "describe", _write(tmp_path, "c.json", doc))
        assert code == 2 and "different algebras" in err


class TestExactResiduals:
    def test_conjugated_kahler_structure(self, capsys, tmp_path):
        """Abelian R^4 with J = P J0 P^-1 and g = P^-T P^-1 (entries -1/3 and
        10/9): every condition holds, so every residual is exactly zero."""
        from hermlie import linalg as la
        from hermlie.hermitian import ComplexStructure

        p = la.mat([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, "1/3"], [0, 0, 0, 1]])
        p_inv = la.inverse(p)
        j = la.mat_mul(p, la.mat_mul(ComplexStructure.standard(4).matrix, p_inv))
        g = la.mat_mul(la.transpose(p_inv), p_inv)
        assert {str(c) for row in g for c in row} == {"0", "1", "-1", "2", "-1/3", "10/9"}
        alg = _write(tmp_path, "r4.json", {"dim": 4, "salamon": "(0,0,0,0)"})
        structure = _write(tmp_path, "st.json", {
            "J": [[str(c) for c in row] for row in j],
            "metric": [[str(c) for c in row] for row in g],
        })
        code, out, err = run_cli(capsys, "check", alg, structure)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["residuals"] == {"kahler": 0.0, "balanced": 0.0, "skt": 0.0}


class TestMalformedInput:
    """Malformed input exits 2 with one line on stderr, never a traceback."""

    def assert_invalid(self, capsys, *argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")

    def test_non_integer_dim(self, capsys, tmp_path):
        self.assert_invalid(capsys, "describe",
                            _write(tmp_path, "a.json", {"dim": "x", "salamon": "(0,21)"}))

    def test_params_not_an_object(self, capsys, tmp_path):
        doc = {"dim": 2, "salamon": "(0,21)", "params": []}
        self.assert_invalid(capsys, "describe", _write(tmp_path, "a.json", doc))

    @pytest.mark.parametrize(
        "config", [{"seeds": 3}, {"max_iterations": "many"}, {"fd_step": 1e-6}]
    )
    def test_bad_search_config(self, capsys, tmp_path, cx1_file, j_file, config):
        self.assert_invalid(capsys, "search", cx1_file, j_file, "--target", "skt",
                            "--config", _write(tmp_path, "cfg.json", config))

    def test_negative_shear_dimension(self, capsys, tmp_path):
        doc = {"dim": -2, "a": [], "omega": []}
        self.assert_invalid(capsys, "shear", _write(tmp_path, "s.json", doc), "--kind", "build")


# Each command line with the demo documents it reads, in argument order.
DEMO_COMMANDS = [
    (("describe", "{0}"), (algebra,))
    for algebra in ("two_r3", "counterexample_type_I", "rank_one_family")
] + [
    (("check", "{0}", "{1}"), (algebra, "standard_structure"))
    for algebra in ("two_r3", "counterexample_type_I", "rank_one_family")
] + [
    (("search", "{0}", "{1}", "--target", "skt"), (algebra, "standard_J"))
    for algebra in ("two_r3", "counterexample_type_I", "rank_one_family")
] + [
    (("shear", "{0}", "--kind", kind, "--cross-check"), ("counterexample_shear",))
    for kind in ("skt", "build")
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def corrupted_demo(draw):
    """A demo command line with one top-level field of one of its documents
    replaced by a JSON value of another type."""
    argv, names = draw(st.sampled_from(DEMO_COMMANDS))
    docs = [json.loads((DEMO_DATA / f"{name}.json").read_text()) for name in names]
    doc = draw(st.sampled_from(docs))
    key = draw(st.sampled_from(sorted(doc)))
    doc[key] = draw(JSON_VALUES.filter(lambda v: type(v) is not type(doc[key])))
    return argv, docs


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corrupted_demo())
def test_wrong_typed_field_exits_2(capsys, tmp_path, case):
    argv, docs = case
    paths = [_write(tmp_path, f"doc{i}.json", doc) for i, doc in enumerate(docs)]
    code, _, err = run_cli(capsys, *(arg.format(*paths) for arg in argv))
    assert code == 2, (argv, docs)
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
