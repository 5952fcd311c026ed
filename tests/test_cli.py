import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hermlie import algebra as al
from hermlie import documents
from hermlie import linalg as la
from hermlie.cli import main
from hermlie.shear import build_shear, pre_shear_from_bracket

from conftest import commuting_change

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


def _demo(name):
    return json.loads((DEMO_DATA / f"{name}.json").read_text())


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

    def test_allow_nonintegrable_is_unrecognized(self, capsys, cx1_file, structure_file):
        """Every verdict needs an integrable J: there is no option to skip the test."""
        with pytest.raises(SystemExit) as exc:
            main(["check", cx1_file, structure_file, "--allow-nonintegrable"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith("error: unrecognized arguments: --allow-nonintegrable\n")


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

    def test_metric_not_j_invariant(self, capsys, tmp_path, shear_file):
        doc = json.loads(Path(shear_file).read_text())
        doc["metric"][0][0] = "2"
        code, _, err = run_cli(capsys, "shear", _write(tmp_path, "g.json", doc), "--kind", "skt")
        assert code == 2
        assert err == "error: metric is not compatible with J\n"

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

    def test_moved_counterexample_none_exit_1(self, capsys, j_file, tmp_path):
        """The type-I counterexample conjugated by P = (A - JAJ)/2, which is
        not unitary, has no Kahler metric: the faces certify it before the
        solver runs, and the command exits 1 with a certificate that passes
        the exact check."""
        from hermlie.salamon import parse_salamon
        from hermlie.search import check_certificate

        J = documents.load_complex_structure({"J": STD6_J}, 6)
        moved = al.change_basis(parse_salamon("(0,21,0,0,43,0)"), commuting_change(J, random.Random("not-found")))
        alg = _write(tmp_path, "moved.json", documents.algebra_doc(moved))
        code, out, _ = run_cli(capsys, "search", alg, j_file, "--target", "kahler")
        assert code == 1
        doc = json.loads(out)
        assert doc["search"]["status"] == "none" and doc["search"]["route"] == "projection"
        y = [[Fraction(c) for c in row] for row in doc["certificate_exact"]]
        assert check_certificate(moved, J, "kahler", y)

    def test_not_found_exit_1(self, capsys, j_file, tmp_path, monkeypatch):
        """Two Newton steps on each default seed conclude nothing:
        inconclusive.  The generated type-I shear at d6, seed 2, conjugated
        by P = (A - JAJ)/2, which is not unitary, has a Kahler metric that
        neither the projection nor a face decides, so the solver runs;
        uncapped, it finds one in 25 steps."""
        from hermlie import search as search_module
        from hermlie.generators import random_complex_shear

        data, _, J = random_complex_shear(2, "typeI", 6)
        assert J.matrix == documents.load_complex_structure({"J": STD6_J}, 6).matrix
        moved = al.change_basis(build_shear(data), commuting_change(J, random.Random("sample/typeI/6/2")))
        alg = _write(tmp_path, "moved.json", documents.algebra_doc(moved))
        monkeypatch.setattr(search_module, "MAX_ITERATIONS", 2)
        code, out, _ = run_cli(capsys, "search", alg, j_file, "--target", "kahler")
        assert code == 1
        doc = json.loads(out)
        assert doc["search"]["status"] == "not_found" and doc["search"]["route"] == "solver"
        seeds = len(search_module.SearchConfig().seeds)
        assert doc["search"]["iterations"] == 2 * seeds == 32  # two capped Newton steps per seed
        assert "certificate_exact" not in doc

    def test_none_certificate_round_trip(self, capsys):
        """A certified none exits 1, and its certificate reloads from the
        report and passes the exact check."""
        from hermlie.documents import load_algebra, load_complex_structure
        from hermlie.search import check_certificate

        alg, j = str(DEMO_DATA / "counterexample_type_I.json"), str(DEMO_DATA / "standard_J.json")
        code, out, _ = run_cli(capsys, "search", alg, j, "--target", "kahler")
        assert code == 1
        doc = json.loads(out)
        assert doc["search"]["status"] == "none"
        assert "none is certified" in doc["citations"][0]
        assert "not_found is inconclusive" in doc["citations"][0]
        L = load_algebra(json.loads(Path(alg).read_text()))
        J = load_complex_structure(json.loads(Path(j).read_text()), L.dim)
        y = [[Fraction(c) for c in row] for row in doc["certificate_exact"]]
        assert check_certificate(L, J, "kahler", y)

    def test_seed_env_override(self, capsys, monkeypatch):
        """No environment variable moves search: HERMLIE_SEEDS, set to a
        count or empty, gives the same exit code and bytes as unset."""
        alg, j = str(DEMO_DATA / "counterexample_type_I.json"), str(DEMO_DATA / "standard_J.json")
        monkeypatch.delenv("HERMLIE_SEEDS", raising=False)
        unset = run_cli(capsys, "search", alg, j, "--target", "kahler")
        assert unset[0] == 1 and unset[2] == ""
        for value in ("3", ""):
            monkeypatch.setenv("HERMLIE_SEEDS", value)
            assert run_cli(capsys, "search", alg, j, "--target", "kahler") == unset

    def test_bad_j_exit_2(self, capsys, cx1_file, tmp_path):
        bad = [["1" if i == j else "0" for j in range(6)] for i in range(6)]
        path = tmp_path / "badj.json"
        path.write_text(json.dumps({"J": bad}))
        code, _, err = run_cli(capsys, "search", cx1_file, str(path), "--target", "skt")
        assert code == 2

    def test_balanced_witness_at_d8(self, capsys, tmp_path):
        from hermlie.documents import algebra_doc, load_metric
        from hermlie.generators import random_complex_shear
        from hermlie.hermitian import classify_metric
        from hermlie.shear import build_shear

        data, _, J = random_complex_shear(0, "typeI", 8)
        L = build_shear(data)
        alg = _write(tmp_path, "a.json", algebra_doc(L))
        j = _write(tmp_path, "j.json", {"J": [[str(c) for c in row] for row in J.matrix]})
        code, out, err = run_cli(capsys, "search", alg, j, "--target", "balanced")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["search"]["exact_verified"] is True
        g = load_metric({"metric": doc["metric_exact"]}, 8)
        assert classify_metric(L, g, J).balanced

    def test_non_orthogonal_j(self, capsys, tmp_path):
        """The identity is not compatible with this J; the search still starts."""
        jm = [["0"] * 6 for _ in range(6)]
        jm[0][:2], jm[1][:2] = ["1", "-2"], ["1", "-1"]
        jm[2][3], jm[3][2], jm[4][5], jm[5][4] = "-1", "1", "-1", "1"
        alg = _write(tmp_path, "a.json", {"dim": 6, "salamon": "(0,0,0,0,0,0)"})
        j = _write(tmp_path, "j.json", {"J": jm})
        code, out, err = run_cli(capsys, "search", alg, j, "--target", "kahler")
        assert code == 0, err
        assert json.loads(out)["search"]["exact_verified"] is True


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
        monkeypatch.setattr(verify_mod, "CRITERIA", tuple(c for c in verify_mod.CRITERIA if c[0] == 7))
        results = verify_mod.run_criteria(out=lambda line: None)
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

    def test_omega_pair_in_either_order(self, capsys, tmp_path):
        """An omega value given under (j, i) is the negated value of (i, j)."""
        doc = _demo("generated_shear_d8")
        first = doc["omega"][0]
        first.update(i=first["j"], j=first["i"], value=[str(-Fraction(c)) for c in first["value"]])
        for kind in ("build", "skt"):
            runs = [run_cli(capsys, "shear", path, "--kind", kind)
                    for path in (str(DEMO_DATA / "generated_shear_d8.json"), _write(tmp_path, "s.json", doc))]
            assert runs[0] == runs[1] and runs[0][0] in (0, 1)

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
        return err

    def test_non_integer_dim(self, capsys, tmp_path):
        self.assert_invalid(capsys, "describe",
                            _write(tmp_path, "a.json", {"dim": "x", "salamon": "(0,21)"}))

    def test_params_not_an_object(self, capsys, tmp_path):
        doc = {"dim": 2, "salamon": "(0,21)", "params": []}
        self.assert_invalid(capsys, "describe", _write(tmp_path, "a.json", doc))

    def assert_no_config(self, capsys, tmp_path, cx1_file, j_file, config):
        """search takes no tuning file: --config is refused as an unknown
        option, before any file is read, whatever the file holds."""
        with pytest.raises(SystemExit) as exc:
            main(["search", cx1_file, j_file, "--target", "skt", "--config", _write(tmp_path, "cfg.json", config)])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith("error: unrecognized arguments: --config " + str(tmp_path / "cfg.json") + "\n")

    @pytest.mark.parametrize(
        "config",
        [
            {"seeds": 3},
            {"max_iterations": "many"},
            {"fd_step": 1e-6},
            # the removed gradient-descent fields
            {"barrier_schedule": [1e-2, 0.0]},
            {"initial_step": 0.25},
            {"start_spread": 0.2},
            {"stall_iterations": 250},
            {"min_eig_floor": 1e-3},
            # the removed solver fields (now the constants MAX_ITERATIONS and
            # TOLERANCE), at values no search could use, and empty seeds
            {"max_iterations": 0},
            {"max_iterations": -3},
            {"seeds": []},
            {"tolerance": 0},
            {"tolerance": -1e-9},
            {"tolerance": float("nan")},
            {"tolerance": float("inf")},
            # seeds that SearchConfig accepts
            {"seeds": [0, 1]},
        ],
    )
    def test_bad_search_config(self, capsys, tmp_path, cx1_file, j_file, config):
        self.assert_no_config(capsys, tmp_path, cx1_file, j_file, config)

    @pytest.mark.parametrize("seeds", [None, "0"])
    @pytest.mark.parametrize("config", [[1, 2], "s", 3, None])
    def test_search_config_not_an_object(self, capsys, tmp_path, cx1_file, j_file, monkeypatch, config, seeds):
        if seeds is None:
            monkeypatch.delenv("HERMLIE_SEEDS", raising=False)
        else:
            monkeypatch.setenv("HERMLIE_SEEDS", seeds)
        self.assert_no_config(capsys, tmp_path, cx1_file, j_file, config)

    @pytest.mark.parametrize(
        "command,doc",
        [
            (("describe", "{}"), {"dim": 10**6, "constants": [[1, 2, 2, "1"]]}),
            (("shear", "{}", "--kind", "build"), {"dim": 10**6, "a": [], "omega": []}),
        ],
    )
    def test_huge_dimension_rejected_before_building(self, capsys, tmp_path, monkeypatch, command, doc):
        def never(*args, **kwargs):
            raise AssertionError("a document above the dimension limit was built")

        monkeypatch.setattr(documents, "make_algebra", never)
        monkeypatch.setattr(documents.Subspace, "span", never)
        path = _write(tmp_path, "big.json", doc)
        self.assert_invalid(capsys, *(a.format(path) for a in command))

    def test_negative_shear_dimension(self, capsys, tmp_path):
        doc = {"dim": -2, "a": [], "omega": []}
        self.assert_invalid(capsys, "shear", _write(tmp_path, "s.json", doc), "--kind", "build")

    def test_j_rows_must_be_lists(self, capsys, tmp_path, cx1_file):
        doc = {"J": [1, 2, 3, 4, 5, 6], "metric": IDENTITY6}
        self.assert_invalid(capsys, "check", cx1_file, _write(tmp_path, "st.json", doc))

    def test_metric_row_string_is_not_read_digit_by_digit(self, capsys, tmp_path, cx1_file):
        doc = {"J": STD6_J, "metric": ["".join(row) for row in IDENTITY6]}  # "100000", ...
        self.assert_invalid(capsys, "check", cx1_file, _write(tmp_path, "st.json", doc),
                            "--condition", "skt")

    def test_boolean_is_not_a_rational(self, capsys, tmp_path, cx1_file):
        metric = [[True if i == j else "0" for j in range(6)] for i in range(6)]
        doc = {"J": STD6_J, "metric": metric}
        self.assert_invalid(capsys, "check", cx1_file, _write(tmp_path, "st.json", doc),
                            "--condition", "skt")

    @pytest.mark.parametrize("index", [1.9, True, "1"])
    def test_omega_index_must_be_an_integer(self, capsys, tmp_path, index):
        doc = json.loads((DEMO_DATA / "counterexample_shear.json").read_text())
        doc["omega"][0]["i"] = index
        self.assert_invalid(capsys, "shear", _write(tmp_path, "s.json", doc), "--kind", "skt")

    def test_repeated_omega_pair(self, capsys, tmp_path):
        """(1, 2) and (2, 1) name one pair, even when the values agree."""
        doc = json.loads((DEMO_DATA / "counterexample_shear.json").read_text())
        first = doc["omega"][0]
        negated = [str(-Fraction(c)) for c in first["value"]]
        doc["omega"].append({"i": first["j"], "j": first["i"], "value": negated})
        self.assert_invalid(capsys, "shear", _write(tmp_path, "s.json", doc), "--kind", "skt")

    @pytest.mark.parametrize("index", [1.0, True, "1"])
    def test_constants_index_must_be_an_integer(self, capsys, tmp_path, index):
        doc = {"dim": 2, "constants": [[index, 2, 2, "1"]]}
        self.assert_invalid(capsys, "describe", _write(tmp_path, "a.json", doc))

    @pytest.mark.parametrize("literal", ["1e5000", "1e-5000", "5e-4301", "1e3000000"])
    @pytest.mark.parametrize("command", ["describe", "params", "check", "shear"])
    def test_oversized_rational(self, capsys, tmp_path, monkeypatch, cx1_file, command, literal):
        """A rational whose numerator or denominator has more digits than
        Python writes is refused at once, wherever a document holds it, and
        before ``Fraction`` expands a power of ten of millions of digits."""

        def unexpanded(value=0, *args):
            if isinstance(value, str):
                assert len(value.lower().partition("e")[2].lstrip("+-")) < 7, f"Fraction expands {value!r}"
            return Fraction(value, *args)

        monkeypatch.setattr(documents, "Fraction", unexpanded)
        if command == "describe":
            argv = ["describe", _write(tmp_path, "a.json", {"dim": 2, "constants": [[1, 2, 2, literal]]})]
        elif command == "params":
            doc = {"dim": 2, "salamon": "(0,a.21)", "params": {"a": literal}}
            argv = ["describe", _write(tmp_path, "a.json", doc)]
        elif command == "check":
            metric = [row[:] for row in IDENTITY6]
            metric[0][0] = metric[1][1] = literal  # still compatible with J
            argv = ["check", cx1_file, _write(tmp_path, "st.json", {"J": STD6_J, "metric": metric})]
        else:
            doc = json.loads((DEMO_DATA / "counterexample_shear.json").read_text())
            doc["omega"][0]["value"][1] = literal  # [e_1, e_2] = -literal e_2
            argv = ["shear", _write(tmp_path, "s.json", doc), "--kind", "build"]
        start = time.perf_counter()
        self.assert_invalid(capsys, *argv)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "raw",
        [b'{"dim": 2, "constants": [[1, 2, 2, ' + b"7" * 5000 + b"]]}", b'{"dim": 2, "salamon": "(0,21)\xff"}'],
        ids=["integer-too-long-to-read", "not-utf-8"],
    )
    def test_unreadable_json(self, capsys, tmp_path, raw):
        path = tmp_path / "a.json"
        path.write_bytes(raw)
        self.assert_invalid(capsys, "describe", str(path))

    @pytest.mark.parametrize(
        "argv,docs,message",
        [
            pytest.param(("describe", "{missing}"), [], "no such file", id="no-such-file"),
            pytest.param(("shear", "{0}", "--kind", "skt"),
                         [{k: v for k, v in _demo("counterexample_shear").items() if k != "J"}],
                         'condition checks need a "J" entry', id="shear-condition-without-J"),
            pytest.param(("describe", "{0}"), [[1, 2]], "algebra document must be a JSON object",
                         id="not-an-object"),
            pytest.param(("describe", "{0}"), [{"dim": 2}], 'one of "salamon" or "constants"',
                         id="no-notation"),
            pytest.param(("describe", "{0}"), [{"constants": [[1, 2, 2, "1"]]}],
                         '"constants" need an integer "dim"', id="constants-without-dim"),
            pytest.param(("describe", "{0}"), [{"dim": 3, "constants": [[1, 2, 3, "1"], [1, 3, 1, "1"]]}],
                         "structure constants violate Jacobi", id="constants-not-jacobi"),
            # a digit to str.isdigit that int() does not read
            pytest.param(("describe", "{0}"), [{"salamon": "(0,\u00b21)"}], "expected a term (at position 3)",
                         id="superscript-digit"),
            pytest.param(("describe", "{0}"), [{"dim": 3, "salamon": "(0,21)"}],
                         '"dim" is 3 but the algebra has dimension 2', id="dim-disagrees"),
            pytest.param(("check", "{0}", "{1}"), [_demo("two_r3"), {"metric": IDENTITY6}],
                         'structure document needs a "J" matrix', id="J-missing"),
            pytest.param(("check", "{0}", "{1}"), [_demo("two_r3"), {"J": [["0", "-1"], ["1", "0"]]}],
                         '"J" must be 6x6', id="J-wrong-size"),
            pytest.param(("check", "{0}", "{1}"), [_demo("two_r3"), {"J": STD6_J}],
                         'structure document needs a "metric" matrix', id="metric-missing"),
            pytest.param(("check", "{0}", "{1}"), [_demo("two_r3"), {"J": STD6_J, "metric": [["1"]]}],
                         '"metric" must be 6x6', id="metric-wrong-size"),
            pytest.param(("shear", "{0}", "--kind", "build"), [{"a": [], "omega": []}],
                         'shear document needs an integer "dim"', id="shear-without-dim"),
            pytest.param(("shear", "{0}", "--kind", "build"), [{"dim": 2, "a": [], "omega": [1]}],
                         "an omega entry must be an object", id="omega-entry-not-an-object"),
            pytest.param(("describe", "{0}"), [{"salamon": "(0,01)"}], "a zero entry must stand alone",
                         id="salamon-zero-not-alone"),
            pytest.param(("describe", "{0}"), [{"salamon": "(0,2.(12 13))"}],
                         "expected '+', '-' or ')' in a group", id="salamon-unclosed-group"),
            pytest.param(("describe", "{0}"), [{"salamon": "(" + ",".join("0" * 10) + ")"}],
                         "at most 9 entries", id="salamon-ten-entries"),
            pytest.param(("describe", "{0}"), [{"salamon": "(0,31)"}], "index pair 13 exceeds dimension 2",
                         id="salamon-pair-above-dim"),
        ],
    )
    def test_each_input_error_exits_2(self, capsys, tmp_path, argv, docs, message):
        """Each raise on malformed input ends in exit 2 and one line that names it."""
        paths = [_write(tmp_path, f"doc{i}.json", doc) for i, doc in enumerate(docs)]
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(capsys, *(arg.format(*paths, missing=missing) for arg in argv))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err, err

    @pytest.mark.parametrize(
        "grouped,expanded", [("(0,0,2.(31-32))", "(0,0,2.31-2.32)"), ("(0,0,2.(-31+32))", "(0,0,-2.31+2.32)")]
    )
    def test_grouped_minus_signs(self, capsys, tmp_path, grouped, expanded):
        """A minus sign inside a coefficient's group reads as in its expansion."""
        runs = [run_cli(capsys, "describe", _write(tmp_path, f"{i}.json", {"salamon": text}))
                for i, text in enumerate((grouped, expanded))]
        assert runs[0] == runs[1] and runs[0][0] == 0

    @pytest.mark.parametrize(
        "literal,value",
        [("1e3", 1000), ("0.5", Fraction(1, 2)), ("-7/3", Fraction(-7, 3)), ("0e3000000", 0), ("1e4299", 10**4299)]
        # short plain integers skip Fraction's parser; they, and those just outside that shortcut
        + [
            (v, Fraction(v))
            for v in ["0", "-0", "007", "9" * 20, "-" + "9" * 19, "9" * 21, 7, 1 - 10**20, 10**20, "+5", " 5", "1_0", "١"]
        ],
    )
    def test_long_literals_within_the_limit_are_read(self, literal, value):
        assert documents._fraction(literal) == value

    @pytest.mark.parametrize("literal", ["", "-", "--1", "1-", "²"])
    def test_near_integers_are_rejected(self, literal):
        with pytest.raises(documents.DocumentError, match="bad rational"):
            documents._fraction(literal)

    def test_integer_past_the_limit_is_a_document_error(self):
        """An int past the digit limit cannot be written in decimal, so the
        error names it without its digits."""
        with pytest.raises(documents.DocumentError, match="bad rational integer: .*digits"):
            documents._fraction(10**5000)

    def test_literal_of_the_limit_length_is_read(self):
        """Without an exponent no numerator or denominator has more digits
        than the literal has characters, so one at the limit is read."""
        limit = sys.get_int_max_str_digits()
        assert documents._fraction("7" * limit) == int("7" * limit)
        assert documents._fraction("0." + "1" * (limit - 2)) == Fraction(int("1" * (limit - 2)), 10 ** (limit - 2))

    @pytest.mark.parametrize("literal", [lambda n: "." + "1" * n, lambda n: "1" * (n + 1)], ids=["decimal", "integer"])
    def test_literal_past_the_limit_length(self, capsys, tmp_path, literal):
        """A decimal one character past the limit has a denominator 10^limit
        of limit + 1 digits."""
        doc = {"dim": 2, "constants": [[1, 2, 2, literal(sys.get_int_max_str_digits())]]}
        self.assert_invalid(capsys, "describe", _write(tmp_path, "a.json", doc))


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


def _constants_doc(name):
    """A demo algebra document rewritten in the "constants" notation."""
    from hermlie.documents import algebra_doc, load_algebra

    doc = algebra_doc(load_algebra(_demo(name)))
    del doc["salamon"]
    return doc


# Command lines whose documents hold every nested entry the loaders read:
# the rows and entries of "J", "metric" and "a", omega entries, constants.
NESTED_CASES = [
    (("check", "{0}", "{1}"), [_constants_doc("counterexample_type_I"), _demo("standard_structure")]),
    (("shear", "{0}", "--kind", "skt"), [_demo("counterexample_shear")]),
]


def _nested_slots(doc):
    """(path, JSON types the loader accepts there) for each nested entry."""
    slots = []
    for key in ("J", "metric", "a"):
        for r, row in enumerate(doc.get(key, [])):
            slots.append(((key, r), (list,)))
            slots += [((key, r, c), (str, int)) for c in range(len(row))]
    for e in range(len(doc.get("omega", []))):
        slots += [(("omega", e, "i"), (int,)), (("omega", e, "j"), (int,)), (("omega", e, "value"), (list,))]
    for e in range(len(doc.get("constants", []))):
        slots += [(("constants", e), (list,))] + [(("constants", e, f), (int,)) for f in range(3)]
        slots.append((("constants", e, 3), (str, int)))
    return slots


@st.composite
def corrupted_entry(draw):
    """A command line with one nested entry of one of its documents replaced
    by a JSON value of a type the loader does not accept there (a bool is
    neither an integer nor a rational)."""
    argv, docs = draw(st.sampled_from(NESTED_CASES))
    docs = json.loads(json.dumps(docs))
    doc = draw(st.sampled_from(docs))
    path, accepted = draw(st.sampled_from(_nested_slots(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(JSON_VALUES.filter(lambda v: type(v) not in accepted))
    return argv, docs


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corrupted_entry())
def test_wrong_typed_nested_entry_exits_2(capsys, tmp_path, case):
    argv, docs = case
    paths = [_write(tmp_path, f"doc{i}.json", doc) for i, doc in enumerate(docs)]
    code, _, err = run_cli(capsys, *(arg.format(*paths) for arg in argv))
    assert code == 2, (argv, docs)
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


CONDITIONS = ("kahler", "balanced", "skt", "all")
SHEAR_KINDS = ("kahler", "balanced", "skt")
SUBCOMMANDS = ("describe", "check", "shear", "search", "catalog", "verify-paper")
DEMO_ALGEBRAS = ("two_r3", "counterexample_type_I", "rank_one_family")
DEMO_SHEARS = ("counterexample_shear", "generated_shear_d8", "generated_shear_d10")


def _matrix_doc(m):
    return [[str(c) for c in row] for row in m]


def _demo_calls(tmp_path):
    """describe and check on every demo algebra under every --condition,
    shear on every demo shear document under every --kind, and describe and
    check on the algebra each shear document builds."""
    from hermlie.documents import algebra_doc, load_shear_data
    from hermlie.shear import build_shear

    structure = str(DEMO_DATA / "standard_structure.json")
    for name in DEMO_ALGEBRAS:
        alg = str(DEMO_DATA / f"{name}.json")
        yield ("describe", alg)
        for condition in CONDITIONS:
            yield ("check", alg, structure, "--condition", condition)
    for name in DEMO_SHEARS:
        data = str(DEMO_DATA / f"{name}.json")
        for kind in SHEAR_KINDS:
            yield ("shear", data, "--kind", kind, "--cross-check")
        yield ("shear", data, "--kind", "build")
        built = algebra_doc(build_shear(load_shear_data(_demo(name))[0]))
        alg = _write(tmp_path, f"{name}-algebra.json", built)
        yield ("describe", alg)
        yield ("check", alg, data)  # the shear document carries "J" and "metric"


def _catalog_calls(tmp_path):
    """describe on every catalog entry, check on each of its witnesses, and
    shear on its bracket's shear data with its first witness metric."""
    from hermlie.catalog import witness_lists
    from hermlie.shear import pre_shear_from_bracket

    for n, e in enumerate(witness_lists()):
        alg = _write(tmp_path, f"entry{n}.json", {
            "dim": 6, "salamon": e.salamon, "params": {k: str(v) for k, v in e.params.items()},
        })
        yield ("describe", alg)
        for m, w in enumerate(e.witnesses):
            st_doc = {"J": _matrix_doc(e.J.matrix), "metric": _matrix_doc(w.metric.matrix)}
            yield ("check", alg, _write(tmp_path, f"entry{n}-witness{m}.json", st_doc))
        doc = _shear_doc(pre_shear_from_bracket(e.algebra))
        doc.update(J=_matrix_doc(e.J.matrix), metric=_matrix_doc(e.witnesses[0].metric.matrix))
        data = _write(tmp_path, f"entry{n}-shear.json", doc)
        for kind in SHEAR_KINDS:
            yield ("shear", data, "--kind", kind, "--cross-check")
        yield ("shear", data, "--kind", "build")


def _report_digest(capsys, calls):
    """sha256 over the exit code and the stdout bytes of each call, in order."""
    import hashlib

    h = hashlib.sha256()
    for argv in calls:
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1), (argv, err)
        h.update(f"{code}\n{out}".encode())
    return h.hexdigest()


# Recorded on the parser and loaders as they stood before the CLI cached its
# parser and read check's residuals off the verdict forms.
PINNED_REPORTS = {
    "demos": (_demo_calls, "e348e04e4b76c8da6147170f3ea78db04b60c4f1f74c0eea8a69f119c7c7ef22"),
    "catalog": (_catalog_calls, "eb7c376f53308e0617f17f46a6ed0aa57ccb149fdcf38f9e42f35c4fc5cf5ff8"),
}
PINNED_HELP = "28e84dc5415cecfda4229b3c79c0199c0592c4333e46dc0fcdcc3bdd5e3a338a"


class TestPinnedReports:
    @pytest.mark.parametrize("group", PINNED_REPORTS)
    def test_reports_are_pinned(self, capsys, tmp_path, group):
        """Every report and exit code of describe, check and shear on the demo
        documents (d6, d8 and d10) and on every catalog entry."""
        calls, expected = PINNED_REPORTS[group]
        assert _report_digest(capsys, calls(tmp_path)) == expected

    def test_help_is_pinned(self, capsys, monkeypatch):
        import hashlib

        monkeypatch.setenv("COLUMNS", "80")
        h = hashlib.sha256()
        for argv in [("--help",)] + [(sub, "--help") for sub in SUBCOMMANDS]:
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == 0
            h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == PINNED_HELP



def _reentrant_calls():
    alg = str(DEMO_DATA / "counterexample_type_I.json")
    structure = str(DEMO_DATA / "standard_structure.json")
    data = str(DEMO_DATA / "counterexample_shear.json")
    yield ("describe", alg)
    for condition in CONDITIONS:
        yield ("check", alg, structure, "--condition", condition)
    for kind in SHEAR_KINDS:
        yield ("shear", data, "--kind", kind)
        yield ("shear", data, "--kind", kind, "--cross-check")
    yield ("shear", data, "--kind", "build")
    yield ("catalog",)


class TestBasisChange:
    """The reports survive a change of basis by P = (A - JAJ)/2, which
    commutes with J: on documents of (P^-1 [P., P.], J, P^T g P), describe
    gives the same fingerprint, check the same verdicts, decomposition and
    zero pattern of residuals, and shear --cross-check the same verdicts,
    in agreement with the direct route."""

    @staticmethod
    def _moved(L, J, g, rng):
        p = commuting_change(J, rng)
        return al.change_basis(L, p), _matrix_doc(la.mat_mul(la.transpose(p), la.mat_mul(g.matrix, p)))

    @staticmethod
    def _checked(capsys, *argv):
        code, out, err = run_cli(capsys, "check", *argv)
        assert code in (0, 1), err
        report = json.loads(out)
        zero = {kind: r == 0.0 for kind, r in report["residuals"].items()}
        return code, report["verdicts"], report["decomposition"], zero

    @pytest.mark.parametrize("name", DEMO_ALGEBRAS)
    def test_describe_and_check(self, capsys, tmp_path, name):
        alg, structure = str(DEMO_DATA / f"{name}.json"), str(DEMO_DATA / "standard_structure.json")
        doc = _demo("standard_structure")
        J, g = documents.load_complex_structure(doc, 6), documents.load_metric(doc, 6)
        moved, metric = self._moved(documents.load_algebra(_demo(name)), J, g, random.Random(name))
        moved_alg = _write(tmp_path, "moved.json", documents.algebra_doc(moved))
        moved_st = _write(tmp_path, "moved-structure.json", {"J": doc["J"], "metric": metric})
        fingerprints = [json.loads(run_cli(capsys, "describe", path)[1])["fingerprint"] for path in (alg, moved_alg)]
        assert fingerprints[0] == fingerprints[1]
        for condition in CONDITIONS:
            before = self._checked(capsys, alg, structure, "--condition", condition)
            assert self._checked(capsys, moved_alg, moved_st, "--condition", condition) == before, condition

    def test_shear(self, capsys, tmp_path):
        source = _demo("counterexample_shear")
        data, g, J = documents.load_shear_data(source)
        moved, metric = self._moved(build_shear(data), J, g, random.Random("counterexample_shear"))
        doc = _shear_doc(pre_shear_from_bracket(moved))
        doc.update(J=source["J"], metric=metric)
        paths = (str(DEMO_DATA / "counterexample_shear.json"), _write(tmp_path, "moved-shear.json", doc))
        verdicts = set()
        for kind in SHEAR_KINDS:
            before, after = (run_cli(capsys, "shear", path, "--kind", kind, "--cross-check") for path in paths)
            assert after[0] == before[0], kind
            reports = [json.loads(out) for _, out, _ in (before, after)]
            assert reports[1]["verdicts"] == reports[0]["verdicts"], kind
            assert reports[1]["cross_check"]["agreement"] is True, kind
            verdicts.add(reports[1]["verdicts"][kind])
        assert verdicts == {True, False}


class TestReentrant:
    """``main`` may be called any number of times in one process: the one
    parser it builds keeps nothing from a call to the next."""

    def test_each_call_repeats(self, capsys):
        from hermlie.cli import build_parser

        assert build_parser() is build_parser()
        for argv in _reentrant_calls():
            first = run_cli(capsys, *argv)
            assert first[0] in (0, 1) and run_cli(capsys, *argv) == first, argv

    @pytest.mark.parametrize(
        "bad",
        [("check", str(DEMO_DATA / "two_r3.json")),
         ("check", str(DEMO_DATA / "two_r3.json"), str(DEMO_DATA / "standard_structure.json"),
          "--condition", "bogus"),
         ("shear", str(DEMO_DATA / "counterexample_shear.json")),
         ()],
        ids=["missing-argument", "bogus-condition", "missing-kind", "no-command"],
    )
    def test_usage_error_between_calls(self, capsys, bad):
        for argv in _reentrant_calls():
            before = run_cli(capsys, *argv)
            with pytest.raises(SystemExit) as exc:
                main(list(bad))
            assert exc.value.code == 2 and capsys.readouterr().out == ""
            assert run_cli(capsys, *argv) == before, argv


class TestResidualReuse:
    """check's residuals are the norms of the forms its verdicts test, equal
    as floats to the squared norm of each kind's ``condition_form`` on the
    same metric."""

    def check(self, capsys, tmp_path, L, J, g):
        from hermlie.documents import algebra_doc
        from hermlie.hermitian import KINDS, classify_metric, condition_form, squared_norm

        alg = _write(tmp_path, "a.json", algebra_doc(L))
        st = _write(tmp_path, "st.json", {"J": _matrix_doc(J.matrix), "metric": _matrix_doc(g.matrix)})
        code, out, err = run_cli(capsys, "check", alg, st)
        assert code in (0, 1), err
        report = json.loads(out)
        assert report["residuals"] == {
            kind: squared_norm(condition_form(L, J, *g.sigma_ints(J), kind)) for kind in KINDS
        }
        assert report["verdicts"] == classify_metric(L, g, J).as_dict()
        assert report["verdicts"] == {kind: r == 0.0 for kind, r in report["residuals"].items()}
        return report["residuals"]

    def test_catalog_witnesses_and_draws(self, capsys, tmp_path):
        import random

        from hermlie.catalog import witness_lists
        from hermlie.generators import random_compatible_metric

        rng = random.Random(20)
        nonzero = 0
        for e in witness_lists():
            draws = [random_compatible_metric(6, e.J, rng) for _ in range(2)]
            for g in [w.metric for w in e.witnesses] + draws:
                nonzero += any(self.check(capsys, tmp_path, e.algebra, e.J, g).values())
        assert nonzero >= 50

    def test_kahler_metric_reads_zero(self, capsys, tmp_path):
        from hermlie.normal_forms import KahlerNormalForm, kahler_normal_form

        betas = ((Fraction(1), Fraction(-1, 2), *[Fraction(0)] * 4),)
        L, g, J = kahler_normal_form(KahlerNormalForm("II", 1, 0, 3, ((),), betas, ()))
        assert L.dim == 8
        assert self.check(capsys, tmp_path, L, J, g) == {"kahler": 0.0, "balanced": 0.0, "skt": 0.0}


# Every subcommand that takes J, on (0,21,0,0,43,0) with a J whose Nijenhuis
# tensor does not vanish, and the one line each writes on stderr
NOT_INTEGRABLE = "error: J is not integrable on this algebra: its Nijenhuis tensor does not vanish\n"
NOT_COMPLEX_SHEAR = "error: shear data equations fail (jacobi_ok=True, integrable_ok=False)\n"
NONINTEGRABLE_CALLS = {
    "check": (("check", "{alg}", "{st}"), NOT_INTEGRABLE),
    **{f"search-{k}": (("search", "{alg}", "{st}", "--target", k), NOT_INTEGRABLE) for k in SHEAR_KINDS},
    **{f"shear-{k}": (("shear", "{shear}", "--kind", k), NOT_COMPLEX_SHEAR) for k in SHEAR_KINDS},
    **{f"shear-{k}-cross-check": (("shear", "{shear}", "--kind", k, "--cross-check"), NOT_COMPLEX_SHEAR)
       for k in SHEAR_KINDS},
}


@pytest.mark.parametrize("argv, err", NONINTEGRABLE_CALLS.values(), ids=NONINTEGRABLE_CALLS.keys())
def test_nonintegrable_structure(capsys, tmp_path, cx_type_I, argv, err):
    """Every verdict needs an integrable J, so each call exits 2 with
    nothing on stdout and one line on stderr."""
    from hermlie.generators import random_compatible_metric
    from hermlie.hermitian import ComplexStructure, is_integrable

    J = ComplexStructure.from_pairs(6, [(1, 3), (2, 4), (5, 6)])
    assert not is_integrable(cx_type_I, J)
    g = random_compatible_metric(6, J, random.Random(4))
    structure = {"J": _matrix_doc(J.matrix), "metric": _matrix_doc(g.matrix)}
    files = {
        "alg": _write(tmp_path, "a.json", {"salamon": "(0,21,0,0,43,0)"}),
        "st": _write(tmp_path, "st.json", structure),
        "shear": _write(tmp_path, "s.json", {**_shear_doc(pre_shear_from_bracket(cx_type_I)), **structure}),
    }
    assert run_cli(capsys, *(a.format(**files) for a in argv)) == (2, "", err)
