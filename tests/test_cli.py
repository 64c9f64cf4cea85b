import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loccwork
from loccwork import cli, ensembles, graphs, lab, locc
from loccwork.cli import build_parser, cli_main

LN2 = 0.6931471805599453


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Address-space cap for CLI calls on large states, set before numpy loads
# (numpy and OpenBLAS reserve address space at import).  A branch tree that
# outgrows it fails the test with a MemoryError instead of exhausting the
# machine's memory.
MEMORY_CAP_BYTES = 3 << 30


def run_capped(*argv):
    """cli_main(argv) in a subprocess capped at MEMORY_CAP_BYTES."""
    src = str(Path(loccwork.__file__).resolve().parents[1])
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_CAP_BYTES}, {MEMORY_CAP_BYTES}))\n"
        f"sys.path.insert(0, {src!r})\n"
        "from loccwork.cli import cli_main\n"
        f"sys.exit(cli_main({list(argv)!r}))\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, env=env)


def parse_kv(out):
    pairs = {}
    for line in out.splitlines():
        key, _, value = line.partition(" ")
        pairs[key] = value
    return pairs


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "work" in out

    def test_no_arguments_is_usage_error(self, capsys):
        assert run(capsys)[0] == 1

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "transmute")[0] == 1

    def test_unknown_flag(self, capsys):
        assert run(capsys, "work", "--state", "ghz", "--n", "3", "--frobnicate")[0] == 1

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "work", "--n", "3")[0] == 1

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        work = ("work", "--state", "ghz", "--n", "3", "--eg-method", "none")
        try:
            code, first, _ = run(capsys, *work)
            assert code == 0
            assert run(capsys, "work", "--state", "ghz", "--frobnicate")[0] == 1
            code, out, _ = run(capsys, "--help")
            assert code == 0 and "work" in out
            assert run(capsys, *work)[:2] == (0, first)
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_module_form_runs_the_cli(self):
        src = str(Path(loccwork.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

        def module(*argv):
            return subprocess.run([sys.executable, "-m", "loccwork.cli", *argv],
                                  capture_output=True, text=True, timeout=120, env=env)

        result = module("work", "--state", "ghz", "--n", "2", "--eg-method", "none")
        assert result.returncode == 0, result.stderr
        assert "sites 2" in result.stdout.splitlines()
        assert module("work", "--state", "ghz", "--n", "2", "--frobnicate").returncode == 1

    def test_semantic_error_exits_one(self, capsys):
        code, _, err = run(capsys, "eg", "--state", "haar", "--n", "30", "--seed", "1",
                           "--method", "bruteforce")
        assert code == 1
        assert "usage error" in err
        assert "bruteforce" in err and "4" in err

    @pytest.mark.parametrize("argv, config, message", [
        (("work", "--state", "haar", "--n", "3", "--seed", "1", "--restarts", "0"), None,
         "restarts must be >= 1"),
        (("eg", "--state", "haar", "--n", "3", "--seed", "1", "--restarts", "0"), None,
         "restarts must be >= 1"),
        (("eg", "--state", "ghz", "--n", "3", "--method", "bruteforce", "--grid", "1"), None,
         "grid >= 2"),
        (("experiment", "tail", "--ensemble", "circuit", "--n", "1", "--samples", "1000",
          "--alphas", "1", "--seed", "0", "--depth", "2", "--design-order", "2"), None,
         "num_sites >= 2"),
        (None, ({"kind": "circuit", "depth": 2}, [1, 2], {}), "num_sites >= 2"),
        (None, ({"kind": "haar"}, [2, 3], {"eg": {"restarts": 0}}), "restarts must be >= 1"),
        (None, ({"kind": "haar"}, [2, 3], {"eg": {"method": "bruteforce", "grid": 1}}),
         "grid >= 2"),
        (None, ({"kind": "haar", "local_dim": 1}, [2], {}), "usage error: local_dim must be >= 2"),
        (("work", "--state", "ghz", "--n", "3", "--seed", "-1"), None, "seed >= 0"),
        (("eg", "--state", "ghz", "--n", "3", "--seed", "-1"), None, "seed >= 0"),
    ])
    def test_spec_errors_exit_one_before_any_state_or_file(self, capsys, tmp_path, monkeypatch,
                                                           argv, config, message):
        def no_build(*args, **kwargs):
            raise AssertionError("a state was built")

        # A build reached would exit 2 with this message instead.
        monkeypatch.setattr(lab, "build_state", no_build)
        monkeypatch.setattr(ensembles, "sample_circuit", no_build)
        monkeypatch.setattr(ensembles, "sample_circuits", no_build)
        csv = tmp_path / "rows.csv"
        if config is not None:
            ensemble, n_values, estimators = config
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"ensemble": ensemble, "n_values": n_values,
                                            "samples": 1, "seed": 0, "output": str(csv),
                                            "estimators": estimators}))
            argv = ("experiment", "scaling", "--config", str(cfg_path))
        code, out, err = run(capsys, *argv)
        assert code == 1, err
        assert out == "" and message in err and "--local-dim" not in err
        assert not csv.exists()

    def test_runtime_error_exits_two(self, capsys):
        code, _, err = run(capsys, "work", "--state", "graph", "--graph-file", "/no/such/file")
        assert code == 2
        assert "error" in err


class TestWork:
    def test_ghz4(self, capsys):
        code, out, _ = run(capsys, "work", "--state", "ghz", "--n", "4")
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["w_global"]) == pytest.approx(4 * LN2, abs=1e-12)
        assert float(kv["w_local"]) == pytest.approx(0.0, abs=1e-9)
        assert float(kv["eg_value"]) == pytest.approx(LN2, abs=1e-8)
        assert float(kv["w_locc_upper"]) == pytest.approx(3 * LN2, abs=1e-8)
        assert float(kv["w_locc_lower"]) == pytest.approx(3 * LN2, abs=1e-9)

    def test_eg_none_skips_upper(self, capsys):
        code, out, _ = run(capsys, "work", "--state", "plus", "--n", "3",
                           "--eg-method", "none")
        assert code == 0
        kv = parse_kv(out)
        assert "eg_value" not in kv
        assert float(kv["w_locc_lower"]) == pytest.approx(3 * LN2, abs=1e-9)

    def test_haar_needs_seed(self, capsys):
        assert run(capsys, "work", "--state", "haar", "--n", "3")[0] == 1

    @pytest.mark.parametrize("state", ["w", "plus", "graph", "subset"])
    def test_qubit_families_reject_qutrits(self, capsys, tmp_path, state):
        gfile = tmp_path / "c4.graph"
        graphs.save_graph(graphs.gen_lattice("cycle", (4,)), gfile)
        sfile = tmp_path / "s4.support"
        ensembles.save_subset_spec(ensembles.sample_subset(4, 2, 0), sfile)
        extra = {"graph": ["--graph-file", str(gfile)],
                 "subset": ["--support-file", str(sfile)]}.get(state, ["--n", "4"])
        code, out, err = run(capsys, "work", "--state", state, *extra, "--local-dim", "3")
        assert code == 1
        assert out == "" and "qubit" in err

    def test_named_state_needs_n(self, capsys):
        assert run(capsys, "work", "--state", "ghz")[0] == 1

    def test_site_cap(self, capsys):
        assert run(capsys, "work", "--state", "ghz", "--n", "40", "--eg-method", "none")[0] == 1

    def test_graph_state_menu(self, capsys, tmp_path):
        gfile = tmp_path / "c6.graph"
        graphs.save_graph(graphs.gen_lattice("cycle", (6,)), gfile)
        code, out, _ = run(capsys, "work", "--state", "graph", "--graph-file", str(gfile),
                           "--eg-method", "none")
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["w_locc_lower"]) == pytest.approx(3 * LN2, abs=1e-9)
        assert kv["best_protocol"] == "independent-set"


    @pytest.mark.parametrize("state", ["graph", "subset"])
    def test_state_file_loaded_once(self, capsys, tmp_path, monkeypatch, state):
        gfile = tmp_path / "c6.graph"
        graphs.save_graph(graphs.gen_lattice("cycle", (6,)), gfile)
        sfile = tmp_path / "s4.support"
        ensembles.save_subset_spec(ensembles.sample_subset(4, 2, 0), sfile)
        module, name = {"graph": (graphs, "load_graph"),
                        "subset": (ensembles, "load_subset_spec")}[state]
        loads = []
        real = getattr(module, name)

        def counting_load(path):
            loads.append(path)
            return real(path)

        monkeypatch.setattr(module, name, counting_load)
        flag = {"graph": ["--graph-file", str(gfile)],
                "subset": ["--support-file", str(sfile)]}[state]
        code, _, err = run(capsys, "work", "--state", state, *flag)
        assert code == 0, err
        assert len(loads) == 1


class TestEg:
    def test_product_state_zero(self, capsys):
        code, out, _ = run(capsys, "eg", "--state", "zero", "--n", "3")
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["eg_value"]) == pytest.approx(0.0, abs=1e-9)

    def test_schmidt_on_two_qubits(self, capsys):
        code, out, _ = run(capsys, "eg", "--state", "ghz", "--n", "2",
                           "--method", "schmidt")
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["eg_value"]) == pytest.approx(LN2, abs=1e-12)
        assert kv["eg_cert"] == "schmidt_exact"

    def test_schmidt_cut_flag(self, capsys):
        code, out, _ = run(capsys, "eg", "--state", "ghz", "--n", "4",
                           "--method", "schmidt", "--cut", "0,1")
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["eg_value"]) == pytest.approx(LN2, abs=1e-12)
        assert kv["eg_cert"] == "cut_lower_bound"

    def test_bruteforce_w3(self, capsys):
        code, out, _ = run(capsys, "eg", "--state", "w", "--n", "3",
                           "--method", "bruteforce", "--grid", "24")
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["eg_value"]) == pytest.approx(math.log(9 / 4), abs=1e-6)
        assert kv["eg_cert"] == "bruteforce_certified"

    def test_bad_n(self, capsys):
        assert run(capsys, "eg", "--state", "ghz", "--n", "0")[0] == 1

    @pytest.mark.parametrize("cut", [
        pytest.param("5", id="out-of-range"),
        pytest.param("1,0", id="unordered"),
        pytest.param("0,1,2", id="every-site"),
        pytest.param("0,0", id="repeated"),
        pytest.param("-1", id="negative"),
        pytest.param(",", id="empty"),
    ])
    def test_bad_cut_exits_one_before_any_state(self, capsys, monkeypatch, cut):
        def no_build(*args, **kwargs):
            raise AssertionError("a state was built")

        monkeypatch.setattr(lab, "build_state", no_build)
        code, out, err = run(capsys, "eg", "--state", "ghz", "--n", "3",
                             "--method", "schmidt", "--cut", cut)
        assert code == 1, err
        assert out == "" and "usage error: --cut" in err


class TestProtocol:
    def write_protocol(self, tmp_path, body):
        path = tmp_path / "proto.txt"
        path.write_text(body)
        return str(path)

    def test_z_rounds_on_ghz(self, capsys, tmp_path):
        path = self.write_protocol(tmp_path, "sites 2\nround Z Z\n")
        code, out, _ = run(capsys, "protocol", "--file", path, "--state", "ghz", "--n", "2")
        assert code == 0
        kv = parse_kv(out)
        assert int(kv["leaves"]) == 2
        assert float(kv["work"]) == pytest.approx(LN2, abs=1e-9)
        assert float(kv["outcome_entropy"]) == pytest.approx(LN2, abs=1e-9)
        assert float(kv["dropped_mass"]) == 0.0

    def test_site_count_mismatch(self, capsys, tmp_path):
        path = self.write_protocol(tmp_path, "sites 2\nround Z Z\n")
        assert run(capsys, "protocol", "--file", path, "--state", "ghz", "--n", "3")[0] == 1

    @pytest.mark.parametrize("state", [("ghz",), ("zero",), ("haar", "--seed", "1")])
    def test_site_dimension_mismatch_exits_one_before_any_state(self, capsys, tmp_path,
                                                               monkeypatch, state):
        def no_build(*args, **kwargs):
            raise AssertionError("a state was built")

        monkeypatch.setattr(lab, "build_state", no_build)
        path = self.write_protocol(tmp_path, "sites 3\nround Z Z Z\n")
        code, out, err = run(capsys, "protocol", "--file", path, "--state", *state, "--n", "3",
                             "--local-dim", "3")
        assert code == 1, err
        assert out == "" and "usage error" in err and "dimension 2" in err

    def test_missing_file(self, capsys):
        assert run(capsys, "protocol", "--file", "/no/such.txt",
                   "--state", "ghz", "--n", "2")[0] == 2

    def test_malformed_file(self, capsys, tmp_path):
        path = self.write_protocol(tmp_path, "sites two\n")
        assert run(capsys, "protocol", "--file", path, "--state", "ghz", "--n", "2")[0] == 2

    def test_bad_prune(self, capsys, tmp_path):
        path = self.write_protocol(tmp_path, "sites 2\nround Z Z\n")
        assert run(capsys, "protocol", "--file", path, "--state", "ghz", "--n", "2",
                   "--prune", "0.5")[0] == 1


class TestLargeStates:
    def test_haar_16_work_fits_memory_cap(self):
        # Its computational and refined-null rounds have 2^16 leaves of 2^16
        # amplitudes: 64 GiB as dense vectors, a few MiB collapsed.
        result = run_capped("work", "--state", "haar", "--n", "16", "--seed", "1",
                            "--eg-method", "none")
        assert result.returncode == 0, result.stderr
        kv = parse_kv(result.stdout)
        assert kv["sites"] == "16"
        assert float(kv["w_locc_lower"]) >= float(kv["w_local"]) - 1e-9
        assert float(kv["w_locc_lower"]) <= 16 * LN2

    def test_haar_16_tail_fits_memory_cap(self):
        # One block of 2000 complex rows of 2^16 amplitudes alone is 2 GiB.
        result = run_capped("experiment", "tail", "--ensemble", "haar", "--n", "16",
                            "--samples", "2000", "--alphas", "1,2", "--seed", "1")
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[0] == lab.TAIL_CSV_HEADER and len(lines) == 3

    def test_weak_tree_over_budget_exits_one(self, capsys, tmp_path, monkeypatch):
        hi, lo = math.sqrt(0.8), math.sqrt(0.2)
        path = tmp_path / "weak.txt"
        path.write_text(
            f"sites 10\nmeasurement WEAK\nop w0 {hi!r} 0 0 0 0 0 {lo!r} 0\n"
            f"op w1 {lo!r} 0 0 0 0 0 {hi!r} 0\nend\nround" + " WEAK" * 10 + "\n"
        )
        argv = ("protocol", "--file", str(path), "--state", "haar", "--n", "10", "--seed", "1")
        # 2^10 leaves of 2^10 amplitudes need 16 MiB.
        monkeypatch.setattr(locc, "BRANCH_BUDGET_BYTES", 1 << 20)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "usage error" in err and "branch budget" in err
        monkeypatch.setattr(locc, "BRANCH_BUDGET_BYTES", 1 << 24)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert parse_kv(out)["leaves"] == "1024"


class TestGraphGen:
    def test_cycle(self, capsys, tmp_path):
        out_path = tmp_path / "c6.graph"
        code, out, _ = run(capsys, "graph", "gen", "--kind", "cycle", "--dims", "6",
                           "--output", str(out_path))
        assert code == 0
        kv = parse_kv(out)
        assert kv["vertices"] == "6" and kv["edges"] == "6" and kv["max_degree"] == "2"
        g = graphs.load_graph(out_path)
        assert g == graphs.gen_lattice("cycle", (6,))

    def test_random(self, capsys, tmp_path):
        out_path = tmp_path / "r.graph"
        code, out, _ = run(capsys, "graph", "gen", "--kind", "random", "--n", "8",
                           "--seed", "3", "--output", str(out_path))
        assert code == 0
        assert graphs.load_graph(out_path) == graphs.gen_random_graph(8, 3)

    def test_random_needs_seed(self, capsys, tmp_path):
        assert run(capsys, "graph", "gen", "--kind", "random", "--n", "8",
                   "--output", str(tmp_path / "x"))[0] == 1

    def test_lattice_needs_dims(self, capsys, tmp_path):
        assert run(capsys, "graph", "gen", "--kind", "cycle",
                   "--output", str(tmp_path / "x"))[0] == 1

    def test_bad_dims_is_runtime_error(self, capsys, tmp_path):
        assert run(capsys, "graph", "gen", "--kind", "cycle", "--dims", "2",
                   "--output", str(tmp_path / "x"))[0] == 2


class TestExperiment:
    def test_scaling_end_to_end(self, capsys, tmp_path):
        out_csv = tmp_path / "rows.csv"
        cfg = {
            "ensemble": {"kind": "haar"},
            "n_values": [2, 3],
            "samples": 2,
            "seed": 5,
            "output": str(out_csv),
            "estimators": {"eg": {"method": "alternating", "restarts": 4},
                           "protocols": ["refined-null"]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "experiment", "scaling", "--config", str(cfg_path))
        assert code == 0
        assert "wrote 4 rows" in out
        assert "w_local_slope" in out
        rows = lab.read_report(out_csv)
        assert [(r.n, r.sample) for r in rows] == [(2, 0), (2, 1), (3, 0), (3, 1)]

    def test_scaling_stdout_when_no_output(self, capsys, tmp_path):
        cfg = {
            "ensemble": {"kind": "haar"},
            "n_values": [2, 3],
            "samples": 2,
            "seed": 5,
            "estimators": {"protocols": []},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "experiment", "scaling", "--config", str(cfg_path))
        assert code == 0
        assert out.splitlines()[0] == lab.CSV_HEADER
        # The same bytes as the output file, wall_ms and the slope line aside.
        csv = tmp_path / "rows.csv"
        cfg_path.write_text(json.dumps({**cfg, "output": str(csv)}))
        code, file_out, _ = run(capsys, "experiment", "scaling", "--config", str(cfg_path))
        assert code == 0
        *printed, slope = out.splitlines(keepends=True)
        assert slope.startswith("w_local_slope") and file_out.endswith(slope)
        assert len(printed) == 5

        def without_wall(lines):
            return [line.rsplit(",", 1)[0] for line in lines]

        assert without_wall(printed) == without_wall(csv.read_text().splitlines(keepends=True))

    def write_config(self, tmp_path, **overrides):
        cfg = {"ensemble": {"kind": "haar"}, "n_values": [2], "samples": 1, "seed": 5,
               "output": str(tmp_path / "rows.csv")}
        cfg.update(overrides)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        return cfg_path

    def test_scaling_site_cap_before_rows(self, capsys, tmp_path):
        cfg_path = self.write_config(tmp_path, n_values=[2, 26])
        code, out, err = run(capsys, "experiment", "scaling", "--config", str(cfg_path))
        assert code == 1
        assert "dense cap" in err
        assert not (tmp_path / "rows.csv").exists()

    def test_scaling_bruteforce_limit_before_rows(self, capsys, tmp_path):
        cfg_path = self.write_config(tmp_path, n_values=[3, 5],
                                     estimators={"eg": {"method": "bruteforce"}})
        code, out, err = run(capsys, "experiment", "scaling", "--config", str(cfg_path))
        assert code == 1
        assert "4 sites" in err
        assert not (tmp_path / "rows.csv").exists()

    def test_scaling_graph_ensembles_check_qubit_sites(self, capsys, tmp_path):
        # Graph states are qubit states whatever local_dim the config names.
        cfg_path = self.write_config(tmp_path, ensemble={"kind": "cycle", "local_dim": 3},
                                     n_values=[4], estimators={"eg": {"method": "bruteforce"}})
        code, out, err = run(capsys, "experiment", "scaling", "--config", str(cfg_path))
        assert code == 0, err
        assert lab.read_report(tmp_path / "rows.csv")[0].eg_cert == "bruteforce_certified"

    @pytest.mark.parametrize("ensemble,n_values,message", [
        ({"kind": "square_torus", "rows": 3}, [9, 10], "not divisible"),
        ({"kind": "hexagonal", "rows": 2}, [8, 10], "even rows and cols"),
        ({"kind": "subset", "k": 5}, [2, 3], "out of range"),
    ])
    def test_scaling_sizes_checked_before_rows(self, capsys, tmp_path, ensemble, n_values,
                                               message):
        # Each config fails at one N; no row, not even an earlier N's, is written.
        cfg_path = self.write_config(tmp_path, ensemble=ensemble, n_values=n_values)
        code, out, err = run(capsys, "experiment", "scaling", "--config", str(cfg_path))
        assert code == 1
        assert message in err
        assert out == ""
        assert not (tmp_path / "rows.csv").exists()

    def test_scaling_missing_config(self, capsys):
        assert run(capsys, "experiment", "scaling", "--config", "/no/cfg.json")[0] == 2

    def test_scaling_bad_config_is_runtime_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"ensemble": {"kind": "ising"},
                                        "n_values": [2], "samples": 1, "seed": 0}))
        assert run(capsys, "experiment", "scaling", "--config", str(cfg_path))[0] == 2

    def test_tail_stdout(self, capsys):
        code, out, _ = run(capsys, "experiment", "tail", "--ensemble", "haar",
                           "--n", "4", "--samples", "1000", "--alphas", "1,2",
                           "--seed", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == lab.TAIL_CSV_HEADER
        assert len(lines) == 3

    def test_tail_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "tail.csv"
        code, out, _ = run(capsys, "experiment", "tail", "--ensemble", "circuit",
                           "--n", "3", "--samples", "1000", "--alphas", "4",
                           "--seed", "1", "--depth", "2", "--design-order", "2",
                           "--output", str(out_path))
        assert code == 0
        assert out_path.exists()

    @pytest.mark.parametrize("ensemble", [
        ("haar",),
        ("circuit", "--depth", "2", "--design-order", "2"),
    ])
    def test_tail_stdout_matches_output_file(self, capsys, tmp_path, ensemble):
        argv = ("experiment", "tail", "--ensemble", *ensemble, "--n", "3",
                "--samples", "1000", "--alphas", "0.5,4", "--seed", "2")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        out_path = tmp_path / "tail.csv"
        assert run(capsys, *argv, "--output", str(out_path))[0] == 0
        assert out.encode() == out_path.read_bytes()

    def test_tail_circuit_needs_depth(self, capsys):
        assert run(capsys, "experiment", "tail", "--ensemble", "circuit",
                   "--n", "3", "--samples", "1000", "--alphas", "4",
                   "--seed", "1")[0] == 1

    def test_tail_bad_alphas(self, capsys):
        assert run(capsys, "experiment", "tail", "--ensemble", "haar",
                   "--n", "4", "--samples", "1000", "--alphas", "1,-2",
                   "--seed", "0")[0] == 1

    def test_tail_too_few_samples(self, capsys):
        assert run(capsys, "experiment", "tail", "--ensemble", "haar",
                   "--n", "4", "--samples", "10", "--alphas", "1",
                   "--seed", "0")[0] == 2
