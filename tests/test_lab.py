import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import loccwork
from loccwork import ensembles, graphs, lab, workbounds

LN2 = 0.6931471805599453

# zlib.crc32(b"6:3"), frozen so the seed rule cannot drift silently.
CRC_6_3 = 1172242271

# Wilson 99% interval for 13/1000, frozen from the closed form.
WILSON_13_1000 = (0.006469533988079512, 0.025950260627838742)

# (x, y, repr of (slope, stderr, intercept)), recorded from
# scipy.stats.linregress 1.17.1, which fit_slope used to call.
FIT_SLOPE_GOLDEN = {
    "two_points": ([2, 3], [0.5, 1.75], "(1.25, 0.0, -2.0)"),
    "constant_y": ([2, 3, 4, 5], [1.5, 1.5, 1.5, 1.5], "(0.0, nan, 1.5)"),
    "all_zero_y": ([2, 3, 4], [0.0, 0.0, 0.0], "(0.0, nan, 0.0)"),
    "exact_line": ([1, 2, 3, 4], [3, 5, 7, 9], "(2.0, 0.0, 1.0)"),
    "exact_line_float": ([2, 3, 5, 8, 13], [0.7 * v + 0.1 for v in (2, 3, 5, 8, 13)],
                         "(0.7000000000000001, 0.0, 0.09999999999999876)"),
    "noisy": ([2, 3, 4, 5, 6, 7, 8, 9], [0.31, 1.07, 1.62, 2.49, 2.93, 3.71, 4.38, 5.02],
              "(0.6694047619047618, 0.0120139830976879, -0.9904761904761901)"),
    "noisy_negative": ([3, 4, 6, 7, 11], [-0.2, -0.95, -2.1, -2.4, -5.3],
                       "(-0.6239690721649482, 0.03152874144057258, 1.6786082474226793)"),
    "tiny_scale": ([2, 3, 4, 5], [1e-17, 3e-17, 2e-17, 5e-17],
                   "(1.1e-17, 5.196152422706632e-18, -1.0999999999999997e-17)"),
}

# A two-N scaling config and the slope line it printed with linregress.
SCALING_TWO_N = {"ensemble": {"kind": "haar"}, "n_values": [2, 3], "samples": 3, "seed": 11}
SCALING_TWO_N_SLOPE = "w_local_slope -0.4236518962170446 stderr 0.0"


def make_config(**overrides):
    base = dict(
        ensemble_kind="haar",
        n_values=(2, 3),
        samples=2,
        seed=7,
        protocols=("computational", "refined-null"),
        eg_method="alternating",
        eg_restarts=4,
    )
    base.update(overrides)
    return lab.ExperimentConfig(**base)


class TestSeedsAndStats:
    def test_row_seed_frozen(self):
        assert lab.derive_row_seed(0, 6, 3) == CRC_6_3
        assert lab.derive_row_seed(1000, 6, 3) == 1000 ^ CRC_6_3

    def test_row_seed_distinct_across_cells(self):
        seeds = {lab.derive_row_seed(5, n, i) for n in range(2, 12) for i in range(50)}
        assert len(seeds) == 500

    def test_row_seed_rejects_negative_base(self):
        with pytest.raises(ValueError):
            lab.derive_row_seed(-1, 4, 0)

    def test_wilson_frozen_value(self):
        lo, hi = lab.wilson_interval(13, 1000)
        assert lo == pytest.approx(WILSON_13_1000[0], abs=1e-15)
        assert hi == pytest.approx(WILSON_13_1000[1], abs=1e-15)

    def test_wilson_edges(self):
        lo, hi = lab.wilson_interval(0, 50)
        assert lo == 0.0 and 0.0 < hi < 0.3
        lo, hi = lab.wilson_interval(50, 50)
        assert hi == pytest.approx(1.0, abs=1e-12) and 0.7 < lo < 1.0

    def test_wilson_contains_point_estimate(self):
        for k, n in [(1, 1000), (500, 1000), (999, 1000)]:
            lo, hi = lab.wilson_interval(k, n)
            assert lo <= k / n <= hi

    def test_wilson_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            lab.wilson_interval(5, 4)
        with pytest.raises(ValueError):
            lab.wilson_interval(-1, 4)

    def test_fit_slope_exact_line(self):
        slope, stderr, intercept = lab.fit_slope([1, 2, 3, 4], [3, 5, 7, 9])
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)
        assert intercept == pytest.approx(1.0, abs=1e-12)

    def test_fit_slope_noisy(self):
        rng = np.random.default_rng(0)
        x = np.arange(50.0)
        y = -0.7 * x + 2.0 + 0.01 * rng.standard_normal(50)
        slope, stderr, _ = lab.fit_slope(x, y)
        assert abs(slope + 0.7) < 5 * stderr + 1e-6

    @pytest.mark.parametrize("case", sorted(FIT_SLOPE_GOLDEN))
    def test_fit_slope_golden(self, case):
        x, y, want = FIT_SLOPE_GOLDEN[case]
        assert repr(lab.fit_slope(x, y)) == want

    @pytest.mark.parametrize("x, y", [([], []), ([1.0, 2.0], []), ([1, 1, 1], [1, 2, 3]),
                                      ([2, 2], [0, 1]), ([1, 2, 3], [1, 2])])
    def test_fit_slope_rejects(self, x, y):
        with pytest.raises(ValueError):
            lab.fit_slope(x, y)

    def test_scaling_slope_without_scipy(self, tmp_path):
        """numpy is the one runtime dependency: with scipy unimportable,
        experiment scaling prints the slope line linregress gave."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SCALING_TWO_N))
        src = str(Path(loccwork.__file__).resolve().parents[1])
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            f"sys.path.insert(0, {src!r})\n"
            "from loccwork.cli import cli_main\n"
            f"code = cli_main(['experiment', 'scaling', '--config', {str(cfg)!r}])\n"
            "print(sorted(k for k, v in sys.modules.items()\n"
            "             if k.partition('.')[0] == 'scipy' and v is not None))\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                timeout=120, env=env)
        assert result.returncode == 0, result.stderr
        *_, slope, loaded = result.stdout.splitlines()
        assert slope == SCALING_TWO_N_SLOPE
        assert loaded == "[]"


class TestConfig:
    def test_defaults_and_null_always_present(self):
        cfg = make_config(protocols=("computational",))
        assert cfg.protocols[0] == "null"
        assert set(cfg.protocols) == {"null", "computational"}

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_config(ensemble_kind="ising")

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            make_config(samples=0)
        with pytest.raises(ValueError):
            make_config(n_values=())
        with pytest.raises(ValueError):
            make_config(seed=-3)

    def test_rejects_non_ascending_n(self):
        with pytest.raises(ValueError):
            make_config(n_values=(4, 3))
        with pytest.raises(ValueError):
            make_config(n_values=(3, 3))

    def test_rejects_unknown_protocol_and_eg(self):
        with pytest.raises(ValueError):
            make_config(protocols=("teleport",))
        with pytest.raises(ValueError):
            make_config(eg_method="annealing")

    def test_independent_set_needs_graph_ensemble(self):
        with pytest.raises(ValueError):
            make_config(protocols=("independent-set",))
        cfg = make_config(
            ensemble_kind="cycle", n_values=(6,), protocols=("independent-set",)
        )
        assert "independent-set" in cfg.protocols

    def test_circuit_needs_depth(self):
        with pytest.raises(ValueError):
            make_config(ensemble_kind="circuit")
        make_config(ensemble_kind="circuit", depth=4)

    def test_torus_needs_rows(self):
        with pytest.raises(ValueError):
            make_config(ensemble_kind="square_torus", n_values=(9,))
        make_config(ensemble_kind="square_torus", n_values=(9,), rows=3)

    def test_subset_k_rule(self):
        cfg = make_config(ensemble_kind="subset", subset_k="2^(N/2)")
        assert cfg.resolve_k(7) == 8
        assert cfg.resolve_k(8) == 16
        cfg = make_config(ensemble_kind="subset", subset_k=5, n_values=(3, 11))
        assert cfg.resolve_k(11) == 5
        with pytest.raises(lab.StateSpecError, match="out of range"):
            make_config(ensemble_kind="subset", subset_k=5, n_values=(2, 3))
        with pytest.raises(ValueError):
            make_config(ensemble_kind="subset", subset_k="half")
        with pytest.raises(ValueError):
            make_config(ensemble_kind="subset")

    def test_load_config_round_trip(self, tmp_path):
        doc = {
            "ensemble": {"kind": "circuit", "depth": 6},
            "n_values": [4, 6],
            "samples": 3,
            "seed": 11,
            "output": str(tmp_path / "rows.csv"),
            "estimators": {
                "w_local": True,
                "eg": {"method": "alternating", "restarts": 8},
                "protocols": ["computational"],
            },
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = lab.load_config(path)
        assert cfg.ensemble_kind == "circuit"
        assert cfg.depth == 6
        assert cfg.n_values == (4, 6)
        assert cfg.samples == 3
        assert cfg.eg_method == "alternating"
        assert cfg.eg_restarts == 8
        assert cfg.protocols == ("null", "computational")

    def test_load_config_estimator_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"ensemble": {"kind": "haar"}, "n_values": [2], "samples": 1, "seed": 0})
        )
        cfg = lab.load_config(path)
        assert cfg.w_local is True
        assert cfg.eg_method is None
        assert cfg.output is None
        assert cfg.protocols == ("null",)

    def test_every_n_checked(self):
        with pytest.raises(lab.StateSpecError, match="num_sites >= 2"):
            make_config(ensemble_kind="circuit", depth=2, n_values=(1, 2))
        with pytest.raises(lab.StateSpecError, match="restarts"):
            make_config(eg_restarts=0)
        with pytest.raises(lab.StateSpecError, match="grid"):
            make_config(eg_method="bruteforce", eg_grid=1)
        with pytest.raises(lab.StateSpecError, match="grid"):
            make_config(eg_method="bruteforce", eg_grid=129)
        with pytest.raises(lab.StateSpecError, match="4 sites"):
            make_config(eg_method="bruteforce", n_values=(4, 5))
        with pytest.raises(lab.StateSpecError, match="qubit"):
            make_config(ensemble_kind="cycle", n_values=(4,), local_dim=3)

    def test_load_config_reads_local_dim_for_qudit_ensembles_only(self, tmp_path):
        path = tmp_path / "cfg.json"
        for kind, want in [("haar", 3), ("cycle", 2), ("subset", 2)]:
            ens = {"kind": kind, "local_dim": 3, "k": 2}
            path.write_text(json.dumps({"ensemble": ens, "n_values": [4], "samples": 1,
                                        "seed": 0}))
            assert lab.load_config(path).local_dim == want

    def test_load_config_needs_ensemble(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_values": [2], "samples": 1, "seed": 0}))
        with pytest.raises(ValueError):
            lab.load_config(path)


class TestResultRow:
    def base_kwargs(self):
        return dict(
            ensemble="haar",
            n=3,
            sample=0,
            seed=1,
            w_global=3 * LN2,
            w_local=0.5,
            eg_value=None,
            eg_cert="",
            w_locc_upper=None,
            w_locc_lower=1.0,
            best_protocol="null",
            wall_ms=2.0,
        )

    def test_accepts_valid(self):
        lab.ResultRow(**self.base_kwargs())

    def test_rejects_lower_below_local(self):
        kw = self.base_kwargs()
        kw["w_locc_lower"] = 0.4
        with pytest.raises(ValueError):
            lab.ResultRow(**kw)

    def test_rejects_lower_above_global(self):
        kw = self.base_kwargs()
        kw["w_locc_lower"] = 3 * LN2 + 1e-3
        with pytest.raises(ValueError):
            lab.ResultRow(**kw)

    def test_rejects_non_finite(self):
        kw = self.base_kwargs()
        kw["w_local"] = math.nan
        with pytest.raises(ValueError):
            lab.ResultRow(**kw)


def rows_equal_except_wall(a, b):
    fields = (
        "ensemble",
        "n",
        "sample",
        "seed",
        "w_global",
        "w_local",
        "eg_value",
        "eg_cert",
        "w_locc_upper",
        "w_locc_lower",
        "best_protocol",
    )
    return all(getattr(a, f) == getattr(b, f) for f in fields)


class TestRunScaling:
    def test_deterministic_and_ordered(self):
        cfg = make_config()
        rows = lab.run_scaling(cfg)
        again = lab.run_scaling(cfg)
        assert len(rows) == 4
        assert [(r.n, r.sample) for r in rows] == [(2, 0), (2, 1), (3, 0), (3, 1)]
        assert all(rows_equal_except_wall(a, b) for a, b in zip(rows, again))
        for r in rows:
            assert r.seed == lab.derive_row_seed(cfg.seed, r.n, r.sample)

    def test_row_invariant_chain(self):
        rows = lab.run_scaling(make_config(n_values=(3,), samples=5))
        for r in rows:
            assert 0.0 <= r.w_local <= r.w_locc_lower + 1e-9
            assert r.w_locc_lower <= r.w_global + 1e-9
            assert r.w_global == pytest.approx(r.n * LN2, abs=1e-9)

    def test_certified_upper_dominates_lower(self):
        cfg = make_config(eg_method="bruteforce", n_values=(3,), samples=4)
        for r in lab.run_scaling(cfg):
            assert r.eg_cert == workbounds.CERT_BRUTEFORCE
            assert r.w_locc_lower <= r.w_locc_upper + 1e-6

    def test_csv_stream_matches_rows(self, tmp_path):
        out = tmp_path / "rows.csv"
        cfg = make_config(output=str(out), n_values=(2,), samples=3)
        rows = lab.run_scaling(cfg)
        text = out.read_text().splitlines()
        assert text[0] == lab.CSV_HEADER
        assert len(text) == 4
        back = lab.read_report(out)
        assert all(rows_equal_except_wall(a, b) for a, b in zip(rows, back))
        assert [r.wall_ms for r in back] == [r.wall_ms for r in rows]

    def test_rows_do_not_depend_on_other_n(self):
        alone = lab.run_scaling(make_config(n_values=(3,)))
        after_two = [r for r in lab.run_scaling(make_config(n_values=(2, 3))) if r.n == 3]
        assert len(alone) == len(after_two) == 2
        assert all(rows_equal_except_wall(a, b) for a, b in zip(alone, after_two))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(ensemble_kind="cycle", n_values=(3, 4), eg_method="bruteforce", eg_grid=8,
                 protocols=("computational", "independent-set")),
            dict(ensemble_kind="random_graph", n_values=(5,), w_local=False,
                 protocols=("independent-set", "refined-null")),
            dict(ensemble_kind="haar", local_dim=3, n_values=(3,), eg_method=None),
        ],
    )
    def test_row_equals_work_report(self, overrides):
        cfg = make_config(**overrides)
        rows = lab.run_scaling(cfg)
        assert [(r.n, r.sample) for r in rows] == [
            (n, i) for n in cfg.n_values for i in range(cfg.samples)
        ]
        for r in rows:
            assert r.seed == lab.derive_row_seed(cfg.seed, r.n, r.sample)
            state, graph = lab.build_state(
                cfg.ensemble_kind, r.n, seed=r.seed, local_dim=cfg.local_dim
            )
            rep = lab.work_report(
                state,
                graph,
                eg_method=cfg.eg_method,
                restarts=cfg.eg_restarts,
                grid=cfg.eg_grid,
                rng_seed=r.seed,
                protocols=cfg.protocols,
                w_local=cfg.w_local,
            )
            for name, value in vars(rep).items():
                assert getattr(r, name) == value, name

    def test_subset_rows_hit_counting_value(self):
        cfg = make_config(
            ensemble_kind="subset",
            subset_k=4,
            n_values=(4,),
            samples=3,
            eg_method=None,
        )
        for r in lab.run_scaling(cfg):
            assert r.w_locc_lower >= 4 * LN2 - math.log(4) - 1e-9
            assert r.eg_value is None and r.eg_cert == ""

    def test_cycle_rows_meet_degree_guarantee(self):
        cfg = make_config(
            ensemble_kind="cycle",
            n_values=(6, 8),
            samples=1,
            eg_method=None,
            protocols=("independent-set",),
        )
        for r in lab.run_scaling(cfg):
            assert r.w_locc_lower >= r.n * LN2 / 3 - 1e-9
            assert r.w_local == pytest.approx(0.0, abs=1e-9)
            assert r.best_protocol == "independent-set"

    def test_torus_rejects_indivisible_n(self, tmp_path):
        # The config fails on N = 10 before run_scaling writes the N = 9 row.
        out = tmp_path / "rows.csv"
        with pytest.raises(lab.StateSpecError, match="not divisible"):
            lab.run_scaling(lab.ExperimentConfig(ensemble_kind="square_torus", rows=3,
                                                 n_values=(9, 10), samples=1, seed=0,
                                                 output=str(out)))
        assert not out.exists()

    def test_w_local_disabled_leaves_blank(self):
        cfg = make_config(w_local=False, eg_method=None, n_values=(2,), samples=1)
        rows = lab.run_scaling(cfg)
        assert rows[0].w_local is None


class TestReports:
    def sample_rows(self):
        cfg = make_config(n_values=(2,), samples=2)
        return lab.run_scaling(cfg)

    def test_json_round_trip(self, tmp_path):
        rows = self.sample_rows()
        path = tmp_path / "rows.json"
        lab.emit_report(rows, path, fmt="json")
        back = lab.read_report(path)
        assert back == rows

    def test_csv_round_trip_exact_floats(self, tmp_path):
        rows = self.sample_rows()
        path = tmp_path / "rows.csv"
        lab.emit_report(rows, path)
        back = lab.read_report(path)
        for a, b in zip(rows, back):
            assert a == b

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            lab.read_report(path)

    def test_read_rejects_short_row(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(lab.CSV_HEADER + "\nhaar,2,0\n")
        with pytest.raises(ValueError):
            lab.read_report(path)

    def test_write_csv_flushes_each_row_as_it_arrives(self):
        rows = self.sample_rows()
        events = []

        class Sink:
            def write(self, text):
                events.append(text)

            def flush(self):
                events.append("flush")

        def stream():
            for k, row in enumerate(rows):
                assert events.count("flush") == k
                yield row

        assert lab.write_csv(lab.ResultRow, stream(), Sink()) == rows
        assert events[0] == lab.CSV_HEADER + "\n"
        assert events[2::2] == ["flush"] * len(rows)
        assert [line.split(",")[:3] for line in events[1::2]] == [
            ["haar", str(r.n), str(r.sample)] for r in rows
        ]

    def test_emit_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            lab.emit_report([], tmp_path / "x.bin", fmt="parquet")


class TestRunTail:
    def test_haar_rows_consistent(self):
        rows = lab.run_tail("haar", 6, 2000, [1.0, 8.0, 400.0], seed=5)
        assert [r.alpha for r in rows] == [1.0, 8.0, 400.0]
        counts = [r.exceed_count for r in rows]
        assert counts[0] >= counts[1] >= counts[2]
        for r in rows:
            assert r.threshold == pytest.approx(4 * r.alpha / 64)
            assert r.bound == pytest.approx(2 * math.exp(-lab.TAIL_C1 * r.alpha))
            assert r.empirical == r.exceed_count / r.samples
            assert r.wilson_low <= r.empirical <= r.wilson_high
        # threshold above 1 cannot be exceeded by a normalized overlap
        assert rows[2].exceed_count == 0

    def test_haar_deterministic(self):
        a = lab.run_tail("haar", 4, 1000, [2.0], seed=9)
        b = lab.run_tail("haar", 4, 1000, [2.0], seed=9)
        assert a == b

    def test_haar_matches_exact_law(self):
        # For uniform states P[overlap >= s] = (1-s)^(D-1); check 5 sigma.
        rows = lab.run_tail("haar", 5, 4000, [1.0], seed=3)
        s = 4.0 / 32.0
        p = (1 - s) ** 31
        se = math.sqrt(p * (1 - p) / 4000)
        assert abs(rows[0].empirical - p) < 5 * se

    def test_circuit_rows(self):
        rows = lab.run_tail("circuit", 3, 1000, [2.0, 4.0], seed=1, depth=4, design_order=2)
        for r in rows:
            assert r.threshold == pytest.approx(r.alpha / 8)
            assert r.bound == pytest.approx((2 / r.alpha) ** 2)
            assert 0 <= r.empirical <= 1

    def test_rejections(self):
        with pytest.raises(ValueError):
            lab.run_tail("haar", 4, 999, [1.0], seed=0)
        with pytest.raises(ValueError):
            lab.run_tail("ghz", 4, 1000, [1.0], seed=0)
        with pytest.raises(ValueError):
            lab.run_tail("haar", 4, 1000, [0.0], seed=0)
        with pytest.raises(ValueError):
            lab.run_tail("circuit", 4, 1000, [1.0], seed=0, depth=None, design_order=2)
        with pytest.raises(ValueError):
            lab.run_tail("circuit", 4, 1000, [1.0], seed=0, depth=2, design_order=None)

    @pytest.mark.parametrize("ensemble, alphas", [
        ("haar", [-1.0]),
        ("haar", []),
        ("circuit", [1.0, 0.0]),
    ])
    def test_bad_alphas_raise_before_any_draw(self, monkeypatch, ensemble, alphas):
        def no_draw(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        monkeypatch.setattr(ensembles, "sample_circuits", no_draw)
        with pytest.raises(lab.StateSpecError, match="alphas must list positive values"):
            lab.run_tail(ensemble, 14, 20000, alphas, seed=0, depth=2, design_order=2)

    def test_seed_stability_across_runs(self):
        # Two independent runs agree under the exact law: each count is
        # Binomial(n, p) with p = (1 - 4/64)^63, so a - b has variance
        # 2 n p (1 - p), and a 5 sigma gap has probability 5.5e-7 (exact
        # convolution of the two binomials).
        a = lab.run_tail("haar", 6, 4000, [1.0], seed=21)[0]
        b = lab.run_tail("haar", 6, 4000, [1.0], seed=22)[0]
        p = (1 - 4 / 64) ** 63
        assert abs(a.exceed_count - b.exceed_count) <= 5 * math.sqrt(2 * 4000 * p * (1 - p))

    def test_haar_counts_match_documented_draw(self):
        # Sample i is -expm1(log1p(-u[i]) / (D-1)), u = default_rng(seed).random(samples).
        num_sites, samples, seed = 7, 25_000, 3
        alphas = [0.25, 0.5, 1.0, 2.0]
        rows = lab.run_tail("haar", num_sites, samples, alphas, seed=seed)
        dim = 2**num_sites
        u = np.random.default_rng(seed).random(samples)
        overlaps = -np.expm1(np.log1p(-u) / (dim - 1))
        counts = [int((overlaps >= 4 * a / dim).sum()) for a in alphas]
        assert [r.exceed_count for r in rows] == counts
        assert all(c > 0 for c in counts)

    def test_haar_law_at_small_dimension(self):
        # At D = 4 the threshold 4*alpha/D is alpha itself, and the tail
        # (1 - t)^3 is far from any large-D limit: a wrong exponent, or a
        # map of the uniforms that is not this tail's inverse, moves some
        # count by many sigma.
        samples = 200_000
        alphas = [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
        rows = lab.run_tail("haar", 2, samples, alphas, seed=4)
        for r in rows:
            p = (1 - r.threshold) ** 3
            assert abs(r.exceed_count - samples * p) <= 5 * math.sqrt(samples * p * (1 - p))

    def test_haar_memory_is_flat_in_the_dimension(self):
        # At D = 2^10, 2^14 and 2^24 the draw holds only per-sample arrays
        # (the uniforms, the overlaps and two temporaries) and numpy's fixed
        # ufunc buffers: nothing that grows with D.
        samples = 1000
        bound = 4 * 8 * samples + 3 * np.getbufsize() * 16 + 64 * 1024
        # A first call pays for imports that numpy's random module defers.
        lab.run_tail("haar", 4, samples, [1.0], seed=5)
        for num_sites in (10, 14, 24):
            tracemalloc.start()
            try:
                lab.run_tail("haar", num_sites, samples, [1.0], seed=5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound

    def test_tail_csv(self, tmp_path):
        rows = lab.run_tail("haar", 4, 1000, [1.0, 2.0], seed=0)
        path = tmp_path / "tail.csv"
        lab.tail_to_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == lab.TAIL_CSV_HEADER
        assert len(lines) == 3
        for row, line in zip(rows, lines[1:]):
            cells = dict(zip(lab.TAIL_CSV_HEADER.split(","), line.split(",")))
            assert cells == {k: repr(v) for k, v in vars(row).items()}


class NoConstructors:
    """Stands in for the ensembles module: reaching any state constructor fails."""

    def __getattr__(self, name):
        raise AssertionError(f"ensembles.{name} was reached")


CYCLE_5 = graphs.gen_lattice("cycle", (5,))
SUPPORT_4 = ensembles.SubsetSpec(4, ("0000", "0110", "1011"))

# One valid spec per family, loaded sources included; num_sites defaults to 4.
GOOD_SPECS = [
    ("ghz", dict(local_dim=3)),
    ("zero", dict(local_dim=3)),
    ("w", dict()),
    ("plus", dict()),
    ("haar", dict(seed=9, local_dim=3)),
    ("circuit", dict(seed=9, depth=2)),
    ("subset", dict(seed=9, k=3)),
    ("subset", dict(source=SUPPORT_4)),
    ("graph", dict(num_sites=5, source=CYCLE_5)),
    ("random_graph", dict(seed=9)),
    ("cycle", dict(num_sites=5)),
    ("square_torus", dict(num_sites=9, rows=3)),
    ("triangular_torus", dict(num_sites=12, rows=3)),
    ("hexagonal", dict(num_sites=8, rows=2)),
]


class TestBuildState:
    def test_named_families(self):
        for kind, build in [
            ("ghz", lambda n: ensembles.ghz_state(n, 3)),
            ("zero", lambda n: ensembles.zero_state(n, 3)),
        ]:
            state, graph = lab.build_state(kind, 3, local_dim=3)
            assert graph is None
            assert np.array_equal(state.amplitudes, build(3).amplitudes)
        for kind, build in [("w", ensembles.w_state), ("plus", ensembles.plus_state)]:
            state, graph = lab.build_state(kind, 4)
            assert graph is None
            assert np.array_equal(state.amplitudes, build(4).amplitudes)

    def test_sampled_families_follow_the_seed(self):
        state, _ = lab.build_state("haar", 3, seed=9, local_dim=3)
        assert np.array_equal(state.amplitudes, ensembles.sample_haar(3, 3, 9).amplitudes)
        state, _ = lab.build_state("circuit", 4, seed=9, depth=2)
        expected = ensembles.sample_circuit(ensembles.CircuitSpec(4, 2, 9))
        assert np.array_equal(state.amplitudes, expected.amplitudes)
        state, _ = lab.build_state("subset", 4, seed=9, k=3)
        expected = ensembles.subset_state(ensembles.sample_subset(4, 3, 9))
        assert np.array_equal(state.amplitudes, expected.amplitudes)
        state, graph = lab.build_state("random_graph", 5, seed=9)
        assert graph == graphs.gen_random_graph(5, 9)
        assert np.array_equal(state.amplitudes, ensembles.graph_state(graph).amplitudes)

    def test_lattices(self):
        _, graph = lab.build_state("cycle", 5)
        assert graph == graphs.gen_lattice("cycle", (5,))
        _, graph = lab.build_state("hexagonal", 8, rows=2)
        assert graph == graphs.gen_lattice("hexagonal", (2, 4))

    @pytest.mark.parametrize("kind, kwargs", GOOD_SPECS)
    def test_good_specs_pass_the_check(self, kind, kwargs):
        spec = dict(num_sites=4) | kwargs
        assert lab.check_state(kind, **spec) is None
        state, _ = lab.build_state(kind, **spec)
        assert state.num_sites == spec["num_sites"]

    @pytest.mark.parametrize(
        "kind, kwargs",
        [
            ("w", dict(local_dim=3)),
            ("plus", dict(local_dim=3)),
            ("haar", dict()),
            ("circuit", dict(depth=2)),
            ("subset", dict(k=2)),
            ("random_graph", dict()),
            ("ising", dict(seed=1)),
            ("haar", dict(seed=-1)),
            ("graph", dict(num_sites=5)),
            ("graph", dict(num_sites=6, source=CYCLE_5)),
            ("subset", dict(num_sites=3, source=SUPPORT_4)),
            ("ghz", dict(num_sites=0)),
            ("w", dict(num_sites=1)),
            ("circuit", dict(num_sites=1, seed=1, depth=2)),
            ("ghz", dict(local_dim=1)),
            ("subset", dict(seed=1, k=2, local_dim=3)),
            ("graph", dict(num_sites=5, source=CYCLE_5, local_dim=3)),
            ("cycle", dict(num_sites=5, local_dim=3)),
            ("ghz", dict(num_sites=25)),
            ("haar", dict(num_sites=16, seed=1, local_dim=3)),
            ("circuit", dict(seed=1)),
            ("circuit", dict(seed=1, depth=-1)),
            ("subset", dict(seed=1)),
            ("subset", dict(num_sites=2, seed=1, k=5)),
            ("subset", dict(seed=1, k=0)),
            ("cycle", dict(num_sites=2)),
            ("square_torus", dict(num_sites=9)),
            ("square_torus", dict(num_sites=10, rows=3)),
            ("square_torus", dict(num_sites=8, rows=2)),
            ("triangular_torus", dict(num_sites=9, rows=1)),
            ("hexagonal", dict(num_sites=10, rows=2)),
        ],
    )
    def test_bad_specs_raise_value_error(self, kind, kwargs, monkeypatch):
        # check_state rejects exactly these specs, and build_state fails on
        # them in check_state, before it reaches any state constructor.
        spec = dict(num_sites=4) | kwargs
        with pytest.raises(lab.StateSpecError):
            lab.check_state(kind, **spec)
        monkeypatch.setattr(lab, "ensembles", NoConstructors())
        with pytest.raises(lab.StateSpecError):
            lab.build_state(kind, **spec)

    def test_check_allocates_nothing(self):
        tracemalloc.start()
        try:
            # The state would take 256 MiB.
            lab.check_state("haar", 24, seed=1)
            with pytest.raises(lab.StateSpecError, match="dense cap"):
                lab.check_state("haar", 40, seed=1)
            # The integer 2**(10**7) alone would take 1.25 MB.
            with pytest.raises(lab.StateSpecError, match="dense cap"):
                lab.check_state("ghz", 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestWorkReport:
    def test_ghz4_bounds_close(self):
        state = ensembles.ghz_state(4)
        rep = lab.work_report(state, eg_method="alternating", restarts=8, rng_seed=0)
        assert rep.w_global == pytest.approx(4 * LN2, abs=1e-12)
        assert rep.w_local == pytest.approx(0.0, abs=1e-9)
        assert rep.eg_value == pytest.approx(LN2, abs=1e-8)
        assert rep.w_locc_upper == pytest.approx(3 * LN2, abs=1e-8)
        assert rep.w_locc_lower == pytest.approx(3 * LN2, abs=1e-9)
        assert rep.w_locc_lower <= rep.w_locc_upper + 1e-6

    def test_graph_menu_uses_independent_set(self):
        g = graphs.gen_lattice("cycle", (6,))
        state = ensembles.graph_state(g)
        rep = lab.work_report(state, eg_method=None, graph=g)
        assert rep.eg_value is None
        assert rep.w_locc_lower == pytest.approx(3 * LN2, abs=1e-9)
        assert rep.best_protocol == "independent-set"

    def test_unknown_eg_method_rejected(self):
        with pytest.raises(ValueError):
            lab.work_report(ensembles.ghz_state(2), eg_method="magic")

    def test_menu_order_breaks_ties(self):
        # On GHZ(3) the computational and refined-null rounds both reach 2 ln 2.
        state = ensembles.ghz_state(3)
        rep = lab.work_report(state, eg_method=None)
        assert rep.best_protocol == "computational"
        rep = lab.work_report(state, eg_method=None, protocols=("refined-null", "computational"))
        assert rep.best_protocol == "null+rank1"
        assert rep.w_locc_lower == pytest.approx(2 * LN2, abs=1e-9)

    def test_explicit_menu_puts_null_first(self):
        # Measuring |+++> in Z loses 3 ln 2 that the null protocol keeps.
        rep = lab.work_report(ensembles.plus_state(3), eg_method=None,
                              protocols=("computational",))
        assert rep.best_protocol == "null"
        assert rep.w_locc_lower >= rep.w_local
        assert rep.w_locc_lower == pytest.approx(3 * LN2, abs=1e-9)

    def test_menu_checks_names_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a figure was computed")

        monkeypatch.setattr(workbounds, "w_global", no_work)
        with pytest.raises(ValueError, match="requires a graph"):
            lab.work_report(ensembles.ghz_state(3), protocols=("independent-set",))
        with pytest.raises(ValueError, match="unknown protocols"):
            lab.work_report(ensembles.ghz_state(3), protocols=("magic",))

    @pytest.mark.parametrize(
        "overrides",
        [dict(w_locc_lower=0.4), dict(w_locc_lower=3 * LN2 + 1e-3), dict(eg_value=math.inf)],
    )
    def test_runs_the_row_checks(self, overrides):
        kw = dict(w_global=3 * LN2, w_local=0.5, eg_value=None, eg_cert="",
                  w_locc_upper=None, w_locc_lower=1.0, best_protocol="null")
        lab.WorkReport(**kw)
        kw.update(overrides)
        with pytest.raises(ValueError):
            lab.WorkReport(**kw)

    def test_w_local_disabled(self):
        rep = lab.work_report(ensembles.ghz_state(3), eg_method=None, w_local=False)
        assert rep.w_local is None
