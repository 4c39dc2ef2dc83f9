import numpy as np
import pytest

from iohp import cli
from iohp.cli import load_config, main
from iohp.matrices import (DenseMatrix, TripletMatrix, canonicalize,
                           load_dense_csv, load_matrix_market, to_dense,
                           write_dense_csv, write_matrix_market)
from iohp.synthetic import random_dense, random_triplets
from test_matrices_reference import dense_matmul


def write_mtx(path, t):
    write_matrix_market(t, path)
    return str(path)


@pytest.fixture
def worked_files(tmp_path):
    ta = TripletMatrix(4, 4, [(0, 0, 5.0), (1, 2, 7.0), (2, 1, 3.0)])
    tb = TripletMatrix(4, 4, [(0, 0, 1.0), (0, 1, 2.0), (1, 2, 4.0),
                              (2, 1, 6.0)])
    return (write_mtx(tmp_path / "a.mtx", ta),
            write_mtx(tmp_path / "b.mtx", tb), ta, tb)


class TestSpmmCommand:
    def test_result_matches_oracle_and_roundtrips(self, tmp_path, worked_files):
        a_path, b_path, ta, tb = worked_files
        out = tmp_path / "c.mtx"
        report = tmp_path / "r.csv"
        rc = main(["spmm", "--a", a_path, "--b", b_path, "--mode", "ssmm",
                   "--out", str(out), "--report", str(report)])
        assert rc == 0
        back = load_matrix_market(str(out))
        oracle = dense_matmul(to_dense(ta), to_dense(tb)).data
        assert np.array_equal(to_dense(back).data, oracle)
        lines = report.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header.startswith("workload,mode,strategy,T_M,T_K,T_N")
        assert any("auto_threshold" in l for l in lines)

    def test_dimension_mismatch_nonzero_exit(self, tmp_path, capsys):
        a = write_mtx(tmp_path / "a.mtx", TripletMatrix(2, 3, [(0, 0, 1.0)]))
        b = write_mtx(tmp_path / "b.mtx", TripletMatrix(4, 2, [(0, 0, 1.0)]))
        rc = main(["spmm", "--a", a, "--b", b])
        assert rc != 0
        assert "dimension mismatch" in capsys.readouterr().err

    def test_auto_picks_sdmm_for_dense_features(self, tmp_path):
        rng = np.random.default_rng(0)
        ta = random_triplets(12, 10, 0.1, rng)
        tb = random_triplets(10, 8, 0.516, rng)  # Reddit-like feature density
        a = write_mtx(tmp_path / "a.mtx", ta)
        b = write_mtx(tmp_path / "b.mtx", tb)
        out = tmp_path / "c.csv"
        report = tmp_path / "r.csv"
        rc = main(["spmm", "--a", a, "--b", b, "--mode", "auto",
                   "--out", str(out), "--report", str(report)])
        assert rc == 0
        text = report.read_text()
        assert "# resolved_mode=sdmm" in text
        got = load_dense_csv(str(out))
        oracle = dense_matmul(to_dense(ta), to_dense(tb)).data
        assert np.allclose(got.data, oracle, rtol=1e-9, atol=1e-12)

    def test_deterministic_reports(self, tmp_path, worked_files):
        a_path, b_path, _, _ = worked_files
        outs = []
        for tag in ("1", "2"):
            report = tmp_path / f"r{tag}.csv"
            out = tmp_path / f"c{tag}.mtx"
            assert main(["spmm", "--a", a_path, "--b", b_path,
                         "--out", str(out), "--report", str(report)]) == 0
            outs.append((report.read_bytes(), out.read_bytes()))
        assert outs[0] == outs[1]

    def test_text_report_format(self, tmp_path, worked_files):
        a_path, b_path, _, _ = worked_files
        report = tmp_path / "r.txt"
        assert main(["spmm", "--a", a_path, "--b", b_path, "--mode", "ssmm",
                     "--report", str(report),
                     "--report-format", "text"]) == 0
        text = report.read_text()
        assert "total_cycles=" in text and "strategy=" in text

    def test_spill_policy_fail_reports_stage(self, tmp_path, capsys):
        # one dense A column defeats the planner's uniform-density estimate
        ta = canonicalize(40, 10, [(i, 0, 1.0) for i in range(40)])
        tb = canonicalize(10, 6, [(0, c, 1.0) for c in range(6)])
        a = write_mtx(tmp_path / "a.mtx", ta)
        b = write_mtx(tmp_path / "b.mtx", tb)
        cfgfile = tmp_path / "hw.cfg"
        cfgfile.write_text("c_psum=2\ng_na=1\ng_nb=1\n")
        rc = main(["spmm", "--a", a, "--b", b, "--mode", "ssmm",
                   "--policy", "fail", "--config", str(cfgfile)])
        assert rc != 0
        assert "compute" in capsys.readouterr().err


class TestSimCommand:
    def test_report_only(self, tmp_path, worked_files):
        a_path, b_path, _, _ = worked_files
        report = tmp_path / "r.csv"
        assert main(["sim", "--a", a_path, "--b", b_path, "--mode", "ssmm",
                     "--report", str(report)]) == 0
        assert report.exists()


class TestPlanCommand:
    def test_on_chip_single_tile(self, tmp_path, capsys):
        assert main(["plan", "--m", "8", "--k", "8", "--n", "8",
                     "--da", "0.1", "--db", "0.1"]) == 0
        text = capsys.readouterr().out
        assert "t_m=1\n" in text and "t_k=1\n" in text and "t_n=1\n" in text

    def test_adjacency_product_reports_raf(self, capsys):
        assert main(["plan", "--m", "2708", "--k", "2708", "--n", "1433",
                     "--da", "0.0014", "--db", "0.0127",
                     "--mode", "sdmm"]) == 0
        assert "strategy=RAF" in capsys.readouterr().out

    def test_idempotent(self, tmp_path):
        args = ["plan", "--m", "50", "--k", "60", "--n", "70",
                "--da", "0.05", "--db", "0.07"]
        r1, r2 = tmp_path / "p1.txt", tmp_path / "p2.txt"
        assert main(args + ["--report", str(r1)]) == 0
        assert main(args + ["--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_infeasible_diagnostic(self, tmp_path, capsys):
        cfgfile = tmp_path / "hw.cfg"
        cfgfile.write_text("c_a=1\nr_x=0.5\n")
        rc = main(["plan", "--m", "4", "--k", "4", "--n", "4",
                   "--da", "0.9", "--db", "0.1", "--config", str(cfgfile)])
        assert rc != 0
        assert "constraint" in capsys.readouterr().err

    def test_costs_past_int64_fail_at_plan(self, capsys):
        rc = main(["plan", "--m", str(2 ** 62), "--k", "100", "--n", "100",
                   "--da", "0.01", "--db", "0.01"])
        assert rc != 0
        assert capsys.readouterr().err == (
            f"error: plan: plan of (m, k, n)=({2 ** 62}, 100, 100) needs costs "
            "or block counts up to 12211744576795723190592, past int64\n")


class TestNonConformableFiles:
    """Every command that reads ``--a``/``--b`` files rejects A 4x5 with
    B 7x3 at ``parse``, before planning or writing anything."""

    @pytest.mark.parametrize("command", ["plan", "sweep", "spmm", "sim"])
    def test_fails_at_parse(self, tmp_path, capsys, command):
        rng = np.random.default_rng(2)
        a = write_mtx(tmp_path / "a.mtx", random_triplets(4, 5, 0.5, rng))
        b = write_mtx(tmp_path / "b.mtx", random_triplets(7, 3, 0.5, rng))
        report = tmp_path / "report.txt"
        assert main([command, "--a", a, "--b", b,
                     "--report", str(report)]) == 1
        assert capsys.readouterr() == (
            "", "error: parse: dimension mismatch: A is 4x5, B is 7x3\n")
        assert not report.exists()


class TestGcnCommand:
    def test_identity_adjacency(self, tmp_path):
        rng = np.random.default_rng(5)
        n, f, h, c = 12, 9, 4, 3
        eye = canonicalize(n, n, [(i, i, 1.0) for i in range(n)])
        x = random_triplets(n, f, 0.3, rng)
        w1 = random_dense(f, h, rng)
        w2 = random_dense(h, c, rng)
        a_path = write_mtx(tmp_path / "a.mtx", eye)
        x_path = write_mtx(tmp_path / "x.mtx", x)
        w1_path = tmp_path / "w1.csv"
        w2_path = tmp_path / "w2.csv"
        write_dense_csv(w1, w1_path)
        write_dense_csv(w2, w2_path)
        out = tmp_path / "out.csv"
        report = tmp_path / "r.csv"
        rc = main(["gcn", "--a", a_path, "--x", x_path, "--w1", str(w1_path),
                   "--w2", str(w2_path), "--out", str(out),
                   "--report", str(report)])
        assert rc == 0
        got = load_dense_csv(str(out))
        chain = dense_matmul(dense_matmul(to_dense(x), w1), w2).data
        assert np.allclose(got.data, chain, rtol=1e-9, atol=1e-12)
        assert "# oracle_check=pass" in report.read_text()

    def test_zero_features_zero_macs_downstream(self, tmp_path):
        rng = np.random.default_rng(6)
        n, f = 10, 8
        a = random_triplets(n, n, 0.2, rng)
        x = TripletMatrix(n, f, [])
        w1 = random_dense(f, 4, rng)
        w2 = random_dense(4, 2, rng)
        a_path = write_mtx(tmp_path / "a.mtx", a)
        x_path = write_mtx(tmp_path / "x.mtx", x)
        w1_path, w2_path = tmp_path / "w1.csv", tmp_path / "w2.csv"
        write_dense_csv(w1, w1_path)
        write_dense_csv(w2, w2_path)
        out = tmp_path / "out.csv"
        report = tmp_path / "r.csv"
        rc = main(["gcn", "--a", a_path, "--x", x_path, "--w1", str(w1_path),
                   "--w2", str(w2_path), "--out", str(out),
                   "--report", str(report)])
        assert rc == 0
        assert not load_dense_csv(str(out)).data.any()
        rows = [l.split(",") for l in report.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("workload")]
        macs = {r[0]: int(r[-1]) for r in rows}
        assert macs["step2_a_xw1"] == 0
        assert macs["step3_h1w2"] == 0
        assert macs["step4_a_h1w2"] == 0

    def test_synthetic_small(self, tmp_path):
        report = tmp_path / "r.csv"
        rc = main(["gcn", "--synthetic", "--nodes", "30", "--features", "20",
                   "--hidden", "5", "--classes", "3", "--da", "0.1",
                   "--dx", "0.2", "--seed", "1", "--report", str(report)])
        assert rc == 0
        body = [l for l in report.read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(body) == 1 + 4  # header + one row per chain step

    def test_chain_mismatch_names_step(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        a = random_triplets(6, 6, 0.3, rng)
        x = random_triplets(6, 5, 0.3, rng)
        w1 = random_dense(4, 3, rng)  # wrong: x has 5 cols
        w2 = random_dense(3, 2, rng)
        a_path = write_mtx(tmp_path / "a.mtx", a)
        x_path = write_mtx(tmp_path / "x.mtx", x)
        w1_path, w2_path = tmp_path / "w1.csv", tmp_path / "w2.csv"
        write_dense_csv(w1, w1_path)
        write_dense_csv(w2, w2_path)
        rc = main(["gcn", "--a", a_path, "--x", x_path, "--w1", str(w1_path),
                   "--w2", str(w2_path)])
        assert rc != 0
        assert "step1" in capsys.readouterr().err

    def test_missing_weight_file_fails_at_parse(self, tmp_path, worked_files,
                                                capsys):
        a_path, _, _, _ = worked_files
        missing = tmp_path / "nope.csv"
        rc = main(["gcn", "--a", a_path, "--x", a_path, "--w1", str(missing),
                   "--w2", str(missing)])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error: parse: ")
        assert "No such file" in err and str(missing) in err

    def test_oracle_catches_a_wrong_result(self, tmp_path, capsys,
                                           monkeypatch):
        """The X·W1-first oracle still fails a step-4 product that is off by
        one part in 10⁶."""
        real_run = cli.run

        def skewed_run(workload, plan, cfg, mode):
            result, stats = real_run(workload, plan, cfg, mode)
            if workload.label == "step4_a_h1w2":
                result = DenseMatrix(result.n_rows, result.n_cols,
                                     result.data * (1 + 1e-6))
            return result, stats

        monkeypatch.setattr(cli, "run", skewed_run)
        report = tmp_path / "r.txt"
        rc = main(["gcn", "--synthetic", "--nodes", "30", "--features", "20",
                   "--hidden", "5", "--classes", "3", "--da", "0.1",
                   "--dx", "0.2", "--seed", "1", "--report", str(report),
                   "--report-format", "text"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: verify: result disagrees with dense oracle\n")
        assert "oracle_check=FAIL\n" in report.read_text()

    def test_malformed_weight_file_is_named(self, tmp_path, worked_files,
                                            capsys):
        a_path, _, _, _ = worked_files
        good, bad = tmp_path / "w1.csv", tmp_path / "w2.csv"
        good.write_text("1.0,0.0\n0.0,1.0\n1.0,1.0\n0.0,0.0\n")
        bad.write_text("1.0\nnot-a-number\n")
        rc = main(["gcn", "--a", a_path, "--x", a_path, "--w1", str(good),
                   "--w2", str(bad)])
        assert rc != 0
        assert capsys.readouterr().err == (
            f"error: parse: {bad}: line 2: bad CSV number\n")


class TestSweepCommand:
    def test_grid_axis_peaks(self, tmp_path):
        report = tmp_path / "sweep.csv"
        rc = main(["sweep", "--m", "20", "--k", "20", "--n", "20",
                   "--da", "0.1", "--db", "0.1", "--seed", "3",
                   "--grids", "4,8,16", "--buffer-scales", "1",
                   "--report", str(report)])
        assert rc == 0
        rows = report.read_text().splitlines()
        assert rows[0].startswith("grid,buffer_scale,peak_macs_per_cycle")
        peaks = [int(r.split(",")[2]) for r in rows[1:]]
        assert peaks == [16, 64, 256]
        assert all(r.endswith(",ok") for r in rows[1:])

    def test_buffer_scale_monotone_dram(self, tmp_path):
        report = tmp_path / "sweep.csv"
        rc = main(["sweep", "--m", "40", "--k", "40", "--n", "40",
                   "--da", "0.2", "--db", "0.2", "--seed", "4",
                   "--grids", "4", "--buffer-scales", "0.5,1,2",
                   "--report", str(report)])
        assert rc == 0
        rows = [r.split(",") for r in report.read_text().splitlines()[1:]]
        header = report.read_text().splitlines()[0].split(",")
        ia, ib = header.index("bytes_A"), header.index("bytes_B")
        reads = [int(r[ia]) + int(r[ib]) for r in rows]
        assert reads == sorted(reads, reverse=True) or \
            all(reads[i] >= reads[i + 1] for i in range(len(reads) - 1))

    def test_empty_axes_header_only(self, tmp_path):
        report = tmp_path / "sweep.csv"
        rc = main(["sweep", "--m", "10", "--k", "10", "--n", "10",
                   "--da", "0.1", "--db", "0.1", "--grids", "",
                   "--buffer-scales", "", "--report", str(report)])
        assert rc == 0
        assert len(report.read_text().splitlines()) == 1

    def test_overflowing_scale_fails_its_cell_only(self, tmp_path):
        def sweep(scales):
            report = tmp_path / f"sweep_{scales}.csv"
            rc = main(["sweep", "--m", "12", "--k", "12", "--n", "12",
                       "--da", "0.3", "--db", "0.3", "--seed", "5",
                       "--grids", "4", "--buffer-scales", scales,
                       "--report", str(report)])
            assert rc == 0
            return report.read_text().splitlines()

        alone = sweep("1")
        header, huge, one = sweep("1e300,1")
        assert [header, one] == alone
        assert huge.endswith(",error: config: buffer scale 1e+300 gives "
                             "c_psum=inf: not a finite buffer size")
        assert huge.startswith("4,1e+300,16,4x4_scale1e+300,")

    def test_failed_cell_recorded_not_fatal(self, tmp_path):
        cfgfile = tmp_path / "hw.cfg"
        cfgfile.write_text("c_a=2\nc_b=2\nc_psum=2\nr_x=0.5\n")
        report = tmp_path / "sweep.csv"
        rc = main(["sweep", "--m", "10", "--k", "10", "--n", "10",
                   "--da", "0.9", "--db", "0.9", "--grids", "4,8",
                   "--buffer-scales", "0.5", "--config", str(cfgfile),
                   "--report", str(report)])
        assert rc == 0
        rows = report.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all("error:" in r for r in rows)


class TestBadSweepAndSyntheticInputs:
    """Bad axis lists and synthetic dims and densities fail at ``parse``,
    naming the flag, before any product is planned or run."""

    PLAN = ["plan", "--m", "4", "--k", "4", "--n", "4"]
    SWEEP = ["sweep", "--m", "6", "--k", "6", "--n", "6", "--seed", "1"]
    GCN = ["gcn", "--synthetic", "--nodes", "6", "--features", "5",
           "--hidden", "3", "--classes", "2", "--seed", "1"]

    @pytest.mark.parametrize("flag, value", [
        ("--grids", "4,x"), ("--grids", "0"), ("--grids", "2.5"),
        ("--buffer-scales", "nan"), ("--buffer-scales", "-1"),
        ("--buffer-scales", "0"), ("--buffer-scales", "inf")])
    def test_sweep_axis_names_flag(self, capsys, flag, value):
        rc = main(self.SWEEP + ["--da", "0.3", "--db", "0.3", flag, value])
        assert rc == 1
        kind = "ints" if flag == "--grids" else "floats"
        assert capsys.readouterr().err == (
            f"error: parse: {flag}: expected positive {kind} separated by "
            f"commas, got {value!r}\n")

    @pytest.mark.parametrize("argv, bad", [
        (SWEEP + ["--da", "-1", "--db", "0.3"], "--da=-1.0"),
        (SWEEP + ["--da", "0.3", "--db", "1.5"], "--db=1.5"),
        (SWEEP + ["--da", "nan", "--db", "0.3"], "--da=nan"),
        (GCN + ["--da", "-1"], "--da=-1.0"),
        (GCN + ["--dx", "2"], "--dx=2.0"),
        (GCN + ["--dx", "nan"], "--dx=nan"),
        (PLAN + ["--da", "-0.5", "--db", "0.1"], "--da=-0.5"),
        (PLAN + ["--da", "2", "--db", "0.1"], "--da=2.0"),
        (PLAN + ["--da", "0.1", "--db", "1.5"], "--db=1.5"),
        (PLAN + ["--da", "nan", "--db", "0.1"], "--da=nan")])
    def test_synthetic_density_names_flag(self, tmp_path, capsys, argv, bad):
        rc = main(argv + ["--report", str(tmp_path / "r.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: parse: density {bad} outside [0, 1]\n")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("argv, bad", [
        (SWEEP + ["--m", "-3", "--da", "0.3", "--db", "0.3"], "--m=-3"),
        (SWEEP + ["--k", "0", "--da", "0.3", "--db", "0.3"], "--k=0"),
        (SWEEP + ["--n", "-1", "--da", "0.3", "--db", "0.3"], "--n=-1"),
        (GCN + ["--nodes", "-1"], "--nodes=-1"),
        (GCN + ["--nodes", "0"], "--nodes=0"),
        (GCN + ["--features", "0"], "--features=0"),
        (GCN + ["--hidden", "-2"], "--hidden=-2"),
        (GCN + ["--classes", "0"], "--classes=0"),
        (PLAN + ["--m", "0", "--da", "0.1", "--db", "0.1"], "--m=0"),
        (PLAN + ["--k", "-1", "--da", "0.1", "--db", "0.1"], "--k=-1"),
        (PLAN + ["--n", "0", "--da", "2", "--db", "0.1"], "--n=0")])
    def test_synthetic_dims_name_flag(self, tmp_path, capsys, argv, bad):
        rc = main(argv + ["--report", str(tmp_path / "r.csv")])
        assert rc == 1
        flag, value = bad.split("=")
        assert capsys.readouterr().err == (
            f"error: parse: {flag}: expected a positive integer, got {value}\n")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("argv", [SWEEP + ["--da", "0.3", "--db", "0.3"],
                                      GCN], ids=["sweep", "gcn"])
    @pytest.mark.parametrize("seed, rc", [("-1", 1), ("0", 0)])
    def test_seed_must_not_be_negative(self, tmp_path, capsys, argv, seed, rc):
        report = tmp_path / "r.csv"
        assert main(argv + ["--seed", seed, "--report", str(report)]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err == ("error: parse: --seed: expected a non-negative "
                           "integer, got -1\n")
        assert report.exists() == (rc == 0)

    @pytest.mark.parametrize("value, shown", [
        ("nan", "nan"), ("-1", "-1.0"), ("inf", "inf"), ("1.5", "1.5")])
    @pytest.mark.parametrize("command", ["spmm", "sim", "sweep"])
    def test_sdmm_threshold_outside_unit_interval(self, tmp_path, capsys,
                                                  worked_files, command,
                                                  value, shown):
        a_path, b_path, _, _ = worked_files
        rc = main([command, "--a", a_path, "--b", b_path, "--sdmm-threshold",
                   value, "--report", str(tmp_path / "r.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: parse: density --sdmm-threshold={shown} outside [0, 1]\n")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_sdmm_threshold_ends_still_run(self, tmp_path, worked_files,
                                           value):
        a_path, b_path, _, _ = worked_files
        report = tmp_path / "r.csv"
        rc = main(["sim", "--a", a_path, "--b", b_path, "--sdmm-threshold",
                   value, "--report", str(report)])
        assert rc == 0
        assert f"# auto_threshold={float(value)}" in report.read_text()

    def test_unit_interval_ends_still_run(self, tmp_path):
        report = tmp_path / "r.csv"
        rc = main(self.SWEEP + ["--da", "0", "--db", "1", "--grids", "2",
                                "--buffer-scales", "1", "--report", str(report)])
        assert rc == 0
        assert report.read_text().splitlines()[1].endswith(",ok")


class TestConfigFile:
    def test_parse_and_defaults(self, tmp_path):
        cfgfile = tmp_path / "hw.cfg"
        cfgfile.write_text("# comment\nc_a=1024\ng_na=4\ng_nb=4\n"
                           "r_x=0.5\nfreq_hz=1e9\n")
        cfg = load_config(str(cfgfile))
        assert cfg.c_a == 1024 and cfg.c_b == 2048
        assert (cfg.g_na, cfg.g_nb) == (4, 4)
        assert cfg.r_x == 0.5 and cfg.freq_hz == 1e9

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "hw.cfg"
        cfgfile.write_text("nonsense=1\n")
        with pytest.raises(Exception, match="unknown config key"):
            load_config(str(cfgfile))

    @pytest.mark.parametrize("text, message", [
        ("c_a=abc\n", "line 1: c_a: invalid literal for int()"),
        ("# header\nr_x=1.5\n", "line 2: r_x: r_x must be in (0, 1]"),
        ("foo=1\n", "line 1: foo: unknown config key"),
        ("g_na\n", "line 1: expected key=value"),
        ("bits_value=-8\n", "line 1: bits_value: stream bit widths must be >= 1"),
        ("bits_index=0\n", "line 1: bits_index: stream bit widths must be >= 1"),
        ("bits_len=0\n", "line 1: bits_len: stream bit widths must be >= 1"),
        ("freq_hz=-1\n", "line 1: freq_hz: freq_hz must be positive and finite"),
        ("freq_hz=nan\n", "line 1: freq_hz: freq_hz must be positive and finite"),
        ("freq_hz=inf\n", "line 1: freq_hz: freq_hz must be positive and finite"),
    ])
    def test_errors_name_stage_line_and_key(self, tmp_path, worked_files,
                                            capsys, text, message):
        a_path, b_path, _, _ = worked_files
        cfgfile = tmp_path / "hw.cfg"
        cfgfile.write_text(text)
        rc = main(["sim", "--a", a_path, "--b", b_path,
                   "--config", str(cfgfile)])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {cfgfile} {message}")


class TestZeroDimensionOperand:
    """B is 3x0: every command fails at a named stage, never internally."""

    @pytest.fixture
    def files(self, tmp_path):
        return (write_mtx(tmp_path / "a.mtx", TripletMatrix(3, 3, [(0, 0, 2.0)])),
                write_mtx(tmp_path / "b.mtx", TripletMatrix(3, 0, [])))

    @pytest.mark.parametrize("argv, stage", [
        (["plan"], "plan"),
        (["sim", "--mode", "ssmm"], "plan"),
        (["sim"], "parse"),  # --mode auto measures B's density
        (["sweep"], "parse"),
    ])
    def test_fails_with_typed_error(self, files, capsys, argv, stage):
        a, b = files
        rc = main(argv + ["--a", a, "--b", b])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stage}: ")
        assert "internal" not in err and "division" not in err


class TestOversizedSizeHeader:
    """A size header beyond int64 fails at parse, before any array or plan
    is sized from it."""

    @pytest.mark.parametrize("header, entry", [
        (f"{2 ** 70} 1 1", f"{2 ** 65} 1 1.0"),  # the entry is in range
        (f"{2 ** 70} 3 1", "1 1 1.0"),  # would plan a 2**70-row product
    ])
    def test_fails_at_parse(self, tmp_path, worked_files, capsys, header,
                            entry):
        big = tmp_path / "big.mtx"
        big.write_text("%%MatrixMarket matrix coordinate real general\n"
                       f"{header}\n{entry}\n")
        b = write_mtx(tmp_path / "b3.mtx", TripletMatrix(3, 3, [(0, 0, 1.0)]))
        rc = main(["sim", "--a", str(big), "--b", b])
        assert rc != 0
        assert capsys.readouterr().err == (
            f"error: parse: {big}: line 2: size header exceeds int64\n")

    @pytest.mark.parametrize("argv", [
        ["sim"], ["sim", "--mode", "sdmm"], ["spmm", "--out"], ["sweep"],
        ["plan"]])
    def test_size_past_a_pointer_array_fails_at_parse(self, tmp_path, capsys,
                                                      argv):
        # numpy refuses a 2**62 + 1 entry int64 array without allocating
        # it, so an unchecked conversion would end at internal
        huge = tmp_path / "huge.mtx"
        huge.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"{2 ** 62} {2 ** 62} 1\n1 1 1.0\n")
        out = tmp_path / "c.mtx"
        rc = main(argv + [str(out)] * (argv[-1] == "--out")
                  + ["--a", str(huge), "--b", str(huge)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: parse: {huge}: {2 ** 62} rows, more than a pointer array "
            f"can index ({2 ** 60 - 2})\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["sim"], ["spmm", "--out"], ["sweep"]])
    def test_dense_b_past_one_array_fails_at_parse(self, tmp_path, capsys,
                                                   monkeypatch, argv):
        # each dimension passes the pointer check, but a dense B of 2**80
        # cells does not fit one array; no operand form may be built, since
        # A's CSC pointer array alone would have 2**40 + 1 entries
        def refuse(t):
            raise AssertionError("an operand form was built")

        for name in ("to_csc", "to_csr", "to_dense"):
            monkeypatch.setattr(cli, name, refuse)
        a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
        for path, rows in ((a, 1), (b, 2 ** 40)):
            path.write_text("%%MatrixMarket matrix coordinate real general\n"
                            f"{rows} {2 ** 40} 1\n1 1 1.0\n")
        out = tmp_path / "c.csv"
        rc = main(argv + [str(out)] * (argv[-1] == "--out")
                  + ["--mode", "sdmm", "--a", str(a), "--b", str(b)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: parse: B is {2 ** 40}x{2 ** 40}, more cells than a dense "
            f"array can hold ({2 ** 60 - 2})\n")
        assert not out.exists()


class TestUnreadableConfig:
    @pytest.mark.parametrize("command", ["sim", "plan", "sweep"])
    def test_missing_file_fails_at_config(self, tmp_path, worked_files, capsys,
                                          command):
        a_path, b_path, _, _ = worked_files
        missing = tmp_path / "nope.cfg"
        rc = main([command, "--a", a_path, "--b", b_path,
                   "--config", str(missing)])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: cannot read {missing}: ")
        assert "No such file" in err

    def test_non_ascii_file_fails_at_config(self, tmp_path, worked_files,
                                            capsys):
        a_path, b_path, _, _ = worked_files
        cfgfile = tmp_path / "hw.cfg"
        cfgfile.write_bytes(b"c_a=\xff\n")
        rc = main(["sim", "--a", a_path, "--b", b_path,
                   "--config", str(cfgfile)])
        assert rc != 0
        assert capsys.readouterr().err.startswith(
            f"error: config: cannot read {cfgfile}: ")
