"""One product path: each command builds its operands once, every product
is planned and run through ``cli._run_one``, and ``costmodel.run`` encodes
each block once, before its pass loop."""

import numpy as np
import pytest

from iohp import cli, costmodel
from iohp.costmodel import MODE_SDMM, MODE_SSMM, Workload, run
from iohp.matrices import to_csc, to_csr, to_dense
from iohp.planner import HardwareConfig, PartitionPlan
from iohp.synthetic import random_triplets


def counting(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call is counted."""
    calls, real = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_sweep_converts_its_operands_once(monkeypatch, capsys):
    """A 2 x 2 sweep runs four cells on one CSC A and one CSR B."""
    counts = {name: counting(monkeypatch, cli, name)
              for name in ("to_csc", "to_csr", "to_dense")}
    assert cli.main(["sweep", "--mode", "ssmm", "--m", "30", "--k", "20",
                     "--n", "25", "--da", "0.2", "--db", "0.2",
                     "--grids", "2,4", "--buffer-scales", "1,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.endswith(",ok") for line in lines[1:]] == [True] * 4
    assert {name: len(calls) for name, calls in counts.items()} == {
        "to_csc": 1, "to_csr": 1, "to_dense": 0}


def test_a_failing_gcn_step_is_staged_by_its_name(monkeypatch, capsys):
    real = cli.run

    def fail_step3(workload, *rest):
        if workload.label == "step3_h1w2":
            raise RuntimeError("injected")
        return real(workload, *rest)

    monkeypatch.setattr(cli, "run", fail_step3)
    assert cli.main(["gcn", "--synthetic", "--nodes", "8", "--features", "6",
                     "--hidden", "4", "--classes", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: step3_h1w2: injected\n"


@pytest.mark.parametrize("mode", [MODE_SSMM, MODE_SDMM])
@pytest.mark.parametrize("strategy", ["RAF", "RBF", "RABE"])
def test_run_encodes_each_block_once(monkeypatch, mode, strategy):
    rng = np.random.default_rng(3)
    a, b = random_triplets(23, 17, 0.3, rng), random_triplets(17, 19, 0.3, rng)
    cfg = HardwareConfig(g_na=2, g_nb=2)
    plan = PartitionPlan(0, 0, 0, 3, 5, 2, strategy, 0)  # t_m=4, t_k=4, t_n=5
    encoded = {name: counting(monkeypatch, costmodel, name)
               for name in ("encode_rp_csc", "encode_cp_csr")}
    operand = to_csr(b) if mode == MODE_SSMM else to_dense(b)
    _, stats = run(Workload(to_csc(a), operand), plan, cfg, mode)
    assert (stats.t_m, stats.t_k, stats.t_n) == (4, 4, 5)
    a_calls, b_calls = encoded["encode_rp_csc"], encoded["encode_cp_csr"]
    assert sorted(args[2:] for args in a_calls) == [
        (m, k) for m in range(4) for k in range(4)]
    assert sorted(args[2:] for args in b_calls) == (
        [(k, n) for k in range(4) for n in range(5)] if mode == MODE_SSMM
        else [])
