"""Acceptance suite: each test prints one PASS/FAIL line and pins the
tolerance it runs at."""

import math
import time
from contextlib import contextmanager

import numpy as np

from gsaformer.attention import AttentionMask, OpCounter, row_softmax, scaled_dot_attention
from gsaformer.cca import CcaLayerParams, cca_forward
from gsaformer.cli import main as cli_main
from gsaformer.data import make_windows, synthetic_series, write_csv
from gsaformer.gsa import GsaConfig, GsaLayerParams, gsa_forward, gsa_op_count
from gsaformer.model import ForecasterModel, ModelConfig
from gsaformer.tensor import ComputationTape, Tensor, backward, matmul, zero_grads
from gsaformer.training import (
    AdamState,
    TrainConfig,
    adam_step,
    evaluate,
    grad_check,
    mse_loss,
    train,
)


@contextmanager
def criterion(num, desc):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num:02d}: PASS - {desc} "
          f"[{time.perf_counter() - start:.2f}s]")


def gsa_params(cfg, seed=0, beta=0.0):
    params = GsaLayerParams.init(cfg, np.random.default_rng(seed))
    if params.beta is not None:
        params.beta.data[:] = beta
    return params


def test_01_reduction_equivalence():
    with criterion(1, "one-group GSA equals canonical attention (<1e-10)"):
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        cfg = GsaConfig(l_g=64, l_s=4, d=16, heads=1, m_max=1, global_path=False)
        params = gsa_params(cfg, seed=1)
        params.w_o.data = np.eye(16)
        for b in (params.b_q, params.b_k, params.b_v, params.b_o):
            b.data[:] = 0.0
        x = Tensor(rng.normal(size=(64, 16)))
        out = gsa_forward(x, params, cfg, OpCounter())
        oracle = scaled_dot_attention(
            matmul(x, params.w_q), matmul(x, params.w_k), matmul(x, params.w_v),
            AttentionMask.none(), OpCounter())
        assert np.abs(out.data - oracle.data).max() < 1e-10
        assert time.perf_counter() - start < 1.0


def naive_score_element_count(l, l_g, l_s):
    """Count score entries by literal enumeration of every query-key pair."""
    m = math.ceil(l / l_g)
    count = 0
    for _ in range(m):
        for _ in range(l_g):
            for _ in range(l_g):
                count += 1
    for _ in range(m * l_s):
        for _ in range(m * l_s):
            count += 1
    return count


def test_02_complexity_formula_identity():
    with criterion(2, "instrumented count equals m*l_g^2+(m*l_s)^2 exactly"):
        cases = [(512, 64, 4), (1024, 64, 4), (720, 90, 8), (100, 64, 4)]
        rng = np.random.default_rng(2)
        for l, l_g, l_s in cases:
            cfg = GsaConfig(l_g=l_g, l_s=l_s, d=8, heads=1,
                            m_max=math.ceil(l / l_g))
            params = gsa_params(cfg, seed=2, beta=0.3)
            counter = OpCounter()
            gsa_forward(Tensor(rng.normal(size=(l, 8))), params, cfg, counter)
            m = math.ceil(l / l_g)
            closed = m * l_g ** 2 + (m * l_s) ** 2
            assert counter.score_elements == closed == gsa_op_count(l, l_g, l_s)
        assert gsa_op_count(512, 64, 4) == 33792
        assert naive_score_element_count(512, 64, 4) == 33792


def test_03_linear_regime_scaling():
    with criterion(3, "GSA doubling ratio in [2.0, 2.25]; canonical exactly 4.0"):
        start = time.perf_counter()
        lengths = (512, 1024, 2048, 4096)
        rng = np.random.default_rng(3)
        grouped = []
        for l in lengths:
            cfg = GsaConfig(l_g=64, l_s=4, d=8, heads=1, m_max=l // 64)
            params = gsa_params(cfg, seed=3, beta=0.25)
            counter = OpCounter()
            gsa_forward(Tensor(rng.normal(size=(l, 8))), params, cfg, counter)
            assert counter.score_elements == gsa_op_count(l, 64, 4)
            grouped.append(counter.score_elements)
        for small, big in zip(grouped, grouped[1:]):
            assert 2.0 <= big / small <= 2.25
        canonical = []
        for l in lengths:
            counter = OpCounter()
            x = Tensor(rng.normal(size=(l, 8)))
            scaled_dot_attention(x, x, x, AttentionMask.none(), counter)
            assert counter.score_elements == l * l
            canonical.append(counter.score_elements)
        for small, big in zip(canonical, canonical[1:]):
            assert big / small == 4.0
        assert time.perf_counter() - start < 60.0


def test_04_cca_length_independence():
    with criterion(4, "CCA cost is l_dec*256 for every l_enc; identity C exact"):
        rng = np.random.default_rng(4)
        l_dec, l_comp, d = 64, 256, 8
        for l_enc in (512, 1024, 2048):
            params = CcaLayerParams.init(d, l_enc, l_comp, rng)
            counter = OpCounter()
            cca_forward(Tensor(rng.normal(size=(l_dec, d))),
                        Tensor(rng.normal(size=(l_enc, d))), params, counter)
            assert counter.score_elements == l_dec * 256
        # identity compression at l_enc == l_comp matches plain cross-attention
        params = CcaLayerParams.init(d, l_comp, l_comp, rng)
        assert params.c is None
        h_dec = Tensor(rng.normal(size=(l_dec, d)))
        h_enc = Tensor(rng.normal(size=(l_comp, d)))
        out = cca_forward(h_dec, h_enc, params, OpCounter())
        from gsaformer.tensor import broadcast_add
        q = broadcast_add(matmul(h_dec, params.w_q), params.b_q)
        k = broadcast_add(matmul(h_enc, params.w_k), params.b_k)
        v = broadcast_add(matmul(h_enc, params.w_v), params.b_v)
        plain = broadcast_add(matmul(
            scaled_dot_attention(q, k, v, AttentionMask.none(), OpCounter()),
            params.w_o), params.b_o)
        assert np.abs(out.data - plain.data).max() < 1e-10


def test_05_pad_invariance():
    with criterion(5, "pad-position perturbations never reach real outputs (<1e-12)"):
        rng = np.random.default_rng(5)
        cfg = GsaConfig(l_g=64, l_s=4, d=8, heads=2, m_max=2)
        params = gsa_params(cfg, seed=5, beta=0.6)
        x = rng.normal(size=(100, 8))
        base = gsa_forward(Tensor(x), params, cfg, OpCounter())
        padded = np.zeros((128, 8))
        padded[:100] = x
        for sign in (10.0, -10.0):
            padded[100:] = sign
            out = gsa_forward(Tensor(padded), params, cfg, OpCounter(),
                              real_len=100)
            assert np.abs(out.data[:100] - base.data).max() < 1e-12


def test_06_locality_globality_dichotomy():
    with criterion(6, "local-only is cross-group silent; global path is not"):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(32, 8))
        bumped = x.copy()
        bumped[4] += 1.0   # group 0
        for global_path, expect_cross in ((False, False), (True, True)):
            cfg = GsaConfig(l_g=8, l_s=2, d=8, heads=1, m_max=4,
                            global_path=global_path)
            params = gsa_params(cfg, seed=6, beta=0.8)
            base = gsa_forward(Tensor(x), params, cfg, OpCounter())
            out = gsa_forward(Tensor(bumped), params, cfg, OpCounter())
            cross = np.abs(out.data[8:] - base.data[8:]).max()
            if expect_cross:
                assert cross > 1e-6
            else:
                assert cross < 1e-12


def test_07_gradient_correctness_full_model():
    with criterion(7, "full tiny model passes finite-difference check (<1e-5)"):
        start = time.perf_counter()
        cfg = ModelConfig(seq_len=24, pred_len=8, n_features_in=2,
                          n_features_out=2, d=16, heads=2, e_l=1, d_l=1,
                          l_g=8, l_s=2, l_comp=256, ffn_hidden=16)
        model = ForecasterModel(cfg, seed=7)
        for name, p in model.parameters().items():
            if name.endswith(".beta"):
                p.data[:] = 0.37   # activate the global summary path
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(24, 2)))
        y = Tensor(rng.normal(size=(8, 2)))
        report = grad_check(lambda: mse_loss(model.forward(x), y),
                            model.parameters(), epsilon=1e-6, tolerance=1e-5, seed=7)
        assert report.ok, "\n".join(report.lines())
        assert time.perf_counter() - start < 120.0


def test_08_softmax_normalization():
    with criterion(8, "every unmasked row sums to 1 +- 1e-12 (>=1000 rows)"):
        rng = np.random.default_rng(8)
        rows_checked = 0
        while rows_checked < 1000:
            r = int(rng.integers(1, 50))
            c = int(rng.integers(2, 40))
            scores = rng.normal(scale=rng.uniform(0.1, 50.0), size=(r, c))
            if rng.uniform() < 0.5:
                allow = np.ones((r, c), dtype=bool)
                mask = AttentionMask.none()
            else:
                allow = rng.uniform(size=(r, c)) > 0.35
                mask = AttentionMask.custom(allow)
            out = row_softmax(Tensor(scores), mask)
            sums = out.data.sum(axis=1)
            for i in range(r):
                if allow[i].any():
                    assert abs(sums[i] - 1.0) <= 1e-12
                    rows_checked += 1
                else:
                    assert sums[i] == 0.0


def test_09_smoke_training():
    with criterion(9, "200 iterations at lr=1e-4 more than halve train MSE"):
        start = time.perf_counter()
        series = synthetic_series("sine_mix", 2000, 1, seed=13)
        train_set, _, _ = make_windows(series, 96, 24)
        cfg = ModelConfig(seq_len=96, pred_len=24, n_features_in=1,
                          n_features_out=1, d=32, heads=2, e_l=1, d_l=1,
                          ffn_hidden=64, l_g=64, l_s=4)
        model = ForecasterModel(cfg, seed=0)
        initial = evaluate(model, train_set, limit=48)
        tcfg = TrainConfig(learning_rate=1e-4, batch_size=4, epochs=1000,
                           max_iterations=200, seed=0)
        train(model, train_set, tcfg, val_set=None)
        final = evaluate(model, train_set, limit=48)
        assert final < 0.5 * initial, (initial, final)
        assert time.perf_counter() - start < 120.0


def test_10_cca_weight_separation():
    with criterion(10, "decoder layers' compression matrices diverge in one step"):
        cfg = ModelConfig(seq_len=24, pred_len=8, n_features_in=2,
                          n_features_out=2, d=16, heads=2, e_l=1, d_l=2,
                          l_g=8, l_s=2, l_comp=8, ffn_hidden=16)
        model = ForecasterModel(cfg, seed=10)
        params = model.parameters()
        # start both layers from the same compression weights so only the
        # training step can tell them apart
        params["dec1.cca.c"].data = params["dec0.cca.c"].data.copy()
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(24, 2)))
        y = Tensor(rng.normal(size=(8, 2)))
        zero_grads(params.values())
        with ComputationTape() as tape:
            backward(mse_loss(model.forward(x), y), tape)
        grads = {n: p.grad if p.grad is not None else np.zeros_like(p.data)
                 for n, p in params.items()}
        adam_step(params, grads, AdamState(), TrainConfig(learning_rate=1e-4))
        diff = np.abs(params["dec0.cca.c"].data - params["dec1.cca.c"].data).max()
        assert diff > 0.0
        assert params["dec0.cca.c"] is not params["dec1.cca.c"]


def test_11_determinism(tmp_path):
    with criterion(11, "same seed and flags give byte-identical outputs"):
        train_args = ["--seed", "3", "--set", "epochs=1",
                      "--set", "max_iterations=4", "--set", "d=8",
                      "--set", "heads=1", "--set", "e_l=1", "--set", "d_l=1",
                      "--set", "ffn_hidden=8", "--set", "seq_len=32",
                      "--set", "pred_len=8", "--set", "l_g=16",
                      "--set", "l_s=2", "--set", "synth_rows=400",
                      "--set", "batch_size=4"]
        bench_args = ["--lengths", "32,64", "--mechanisms", "grouped",
                      "--no-timing", "--set", "d=8", "--set", "heads=1",
                      "--set", "e_l=1", "--set", "d_l=1", "--set", "l_g=16",
                      "--set", "l_s=2", "--set", "l_comp=8",
                      "--set", "ffn_hidden=8", "--seed", "3"]
        runs = {
            "synth": (["synth", "--rows", "64", "--features", "2",
                       "--seed", "3"], ["synth.csv"]),
            "train": (["train"] + train_args,
                      ["history.csv", "final.ckpt", "best.ckpt", "model.cfg"]),
            "bench": (["bench"] + bench_args, ["bench.csv"]),
            "gradcheck": (["gradcheck", "--preset", "tiny", "--seed", "3"],
                          ["gradcheck_report.txt"]),
        }
        for verb, (argv, artifacts) in runs.items():
            blobs = []
            for i in range(2):
                out = tmp_path / f"{verb}{i}"
                assert cli_main(argv + ["--out", str(out)]) == 0, verb
                blobs.append([(out / a).read_bytes() for a in artifacts])
            for a, (blob0, blob1) in zip(artifacts, zip(*blobs)):
                assert blob0 == blob1, f"{verb}/{a} differs between runs"


def test_12_data_path_smoke(tmp_path):
    with criterion(12, "ETT-format CSV trains one epoch to a finite val MSE"):
        series = synthetic_series("sine_mix", 2000, 3, seed=12)
        series.feature_names = ["HUFL", "MUFL", "OT"]
        csv_path = tmp_path / "ett_style.csv"
        write_csv(series, csv_path)
        out = tmp_path / "run"
        code = cli_main(["train", "--csv", str(csv_path), "--out", str(out),
                         "--seed", "2",
                         "--set", "seq_len=168", "--set", "pred_len=24",
                         "--set", "d=16", "--set", "heads=2",
                         "--set", "e_l=1", "--set", "d_l=1",
                         "--set", "ffn_hidden=16", "--set", "epochs=1",
                         "--set", "batch_size=8", "--set", "window_stride=16",
                         "--set", "target=OT"])
        assert code == 0
        lines = (out / "history.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_mse,val_mse"
        _, train_mse, val_mse = lines[1].split(",")
        assert math.isfinite(float(val_mse))
        assert math.isfinite(float(train_mse))
