"""Command-line behavior: outputs, determinism, exit codes."""

import itertools
import json
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from conftest import tampered_softmax

from stripseg import attention, selftest
from stripseg.attention import AttnOutput
from stripseg.cli import main
from stripseg.config import FORWARD_DEFAULTS, GRADCHECK_DEFAULTS, RunConfig, config_echo, resolve_config
from stripseg.decoder import DecoderSpec
from stripseg.scat import load_scat
from stripseg.tensor import Tensor

TINY_GRADCHECK = {
    "pyramid": {"height": 32, "width": 32, "channels": [4, 4, 4, 4]},
    "decoder": {"heads": [1, 1, 1, 1], "dim_head": 2, "num_classes": 2, "mlp_expansion": 1},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestForward:
    def test_default_mask_shape_and_echo(self, tmp_path):
        out = tmp_path / "run"
        assert main(["forward", "--out", str(out)]) == 0
        mask = load_scat(out / "mask.scat")
        assert mask.shape == (1, 19, 16, 16)
        echo = json.loads((out / "run.json").read_text())
        assert echo["decoder"]["layernorm_eps"] == 1e-6
        assert echo["decoder"]["lpm_reduction"] == 4
        assert echo["decoder"]["init_std"] == 0.02

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["forward", "--out", str(a)]) == 0
        assert main(["forward", "--out", str(b)]) == 0
        assert (a / "mask.scat").read_bytes() == (b / "mask.scat").read_bytes()

    def test_dump_trace_writes_all_tensors(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {"pyramid": {"channels": [4, 4, 8, 8]}})
        assert main(["forward", "--config", cfg, "--out", str(out), "--dump-trace"]) == 0
        names = sorted(p.name for p in out.iterdir())
        expect = sorted(
            ["mask.scat", "run.json"]
            + [f"M{i}.scat" for i in range(1, 5)]
            + [f"D{i}.scat" for i in range(1, 5)]
            + [f"attn{i}.scat" for i in range(1, 5)]
        )
        assert names == expect
        for stage in range(1, 5):
            assert load_scat(out / f"M{stage}.scat").shape[2] == 24

    def test_run_json_round_trip_reproduces_bytes(self, tmp_path):
        first = tmp_path / "first"
        assert main(["forward", "--out", str(first)]) == 0
        second = tmp_path / "second"
        assert main(["forward", "--config", str(first / "run.json"), "--out", str(second)]) == 0
        assert (first / "mask.scat").read_bytes() == (second / "mask.scat").read_bytes()

    def test_indivisible_height_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"pyramid": {"height": 60}})
        assert main(["forward", "--config", cfg]) == 2
        assert "divisible by 32" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"decoder": {"mixerr": "sca"}})
        assert main(["forward", "--config", cfg]) == 2
        assert "decoder.mixerr" in capsys.readouterr().err

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["forward", "--config", str(path)]) == 2

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["forward", "--config", str(path)]) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "decoder,field",
        [
            ({"init_std": float("nan")}, "decoder.init_std"),
            ({"init_std": -0.02}, "decoder.init_std"),
            ({"init_std": 10**400}, "decoder.init_std"),
            ({"attn_scale": float("inf")}, "decoder.attn_scale"),
        ],
        ids=["init_std-nan", "init_std-negative", "init_std-huge-int", "attn_scale-inf"],
    )
    def test_non_finite_or_negative_number_is_config_error(self, tmp_path, capsys, decoder, field):
        cfg = write_config(tmp_path, {"decoder": decoder})
        out = tmp_path / "run"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_mask_scat_cannot_hold_is_runtime_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"decoder": {"init_std": 1e200}})
        out = tmp_path / "run"
        with pytest.warns(RuntimeWarning):
            assert main(["forward", "--config", cfg, "--out", str(out)]) == 3
        assert "mask.scat" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc,code,message",
        [
            ({"pyramid": {"height": 2**64}}, 2, "config error: pyramid.height: "),
            ({"pyramid": {"height": 2**40}}, 3, "error: out of memory: "),
            ({"decoder": {"num_classes": 2**64}}, 2, "config error: decoder.num_classes: "),
            ({"decoder": {"num_classes": 2**40}}, 3, "error: out of memory: "),
            ({"decoder": {"dim_head": 2**64}}, 2, "config error: decoder.dim_head: stage 1 value projection "),
            ({"decoder": {"mlp_expansion": 2**64}}, 2, "config error: decoder.mlp_expansion: stage 1 MLP weight "),
            ({"decoder": {"heads": [1, 1, 1, 2**64]}}, 2, "config error: decoder.heads[3]: stage 4 value projection "),
            ({"sweep": [{"n_q": 2**64}]}, 2, "config error: sweep[0].n_q: q input "),
            ({"bench": {"n_tokens": 2**64}}, 2, "config error: bench.n_tokens: q input "),
            ({"bench": {"channels": 2**64, "heads": 1}}, 2, "config error: bench.channels: q input "),
        ],
        ids=[
            "height-2**64",
            "height-2**40",
            "num_classes-2**64",
            "num_classes-2**40",
            "dim_head-2**64",
            "mlp_expansion-2**64",
            "heads[3]-2**64",
            "sweep-n_q-2**64",
            "bench-n_tokens-2**64",
            "bench-channels-2**64",
        ],
    )
    def test_oversized_arrays_exit_with_one_line(self, tmp_path, capsys, doc, code, message):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not out.exists()

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["forward", "--out", str(blocker / "run")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestConfigSchema:
    @pytest.mark.parametrize(
        "doc,defaults",
        [
            ({}, FORWARD_DEFAULTS),
            ({}, GRADCHECK_DEFAULTS),
            (
                {
                    "bench": {"n_tokens": 16, "channels": 8, "heads": 2, "repeats": 11, "warmup": 3},
                    "sweep": [{"n_q": 4, "n_kv": 6, "c_q": 8, "c_kv": 10, "heads": 2, "dim_head": 4}, {"n_q": 2}],
                },
                FORWARD_DEFAULTS,
            ),
        ],
        ids=["forward-defaults", "gradcheck-defaults", "sweep-and-bench"],
    )
    def test_echo_round_trips(self, doc, defaults):
        cfg = resolve_config(doc, defaults)
        assert resolve_config(config_echo(cfg)) == cfg

    def test_field_names_are_the_document_keys(self):
        # config_echo is asdict(cfg), so these names are the echoed keys
        assert [f.name for f in fields(RunConfig)] == list(FORWARD_DEFAULTS)
        assert [f.name for f in fields(DecoderSpec)] == list(FORWARD_DEFAULTS["decoder"])

    def test_readme_library_example_runs(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Library use\s*```python\n(.*?)```", readme, re.S)
        assert block is not None
        namespace: dict = {}
        exec(block.group(1), namespace)
        assert namespace["trace"].mask.shape == (1, 19, 16, 16)

    def test_readme_defaults_match_forward_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"Defaults shown:\s*```json\n(.*?)```", readme, re.S)
        assert block is not None
        assert json.loads(block.group(1)) == FORWARD_DEFAULTS


class TestGradcheck:
    def test_tiny_config_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_GRADCHECK)
        assert main(["gradcheck", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "worst relative error" in out
        assert "FAIL" not in out

    def test_tampered_backward_is_detected(self, tmp_path, monkeypatch, capsys):
        doc = json.loads(json.dumps(TINY_GRADCHECK))
        doc["decoder"]["init_std"] = 0.5
        cfg = write_config(tmp_path, doc)
        monkeypatch.setattr(attention, "softmax_lastdim", tampered_softmax)
        assert main(["gradcheck", "--config", cfg]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_oversize_config_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"pyramid": {"height": 64, "width": 64}})
        assert main(["gradcheck", "--config", cfg]) == 2
        assert "32x32" in capsys.readouterr().err


class TestFlops:
    def test_check_passes_on_default_grid(self, tmp_path):
        out = tmp_path / "csv"
        assert main(["flops", "--check", "--out", str(out)]) == 0
        text = (out / "flops.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0].startswith("mixer,N_q,N_kv")
        assert len(lines) == 1 + 20 * 3

    def test_known_cost_row_values(self, tmp_path, capsys):
        assert main(["flops"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        sa_row = next(r for r in rows if r.startswith("sa,64,64,32"))
        sca_row = next(r for r in rows if r.startswith("sca,64,64,32"))
        assert sa_row.split(",")[7] == "262144"
        assert sca_row.split(",")[7] == "135168"

    def test_custom_sweep_list(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"sweep": [{"n_q": 4, "n_kv": 6, "c_q": 8, "c_kv": 10, "heads": 1, "dim_head": 8}]},
        )
        assert main(["flops", "--config", cfg]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) == 3

    def test_malformed_sweep_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": [{"n_q": 4, "bogus": 1}]})
        assert main(["flops", "--config", cfg]) == 2
        cfg2 = write_config(tmp_path, {"sweep": []}, name="empty.json")
        assert main(["flops", "--config", cfg2]) == 2

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"bench": {"heads": 3}}, "config error: bench.channels: must divide by bench.heads\n"),
            ({"bench": {"repeats": 3}}, "config error: bench.repeats: must be >= 9\n"),
            ({"sweep": [{"n_q": 4}, {"dim_head": True}]}, "config error: sweep[1].dim_head: must be an integer\n"),
        ],
        ids=["bench-heads-3", "bench-repeats-3", "sweep-dim_head-true"],
    )
    def test_bad_case_settings_exit_with_one_line(self, tmp_path, capsys, doc, message):
        cfg = write_config(tmp_path, doc)
        assert main(["flops", "--config", cfg]) == 2
        assert capsys.readouterr().err == message


class TestBench:
    def test_emits_one_row_per_mixer(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"bench": {"n_tokens": 16, "channels": 8, "heads": 2}}
        )
        assert main(["bench", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4
        assert [line.split(",")[0] for line in lines[1:]] == ["sa", "ca", "sca"]
        assert all(int(line.split(",")[-1]) > 0 for line in lines[1:])


class TestSelftest:
    def test_fresh_run_passes(self, capsys):
        import time

        start = time.perf_counter()
        assert main(["selftest"]) == 0
        assert time.perf_counter() - start < 120.0
        out = capsys.readouterr().out
        for suite in ("oracle-equivalence", "invariants", "identities"):
            assert f"{suite}: PASS" in out

    def test_tamper_flips_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(selftest, "softmax_lastdim", tampered_softmax)
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert out.splitlines() == ["oracle-equivalence: PASS", "invariants: PASS", "identities: FAIL"]

    def test_drifting_kernel_fails_the_shared_checks(self, monkeypatch):
        # each call moves the kernel's output a further 1e-9: it leaves the
        # oracle, and the invariants, which compare two calls, break too
        kernel = selftest.cross_attention
        calls = itertools.count(1)

        def drifting(xq, xkv, p, with_map=True):
            res = kernel(xq, xkv, p, with_map)
            step = 1e-9 * next(calls)
            attn = None if res.attn is None else Tensor(res.attn.data + step)
            return AttnOutput(out=Tensor(res.out.data + step), attn=attn)

        monkeypatch.setattr(selftest, "cross_attention", drifting)
        for case in selftest.ORACLE_CASES:
            assert min(selftest.oracle_errors(*case).values()) > selftest.TOL
        assert min(selftest.invariant_errors().values()) > selftest.TOL
        results = selftest.run_selftest()
        assert results == {"oracle-equivalence": False, "invariants": False, "identities": True}


class TestModuleEntry:
    def test_python_dash_m_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "stripseg", "forward", "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "o" / "mask.scat").exists()
