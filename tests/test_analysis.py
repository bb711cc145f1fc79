"""Cost-model contracts: closed forms, instrumentation, sweeps, benchmarks."""

import pytest

from stripseg.analysis import (
    AttnConfig,
    BenchSettings,
    bench_mixer,
    closed_form_flops,
    count_flops,
    decode_macs,
    default_grid,
    rows_to_csv,
    sweep,
    CSV_COLUMNS,
)
from stripseg.config import build_decoder_params, build_pyramid, resolve_config


class TestClosedForm:
    def test_full_width_instantiation(self):
        assert closed_form_flops("sa", 64, 64, 32) == 262144

    def test_strip_instantiation(self):
        assert closed_form_flops("sca", 64, 64, 32) == 135168

    def test_equal_at_single_channel(self):
        for n in (1, 4, 64):
            assert closed_form_flops("sa", n, n, 1) == closed_form_flops("sca", n, n, 1) == 2 * n * n

    def test_strip_strictly_cheaper_above_one_channel(self):
        for n in (1, 4, 16, 64, 256):
            for c in (8, 32, 128):
                assert closed_form_flops("sca", n, n, c) < closed_form_flops("sa", n, n, c)

    def test_rectangular_cross_attention(self):
        assert closed_form_flops("ca", 3, 5, 7) == 2 * 3 * 5 * 7

    def test_ratio_independent_of_tokens(self):
        c = 64
        expect = (1 + c) / (2 * c)
        for n in (256, 1024, 4096):
            ratio = closed_form_flops("sca", n, n, c) / closed_form_flops("sa", n, n, c)
            assert abs(ratio - expect) < 1e-12
        assert abs(expect - 0.5078125) < 1e-9


class TestCountedFlops:
    @pytest.mark.parametrize("n", [1, 4, 16, 64, 256])
    @pytest.mark.parametrize("c", [1, 8, 32, 128])
    def test_counted_equals_closed_form_on_grid(self, n, c):
        cfg = AttnConfig(n_q=n, n_kv=n, c_q=c, c_kv=c, heads=1, dim_head=c)
        for kind in ("sa", "ca", "sca"):
            report = count_flops(kind, cfg)
            assert report.counted_attn_flops == report.closed_form_attn_flops

    def test_single_token_counts(self):
        cfg = AttnConfig(n_q=1, n_kv=1, c_q=8, c_kv=8, heads=1, dim_head=8)
        sa = count_flops("sa", cfg)
        sca = count_flops("sca", cfg)
        assert sa.counted_attn_flops == 2 * 8  # scores 1*C, weighted sum 1*C
        assert sca.counted_attn_flops == 1 + 8

    def test_multi_head_counting_is_honest(self):
        # full-width attention meets the closed form for any head split, but
        # per-head strip scores cost heads * N^2, so the strip form is exact
        # only with a single head
        cfg = AttnConfig(n_q=16, n_kv=16, c_q=8, c_kv=8, heads=2, dim_head=4)
        sa = count_flops("sa", cfg)
        assert sa.counted_attn_flops == sa.closed_form_attn_flops == 4096
        sca = count_flops("sca", cfg)
        assert sca.closed_form_attn_flops == 16 * 16 + 16 * 16 * 8  # 2304
        assert sca.counted_attn_flops == 2 * 16 * 16 + 16 * 16 * 8  # 2560

    def test_total_includes_projections(self):
        cfg = AttnConfig(n_q=8, n_kv=8, c_q=16, c_kv=16, heads=1, dim_head=16)
        for kind in ("sa", "ca", "sca"):
            report = count_flops(kind, cfg)
            assert report.counted_total_flops > report.counted_attn_flops

    def test_strip_qk_activations_are_narrow(self):
        cfg = AttnConfig(n_q=32, n_kv=32, c_q=16, c_kv=16, heads=4, dim_head=4)
        vanilla = count_flops("ca", cfg)
        strip = count_flops("sca", cfg)
        assert vanilla.peak_qk_elems == 4 * 32 * 4  # heads * N * dim_head
        assert strip.peak_qk_elems == 4 * 32 * 1  # heads * N * 1
        assert strip.peak_qk_elems * cfg.dim_head == vanilla.peak_qk_elems


class TestSweep:
    def test_rows_per_config_per_mixer(self):
        rows = sweep([AttnConfig(4, 4, 8, 8, 1, 8)])
        assert len(rows) == 3
        assert [r["mixer"] for r in rows] == ["sa", "ca", "sca"]

    def test_empty_config_list_rejected(self):
        with pytest.raises(ValueError):
            sweep([])

    def test_duplicate_configs_give_identical_rows(self):
        cfg = AttnConfig(8, 8, 16, 16, 1, 16)
        rows = sweep([cfg, cfg])
        assert rows[:3] == rows[3:]

    def test_csv_schema(self):
        rows = sweep([AttnConfig(2, 3, 4, 5, 1, 4)])
        text = rows_to_csv(rows)
        lines = text.split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert text.endswith("\n") and "\r" not in text
        assert len(lines) == 5  # header + sa, ca, sca rows + trailing newline
        fields = lines[2].split(",")
        assert fields[0] == "ca"
        assert fields[1:7] == ["2", "3", "4", "5", "1", "4"]
        assert fields[-1] == ""  # untimed rows leave wall time empty

    def test_default_grid_covers_acceptance_axes(self):
        grid = default_grid()
        assert len(grid) == 20
        assert {c.n_q for c in grid} == {1, 4, 16, 64, 256}
        assert {c.c_q for c in grid} == {1, 8, 32, 128}
        assert all(c.heads == 1 for c in grid)


class TestBench:
    def test_small_bench_emits_sane_median(self):
        cfg = AttnConfig(n_q=8, n_kv=8, c_q=8, c_kv=8, heads=2, dim_head=4)
        result = bench_mixer("sca", cfg, repeats=9, warmup=2)
        assert result.wall_ns_median > 0

    def test_bench_repetition_floor(self):
        cfg = AttnConfig(4, 4, 4, 4, 1, 4)
        with pytest.raises(ValueError):
            bench_mixer("sa", cfg, repeats=5)
        with pytest.raises(ValueError):
            bench_mixer("sa", cfg, warmup=1)


class TestCaseChecks:
    FIELDS = dict(n_q=4, n_kv=4, c_q=8, c_kv=8, heads=1, dim_head=8)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("heads", 0, "heads: must be >= 1"),
            ("dim_head", 0, "dim_head: must be >= 1"),
            ("n_q", 4.0, "n_q: must be an integer"),
            ("c_q", -1, "c_q: must be >= 1"),
            ("n_kv", True, "n_kv: must be an integer"),
            ("c_kv", 2**64, "c_kv: kv input (1, 4, 18446744073709551616) holds "),
        ],
    )
    def test_attn_config_names_the_bad_field(self, field, value, message):
        with pytest.raises(ValueError) as info:
            AttnConfig(**{**self.FIELDS, field: value})
        assert str(info.value).startswith(message)

    def test_largest_score_factor_is_named(self):
        with pytest.raises(ValueError, match=r"^n_kv: kv scores "):
            AttnConfig(n_q=2**20, n_kv=2**41, c_q=1, c_kv=1, heads=1, dim_head=1)

    def test_bench_settings_need_heads_to_divide_channels(self):
        with pytest.raises(ValueError, match=r"^channels: "):
            BenchSettings(n_tokens=16, channels=8, heads=3, repeats=9, warmup=2)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("n_tokens", 0, "n_tokens: must be >= 1"),
            ("repeats", 8, "repeats: must be >= 9"),
            ("warmup", 1, "warmup: must be >= 2"),
            ("channels", 2**64, "channels: q input (1, 16, 18446744073709551616) holds "),
        ],
    )
    def test_bench_settings_name_the_bad_field(self, field, value, message):
        fields = dict(n_tokens=16, channels=8, heads=1, repeats=9, warmup=2)
        with pytest.raises(ValueError) as info:
            BenchSettings(**{**fields, field: value})
        assert str(info.value).startswith(message)

    def test_bench_case_is_square_and_split_over_heads(self):
        cfg = BenchSettings(n_tokens=16, channels=8, heads=2, repeats=9, warmup=2).attn_config()
        assert cfg == AttnConfig(n_q=16, n_kv=16, c_q=8, c_kv=8, heads=2, dim_head=4)


class TestDecodeMacs:
    def test_cross_layer_cost_strictly_increases(self):
        nested = [
            [False, False, False, True],
            [False, False, True, True],
            [False, True, True, True],
            [True, True, True, True],
        ]
        previous = 0
        for enabled in nested:
            cfg = resolve_config({"decoder": {"cross_layer_enabled": enabled}})
            macs = decode_macs(build_pyramid(cfg), build_decoder_params(cfg))
            assert macs > previous
            previous = macs
