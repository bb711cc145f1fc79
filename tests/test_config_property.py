"""Property: no config document makes `stripseg forward` crash or lie.

Random documents mix valid settings with wrong types, zeros, negatives,
NaN/inf, huge integers and unknown keys. Whatever the document, forward must
return an exit code (0, 2 or 3) instead of raising, exit 0 must leave a finite
mask, and a failed run must leave no output directory. Pyramids stay at most
64x64 with small channels, and the only huge sizes are ones numpy refuses at
once, so no example allocates much or runs long.

The same values at the library boundary: an AttnConfig is either refused
with a ValueError that names a field, or every mixer's cost can be counted.
"""

import functools
import json
import math
import operator
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from stripseg.analysis import AttnConfig, count_flops
from stripseg.attention import MIXER_KINDS
from stripseg.cli import main
from stripseg.scat import load_scat

HUGE = 10**400  # beyond the float range, so float() overflows

# JSON values of every kind; each is invalid for some field, and a size that
# is huge fails at once instead of allocating. Zero and -1, the likeliest
# mistakes, are drawn half the time.
ODD = st.one_of(
    st.sampled_from([0, -1]),
    st.sampled_from(
        [None, "1", "", [], {}, [1], True, False, 3, 1.5, 2.0, 1e-300, 1e300,
         math.nan, math.inf, -math.inf, 2**64, -(2**64), HUGE, -HUGE]
    ),
)


def stages(entry):
    return st.lists(entry, min_size=4, max_size=4)


def section(**fields):
    return st.fixed_dictionaries({}, optional=fields)


POSITIVE = st.one_of(st.floats(5e-324, 1e300), st.sampled_from([1, 10**300]))
SEED = st.one_of(st.integers(0, 2**64 + 5), st.just(HUGE))
VALID = section(
    pyramid=section(
        height=st.sampled_from([32, 64]),
        width=st.sampled_from([32, 64]),
        channels=stages(st.sampled_from([4, 8])),
        batch=st.sampled_from([1, 2]),
        seed=st.one_of(st.none(), SEED),
    ),
    decoder=section(
        mixer=st.sampled_from(["sa", "ca", "sca"]),
        num_classes=st.sampled_from([1, 3]),
        heads=stages(st.sampled_from([1, 2])),
        dim_head=st.sampled_from([1, 4]),
        mlp_expansion=st.sampled_from([1, 2]),
        lpm_enabled=st.booleans(),
        lpm_reduction=st.sampled_from([1, 2, 4]),
        cross_layer_enabled=stages(st.booleans()),
        layernorm_eps=POSITIVE,
        attn_scale=st.one_of(st.none(), POSITIVE),
        init_std=st.one_of(st.just(0), POSITIVE),
    ),
    bench=section(n_tokens=st.just(16), channels=st.just(8), heads=st.sampled_from([1, 2])),
    sweep=st.one_of(st.none(), st.lists(section(n_q=st.just(4), heads=st.just(1)), min_size=1, max_size=2)),
    seed=SEED,
    output_dir=st.just("out"),
)


def positions(node, path=()):
    """The path of every value in a document, the document itself first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from positions(child, path + (key,))


@st.composite
def documents(draw):
    """A valid document with up to two values broken: replaced by an ODD
    value, given an unknown key or, if a list, padded to five entries."""
    holder = {"doc": draw(VALID)}
    for _ in range(draw(st.integers(0, 2))):
        *path, key = draw(st.sampled_from(list(positions(holder))[1:]))
        parent = functools.reduce(operator.getitem, path, holder)
        target = parent[key]
        if isinstance(target, dict) and draw(st.booleans()):
            target["unknown"] = 1
        elif isinstance(target, list) and draw(st.booleans()):
            target.extend([1] * (5 - len(target)))
        else:
            parent[key] = draw(ODD)
    return holder["doc"]


# Huge weights overflow on purpose; those runs must exit 3, so numpy's warnings are expected.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(doc=documents())
def test_forward_exits_cleanly_on_any_document(doc):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        out = Path(tmp) / "run"
        code = main(["forward", "--config", str(config), "--out", str(out)])
        event(f"exit {code}")
        assert code in (0, 2, 3)
        if code == 0:
            assert np.isfinite(load_scat(out / "mask.scat")).all()
        else:
            assert not out.exists()


CASE_FIELDS = ("n_q", "n_kv", "c_q", "c_kv", "heads", "dim_head")


@st.composite
def case_fields(draw):
    """AttnConfig fields of at most 4, with up to two replaced by ODD values;
    returns the fields and the names of those replaced."""
    values = {name: draw(st.integers(1, 4)) for name in CASE_FIELDS}
    replaced = draw(st.lists(st.sampled_from(CASE_FIELDS), max_size=2, unique=True))
    for name in replaced:
        values[name] = draw(ODD)
    return values, replaced


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(case=case_fields())
def test_attn_config_is_refused_by_field_or_counted(case):
    values, replaced = case
    try:
        cfg = AttnConfig(**values)
    except ValueError as exc:
        event("refused")
        assert str(exc).split(": ", 1)[0] in replaced
        return
    event("counted")
    for mixer in MIXER_KINDS:
        assert count_flops(mixer, cfg).counted_attn_flops > 0
