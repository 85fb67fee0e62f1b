"""Property tests for the three input boundaries: spec JSON, complex text and suite configs.

Whatever JSON-like value arrives, each boundary either builds its object or
raises ConfigError or DomainError, never another exception.  Hypothesis
runs derandomized and without its example database, so every run of the
suite draws the same examples.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resolvent_lab import ConfigError, DomainError, SuiteConfig, eval_p, spec_from_dict
from resolvent_lab.cli import parse_complex

PROPERTY = settings(max_examples=120, derandomize=True, database=None, deadline=None)

# An explicit alphabet: hypothesis builds a default one from the utf-8 codec, which takes seconds.
ALPHABET = "".join(map(chr, range(32, 127))) + "\x00\t\n\u00e9\u00bd\u0663\u2212\u2009\U0001d7d9"
TEXT = st.text(alphabet=ALPHABET, max_size=6)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)
# any JSON number, with the extremes that overflow a sum or a float conversion
NUMBER = st.integers() | st.floats() | st.sampled_from([1e308, -1e308, 5e-324, 10**400])


def spec_dicts(number, weight):
    atom = st.fixed_dictionaries({"theta": number, "weight": weight})
    fields = {"atoms": st.lists(atom, min_size=1, max_size=4), "a": number, "scale": number, "gamma": number}
    return st.fixed_dictionaries(fields)


SPEC_FIELDS = ("atoms", "a", "scale", "gamma")
SPEC_INPUTS = st.one_of(
    JSON,
    st.dictionaries(st.sampled_from(SPEC_FIELDS), NUMBER | JSON),
    spec_dicts(NUMBER | JSON, NUMBER | JSON),
    spec_dicts(NUMBER, NUMBER),
)


@PROPERTY
@given(SPEC_INPUTS)
def test_spec_from_dict_builds_or_rejects(data):
    try:
        spec_from_dict(data)
    except (ConfigError, DomainError):
        pass


RING = np.concatenate([[0.0, 0.5, -0.5j], 0.9 * np.exp(2j * np.pi * np.arange(16) / 16)])


@PROPERTY
@given(spec_dicts(st.floats(-1e6, 1e6), NUMBER))
@example({"atoms": [{"theta": 0.0, "weight": 1e308}, {"theta": 1.0, "weight": 1e308}], "a": 0.0, "scale": 1.0,
          "gamma": 0.0})
@example({"atoms": [{"theta": 0.0, "weight": 1.0}], "a": 1e308, "scale": 1e308, "gamma": 0.0})
def test_loaded_spec_keeps_its_floor(data):
    # Re p >= a is the class invariant every bound rests on
    try:
        spec = spec_from_dict(data)
    except ConfigError:
        return
    p = eval_p(spec, RING)
    assert np.all(p.real >= spec.a - 1e-12 * np.abs(p)), (spec, p.real.min())


COMPLEX_TEXT = st.text(alphabet="0123456789.+-eEiIjJ naf()_", max_size=12) | st.text(alphabet=ALPHABET, max_size=12)


@PROPERTY
@given(COMPLEX_TEXT)
def test_parse_complex_builds_or_rejects(text):
    try:
        value = parse_complex(text)
    except ConfigError:
        return
    assert isinstance(value, complex)


FIELDS = [f.name for f in dataclasses.fields(SuiteConfig)]
CONFIG_VALUE = NUMBER | st.lists(NUMBER, max_size=4) | JSON


@PROPERTY
@given(st.dictionaries(st.sampled_from(FIELDS) | TEXT, CONFIG_VALUE, max_size=4) | JSON)
def test_config_from_dict_builds_or_rejects(data):
    try:
        cfg = SuiteConfig.from_dict(data)
    except ConfigError:
        return
    assert cfg.sample_config() is not None


@PROPERTY
@given(st.dictionaries(st.sampled_from(FIELDS), CONFIG_VALUE | st.tuples(NUMBER, NUMBER), max_size=4))
def test_direct_config_builds_or_rejects(kw):
    try:
        cfg = SuiteConfig(**kw)
    except ConfigError:
        return
    assert SuiteConfig.from_dict({k: list(v) if isinstance(v, tuple) else v for k, v in kw.items()}) == cfg
