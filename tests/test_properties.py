"""Property tests for the three input boundaries and for the closed forms over arrays.

Whatever JSON-like value arrives, each boundary (spec JSON, complex text,
suite configs) either builds its object or raises ConfigError or
DomainError, never another exception.  Each closed form of ``bounds``
gives on an array the bits of its scalar calls, and on an array with one
bad entry the DomainError of the scalar call on that entry; M1 and M2 match
a decimal reference.  Each rule on lambda, points, counts and t_end, and
the cap on composition counts, gives one wording at every entry point.
Hypothesis runs derandomized and without its example database, so every
run of the suite draws the same examples.
"""

import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resolvent_lab import (
    ConfigError,
    DomainError,
    SuiteConfig,
    composed_accretivity,
    distortion_at_critical_lambda,
    distortion_bound,
    est1_bound,
    eval_p,
    extremal_generator,
    integrate,
    integrate_composed,
    iterate_resolvent,
    ladder_gaps,
    region_boundary,
    resolvent_accretivity,
    rho_star,
    solve_resolvent,
    solve_resolvent_grid,
    spec_from_dict,
    starlike_main_margin,
    t_function,
    threshold_m1,
    threshold_m2,
)
from resolvent_lab.bounds import _certifying_conditions, _out, _t_refines
from resolvent_lab.cli import parse_complex
from resolvent_lab.exceptions import MAX_COMPOSITIONS

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
@example({"atoms": [{"theta": 0, "weight": 1}], "a": 0, "scale": 1e308, "gamma": 1e308})  # p overflows, q does not
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


def _conditions(q, a, lam):
    """calc_order's two conditions as one float per entry: 0 (neither), 1 (i) or 2 (ii)."""
    cond_i, cond_ii = _certifying_conditions(np.asarray(q, dtype=complex), np.asarray(a, dtype=float), lam)
    return _out(np.where(cond_i, 1.0, np.where(cond_ii, 2.0, 0.0)))


def _refines(q, a, lam, r):
    return _out(np.where(_t_refines(q, a, lam, r), 1.0, 0.0))


# Each closed form with the parameters it takes, named as in entry_columns; the public ones check their input.
PUBLIC_FORMS = [
    (distortion_bound, "q a lam"),
    (est1_bound, "q lam"),
    (composed_accretivity, "q a lam"),
    (resolvent_accretivity, "q a lam"),
    (rho_star, "q a lam"),
    (starlike_main_margin, "q a lam"),
    (t_function, "alpha beta r"),
    (threshold_m1, "q a"),
    (threshold_m2, "q lam"),
    (region_boundary, "s"),
    (distortion_at_critical_lambda, "q a"),
]
CLOSED_FORMS = PUBLIC_FORMS + [(_conditions, "q a lam"), (_refines, "q a lam r")]
# fewer examples than PROPERTY: 13 closed forms, each called once per entry of a grid
CLOSED_FORM_PROPERTY = settings(PROPERTY, max_examples=40)

# One valid entry: Re q, Im q, a as a share of Re q, lambda and a radius, over wide ranges so that the
# products written for powers see many exponents.
ENTRY = st.tuples(
    st.floats(1e-3, 1e3), st.floats(-1e3, 1e3), st.floats(0.0, 1.0), st.floats(1e-4, 1e4),
    st.floats(0.0, 1.0, exclude_max=True),
)
ENTRIES = st.lists(ENTRY, min_size=1, max_size=6)


def entry_columns(entries, grid=False) -> dict:
    """The entries as one array per parameter name; with ``grid``, q runs down a column and the rest along a row."""
    rq, iq, share, lam, r = (np.array(c) for c in zip(*entries))
    if grid:
        rq, iq = rq[:, None], iq[:, None]
    a = share * rq
    return {
        "q": rq + 1j * iq, "a": a, "lam": lam, "r": r,
        "alpha": lam * (rq - a), "beta": lam * a, "s": lam * rq,
    }


# Entries at which a power written with ``**`` in place of a product gives the array call other bits than the
# scalar call, in B, in the margin's square, in T's (1 - r)^2, and in (2 + s)^2 of t* (found by a search).
POWER_SENSITIVE = [
    (9.664293369800705, -0.30095697281386496, 0.13244582444802588, 1.5356373492058684, 0.7334272712203481),
    (1.175728452461893, 1.2506570499104037, 0.8089007985028196, 0.16814219420422014, 0.6330673434684018),
    (70.14934801616234, 23.585540430599526, 0.9145761879115151, 0.0011891427528792253, 0.7063340835232945),
    (10.887422370748164, -53.81472354597766, 0.7452119803571815, 8.943917676317152, 0.9846045872463653),
]


@CLOSED_FORM_PROPERTY
@pytest.mark.parametrize("fn,names", CLOSED_FORMS, ids=lambda v: getattr(v, "__name__", None))
@given(entries=ENTRIES)
@example(entries=POWER_SENSITIVE)
def test_array_call_is_the_scalar_calls_bit_for_bit(fn, names, entries):
    for grid in (False, True):
        args = [entry_columns(entries, grid)[n] for n in names.split()]
        got = np.asarray(fn(*args), dtype=float)
        assert got.shape == np.broadcast_shapes(*(x.shape for x in args))
        scalars = [fn(*row) for row in zip(*(x.ravel().tolist() for x in np.broadcast_arrays(*args)))]
        assert all(type(v) is float for v in scalars)
        assert got.ravel().tobytes() == np.array(scalars, dtype=float).tobytes()


NAN, INF = math.nan, math.inf
# Values that no closed form accepts for that parameter, whatever the other parameters are
BAD_VALUES = {
    "q": [complex(NAN, 0.0), complex(INF, 0.0), complex(1.0, -INF), -1.0],  # -1: Re q < a, and Re q <= 0
    "a": [-1.0, NAN, INF],
    "lam": [0.0, -1.0, NAN, INF, 1e200],  # 1e200: A and B overflow (M2, which has neither, takes it)
    "alpha": [-1.0, NAN, INF],
    "beta": [-1.0, NAN, INF],
    "r": [-0.5, 1.0, NAN, INF],
    "s": [0.0, -1.0, NAN, INF, 1e200],  # 1e200: t* overflows
}


@CLOSED_FORM_PROPERTY
@pytest.mark.parametrize("fn,names", PUBLIC_FORMS, ids=lambda v: getattr(v, "__name__", None))
@given(entries=ENTRIES, data=st.data())
def test_one_bad_entry_raises_the_scalar_error(fn, names, entries, data):
    cols = entry_columns(entries)
    names = names.split()
    name = data.draw(st.sampled_from(names))
    k = data.draw(st.integers(0, len(entries) - 1))
    bad = data.draw(st.sampled_from([v for v in BAD_VALUES[name] if (fn, v) != (threshold_m2, 1e200)]))
    args = [cols[n].copy() for n in names]
    args[names.index(name)][k] = bad
    with pytest.raises(DomainError) as scalar:
        fn(*(a[k].item() for a in args))
    with pytest.raises(DomainError) as array:
        fn(*args)
    assert str(array.value) == str(scalar.value)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_m1_overflow_raises_the_scalar_error(k):
    # M1 ~ 3.2e310 at Re q = 1e-310: a DomainError, like M2 and t* when they overflow, never inf
    q, a = np.array([1.0, 0.5 + 1.0j, 2.0]), np.array([0.25, 0.0, 1.0])
    q[k], a[k] = 1e-310, 0.0
    with pytest.raises(DomainError, match="M1 overflows a double") as scalar:
        threshold_m1(q[k].item(), a[k].item())
    with pytest.raises(DomainError) as array:
        threshold_m1(q, a)
    assert str(array.value) == str(scalar.value)
    # calc_order's condition (i) reads that M1 as "no lambda exceeds it", whatever lambda is
    assert not _certifying_conditions(q, a, np.full(3, 1e300))[0][k]


# M1 and M2 against their direct forms evaluated in decimal with 60 significant digits in the result: the
# working precision adds the digits that the direct form cancels, near a = Re q for M1 and at small
# s = lambda Re q for M2.  In double precision the direct forms lost every digit there.
REFERENCE_DIGITS = 60


def m1_reference(rq: float, a: float) -> decimal.Decimal:
    """(sqrt(5 Re^2 q - 4 a Re q) + Re q - 2a) / ((Re q + a) Re q), exact inputs, 60 significant digits."""
    lost = max(0, math.ceil(math.log10(rq / abs(rq - a)))) if rq != a else 0
    with decimal.localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS + lost + 5
        r, a = decimal.Decimal(rq), decimal.Decimal(a)
        return ((5 * r * r - 4 * a * r).sqrt() + r - 2 * a) / ((r + a) * r)


def m2_reference(rq: float, lam: float) -> decimal.Decimal:
    """((s+1) sqrt(2 s^2 + 4 s + 1) + s^2 + s - 1) / (lambda (2 + s)^2), s = lambda Re q, 60 significant digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 2000  # the exact product lambda Re q, to size the cancellation
        lam, s = decimal.Decimal(lam), decimal.Decimal(lam) * decimal.Decimal(rq)
        ctx.prec = REFERENCE_DIGITS + max(0, -s.adjusted()) + 5
        return ((s + 1) * (2 * s * s + 4 * s + 1).sqrt() + s * s + s - 1) / (lam * (2 + s) * (2 + s))


def assert_close_to(got: float, reference: decimal.Decimal) -> None:
    assert abs(decimal.Decimal(got) - reference) <= decimal.Decimal("2e-15") * abs(reference), (got, reference)


@PROPERTY
@given(log_rq=st.floats(-300.0, 300.0), share=st.floats(0.0, 1.2))
@example(log_rq=0.0, share=0.9999999999999999)  # the direct form was off by half
@example(log_rq=5.0, share=0.9999999999999)
@example(log_rq=0.0, share=1.0)  # M1 = 0
def test_m1_matches_a_decimal_reference(log_rq, share):
    # a <= 1.2 Re q: towards a = 1.25 Re q the square root makes M1 ill-conditioned in a
    rq = 10.0**log_rq
    a = rq * share
    m1 = threshold_m1(rq, a)
    if a == rq:
        assert m1 == 0.0
    else:
        assert_close_to(m1, m1_reference(rq, a))


@PROPERTY
@given(log_rq=st.floats(-150.0, 150.0), log_s=st.floats(-150.0, 150.0))
@example(log_rq=-20.0, log_s=-20.0)  # lambda = 1, s = 1e-20: the direct form gave M2 = 0
@example(log_rq=-9.0, log_s=-18.0)
@example(log_rq=0.0, log_s=160.0)  # s^2 overflows: M2 raised "M2 overflows a double" here
def test_m2_matches_a_decimal_reference(log_rq, log_s):
    rq, lam = 10.0**log_rq, 10.0 ** (log_s - log_rq)
    assert_close_to(threshold_m2(rq, lam), m2_reference(rq, lam))


# One rule, one wording: each entry point that takes lambda, a point or a count applies the one rule of
# ``exceptions``, so the same bad input gives the same DomainError message wherever it enters.
SPEC = extremal_generator(1.0, 0.0)
LAMBDA_ENTRIES = [
    lambda lam: distortion_bound(1.0, 0.0, lam),
    lambda lam: solve_resolvent_grid(SPEC, lam, [0.5]),
    lambda lam: solve_resolvent(SPEC, lam, 0.5),
    lambda lam: integrate_composed(SPEC, lam, 0.5, 1.0),
]
POINT_ENTRIES = [
    lambda z: eval_p(SPEC, z),
    lambda z: solve_resolvent_grid(SPEC, 1.0, z),
    lambda z: integrate(SPEC, z, 1.0),
]
# each count entry point with the name and the minimum of its count
COUNT_ENTRIES = [
    (lambda n: iterate_resolvent(SPEC, 0.1, 0.5, n), "composition count", 1),
    (lambda n: ladder_gaps(SPEC, 0.5, 1.0, ns=(n,)), "composition count", 1),
    (lambda n: integrate(SPEC, 0.5, 1.0, n_eval=n), "n_eval", 2),
]


def _message(call, value) -> str:
    with pytest.raises(DomainError) as info:
        call(value)
    return str(info.value)


@pytest.mark.parametrize("lam", [0.0, -1.0, NAN, INF])
def test_one_lambda_rule_one_wording(lam):
    assert {_message(call, lam) for call in LAMBDA_ENTRIES} == {f"lambda must be positive and finite, got {lam}"}


@pytest.mark.parametrize("z", [1.0, complex(NAN, 0.0)])
def test_one_point_rule_one_wording(z):
    expected = f"points must lie in the open unit disk, got |z| = {abs(z)}"
    assert {_message(call, z) for call in POINT_ENTRIES} == {expected}


@pytest.mark.parametrize("n", [2.7, 2.0, True, 0])
@pytest.mark.parametrize("call,name,minimum", COUNT_ENTRIES,
                         ids=["iterate_resolvent", "ladder_gaps", "integrate"])
def test_one_count_rule_one_wording(call, name, minimum, n):
    assert _message(call, n) == f"{name} must be an integer >= {minimum}, got {n!r}"


# each entry point that takes a flow's end time; a suite config raises ConfigError, the others DomainError
T_END_ENTRIES = [
    lambda t: integrate(SPEC, 0.5, t),
    lambda t: integrate_composed(SPEC, 1.0, 0.5, t),
    lambda t: ladder_gaps(SPEC, 0.5, t),
    lambda t: SuiteConfig(t_end=t),
]


@pytest.mark.parametrize("t", [-1.0, -1, -INF, INF, NAN])
def test_one_t_end_rule_one_wording(t):
    messages = set()
    for call in T_END_ENTRIES:
        with pytest.raises((DomainError, ConfigError)) as info:
            call(t)
        messages.add(str(info.value))
    assert messages == {f"t_end must be finite and >= 0, got {float(t)}"}


# each entry point that takes a composition count; a suite config raises ConfigError, the others DomainError
CAP_ENTRIES = [
    lambda n: iterate_resolvent(SPEC, 0.1, 0.5, n),
    lambda n: ladder_gaps(SPEC, 0.5, 1.0, ns=(n,)),
    lambda n: SuiteConfig(ladder=(n,)),
]


@pytest.mark.parametrize("n", [MAX_COMPOSITIONS + 1, 2**40, 2**70])
def test_one_composition_cap_one_wording(n):
    messages = set()
    for call in CAP_ENTRIES:
        with pytest.raises((DomainError, ConfigError)) as info:
            call(n)
        messages.add(str(info.value))
    assert messages == {f"composition count must be at most {MAX_COMPOSITIONS}, got {n!r}"}
    assert SuiteConfig(ladder=(MAX_COMPOSITIONS // 2, MAX_COMPOSITIONS)).ladder[-1] == MAX_COMPOSITIONS
