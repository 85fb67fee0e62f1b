"""Property tests for the three input boundaries and for the closed forms over arrays.

Whatever JSON-like value arrives, each boundary (spec JSON, complex text,
suite configs) either builds its object or raises ConfigError or
DomainError, never another exception.  Each closed form of ``bounds``
gives on an array the bits of its scalar calls, and on an array with one
bad entry the DomainError of the scalar call on that entry; each matches
its direct form in decimal arithmetic, within a stated bound.  Each rule
on lambda, points, counts, t_end, q, the floor a and Re q >= a, the cap on
composition counts, and the rule on a spec's numbers, gives one wording at
every entry point.
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
    GeneratorSpec,
    SuiteConfig,
    composed_accretivity,
    constant_generator,
    distortion_at_critical_lambda,
    distortion_bound,
    est1_bound,
    eval_p,
    extremal_generator,
    harnack_bounds,
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
    value_disk,
)
from resolvent_lab.bounds import _certifying_conditions, _t_refines
from resolvent_lab.cli import parse_complex
from resolvent_lab.exceptions import MAX_COMPOSITIONS, _out

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
    assert SuiteConfig.from_dict(dataclasses.asdict(cfg)) == cfg


@PROPERTY
@given(st.dictionaries(st.sampled_from(FIELDS), CONFIG_VALUE | st.tuples(NUMBER, NUMBER), max_size=4))
def test_direct_config_builds_or_rejects(kw):
    try:
        cfg = SuiteConfig(**kw)
    except ConfigError:
        return
    assert SuiteConfig.from_dict(dataclasses.asdict(cfg)) == cfg


def _conditions(q, a, lam):
    """calc_order's two conditions as one float per entry: 0 (neither), 1 (i) or 2 (ii)."""
    cond_i, cond_ii = _certifying_conditions(np.asarray(q, dtype=complex), np.asarray(a, dtype=float), lam)
    return _out(np.where(cond_i, 1.0, np.where(cond_ii, 2.0, 0.0)))


def _refines(q, a, lam, r):
    return _out(np.where(_t_refines(q, a, lam, r), 1.0, 0.0))


# The value disk's radius and the upper Harnack bound of one spec, one float per radius, so that they fit the table
DISK_SPEC = GeneratorSpec(atoms=((0.3, 1.0), (2.0, 2.0)), a=0.2, scale=0.7, gamma=-0.4)


def value_disk_radius(r):
    return value_disk(DISK_SPEC, r)[1]


def harnack_upper(r):
    return harnack_bounds(DISK_SPEC, r)[1]


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
    (value_disk_radius, "r"),
    (harnack_upper, "r"),
]
CLOSED_FORMS = PUBLIC_FORMS + [(_conditions, "q a lam"), (_refines, "q a lam r")]
# fewer examples than PROPERTY: 15 closed forms, each called once per entry of a grid
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


def to_decimal(*values):
    return tuple(decimal.Decimal(v) for v in values)


def qal_reference(q: complex, a: float, lam: float):
    """Re q, Im q, a and lambda as exact decimals, with m = |1 - lambda q|^2, A and B in the current context."""
    rq, iq, a, lam = to_decimal(q.real, q.imag, a, lam)
    m = (1 - lam * rq) ** 2 + (lam * iq) ** 2
    return rq, iq, a, lam, m, m + 4 * lam * a + 1, (m - 1) ** 2 + 8 * lam**3 * a * (rq * rq + iq * iq)


# (q, a, lambda) draws with tiny to large Re q, extreme lambda, and a at 0, at Re q and between
QAL_DRAWS = dict(log_rq=st.floats(-6.0, 3.0), ratio=st.floats(-10.0, 10.0), log_lam=st.floats(-12.0, 8.0),
                 share=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))


def qal(log_rq, ratio, log_lam, share):
    rq = 10.0**log_rq
    return complex(rq, rq * ratio), rq * share, 10.0**log_lam


def w_rounding(q, a, lam):
    """The rounding of w = lambda |q|^2 - 2 Re q, eps times its terms' sizes, as it reaches a_lambda through
    1 / (S (1 + d)) = d^2 / (2 (1 + d)); w cancels near lambda |q|^2 = 2 Re q."""
    d = distortion_bound(q, a, lam)
    return 2.0 * np.finfo(float).eps * (lam * abs(q) ** 2 + 2.0 * q.real) * d * d / (1.0 + d)


def a_lambda_reference(q: complex, a: float, lam: float) -> decimal.Decimal:
    """(1 - sqrt(2 / (A + sqrt(B)))) / lambda, the direct form, at exact inputs and 2000 digits, far more than 1 - d
    cancels on these draws."""
    with decimal.localcontext() as ctx:
        ctx.prec = 2000
        *_, lam, m, A, B = qal_reference(q, a, lam)
        return (1 - (2 / (A + B.sqrt())).sqrt()) / lam


@PROPERTY
@given(**QAL_DRAWS)
@example(log_rq=0.0, ratio=0.0, log_lam=-9.0, share=0.5)  # the direct form gave 0.50000004137 for 0.499999999875
@example(log_rq=-4.886, ratio=-3.85, log_lam=-9.96, share=0.0315)  # and 1.01e-6 for 4.10e-7 here
@example(log_rq=127.5, ratio=0.0, log_lam=-100.0, share=0.0)  # w^2 overflows a double, sqrt(w^2 + c) is inf
def test_a_lambda_matches_a_decimal_reference(log_rq, ratio, log_lam, share):
    q, a, lam = qal(log_rq, ratio, log_lam, share)
    reference = a_lambda_reference(q, a, lam)
    # within 2e-15 relative, plus the rounding of w where w cancels
    error = abs(decimal.Decimal(composed_accretivity(q, a, lam)) - reference)
    assert error <= decimal.Decimal("2e-15") * reference + decimal.Decimal(w_rounding(q, a, lam)), (q, a, lam)


def d_lambda_reference(q: complex, a: float, lam: float) -> decimal.Decimal:
    """(Re C - R) / (|C|^2 - R^2) at tau = min(d, 1 - 1e-9), the direct form on the value disk's center and radius,
    at exact inputs and 2000 digits, far more than |C|^2 - R^2 cancels on these draws."""
    with decimal.localcontext() as ctx:
        ctx.prec = 2000
        rq, iq, a, lam, m, A, B = qal_reference(q, a, lam)
        tau = min((2 / (A + B.sqrt())).sqrt(), 1 - decimal.Decimal(1e-9))
        t2 = tau * tau
        C = 1 + lam * (rq + t2 * rq - 2 * a * t2) / (1 - t2)  # its real part; Im C = lambda Im q
        R = lam * 2 * tau * (rq - a) / (1 - t2)
        return (C - R) / (C * C + (lam * iq) ** 2 - R * R)


@PROPERTY
@given(**QAL_DRAWS)
@example(log_rq=-4.9, ratio=0.0, log_lam=5.1, share=0.0)  # the |C|^2 - R^2 form was off by 1.6e-7 relative
@example(log_rq=-3.672, ratio=-2.078, log_lam=-4.921, share=0.463)  # and by 5.4e-8 here
@example(log_rq=0.0, ratio=0.0, log_lam=0.0, share=0.0)  # tau_hat = 1, clamped to 1 - 1e-9
def test_d_lambda_matches_a_decimal_reference(log_rq, ratio, log_lam, share):
    q, a, lam = qal(log_rq, ratio, log_lam, share)
    reference = d_lambda_reference(q, a, lam)
    # within 3e-15 relative, plus a_lambda's rounding of w relative to the gap 1 - tau_hat = lambda a_lambda, which
    # carries into d_lambda at most twice over
    gap = max(lam * composed_accretivity(q, a, lam), 1e-9)
    error = abs(decimal.Decimal(resolvent_accretivity(q, a, lam)) - reference)
    assert error <= decimal.Decimal(3e-15 + 2.0 * lam * w_rounding(q, a, lam) / gap) * reference, (q, a, lam)


# The other closed forms against their direct forms at exact inputs in decimal, 100 digits, more than any of them
# cancels on these draws; each bound is a few times the worst error measured on random draws.
REFERENCE_CONTEXT = decimal.Context(prec=100)


@PROPERTY
@given(**QAL_DRAWS)
@example(log_rq=-103.0, ratio=0.0, log_lam=103.0, share=0.1)  # lambda^3 overflows a double, B does not
def test_distortion_and_rho_star_match_a_decimal_reference(log_rq, ratio, log_lam, share):
    q, a, lam = qal(log_rq, ratio, log_lam, share)
    with decimal.localcontext(REFERENCE_CONTEXT):
        rq, _, a_, lam_, _, A, B = qal_reference(q, a, lam)
        distortion = (2 / (A + B.sqrt())).sqrt()
        s = (1 + lam_ * rq).sqrt()
        radius = s / ((2 * lam_ * (rq - a_)).sqrt() + s)
    assert_close_to(distortion_bound(q, a, lam), distortion)
    assert_close_to(rho_star(q, a, lam), radius)


@PROPERTY
@given(**QAL_DRAWS)
def test_starlike_main_margin_matches_a_decimal_reference(log_rq, ratio, log_lam, share):
    # the margin is a difference of terms of the size of A + sqrt(B), so the bound is relative to that size
    q, a, lam = qal(log_rq, ratio, log_lam, share)
    with decimal.localcontext(REFERENCE_CONTEXT):
        rq, _, a_, lam_, _, A, B = qal_reference(q, a, lam)
        size = A + B.sqrt()
        reference = size - 2 * ((2 * lam_ * (rq - a_) / (1 + lam_ * rq)).sqrt() + 1) ** 2
        error = abs(decimal.Decimal(starlike_main_margin(q, a, lam)) - reference)
        assert error <= decimal.Decimal("4e-15") * size, (q, a, lam)


@PROPERTY
@given(log_alpha=st.floats(-100.0, 100.0), log_beta=st.none() | st.floats(-100.0, 100.0),
       r=st.floats(-100.0, -1.0).map(lambda x: 10.0**x) | st.floats(-15.5, 0.0).map(lambda x: 1.0 - 10.0**x))
@example(log_alpha=0.0, log_beta=None, r=1.0 - 1e-10)  # 1 - r^2 cancelled: off by 5.0e-11 relative
def test_t_function_matches_a_decimal_reference(log_alpha, log_beta, r):
    alpha, beta = 10.0**log_alpha, 0.0 if log_beta is None else 10.0**log_beta
    with decimal.localcontext(REFERENCE_CONTEXT):
        al, be, rr = to_decimal(alpha, beta, r)
        reference = 2 * al * rr / ((1 + be) * (1 - rr) ** 2 + al * (1 - rr * rr))
    assert_close_to(t_function(alpha, beta, r), reference)


@PROPERTY
@given(log_rq=st.floats(-150.0, 150.0), ratio=st.floats(-10.0, 10.0), log_s=st.floats(-12.0, 8.0))
def test_est1_matches_a_decimal_reference(log_rq, ratio, log_s):
    # s = lambda Re q
    rq = 10.0**log_rq
    q, lam = complex(rq, rq * ratio), 10.0 ** (log_s - log_rq)
    with decimal.localcontext(REFERENCE_CONTEXT):
        rq, iq, lam = to_decimal(q.real, q.imag, lam)
        far = ((1 - lam * rq) ** 2 + (lam * iq) ** 2).sqrt()
        reference = decimal.Decimal(1) if lam * (rq * rq + iq * iq) <= 2 * rq else 1 / far
    assert_close_to(est1_bound(q, lam), reference)


@PROPERTY
@given(log_rq=st.floats(-300.0, 300.0), ratio=st.floats(-10.0, 10.0), share=st.floats(0.0, 1.0))
def test_distortion_at_critical_lambda_matches_a_decimal_reference(log_rq, ratio, share):
    rq = 10.0**log_rq
    q, a = complex(rq, rq * ratio), rq * share
    with decimal.localcontext(REFERENCE_CONTEXT):
        rq, iq, a = to_decimal(q.real, q.imag, a)
        qq = rq * rq + iq * iq
        lam0 = 2 * rq / qq
        reference = 1 / (2 * lam0 * a + 1 + lam0 * qq.sqrt() * (2 * lam0 * a).sqrt()).sqrt()
    assert_close_to(distortion_at_critical_lambda(q, a), reference)


@PROPERTY
@given(s=st.floats(-10.0, 150.0).map(lambda x: 10.0**x) | st.floats(3.0, 3.5))
@example(s=1.0 + math.sqrt(5.0))  # the root of t*
def test_region_boundary_matches_a_decimal_reference(s):
    # near its root t* is a difference of near-equal terms, so the bound is relative to their size
    with decimal.localcontext(REFERENCE_CONTEXT):
        (x,) = to_decimal(s)
        reference = (4 + 2 * x - x * x) / ((2 + x) * (2 + x))
        size = (4 + 2 * x + x * x) / ((2 + x) * (2 + x))
        assert abs(decimal.Decimal(region_boundary(s)) - reference) <= decimal.Decimal("4e-15") * size, s


# One rule, one wording: each entry point that takes lambda, a point, a count, q or a applies the one rule of
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
# each count entry point with the name of its count
COUNT_ENTRIES = [
    (lambda n: iterate_resolvent(SPEC, 0.1, 0.5, n), "composition count"),
]


def _message(call, value, error=DomainError) -> str:
    with pytest.raises(error) as info:
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
@pytest.mark.parametrize("call,name", COUNT_ENTRIES, ids=["iterate_resolvent"])
def test_one_count_rule_one_wording(call, name, n):
    assert _message(call, n) == f"{name} must be an integer >= 1, got {n!r}"


# each entry point that takes a flow's end time
T_END_ENTRIES = [
    lambda t: integrate(SPEC, 0.5, t),
    lambda t: integrate_composed(SPEC, 1.0, 0.5, t),
    lambda t: ladder_gaps(SPEC, 0.5, t),
]


@pytest.mark.parametrize("t", [-1.0, -1, -INF, INF, NAN])
def test_one_t_end_rule_one_wording(t):
    assert {_message(call, t) for call in T_END_ENTRIES} == {f"t_end must be finite and >= 0, got {float(t)}"}


# each entry point that takes a composition count
CAP_ENTRIES = [
    lambda n: iterate_resolvent(SPEC, 0.1, 0.5, n),
]


@pytest.mark.parametrize("n", [MAX_COMPOSITIONS + 1, 2**40, 2**70])
def test_one_composition_cap_one_wording(n):
    expected = f"composition count must be at most {MAX_COMPOSITIONS}, got {n!r}"
    assert {_message(call, n) for call in CAP_ENTRIES} == {expected}


# each entry point that takes q, and each that takes the floor a, with the other arguments valid
Q_ENTRIES = [
    lambda q: distortion_bound(q, 0.0, 1.0),
    lambda q: threshold_m1(q, 0.0),
    lambda q: extremal_generator(q, 0.0),
    lambda q: constant_generator(q),
]
A_ENTRIES = [
    lambda a: distortion_bound(1.0, a, 1.0),
    lambda a: threshold_m1(1.0, a),
    lambda a: extremal_generator(1.0, a),
]


@pytest.mark.parametrize("q", [complex(NAN, 0.0), complex(INF, 0.0), complex(1.0, -INF)])
def test_one_q_rule_one_wording(q):
    assert {_message(call, q) for call in Q_ENTRIES} == {f"q must be finite, got {q}"}


@pytest.mark.parametrize("a", [-1.0, NAN, INF])
def test_one_floor_rule_one_wording(a):
    assert {_message(call, a) for call in A_ENTRIES} == {f"accretivity floor must be finite and >= 0, got a = {a}"}


@pytest.mark.parametrize("q,a", [(-1.0, 0.0), (complex(-2.0, 3.0), 0.0), (0.25, 0.5)])
def test_one_class_rule_one_wording(q, a):
    entries = [lambda q: distortion_bound(q, a, 1.0), lambda q: extremal_generator(q, a)]
    entries += [constant_generator] if a == 0.0 else []  # p == q meets the rule at a = 0
    expected = f"need Re q >= a, got Re q = {complex(q).real}, a = {a}"
    assert {_message(call, q) for call in entries} == {expected}


def spec_with(name, value):
    """GeneratorSpec's keyword arguments and the spec's JSON form, with ``value`` as the number called ``name``."""
    theta, weight = {"atom angle": (value, 1.0), "atom weight": (0.0, value)}.get(name, (0.0, 1.0))
    kwargs = {"atoms": ((theta, weight),), "a": 0.0, "scale": 1.0, "gamma": 0.0}
    if name in kwargs:
        kwargs[name] = value
    return kwargs, kwargs | {"atoms": [{"theta": theta, "weight": weight}]}


@pytest.mark.parametrize("value", ["0.5", True, None, 10**400], ids=["text", "bool", "null", "huge-int"])
@pytest.mark.parametrize("name", ["atom angle", "atom weight", "a", "scale", "gamma"])
def test_one_spec_number_rule_one_wording(name, value):
    kwargs, data = spec_with(name, value)
    messages = {_message(lambda kw: GeneratorSpec(**kw), kwargs, ConfigError),
                _message(spec_from_dict, data, ConfigError)}
    assert messages == {f"{name} must be a finite real number, got {value!r}"}


# each entry point that broadcasts lambda against z, with what else its message names
BROADCAST_ENTRIES = [
    (lambda lam, z: solve_resolvent_grid(SPEC, lam, z), ""),
    (lambda lam, z: iterate_resolvent(SPEC, lam, z, 2), ", composition count of shape ()"),
]


@pytest.mark.parametrize("call,rest", BROADCAST_ENTRIES, ids=["solve_resolvent_grid", "iterate_resolvent"])
def test_one_broadcast_rule_one_wording(call, rest):
    expected = f"shapes do not broadcast: lambda of shape (2,), z of shape (3,){rest}"
    assert _message(lambda args: call(*args), ([1.0, 2.0], [0.1, 0.2, 0.3])) == expected
