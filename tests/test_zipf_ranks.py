"""The Zipf rank array against the (rank, value) list reference.

zipf_ranks returns the values sorted descending, with rank i + 1 implicit
at index i; fit_zipf_exponent fits a slice of that array and
write_ranks_csv writes it with np.arange ranks. The reference below is the
earlier implementation, which built a list of (rank, value) tuples with a
stable Python sort and filtered it by rank. On any finite sample both must
give the same bits, the same file bytes and equal fits, or raise the same
error with the same message.

write_ranks_csv writes any array of values in rank order, finite or not,
as the one rank table of its sample; the reference for its bytes is
panel.write_table of np.arange ranks and the array, the path it replaced.
"""

from __future__ import annotations

import tempfile
from operator import itemgetter
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from debtkit import distributions as dist
from debtkit import errors
from debtkit.panel import _WRITE_ROWS, write_table
from debtkit.regress import ols


# ------------------------------------------------------ list reference

def _ref_zipf_ranks(samples):
    values = [float(v) for v in samples]
    if not values:
        raise errors.EmptySample("rank plot needs at least one sample")
    ordered = sorted(values, key=lambda v: -v)
    return [(rank, value) for rank, value in enumerate(ordered, start=1)]


def _ref_fit_zipf_exponent(ranked, rank_window=None):
    if not ranked:
        raise errors.EmptySample("no ranked values")
    if rank_window is None:
        rank_window = (1, max(r for r, _ in ranked))
    r_lo, r_hi = int(rank_window[0]), int(rank_window[1])
    if r_lo < 1 or r_hi < r_lo:
        raise ValueError(f"bad rank window ({r_lo}, {r_hi})")
    window = [(r, v) for r, v in ranked if r_lo <= r <= r_hi]
    if len(window) < 3:
        raise errors.WindowTooSmall(
            f"window [{r_lo}, {r_hi}] holds {len(window)} ranks; need >= 3")
    if any(v <= 0 for _, v in window):
        raise errors.NonPositiveInWindow(
            f"window [{r_lo}, {r_hi}] contains values <= 0")
    fit = ols(np.log([r for r, _ in window]), np.log([v for _, v in window]))
    zeta = -fit.slope
    if zeta <= 0:
        raise errors.DegenerateSample(
            "values do not decay across the rank window; zeta would be <= 0")
    return dist.ZipfFit(zeta=zeta, rank_window=(r_lo, r_hi),
                        r_squared=fit.r_squared,
                        implied_pdf_exponent=1.0 + 1.0 / zeta)


def _ref_write_ranks_csv(ranked, path, header_comment=None):
    write_table(path, ["rank", "value"],
                [list(map(itemgetter(i), ranked)) for i in (0, 1)],
                header_comment)


def _outcome(fn, *args):
    """The result of fn(*args), or the class and message of what it raised."""
    try:
        return fn(*args)
    except (errors.DebtkitError, ValueError) as exc:
        return type(exc), str(exc)


# ------------------------------------------------------ random samples

_MAX = np.finfo(float).max
_TINY = np.finfo(float).tiny  # the smallest normal float
# ties, both zeros, subnormals and values near the float maximum
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, _TINY / 3, _TINY, 1.0, 2.0, -1.0,
            _MAX, -_MAX, np.nextafter(_MAX, 0.0)]

_values = st.one_of(st.sampled_from(_SPECIAL),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(min_value=1e-3, max_value=1e3))


@st.composite
def _samples(draw):
    """Finite samples drawn from a small pool, so that values tie."""
    pool = draw(st.lists(_values, min_size=1, max_size=8))
    if draw(st.booleans()):
        # 0.0 == -0.0, so the order of the two zeros shows the order of ties
        pool += [0.0, -0.0]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))


@settings(derandomize=True, database=None, max_examples=300)
@given(samples=_samples(), data=st.data())
def test_rank_array_equals_pair_list_reference(samples, data):
    ranked = dist.zipf_ranks(samples)
    ref = _ref_zipf_ranks(samples)
    n = len(ref)
    # bit for bit: hex tells -0.0 from 0.0, so the order of zeros is checked
    assert [v.hex() for v in ranked.tolist()] == [v.hex() for _, v in ref]

    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp, "ours.csv"), Path(tmp, "theirs.csv")
        dist.write_ranks_csv(ranked, ours, header_comment="stamp")
        _ref_write_ranks_csv(ref, theirs, header_comment="stamp")
        assert ours.read_bytes() == theirs.read_bytes()

    # windows at both ends, past n, reversed and starting at rank 0
    lo = data.draw(st.integers(0, n + 3))
    hi = data.draw(st.integers(0, n + 3))
    for window in (None, (1, hi), (lo, n), (lo, hi), (lo, n + 5), (1, n)):
        assert (_outcome(dist.fit_zipf_exponent, ranked, window)
                == _outcome(_ref_fit_zipf_exponent, ref, window)), window


def test_empty_sample_raises_as_reference():
    assert (_outcome(dist.zipf_ranks, [])
            == _outcome(_ref_zipf_ranks, []))
    assert (_outcome(dist.fit_zipf_exponent, [], None)
            == _outcome(_ref_fit_zipf_exponent, [], None))


# ------------------------------------------------------ any ranked array

_NOT_FINITE = [np.nan, np.inf, -np.inf, -0.0]


@st.composite
def _ranked_arrays(draw):
    """An int64 array, or a float64 array holding NaN, +-inf and -0.0,
    longer than one block of write_table's rows and drawn from a small
    pool, so that values repeat."""
    if draw(st.booleans()):
        pool = np.array(draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                      min_size=1, max_size=8)), np.int64)
    else:
        pool = np.array(draw(st.lists(_values, max_size=8)) + _NOT_FINITE)
    n = draw(st.integers(_WRITE_ROWS + 1, 2 * _WRITE_ROWS + 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.choice(pool, n)
    if values.dtype == float:  # every value that is not finite, and -0.0
        values[rng.choice(n, len(_NOT_FINITE), replace=False)] = _NOT_FINITE
    return values


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(ranked=_ranked_arrays(),
       header_comment=st.sampled_from([None, "", "stamp"]))
def test_ranked_array_written_as_write_table_writes_it(ranked, header_comment):
    n = len(ranked)
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp, "ours.csv"), Path(tmp, "theirs.csv")
        dist.write_ranks_csv(ranked, ours, header_comment=header_comment)
        write_table(theirs, ["rank", "value"], [np.arange(1, n + 1), ranked],
                    header_comment)
        assert ours.read_bytes() == theirs.read_bytes()


def test_list_of_ints_and_floats_is_written_as_floats(tmp_path):
    # the values are taken by np.asarray, as fit_zipf_exponent takes them
    dist.write_ranks_csv([3, 2.5, 1], tmp_path / "z.csv")
    assert (tmp_path / "z.csv").read_bytes() == (
        b"rank,value\r\n1,3.0\r\n2,2.5\r\n3,1.0\r\n")
