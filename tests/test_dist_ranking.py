"""`dist` ranks each sample once for every income group, against the per-set path.

With or without --group, `cli.cmd_dist` sorts d and R of the whole panel
once by `distributions._rank_tables` and writes every rank table through
`_RankTable`. With --group it takes each group's ranked values from that
order by its mask, and formats every value once for the panel table and
the group tables; without, the panel's table is the only one. The oracle
below is the per-set path it replaced: each set, the panel or one group, is
ranked by `zipf_ranks` of its own values, fitted by `fit_zipf_exponent` and
written by `write_ranks_csv` of that array, whose bytes
`tests/test_zipf_ranks.py` pins to `panel.write_table`'s. Both must write
the same files with the same bytes, print the same lines and notes, and
exit with the same code.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import tracemalloc
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debtkit import cli
from debtkit import distributions as dist
from debtkit import panel
from debtkit.errors import DebtkitError, WindowTooSmall

PANEL_HEADER = ("country_code,year,gdp_nominal_usd,debt_nominal_usd,"
                "population,income_group")


# ------------------------------------------------------ per-set oracle

def _per_set_outputs(obs, suffix, args):
    samples = {"d": obs.d, "R": obs.ratio_R}
    hists = {name: dist.histogram_pdf(values, args.bins)
             for name, values in samples.items()}
    ranked = {name: dist.zipf_ranks(values) for name, values in samples.items()}
    zipf_payload = {}
    for name, values in samples.items():
        window = args.rank_window or (1, int(np.count_nonzero(values > 0)))
        if window[1] == 0:
            raise WindowTooSmall(f"{name} has 0 positive values; the Zipf fit "
                                 f"needs >= 3")
        zipf_payload[name] = asdict(dist.fit_zipf_exponent(ranked[name], window))
    positive_r = samples["R"][samples["R"] > 0]
    n_zero = len(samples["R"]) - len(positive_r)
    if n_zero:
        print(f"note: {n_zero} zero-debt ratios excluded from the gamma fit",
              file=sys.stderr)
    gamma_payload = {**asdict(dist.fit_gamma_mle(positive_r)),
                     "n_zero_excluded": n_zero}
    return [
        *[(f"pdf_{name}{suffix}.csv", partial(dist.write_histogram_csv, hist), "")
          for name, hist in hists.items()],
        *[(f"zipf_{name}{suffix}.csv", partial(dist.write_ranks_csv, ranks), "")
          for name, ranks in ranked.items()],
        (f"zipf_fit{suffix}.json", zipf_payload, ""),
        (f"gamma_fit{suffix}.json", gamma_payload, ""),
    ]


def _per_set_dist(args):
    obs = cli._load_observations(args)
    outputs = _per_set_outputs(obs, "", args)
    if args.group:
        wanted = (list(panel.IncomeGroup) if args.group == "all"
                  else [panel.IncomeGroup(args.group.upper())])
        for group in wanted:
            subset = panel.filter_income_group(obs, group)
            suffix = f"_{group.value.lower()}"
            if not subset:
                print(f"note: income group {group.value} is empty; "
                      f"*{suffix} files omitted", file=sys.stderr)
                continue
            try:
                outputs += _per_set_outputs(subset, suffix, args)
            except DebtkitError as exc:
                print(f"note: income group {group.value}: {exc}; "
                      f"*{suffix} files omitted", file=sys.stderr)
    cli._write(args, outputs)
    return cli.EXIT_OK


def _run(argv, out: Path):
    """Exit code, output files by name and printed text of one `dist` call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main([*argv, "--out", str(out)])
    files = ({p.name: p.read_bytes() for p in out.iterdir()}
             if out.exists() else None)
    text = (stdout.getvalue() + stderr.getvalue()).replace(str(out), "OUT")
    return rc, files, text


# ------------------------------------------------------ random panels

_CODES = ["AAA", "BBB", "CCC", "DDD", "EEE", "FFF", "GGG", "HHH"]
_GDPS = ["1e9", "2e9", "4e9"]
_POPULATIONS = ["1e6", "2e6"]


@st.composite
def _panels(draw):
    """Rows of a valid panel. Few distinct amounts make d and R tie, debt
    may be 0.0 or -0.0, and a group may have one country, or none, or only
    zero debt, so that its fits fail."""
    codes = draw(st.lists(st.sampled_from(_CODES), min_size=2, max_size=8,
                          unique=True))
    group_of = {code: draw(st.sampled_from(["LOW", "MEDIUM", "HIGH"]))
                for code in codes}
    years = draw(st.lists(st.integers(2000, 2005), min_size=1, max_size=5,
                          unique=True))
    debts = {group: draw(st.sampled_from([
        ["0.0", "-0.0"], ["0.0", "-0.0", "1e8", "2e8", "3.5e8", "5e8"],
        ["1e8", "2e8", "3.5e8", "5e8", "7e8"]])) for group in set(group_of.values())}
    return [f"{code},{year},{draw(st.sampled_from(_GDPS))},"
            f"{draw(st.sampled_from(debts[group_of[code]]))},"
            f"{draw(st.sampled_from(_POPULATIONS))},{group_of[code]}"
            for code in codes for year in years]


def _both_ways(rows, group=None, window=None):
    """The outcome of `dist` on rows, and that of the per-set path."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "panel.csv").write_text(PANEL_HEADER + "\n" + "\n".join(rows)
                                       + "\n")
        (tmp / "deflator.csv").write_text(
            "year,deflator\n" + "".join(f"{y},1.0\n" for y in range(2000, 2006)))
        argv = ["dist", "--panel", str(tmp / "panel.csv"),
                "--deflator", str(tmp / "deflator.csv"), "--bins", "3"]
        if group:
            argv += ["--group", group]
        if window:
            argv += ["--rank-window", *map(str, window)]
        ours = _run(argv, tmp / "ours")
        real = cli.cmd_dist
        cli.cmd_dist = _per_set_dist
        try:
            theirs = _run(argv, tmp / "theirs")
        finally:
            cli.cmd_dist = real
    return ours, theirs


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(rows=_panels(),
       group=st.sampled_from([None, "low", "medium", "high", "all", "all"]),
       window=st.sampled_from([None, None, None, (1, 3), (2, 8), (1, 40)]))
def test_dist_writes_what_the_per_set_path_writes(rows, group, window):
    ours, theirs = _both_ways(rows, group, window)
    assert ours == theirs


def test_dist_over_several_blocks_writes_what_the_per_set_path_writes():
    # every table spans blocks of panel._WRITE_ROWS values, so ranks carry
    # across blocks; ties and both zeros are spread through the panel
    rng = np.random.default_rng(11)
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    codes = [a + b + c for a in letters for b in letters for c in "ABCDE"]
    debts = ["0.0", "-0.0", *map(repr, rng.uniform(0.0, 9e9, 400).tolist())]
    rows = [f"{code},{year},{rng.choice(['1e9', '2e9', '4e9'])},"
            f"{rng.choice(debts)},1e6,{('LOW', 'MEDIUM', 'HIGH')[i % 3]}"
            for i, code in enumerate(codes) for year in range(2000, 2006)]
    assert len(rows) > 2 * panel._WRITE_ROWS
    ours, theirs = _both_ways(rows, "all")
    assert ours[0] == 0 and len(ours[1]) == 24
    assert ours == theirs


# ------------------------------------------------------ work and memory

def _dist_argv_of_4000_rows(tmp_path):
    """`dist --group all` argv for a 4,000-row panel with no repeated value."""
    rng = np.random.default_rng(5)
    codes = [a + b + c for a in "ABCDE" for b in "ABCDE" for c in "ABCD"]
    rows = [f"{code},{year},{rng.uniform(1e9, 9e9)!r},"
            f"{rng.uniform(0.0, 9e9)!r},1e6,{('LOW', 'MEDIUM', 'HIGH')[i % 3]}"
            for i, code in enumerate(codes) for year in range(1961, 2001)]
    assert len(rows) == 4000
    (tmp_path / "panel.csv").write_text(PANEL_HEADER + "\n" + "\n".join(rows)
                                        + "\n")
    (tmp_path / "deflator.csv").write_text(
        "year,deflator\n" + "".join(f"{y},1.0\n" for y in range(1961, 2001)))
    return ["dist", "--panel", str(tmp_path / "panel.csv"), "--deflator",
            str(tmp_path / "deflator.csv"), "--out", str(tmp_path / "o"),
            "--group", "all"]


@pytest.mark.parametrize("group", ["all", None])
def test_dist_formats_each_value_once(tmp_path, monkeypatch, capsys, group):
    # each row's d and R are formatted once, for the panel's table and for
    # its group's; formatting per table would take twice as many calls. A
    # plain dist formats them by the same writer, once each
    argv, formatted = _dist_argv_of_4000_rows(tmp_path), []
    if group is None:
        argv = argv[:argv.index("--group")]
    monkeypatch.setattr(dist, "repr", lambda x: formatted.append(x) or repr(x),
                        raising=False)
    assert cli.main(argv) == 0
    assert len(formatted) == 2 * 4000


def test_group_rank_tables_are_held_as_text(tmp_path, monkeypatch, capsys):
    # between the panel's rank tables and the groups', only each group
    # table's rows are held, as one text: about the bytes of its file, where
    # one str per formatted value would hold about three times as much
    argv = _dist_argv_of_4000_rows(tmp_path)
    write, traced = dist.write_ranks_csv, {}

    def recorded(ranked, path, **kwargs):
        traced[Path(path).name] = tracemalloc.get_traced_memory()[0]
        return write(ranked, path, **kwargs)

    monkeypatch.setattr(dist, "write_ranks_csv", recorded)
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
    finally:
        tracemalloc.stop()
    held = traced["zipf_d_low.csv"] - traced["zipf_d.csv"]
    group_files = sum((tmp_path / "o" / f"zipf_{name}_{group}.csv").stat().st_size
                      for name in ("d", "R") for group in ("low", "medium", "high"))
    assert 0.5 * group_files < held < 1.5 * group_files
