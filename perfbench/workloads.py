"""Workloads of the catgate benchmark: fixed lists of `catgate` invocations.

Each workload is a closed loop with one client: its invocations run one
after another, each as a fresh process, and one pass over the list is a
round. The seed only permutes the order within a round; the program sees
nothing but the argv listed here.

Every workload also touches each layer at least once (the small "coverage"
invocations), so every per-layer time is measured on every workload rather
than reading a constant zero. Their share of a round is small and fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

# Which end-to-end metric a change to each layer should move, and where.
LAYER_EFFECTS = {
    "import": "setup_s on every workload",
    "cli": "run_self_s moves wall_s and peak_rss_mb on map-render, nothing on "
    "metric-scan; bytes_out must never change",
    "metrics": "wall_s on metric-scan and large-n, nothing on map-render",
    "numerics": "wall_s on metric-scan (many shallow series calls) and large-n "
    "(few deep-order calls)",
    "wigner": "wall_s on large-n",
    "phase_map": "wall_s on map-render",
    "gate": "wall_s on metric-scan",
    "states": "wall_s on metric-scan",
    "trace": "none; overhead_s says how far layer numbers are inflated",
}


@dataclass(frozen=True)
class Invocation:
    """One `catgate` argv with the outcome its output check accepts.

    exits lists the accepted exit statuses. known_defect describes a current
    bug, and defect_sign the text every problem its check reports contains
    while the bug stands. Such a failure still counts in failed_frac, but
    not as an unexpected failure; any other failure does.
    """

    argv: tuple[str, ...]
    exits: tuple[int, ...] = (0,)
    known_defect: str | None = None
    defect_sign: str | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def is_known(self, problems: list[str]) -> bool:
        return self.defect_sign is not None and all(self.defect_sign in p for p in problems)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]


def _inv(text: str, **kw) -> Invocation:
    return Invocation(tuple(text.split()), **kw)


# Cheap calls that reach every metrics function not otherwise used.
_METRICS_COVERAGE = (
    _inv("mixed-fidelity --n 1 --d 0.1"),
    _inv("prob-density --n 1 --ym 0"),
    _inv("cat-fidelity --n 1"),
    _inv("fidelity-scan --n 1"),
)

# Cheap calls that reach the wigner and phase_map layers.
_MAP_COVERAGE = (
    _inv("wigner --n 5 --x-range=-6:6:81 --p-range=-8:8:81"),
    _inv("scl-map --n 4 --samples 64"),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "map-render",
            "Big Wigner tables as CSV and JSON plus a 5e4-point scl-map: cli render and "
            "phase_map dominate, so they move wall_s and peak_rss_mb here; metrics do not.",
            (
                _inv("wigner --n 10 --x-range=-6:6:601 --p-range=-9:9:601"),
                _inv("wigner --n 10 --x-range=-6:6:401 --p-range=-9:9:401 --format json"),
                _inv("scl-map --n 4 --ym 3 --x0 3 --p0 3 --samples 50000"),
            )
            + _METRICS_COVERAGE,
        ),
        Workload(
            "metric-scan",
            "Scalar fidelity and density scans with small output: metrics, numerics, gate "
            "and states do the work, so they move wall_s here; cli render does not.",
            (
                _inv("mixed-fidelity --n 1,5,15 --d 0.1,0.5,1,2"),
                _inv("prob-density --n 0,1,5,15,50 --x-range=-10:10:1001"),
                _inv("cat-fidelity --n 1:40 --x0 0,1,2"),
                _inv("fidelity-scan --n 1:40 --x0 0,1,2"),
                _inv("mixed-fidelity --n 1 --d 4", exits=(3,)),
            )
            + _MAP_COVERAGE,
        ),
        Workload(
            "large-n",
            "Hundreds of photons: deep-order series, the quadrature oracle on big grids, and "
            "two known defects (n=300 default axes, n=600) that large-n robustness work must fix.",
            (
                _inv("wigner --n 300 --engine both --x-range=-6:6:401 --p-range=-29:29:401"),
                _inv(
                    "wigner --n 300",
                    known_defect="default 201-point axes lose 2.1% of the Wigner mass",
                    defect_sign="Simpson mass",
                ),
                _inv("prob-density --n 300 --x-range=-10:10:201"),
                _inv("mixed-fidelity --n 200 --d 1"),
                _inv("cat-fidelity --n 100,200,300 --x0 0,5,10"),
                _inv("fidelity-scan --n 300 --x0 0,5"),
                _inv("scl-map --n 300 --samples 2000"),
                _inv(
                    "wigner --n 600",
                    exits=(0, 3),
                    known_defect="series overflow is reported as exit 2, "
                    "invalid configuration",
                    defect_sign="exit status 2,",
                ),
            ),
        ),
    )
}
