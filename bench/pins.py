"""The work each benchmark item must do, pinned at the commit that defined
the benchmark.  An item that does less (fewer cells, steps or trajectories,
a missing matrix row, or an MC sigma well above the pinned one, which is
what a silent cut in trajectories produces) fails, so no speed-up can be
scored by cutting work.  More work passes.  The MC time step is not pinned:
a coarser step that stays accurate is a real gain, and the reference bands
catch one that does not, since their Euler exit-bias allowance is taken at
the pinned step."""

from __future__ import annotations

from typing import NamedTuple, Tuple

# an MC row fails when its sigma exceeds the seed-0 sigma by this factor;
# halving the trajectories multiplies sigma by 1.41
SIGMA_CEILING = 1.25


class Work(NamedTuple):
    cells: int
    steps: int  # round(t_max / dt), the nominal PDE time steps
    trajectories: int
    rows: Tuple[Tuple[str, str, str, float], ...] = ()  # (observable, a, b, seed-0 sigma)


# crosscheck.default_matrix: the 12 scenarios and 54 rows
MATRIX = {
    "zero-absorbing": Work(
        cells=200, steps=5000, trajectories=4000,
        rows=(
            ("pk+pa", "pde", "exact", 0.0),
            ("pk+pa", "mc", "exact", 0.0),
            ("p_killed", "pde", "mc", 0.0),
            ("mean_absorb_time", "pde", "mc", 0.016635504282721196),
        ),
    ),
    "uniform-wide": Work(
        cells=400, steps=3200, trajectories=4000,
        rows=(
            ("pk+pa", "pde", "exact", 0.0),
            ("pk+pa", "mc", "exact", 0.0),
            ("p_killed", "pde", "mc", 0.0),
            ("mean_kill_time", "pde", "mc", 0.015618853893374989),
        ),
    ),
    "uniform-reflecting": Work(
        cells=64, steps=8000, trajectories=4000,
        rows=(
            ("pk+pa", "pde", "exact", 0.0),
            ("pk+pa", "mc", "exact", 0.0),
            ("p_killed", "pde", "mc", 0.0),
            ("mean_kill_time", "pde", "mc", 0.015590181662541723),
            ("mean_kill_time", "analytic", "pde", 0.0),
        ),
    ),
    "uniform-absorbing": Work(
        cells=200, steps=8000, trajectories=4000,
        rows=(
            ("pk+pa", "pde", "exact", 0.0),
            ("pk+pa", "mc", "exact", 0.0),
            ("p_killed", "pde", "mc", 0.0074899933244296025),
            ("mean_kill_time", "pde", "mc", 0.007973234953085566),
            ("mean_absorb_time", "pde", "mc", 0.005872192895201139),
        ),
    ),
    "dirac-reference": Work(
        cells=400, steps=14000, trajectories=6000,
        rows=(
            ("pk+pa", "pde", "exact", 0.0),
            ("pk+pa", "mc", "exact", 0.0),
            ("p_killed", "pde", "mc", 0.005172029027302463),
            ("mean_kill_time", "pde", "mc", 0.02179341074851811),
            ("mean_absorb_time", "pde", "mc", 0.010408719856665277),
            ("p_killed", "analytic", "pde", 0.0),
            ("mean_kill_time", "analytic", "pde", 0.0),
        ),
    ),
    "dirac-unit": Work(
        cells=400, steps=10000, trajectories=6000,
        rows=(
            ("pk+pa", "pde", "exact", 0.0),
            ("pk+pa", "mc", "exact", 0.0),
            ("p_killed", "pde", "mc", 0.005808087831572389),
            ("mean_kill_time", "pde", "mc", 0.0015777747968685897),
            ("mean_absorb_time", "pde", "mc", 0.0010037200017554689),
            ("p_killed", "analytic", "pde", 0.0),
            ("mean_kill_time", "analytic", "pde", 0.0),
        ),
    ),
    "two-spots": Work(
        cells=400, steps=10000, trajectories=6000,
        rows=(
            ("ratio_rinf", "green_steady", "split_stats", 0.0),
            ("ratio_rinf", "green_steady", "mc", 0.03489584537791469),
        ),
    ),
    "piecewise": Work(
        cells=200, steps=10000, trajectories=4000,
        rows=(
            ("pk+pa", "pde", "exact", 0.0),
            ("pk+pa", "mc", "exact", 0.0),
            ("p_killed", "pde", "mc", 0.005282423686150137),
            ("mean_kill_time", "pde", "mc", 0.004123642249707481),
            ("mean_absorb_time", "pde", "mc", 0.0016592445830613872),
        ),
    ),
    "steady-dirac": Work(
        cells=800, steps=1000, trajectories=6000,
        rows=(
            ("conservation", "pde", "exact", 0.0),
            ("ratio_rs", "analytic", "pde", 0.0),
            ("ratio_rs", "analytic", "mc", 0.032009938775561395),
        ),
    ),
    "steady-uniform": Work(
        cells=800, steps=1000, trajectories=6000,
        rows=(
            ("conservation", "pde", "exact", 0.0),
            ("ratio_rs", "analytic", "pde", 0.0),
            ("ratio_rs", "analytic", "mc", 0.010347831761204771),
        ),
    ),
    "green-rinf": Work(
        cells=800, steps=15000, trajectories=20000,
        rows=(
            ("ratio_rinf", "green_steady", "split_stats", 0.0),
            ("ratio_rinf", "green_steady", "mc", 0.4939293058159883),
            ("ratio_rinf", "analytic_derived", "green_steady", 0.0),
            ("paper*derived", "analytic", "exact", 0.0),
        ),
    ),
    "drift": Work(
        cells=200, steps=8000, trajectories=4000,
        rows=(
            ("pk+pa", "pde", "exact", 0.0),
            ("pk+pa", "mc", "exact", 0.0),
            ("p_killed", "pde", "mc", 0.007545270662805941),
            ("mean_kill_time", "pde", "mc", 0.008030333129371176),
            ("mean_absorb_time", "pde", "mc", 0.005964255855730095),
        ),
    ),
}

# the decaying-start INIs of scenarios/ that pde-decay runs: (cells, steps)
PDE_INIS = {
    "conditional_mfpt": (400, 14000),
    "convergence_uniform": (100, 4000),
    "dirac_reference": (400, 14000),
    "drift": (200, 8000),
    "free_interval": (200, 5000),
    "green_rinf": (800, 15000),
    "piecewise_rates": (200, 10000),
}

# The MC time step of each matrix scenario and MC INI when the benchmark was
# defined.  The Euler exit-bias allowance of the MC checks (see
# workloads.euler_split) is taken at this step, not at the current one, so
# a coarser step passes only if it is no more biased (as ROADMAP item 4's
# exact-bridge MC would be), and a finer one always.
MATRIX_MC_DT = {
    "zero-absorbing": 1e-3,
    "uniform-wide": 1e-3,
    "uniform-reflecting": 1e-3,
    "uniform-absorbing": 1e-3,
    "dirac-reference": 1e-3,
    "dirac-unit": 2e-4,
    "two-spots": 2e-4,
    "piecewise": 2e-4,
    "steady-dirac": 2e-4,
    "steady-uniform": 2e-4,
    "green-rinf": 1e-4,
    "drift": 1e-3,
}
INI_MC_DT = {
    "conditional_mfpt": 1e-3,
    "constant_killing_line": 1e-3,
    "dirac_reference": 1e-3,
    "drift": 1e-3,
    "free_interval": 1e-3,
    "green_rinf": 1e-4,
    "piecewise_rates": 2e-4,
}

# the INIs with MC settings that mc-parallel runs: trajectories
MC_INIS = {
    "conditional_mfpt": 8000,
    "constant_killing_line": 100000,
    "dirac_reference": 6000,
    "drift": 4000,
    "free_interval": 4000,
    "green_rinf": 20000,
    "piecewise_rates": 4000,
}
