"""The benchmark's workloads and what a correct run of each looks like.

Every workload runs one ``ergodic-hj`` command on a config under
``configs/``.  All three use the manufactured source f = |x|^m, so the
exact ergodic constant is the dimension N (phi = |x|^2/2 solves the
stationary problem).  The first-order upwind scheme misses it by O(h); the
gate allows N * h, about twice the error the seed shows on each workload.

``known_failures`` lists the verdict checks that fail at the commit that
introduced this benchmark.  They are real scientific verdicts of the
program, recorded rather than hidden: a run passes the gate when its
failing checks are a subset of them, so a check that starts failing is
caught and a check that gets fixed is reported as such.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")

#: rows of oracle.csv, in the order cmd_oracle writes them
ORACLE_ROWS = (
    "ergodic_constant_vs_eigenvalue",
    "field_at_horizon_sup_window",
    "transform_slope_vs_eigenvalue",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # ergodic-hj subcommand
    config: str  # file name under configs/
    known_failures: frozenset = frozenset()

    @property
    def config_path(self) -> str:
        return os.path.join(CONFIG_DIR, self.config)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "all_1d_m2",
            "all",
            "all_1d_m2.cfg",
            frozenset(
                {
                    "barrier.lower_cut32.eps0.2",
                    "oracle.field_at_horizon_sup_window",
                }
            ),
        ),
        Workload("ergodic_2d_m2", "ergodic", "ergodic_2d_m2.cfg"),
        Workload(
            "all_1d_m15",
            "all",
            "all_1d_m15.cfg",
            frozenset({"barrier.lower_cut16.eps0.1", "barrier.lower_cut16.eps0.2"}),
        ),
    )
}

#: runs every command in about a second; used by ``run.py --self-check`` only
SMOKE = Workload("smoke", "all", "smoke.cfg")


def expected_checks(cfg: dict, command: str) -> list:
    """Names of the verdict checks a run of ``command`` on ``cfg`` reports."""
    ladder = [float(r) for r in cfg["ergodic"]["ladder"]]
    cutoffs = [float(c) for c in cfg["ergodic"].get("cutoffs", [])]
    names = [f"run.state_R{r:g}.converged" for r in ladder]
    names += [f"run.periodic_cut{c:g}.converged" for c in cutoffs]
    if command != "all":
        return names
    names += ["validate.coercivity_plausible", "validate.gradient_ratio_plausible"]
    names.append("longtime.converged")
    eps = float(cfg["longtime"].get("epsilon", 0.1))
    for e in (eps, 2.0 * eps):
        names += [f"barrier.upper_R{r:g}.eps{e:g}" for r in ladder]
        names += [f"barrier.lower_cut{c:g}.eps{e:g}" for c in cutoffs]
    if float(cfg["problem"]["m"]) == 2.0:
        names += [f"oracle.{row}" for row in ORACLE_ROWS]
    return names


def exact_lambda(cfg: dict) -> float:
    """Exact ergodic constant N; defined only for the manufactured source."""
    source = cfg["problem"]["source"]
    if source.get("family") != "power" or float(source["alpha"]) != float(
        cfg["problem"]["m"]
    ):
        raise ValueError("exact lambda needs f = |x|^m (family power, alpha = m)")
    return float(cfg["problem"].get("dim", 1))


def lambda_tolerance(cfg: dict) -> float:
    return exact_lambda(cfg) * float(cfg["ergodic"]["spacing"])
