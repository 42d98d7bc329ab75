"""Read a finished CLI output directory from outside: verdicts, lambda, hashes.

Nothing here imports the package; the files are parsed the way a user
would read them, so the gate does not trust the code it is checking.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

#: wall-clock file the CLI keeps out of its byte-determinism guarantee
NONDETERMINISTIC = {"timings.txt"}


def _rows(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#") and ln.strip()]
    return list(csv.DictReader(lines))


def _summary_flags(path):
    flags = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.partition(": ")
            if sep and value.strip() in ("True", "False"):
                flags[key.strip()] = value.strip() == "True"
    return flags


def command_dirs(out_dir: str, command: str) -> dict:
    """Where each command's files land: subdirectories for ``all``."""
    if command == "all":
        return {c: os.path.join(out_dir, c) for c in ("validate", "ergodic", "longtime", "oracle")}
    return {command: out_dir}


def parse_checks(out_dir: str, command: str) -> dict:
    """Every verdict check the output directory reports, name -> passed.

    Missing files contribute nothing; the caller compares the result with
    the expected check names, so a missing check counts as failed.
    """
    dirs = command_dirs(out_dir, command)
    checks = {}
    ladder, cutoffs = [], []
    runs_csv = os.path.join(dirs.get("ergodic", ""), "runs.csv")
    if os.path.exists(runs_csv):
        for row in _rows(runs_csv):
            if row["kind"] == "state_constraint":
                name = f"run.state_R{float(row['half_width']):g}"
                ladder.append(float(row["half_width"]))
            else:
                name = f"run.periodic_cut{float(row['cutoff']):g}"
                cutoffs.append(float(row["cutoff"]))
            checks[f"{name}.converged"] = row["converged"] == "1"
    validate = os.path.join(dirs.get("validate", ""), "summary.txt")
    if os.path.exists(validate):
        flags = _summary_flags(validate)
        for key in ("coercivity_plausible", "gradient_ratio_plausible"):
            if key in flags:
                checks[f"validate.{key}"] = flags[key]
    longtime = dirs.get("longtime", "")
    if os.path.exists(os.path.join(longtime, "summary.txt")):
        flags = _summary_flags(os.path.join(longtime, "summary.txt"))
        if "converged" in flags:
            checks["longtime.converged"] = flags["converged"]
    if os.path.exists(os.path.join(longtime, "barriers.csv")):
        # rows come per epsilon: one upper row per state run, then one
        # lower row per periodic run, each in runs.csv order
        seen = {}
        for row in _rows(os.path.join(longtime, "barriers.csv")):
            key = (row["side"], row["epsilon"])
            i = seen.get(key, 0)
            seen[key] = i + 1
            eps = float(row["epsilon"])
            if row["side"] == "upper" and i < len(ladder):
                name = f"barrier.upper_R{ladder[i]:g}.eps{eps:g}"
            elif row["side"] == "lower" and i < len(cutoffs):
                name = f"barrier.lower_cut{cutoffs[i]:g}.eps{eps:g}"
            else:
                name = f"barrier.{row['side']}_extra{i}.eps{eps:g}"
            checks[name] = row["passed"] == "1"
    oracle_csv = os.path.join(dirs.get("oracle", ""), "oracle.csv")
    if os.path.exists(oracle_csv):
        for row in _rows(oracle_csv):
            checks[f"oracle.{row['check']}"] = row["passed"] == "1"
    return checks


def lambda_estimate(out_dir: str, command: str):
    """The ergodic command's estimate of lambda*, or None if it is missing."""
    path = os.path.join(command_dirs(out_dir, command)["ergodic"], "summary.json")
    try:
        with open(path) as fh:
            return float(json.load(fh)["value"])
    except (OSError, KeyError, TypeError, ValueError):
        return None


def report_digest(out_dir: str) -> str:
    """sha256 over every report file except the wall-clock ones."""
    h = hashlib.sha256()
    for rel in sorted(_files(out_dir)):
        if os.path.basename(rel) in NONDETERMINISTIC:
            continue
        with open(os.path.join(out_dir, rel), "rb") as fh:
            h.update(rel.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def report_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, rel)) for rel in _files(out_dir))


def _files(out_dir):
    for base, _, names in os.walk(out_dir):
        for name in names:
            yield os.path.relpath(os.path.join(base, name), out_dir)
