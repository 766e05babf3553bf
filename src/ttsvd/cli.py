"""Command line interface.

Verbs:

* ``ttsvd run <config.yaml>``  - run an experiment grid and write results
* ``ttsvd verify``             - run the built-in oracle check battery
* ``ttsvd report <results.csv>`` - rebuild report.json and plotdata/ from CSVs

Exit codes: 0 success; 1 verification failure; 2 configuration error
(including input a generator rejects); 3 at least one repetition did not
converge in a run marked ``--strict``.  A repetition converged if its
solver reported "converged", which every solver decides on the residual on
A that ``relative_residual`` records; ``--strict`` names every repetition
that did not.  A repetition whose residual is below epsilon and that did
not converge is a Gram solve whose recovered U failed its orthonormality
check, and ``--strict`` says so, with the ``u_defect`` that failed it.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import click

from .experiments import (
    RESULT_COLUMNS,
    TIMING_COLUMNS,
    ConfigError,
    ResultRow,
    TimingRow,
    load_run_config,
    parse_rows_csv,
    run_experiment,
    write_report,
    write_results,
)
from .verify import run_verification


@click.group()
def main():
    """Dominant singular triplets of huge structured matrices in TT format."""


@main.command(name="run")
@click.argument("config_path", type=click.Path())
@click.option("--seed", type=int, default=None, help="override the base seed")
@click.option("--out-dir", type=click.Path(), default=None,
              help="override the output directory")
@click.option("--reps", type=int, default=None,
              help="override the repetition count")
@click.option("--solvers", type=str, default=None,
              help="comma-separated solver subset")
@click.option("--max-n", type=int, default=None,
              help="drop N values above this bound")
@click.option("--strict", is_flag=True,
              help="exit 3 if any repetition fails to converge")
def run_cmd(config_path, seed, out_dir, reps, solvers, max_n, strict):
    """Run the experiment grid described by CONFIG_PATH."""
    try:
        cfg = load_run_config(config_path)
        over = dict(seed=seed, out_dir=out_dir, reps=reps)
        if solvers is not None:
            over["solvers"] = [s.strip() for s in solvers.split(",")
                               if s.strip()]
        if max_n is not None:
            over["n_values"] = [n for n in cfg.n_values if n <= max_n]
        cfg = dataclasses.replace(
            cfg, **{name: v for name, v in over.items() if v is not None})
        result_rows, timing_rows = run_experiment(cfg)
    except ConfigError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(2)
    paths = write_results(cfg.out_dir, result_rows, timing_rows,
                          config_dict=cfg.to_dict())
    rep_rows = [r for r in result_rows if r.is_repetition()]
    converged = sum(1 for r in rep_rows if r.termination == "converged")
    click.echo(f"wrote {paths['results']} ({len(rep_rows)} runs, "
               f"{converged} converged)")
    failed = [r for r in rep_rows if r.termination != "converged"]
    if strict and failed:
        for r in failed:
            # below epsilon only a Gram solve can fail: on its U check
            cause = ("; below epsilon, so the Gram route's recovered U "
                     "failed its check ||U^T U - I||_F <= sqrt(epsilon): "
                     f"u_defect {r.u_defect}"
                     if float(r.relative_residual) < cfg.epsilon else "")
            click.echo(
                f"strict mode: {r.experiment} {r.solver} N={r.n} param "
                f"{r.param} rep {r.rep} did not converge: termination "
                f"{r.termination}, relative_residual {r.relative_residual}, "
                f"epsilon {cfg.epsilon!r}{cause}", err=True)
        sys.exit(3)
    sys.exit(0)


@main.command(name="verify")
@click.option("--seed", type=click.IntRange(min=0), default=0,
              help="base seed for the checks, at least 0")
def verify_cmd(seed):
    """Run the built-in oracle and property checks; exit 1 on any failure."""
    failures = run_verification(seed=seed, echo=click.echo)
    if failures:
        click.echo(f"{failures} check(s) failed", err=True)
        sys.exit(1)
    click.echo("all checks passed")
    sys.exit(0)


def _read_rows(path, row_type, columns):
    """Rows of a CSV file; any fault is a ConfigError naming the file."""
    try:
        with open(path, "r") as fh:
            return parse_rows_csv(fh.read(), row_type, columns)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@main.command(name="report")
@click.argument("rows_csv", type=click.Path())
@click.option("--out-dir", type=click.Path(), default=None,
              help="where to write report.json and plotdata/ "
                   "(default: alongside the CSV)")
def report_cmd(rows_csv, out_dir):
    """Rebuild report.json and plotdata/ from an existing results.csv.

    A timings.csv sitting next to the results file is picked up
    automatically for the scaling fits.
    """
    try:
        result_rows = _read_rows(rows_csv, ResultRow, RESULT_COLUMNS)
        timing_rows = []
        timings_path = os.path.join(os.path.dirname(os.path.abspath(rows_csv)),
                                    "timings.csv")
        if os.path.exists(timings_path):
            timing_rows = _read_rows(timings_path, TimingRow, TIMING_COLUMNS)
    except ConfigError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(2)
    target = out_dir or os.path.dirname(os.path.abspath(rows_csv))
    report_path, plots = write_report(target, result_rows, timing_rows)
    click.echo(f"wrote {report_path} and {len(plots)} plotdata file(s)")
    sys.exit(0)


if __name__ == "__main__":
    main()
