"""Command-line harness: sweep / converge / design / validate.

Configuration comes from an optional flat key=value file plus command-line
overrides (flag names mirror config keys).  All numeric output is CSV with a
fixed header and 12 significant digits; exit codes are 0 on success, 2 on
configuration errors and 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiments
from .baselines import SchemeId
from .errors import ConfigError, RisceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_scheme(token: str) -> SchemeId:
    token = token.strip().lower()
    try:
        return SchemeId(token)
    except ValueError:
        names = ", ".join(s.value for s in SchemeId)
        raise ConfigError(f"unknown scheme {token!r} (expected one of: {names})") from None


def _tokens(raw: str) -> list[str]:
    return raw.replace(",", " ").split()


# Every config key and the parser of its text value.  Each int and float key
# is also a --flag of the same name ('_' written '-').
_KEYS = {
    "k": int, "m": int, "l": int, "b": int, "tau": int,
    "trials": int, "seed": int, "beta_min": float, "alpha": float, "delta": float,
    "psi_ue": float, "psi_ris": float, "psi_bs": float, "eps": float,
    "max_iter": int, "rho": int,
    "accelerate": _parse_bool,
    "simulate": _parse_bool,
    "snr_db": lambda raw: tuple(float(tok) for tok in _tokens(raw)),
    "schemes": lambda raw: tuple(_parse_scheme(tok) for tok in _tokens(raw)),
    "estimator": str.lower,
}


def _parse_scalar(key: str, raw: str, line_no: int):
    where = f" (line {line_no})"
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}{where}")
    try:
        return _KEYS[key](raw)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad value for {key!r}{where}: {exc}") from exc


def read_config_file(path: str) -> dict:
    """Parse a flat key=value file; '#' starts a comment, '-' equals '_'."""
    values: dict = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for line_no, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("-", "_")
        values[key] = _parse_scalar(key, raw, line_no)
    return values


def build_config(args: argparse.Namespace) -> experiments.ExperimentConfig:
    """Merge profile defaults, the config file, and command-line overrides."""
    values: dict = {}
    if args.profile == "paper":
        values.update(experiments.PAPER_PROFILE)
    if args.config:
        values.update(read_config_file(args.config))

    # A flag stores under its config key; None means it was not given.
    for key in _KEYS:
        value = getattr(args, key, None)
        if value is not None:
            values[key] = value
    if args.scheme:
        values["schemes"] = _KEYS["schemes"](",".join(args.scheme))
    if getattr(args, "analytic_only", False):
        values["simulate"] = False
    return experiments.ExperimentConfig(**values)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in header))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        _write_text(path, text)


def write_plot_data(path: str, rows) -> None:
    """Gnuplot-friendly layout: one indexed block of (snr, nmse) per scheme."""
    blocks: dict[tuple[str, str], dict[float, list[float]]] = {}
    for row in rows:
        key = (row.scheme, row.estimator)
        blocks.setdefault(key, {}).setdefault(row.snr_db, [])
        if row.empirical_nmse is not None:
            blocks[key][row.snr_db].append(row.empirical_nmse)
    out = []
    for (scheme, estimator), by_snr in blocks.items():
        out.append(f"# {scheme} {estimator} (snr_db analytic_nmse empirical_mean)")
        analytic = {r.snr_db: r.analytic_nmse for r in rows
                    if r.scheme == scheme and r.estimator == estimator}
        for snr in sorted(by_snr):
            emp = by_snr[snr]
            mean = sum(emp) / len(emp) if emp else float("nan")
            out.append(f"{_fmt(snr)} {_fmt(analytic[snr])} {_fmt(mean)}")
        out.append("")
        out.append("")
    _write_text(path, "\n".join(out))


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--profile", choices=["desk", "paper"], default="desk")
    for key, parse in _KEYS.items():
        if parse in (int, float):
            parser.add_argument("--" + key.replace("_", "-"), type=parse, dest=key)
    parser.add_argument("--snr-db", type=float, nargs="+", dest="snr_db")
    parser.add_argument("--scheme", action="append",
                        help="comma-separated or repeated scheme names")
    parser.add_argument("--estimator", choices=["ls", "lmmse"])
    parser.add_argument("--accel", action=argparse.BooleanOptionalAction,
                        dest="accelerate")
    parser.add_argument("--output", default="-", help="CSV path ('-' = stdout)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risce",
        description="Training and RIS reflection-pattern design simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="NMSE vs SNR Monte Carlo sweep")
    _add_common_args(p_sweep)
    p_sweep.add_argument("--analytic-only", action="store_true",
                         help="skip reception simulation (one row per cell)")
    p_sweep.add_argument("--plot-data", help="also write gnuplot-style data")

    p_conv = sub.add_parser("converge", help="per-iteration convergence traces")
    _add_common_args(p_conv)

    p_design = sub.add_parser("design", help="dump designed X/V as CSV")
    _add_common_args(p_design)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    _add_common_args(p_val)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "sweep":
            rows = experiments.run_sweep(cfg)
            write_csv(args.output, experiments.RESULT_COLUMNS, rows)
            if args.plot_data:
                write_plot_data(args.plot_data, rows)
        elif args.command == "converge":
            rows = experiments.run_convergence(cfg)
            write_csv(args.output, experiments.CONVERGENCE_COLUMNS, rows)
        elif args.command == "design":
            rows = experiments.run_design_dump(cfg)
            write_csv(args.output, experiments.DESIGN_COLUMNS, rows)
        elif args.command == "validate":
            checks = experiments.run_validation(cfg)
            failed = [name for name, ok, _ in checks if not ok]
            for name, ok, detail in checks:
                status = "PASS" if ok else "FAIL"
                suffix = f" {detail}" if detail else ""
                print(f"{status} {name}{suffix}")
            if failed:
                print(f"{len(failed)} of {len(checks)} checks failed", file=sys.stderr)
                return EXIT_NUMERICAL
            print(f"all {len(checks)} checks passed")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RisceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
