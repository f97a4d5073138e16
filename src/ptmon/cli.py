"""Command-line front end.

Four subcommands cover the full workflow:

* ``ptmon simulate`` — generate a crossroad dataset (train/calib/test).
* ``ptmon calibrate`` — fit a monitor on the calibration split and save it.
* ``ptmon certify`` — stream a saved monitor over a split, emit verdicts.
* ``ptmon report`` — tabulate certification metrics and a window sweep.

Config and noise files are plain ``key = value`` lines; ``#`` starts a
comment. Values are parsed as Python literals when possible, else kept as
strings. Exit codes: 0 on success, 2 on validation errors (bad formulas,
malformed configs, incompatible options), 1 on I/O errors.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path

import numpy as np

from .benchmark import (
    CrossroadConfig,
    PredictorStub,
    dictionary_from_manifest,
    generate_dataset,
    load_manifest,
    load_split,
    stub_from_json,
)
from .conformal import (
    CalibratedMonitor,
    ScoreConfig,
    calibrate,
    estimate_sigma,
    load_monitor,
    observer_calibrate,
    save_monitor,
)
from .logic import Predicate, parse_formula
from .metrics import (
    evaluate_monitor,
    horizon_sweep,
    write_report_csv,
    write_report_json,
    write_sweep_csv,
)
from .monitors import run_episode, write_verdicts_csv, write_verdicts_jsonl


def read_kv_file(path: str | Path) -> dict:
    """Parse a ``key = value`` file with ``#`` comments into a dict."""
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        value = value.strip()
        try:
            out[key.strip()] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            out[key.strip()] = value
    return out


def _parse_counts(text: str) -> dict[str, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--counts expects 'train,calib,test', got {text!r}")
    try:
        train, calib, test = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"--counts entries must be integers, got {text!r}") from None
    if min(train, calib, test) < 0:
        raise ValueError("--counts entries must be nonnegative")
    return {"train": train, "calib": calib, "test": test}


def _parse_int_list(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _load_noise(path: str | None, mode: str, dictionary) -> PredictorStub:
    cfg = read_kv_file(path) if path else {}
    known = {"scale", "bias", "ar_coeff", "seed"}
    unknown = set(cfg) - known
    if unknown:
        raise ValueError(f"unknown noise keys: {sorted(unknown)} (expected {sorted(known)})")
    return PredictorStub(
        mode=mode,
        scale=cfg.get("scale", 0.2),
        bias=cfg.get("bias", 0.0),
        ar_coeff=cfg.get("ar_coeff", 0.0),
        seed=int(cfg.get("seed", 0)),
        dictionary=dictionary if mode == "semantic" else None,
    )


def _predictor_for_model(mon: CalibratedMonitor) -> PredictorStub:
    if mon.predictor_config is None:
        raise ValueError(
            "model carries no predictor configuration; re-calibrate with --noise"
        )
    return stub_from_json(mon.predictor_config, dictionary=mon.dictionary)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    overrides = read_kv_file(args.config) if args.config else {}
    base = CrossroadConfig().to_json()
    base.update(overrides)
    cfg = CrossroadConfig.from_json(base)
    counts = _parse_counts(args.counts)
    out = generate_dataset(cfg, counts, args.seed, args.out)
    total = sum(counts.values())
    print(f"wrote {total} episodes ({args.counts}) to {out}")
    return 0


def _resolve_sigma(args, episodes_dir, stub, basis_spec, dim):
    if args.sigma == "uniform":
        return np.ones(dim)
    train = load_split(episodes_dir, "train")
    return estimate_sigma(train, stub, basis_spec)


def cmd_calibrate(args: argparse.Namespace) -> int:
    dataset = Path(args.dataset)
    manifest = load_manifest(dataset)
    dictionary = dictionary_from_manifest(manifest)
    m = int(manifest["m"])
    k_max = int(manifest["k_max"])
    names = tuple(manifest["predicate_names"])

    formula = None
    if args.formula is not None:
        formula = parse_formula(args.formula, names)

    if args.monitor == "observer":
        if args.level != 2:
            raise ValueError("the observer baseline is defined for --level 2 only")
        if formula is None:
            raise ValueError("--monitor observer requires --formula")
        stub = _load_noise(args.noise, "predicates", dictionary)
        calib_eps = load_split(dataset, "calib")
        sigma_predicates = None
        if args.sigma == "auto":
            train = load_split(dataset, "train")
            sigma_predicates = estimate_sigma(train, stub, (m, 0))
        mon = observer_calibrate(
            calib_eps,
            stub,
            formula,
            args.alpha,
            sigma_predicates=sigma_predicates,
            k_max=k_max,
            tau_seed=args.tau_seed,
        )
    else:
        if args.scope == "active" and formula is None:
            raise ValueError("--scope active requires --formula")
        mode = "semantic" if args.monitor == "semantic" else "predicates"
        stub = _load_noise(args.noise, mode, dictionary)
        basis_spec = dictionary if args.monitor == "semantic" else (m, k_max)
        dim = dictionary.r if args.monitor == "semantic" else m * (k_max + 1)
        sigma = _resolve_sigma(args, dataset, stub, basis_spec, dim)
        calib_eps = load_split(dataset, "calib")
        cfg = ScoreConfig(sigma=sigma, alpha=args.alpha, level=args.level)
        mon = calibrate(calib_eps, stub, cfg, basis_spec, tau_seed=args.tau_seed)
        if args.scope == "active":
            mon = mon.for_formula(formula)

    mon.predictor_config = stub.to_json()
    save_monitor(mon, args.out)
    scope = "formula-specific" if mon.support is not None else "fragment-wide"
    print(
        f"calibrated {mon.kind} monitor (level {mon.level}, alpha {mon.alpha}, "
        f"{scope}) on {mon.n_calibration} episodes: radius {mon.radius:.6g} "
        f"-> {args.out}"
    )
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    mon = load_monitor(args.model)
    dataset = Path(args.dataset)
    manifest = load_manifest(dataset)
    names = tuple(manifest["predicate_names"])
    formula = parse_formula(args.formula, names)
    stub = _predictor_for_model(mon)
    episodes = load_split(dataset, args.split)
    # Specialise and compile before --out is opened, so a formula the model
    # cannot certify leaves an existing output file as it was.
    mon = mon.monitor_for(formula)
    mon.decoder(formula)

    out_path = Path(args.out)
    as_csv = out_path.suffix.lower() == ".csv"
    counts: dict[str, int] = {}
    with open(out_path, "w", newline="" if as_csv else None) as fh:
        for i, ep in enumerate(episodes):
            result = run_episode(ep, stub, mon, [formula])
            if result.errors:
                raise ValueError(next(iter(result.errors.values())))
            for v in result.verdicts:
                counts[v.label.value] = counts.get(v.label.value, 0) + 1
            if as_csv:
                write_verdicts_csv(result.verdicts, fh, header=(i == 0), episode=i)
            else:
                write_verdicts_jsonl(result.verdicts, fh, episode=i)
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"certified {len(episodes)} episodes ({summary}) -> {out_path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    dataset = Path(args.dataset)
    manifest = load_manifest(dataset)
    names = tuple(manifest["predicate_names"])
    episodes = load_split(dataset, args.split)

    formula_texts = [
        line.split("#", 1)[0].strip()
        for line in Path(args.formulas).read_text().splitlines()
    ]
    formula_texts = [t for t in formula_texts if t]
    if not formula_texts:
        raise ValueError(f"{args.formulas}: no formulas found")
    formulas = [parse_formula(t, names) for t in formula_texts]

    monitors: dict[str, CalibratedMonitor] = {}
    rows = []
    for model_path in args.models.split(","):
        model_path = model_path.strip()
        name = Path(model_path).stem
        mon = load_monitor(model_path)
        monitors[name] = mon
        stub = _predictor_for_model(mon)
        mon_rows, errors = evaluate_monitor(
            name, mon, stub, episodes, formulas, coverage_seed=args.coverage_seed
        )
        rows.extend(mon_rows)
        for fname, msg in sorted(errors.items()):
            print(f"note: {name} cannot certify {fname!r}: {msg}", file=sys.stderr)

    out_path = Path(args.out)
    write_report_csv(rows, out_path)
    write_report_json(rows, out_path.with_suffix(".json"))
    written = [str(out_path), str(out_path.with_suffix(".json"))]

    ks = _parse_int_list(args.sweep)
    if ks:
        if args.sweep_predicate not in names:
            raise ValueError(
                f"--sweep-predicate {args.sweep_predicate!r} not among {list(names)}"
            )
        pred = Predicate(args.sweep_predicate, names.index(args.sweep_predicate))
        sweep_rows = horizon_sweep(monitors, ks, pred)
        sweep_path = out_path.with_name(out_path.stem + "_sweep.csv")
        write_sweep_csv(sweep_rows, sweep_path)
        written.append(str(sweep_path))

    print(f"report: {len(rows)} rows over {len(episodes)} episodes -> " + ", ".join(written))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptmon",
        description="Certified runtime monitoring of past-time STL over predicted histories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a crossroad benchmark dataset")
    p.add_argument("--config", help="key = value file overriding scenario parameters")
    p.add_argument("--counts", default="200,200,200", help="train,calib,test episode counts")
    p.add_argument("--seed", type=int, default=0, help="dataset seed")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="calibrate a monitor on the calib split")
    p.add_argument("--dataset", required=True, help="dataset directory from 'simulate'")
    p.add_argument(
        "--monitor", required=True, choices=("semantic", "rolling", "observer")
    )
    p.add_argument("--level", type=int, default=2, choices=(1, 2))
    p.add_argument("--alpha", type=float, default=0.1, help="miscoverage budget")
    p.add_argument(
        "--scope",
        choices=("fragment", "active"),
        default="active",
        help="calibrate fragment-wide or restricted to the formula's support",
    )
    p.add_argument("--formula", help="formula text (required for active scope and observer)")
    p.add_argument("--noise", help="key = value file for the predictor stub")
    p.add_argument(
        "--sigma",
        choices=("uniform", "auto"),
        default="uniform",
        help="per-coordinate scales: all-ones or estimated on the train split",
    )
    p.add_argument("--tau-seed", type=int, default=0, help="level-2 time sampling seed")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("certify", help="run a saved monitor over a dataset split")
    p.add_argument("--model", required=True, help="model JSON from 'calibrate'")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test", choices=("train", "calib", "test"))
    p.add_argument("--formula", required=True, help="formula text to certify")
    p.add_argument("--out", required=True, help="verdicts path (.jsonl, or .csv)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("report", help="tabulate certification metrics per monitor")
    p.add_argument("--models", required=True, help="comma-separated model JSON paths")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test", choices=("train", "calib", "test"))
    p.add_argument("--formulas", required=True, help="file with one formula per line")
    p.add_argument("--sweep", default="1,2,4,8,16", help="window lengths K (empty to skip)")
    p.add_argument(
        "--sweep-predicate", default="p_f", help="predicate for the G[0,K] sweep"
    )
    p.add_argument("--coverage-seed", type=int, default=0)
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
