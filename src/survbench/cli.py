"""Command line entry points: reconstruct, simulate, evaluate, bench."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .core import RandomStream, StudyDataset, counts_ok, load_dataset, store_dataset
from .engines import build_model, model_summary, simulate
from .evaluate import evaluate_dataset, store_evaluation
from .harness import load_config, run_benchmark
from .reconstruct import load_digitized_arm, load_event_totals, reconstruct_study


def _labeled_paths(parser: argparse.ArgumentParser, spec: str, flag: str) -> list[tuple[str, str]]:
    pairs = []
    for part in spec.split(","):
        label, sep, path = part.partition("=")
        if not sep or not label or not path:
            parser.error(f"{flag} expects label=path[,label=path], got {spec!r}")
        pairs.append((label, path))
    if len(pairs) != 2:
        parser.error(f"{flag} expects exactly 2 arms, got {len(pairs)}")
    if pairs[0][0] == pairs[1][0]:
        parser.error(f"{flag} names arm {pairs[0][0]!r} twice; the arm labels must differ")
    return pairs


def _cmd_reconstruct(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    coords = _labeled_paths(parser, args.coords, "--coords")
    risk = dict(_labeled_paths(parser, args.risk, "--risk"))
    if set(risk) != {label for label, _ in coords}:
        parser.error("--coords and --risk must name the same arm labels")
    totals = load_event_totals(args.meta, [label for label, _ in coords]) if args.meta else {}
    arms = tuple(
        load_digitized_arm(label, coords_path, risk[label], totals.get(label))
        for label, coords_path in coords
    )
    dataset, report = reconstruct_study(arms, study_id=args.study_id)  # type: ignore[arg-type]
    store_dataset(dataset, args.out)
    report.store(args.report)
    for label, arm_report in report.arms.items():
        state = "converged" if arm_report.converged else "NOT converged"
        print(
            f"{label}: {arm_report.n_observations} observations, "
            f"{arm_report.achieved_total_events} events, "
            f"max curve deviation {arm_report.max_survival_deviation:.4g}, {state}"
        )
    return 0


def _seed(text: str) -> int:
    """A --seed value: an integer in [0, 2**64), the range RandomStream takes."""
    try:
        return RandomStream(int(text), 0).seed
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _n_per_arm(text: str) -> int | str:
    """A --n-per-arm value: 'source' or a count >= 1."""
    if text == "source":
        return text
    try:
        n = int(text)
    except ValueError:
        n = 0
    if not counts_ok((n,), 1):
        raise argparse.ArgumentTypeError(f"expected an integer >= 1 or 'source', got {text!r}")
    return n


def _cmd_simulate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    dataset = load_dataset(args.input)
    sizes = [len(arm) for arm in dataset.arms]
    if args.engine == "condboot" and args.n_per_arm != "source" and set(sizes) != {args.n_per_arm}:
        parser.error(f"--n-per-arm: condboot keeps each arm's source size {sizes}, got {args.n_per_arm}")
    stream = RandomStream(args.seed, 0)
    arms = []
    summaries = []
    for arm in dataset.arms:
        model = build_model(args.engine, arm)
        n_out = len(arm) if args.n_per_arm == "source" else args.n_per_arm
        arms.append(simulate(model, n_out, stream))
        summaries.append(model_summary(model))
    store_dataset(StudyDataset(tuple(arms)), args.out)
    if args.model_summary:
        with open(args.model_summary, "w") as fh:
            json.dump(summaries, fh, indent=2)
            fh.write("\n")
    print(f"wrote {sum(len(a) for a in arms)} simulated observations to {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    result = evaluate_dataset(load_dataset(args.input))
    store_evaluation(result, args.out)
    print(json.dumps(result.to_json(), indent=2))
    return 0


def _cmd_bench(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    config = replace(load_config(args.config), output_dir=args.out)
    if args.iterations is not None:
        try:
            config = replace(config, iterations=args.iterations)
        except ValueError as exc:
            parser.error(f"--iterations: {exc}")
    result = run_benchmark(config)
    print(
        f"{config.iterations} iterations x {len(config.studies)} studies x "
        f"{len(config.engines)} engines in {result.elapsed_seconds:.1f}s"
    )
    for skip in result.skipped:
        print(f"skipped {skip['study']}/{skip['engine']}: {skip['reason']}", file=sys.stderr)
    return 2 if result.skipped else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="survbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser("reconstruct", help="rebuild patient data from digitized curves")
    p_rec.add_argument("--coords", required=True, help="label=coords.csv,label=coords.csv")
    p_rec.add_argument("--risk", required=True, help="label=risk.csv,label=risk.csv")
    p_rec.add_argument("--meta", help="JSON object mapping arm label to total event count (integer >= 0 or null)")
    p_rec.add_argument("--study-id", default=None)
    p_rec.add_argument("--out", required=True, help="output dataset CSV")
    p_rec.add_argument("--report", required=True, help="output quality-report JSON")

    p_sim = sub.add_parser("simulate", help="generate one synthetic dataset")
    p_sim.add_argument(
        "--engine", required=True, choices=["parametric", "kde", "case", "condboot"]
    )
    p_sim.add_argument("--input", required=True, help="source dataset CSV")
    p_sim.add_argument("--n-per-arm", type=_n_per_arm, default="source", help="integer >= 1 or 'source'")
    p_sim.add_argument("--seed", type=_seed, default=0, help="integer in [0, 2**64)")
    p_sim.add_argument("--out", required=True, help="output dataset CSV")
    p_sim.add_argument("--model-summary", help="optional JSON dump of the fitted models")

    p_eval = sub.add_parser("evaluate", help="compute comparison statistics")
    p_eval.add_argument("--input", required=True, help="dataset CSV")
    p_eval.add_argument("--out", required=True, help="output JSON")

    p_bench = sub.add_parser("bench", help="run the simulation benchmark")
    p_bench.add_argument("--config", required=True, help="benchmark config JSON")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--iterations", type=int, default=None, help="override config")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "reconstruct":
        return _cmd_reconstruct(parser, args)
    if args.command == "simulate":
        return _cmd_simulate(parser, args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "bench":
        return _cmd_bench(parser, args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
