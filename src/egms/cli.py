"""Command-line interface.

Subcommands: ``select`` (full pipeline), ``baseline`` (comparison
strategies), ``diagnose`` (diversity report), ``metrics avg-rel``,
``gen-synthetic``. Exit codes: 0 success, 1 input/validation error,
2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys

from .datamodel import (
    EmbeddingStore,
    SelectionConfig,
    gen_synthetic,
    load_embedding_store,
    load_sample_manifest,
    write_embedding_store,
    write_sample_manifest,
    write_selection_manifest,
)
from .errors import InputError, InternalInvariantError
from .metrics import avg_rel, diversity_report, load_benchmark_scores
from .sampler import STRATEGIES, select, stderr_progress


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap to the input-error code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _tails(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected LOW,HIGH")
    return float(parts[0]), float(parts[1])


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--embeddings", required=True, help="binary embedding file")
    p.add_argument("--manifest", required=True, help="JSONL sample manifest")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--clusters", type=int, default=1000)
    p.add_argument("--candidates", type=int, default=100)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--tails", type=_tails, default=(0.05, 0.05), metavar="LOW,HIGH")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--normalize", action="store_true", help="L2-normalize embeddings first")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines on stderr")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="egms", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sel = sub.add_parser("select", help="run the entropy-gain selection pipeline")
    _add_config_args(p_sel)
    p_sel.add_argument("--out", required=True, help="selection manifest output path")
    p_sel.add_argument("--dump-centroids", default=None, help="optional centroid dump (embedding format)")
    p_sel.set_defaults(strategy="exam", bins=50)

    p_base = sub.add_parser("baseline", help="run a baseline selection strategy")
    p_base.add_argument("--strategy", required=True, choices=STRATEGIES)
    _add_config_args(p_base)
    p_base.add_argument("--bins", type=int, default=50, help="score bins for ccs")
    p_base.add_argument("--out", required=True)
    p_base.set_defaults(dump_centroids=None)

    p_diag = sub.add_parser("diagnose", help="entropy diagnostics vs the random reference")
    p_diag.add_argument("--strategy", required=True, choices=("exam",) + STRATEGIES)
    p_diag.add_argument("--seeds", type=int, required=True, help="number of seeds")
    _add_config_args(p_diag)

    p_metrics = sub.add_parser("metrics", help="evaluation metrics")
    msub = p_metrics.add_subparsers(dest="metric", required=True, parser_class=_Parser)
    p_avg = msub.add_parser("avg-rel", help="average relative accuracy from a scores file")
    p_avg.add_argument("--scores", required=True, help="rows of 'benchmark, subset, fullset'")

    p_gen = sub.add_parser("gen-synthetic", help="deterministic Gaussian-mixture test data")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--blobs", type=int, default=1)
    p_gen.add_argument("--spread", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-embeddings", required=True)
    p_gen.add_argument("--out-manifest", required=True)
    return parser


def _config_from(args) -> SelectionConfig:
    return SelectionConfig(
        budget=args.budget,
        clusters=args.clusters,
        candidate_size=args.candidates,
        sigma=args.sigma,
        tail_low=args.tails[0],
        tail_high=args.tails[1],
        seed=args.seed,
        workers=args.workers,
        normalize=args.normalize,
    )


def _load_inputs(args):
    return load_embedding_store(args.embeddings), load_sample_manifest(args.manifest)


def _cmd_select(args) -> int:
    """``select`` and ``baseline``: run a strategy and write its manifest."""
    store, metas = _load_inputs(args)
    config = _config_from(args)
    progress = None if args.quiet else stderr_progress
    manifest, assignment = select(store, metas, args.strategy, config, args.bins, progress)
    write_selection_manifest(args.out, manifest)
    if args.dump_centroids:
        write_embedding_store(args.dump_centroids, EmbeddingStore(assignment.centroids))
    named = f" ({args.strategy})" if args.command == "baseline" else ""
    print(f"selected {len(manifest.selected)} of {store.count}{named} -> {args.out}")
    return 0


def _cmd_diagnose(args) -> int:
    store, metas = _load_inputs(args)
    config = _config_from(args)
    report = diversity_report(store, metas, args.strategy, config, args.seeds)
    print(f"strategy {report.strategy}")
    print(f"seeds {len(report.seeds)}")
    print(f"entropy_mean_nats {report.mean_entropy!r}")
    print(f"entropy_min_nats {report.min_entropy!r}")
    print(f"entropy_max_nats {report.max_entropy!r}")
    print(f"exp_entropy_mean {report.mean_exp_entropy!r}")
    print(f"exp_entropy_random_mean {report.random_mean_exp_entropy!r}")
    print(f"gain_ratio_pct {report.gain_ratio_pct!r}")
    return 0


def _cmd_metrics(args) -> int:
    scores = load_benchmark_scores(args.scores)
    print(f"{avg_rel(scores):.4f}")
    return 0


def _cmd_gen(args) -> int:
    store, metas = gen_synthetic(args.n, args.dim, args.blobs, args.spread, args.seed)
    write_embedding_store(args.out_embeddings, store)
    write_sample_manifest(args.out_manifest, metas)
    print(f"wrote {store.count}x{store.dim} embeddings -> {args.out_embeddings}")
    print(f"wrote {len(metas)} sample records -> {args.out_manifest}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "select": _cmd_select,
        "baseline": _cmd_select,
        "diagnose": _cmd_diagnose,
        "metrics": _cmd_metrics,
        "gen-synthetic": _cmd_gen,
    }
    try:
        return handlers[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
