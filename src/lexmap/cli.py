"""Command-line entry point wiring the library into reproducible runs.

Every subcommand writes a config snapshot (config.json) next to its
outputs; rerunning with --config <snapshot> reproduces the primary outputs
byte for byte. All randomness derives from --seed. Usage errors exit 2;
runtime failures exit 1 after printing one machine-parsable line of the
form ``error: <category>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, synth
from .embeddings import EmbeddingSpace, load_embeddings
from .lexicon import build_dataset, build_full_dataset, load_lexicon
from .mapper import INITS, TrainConfig, get_trainer, load_map, save_map
from .neighborhoods import build_neighborhood, growth_profile, profile_to_tsv
from .translate import MapAtlas, load_atlas, translate_words


def _add_space_flags(parser: argparse.ArgumentParser, tgt: bool = True) -> None:
    parser.add_argument("--src-emb")
    if tgt:
        parser.add_argument("--tgt-emb")
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--no-normalize", action="store_true")
    parser.add_argument("--normalize", dest="no_normalize", action="store_false", default=False,
                        help="undo a --no-normalize that a --config snapshot records")


def _add_eval_flags(parser: argparse.ArgumentParser, test_size: int) -> None:
    parser.add_argument("--s", type=float, default=0.5)
    parser.add_argument("--test-size", type=int, default=test_size)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--min-train", type=int, default=50)


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trainer", choices=["maxmargin", "lsq"], default="maxmargin")
    parser.add_argument("--gamma", type=float, default=0.4)
    parser.add_argument("--negatives", type=int, default=1)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--lr", type=float, default=0.1)
    parser.add_argument("--lr-decay", type=float, default=0.99)
    parser.add_argument("--init", choices=INITS, default="identity")
    parser.add_argument("--ortho-weight", type=float, default=0.0)
    parser.add_argument("--lam", type=float, default=0.0, help="ridge weight for --trainer lsq")


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        gamma=args.gamma,
        negatives=args.negatives,
        epochs=args.epochs,
        learning_rate=args.lr,
        lr_decay=args.lr_decay,
        seed=args.seed,
        init=args.init,
        ortho_weight=args.ortho_weight,
    )


def build_parser(defaults: dict[str, dict] | None = None) -> argparse.ArgumentParser:
    """The lexmap parser; ``defaults`` replaces declared defaults, per subcommand.

    A default that no parse of its flag could give raises TypeError."""
    parser = argparse.ArgumentParser(
        prog="lexmap",
        description="Locally linear word-translation maps: training, diagnostics, serving.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("neighborhood", help="emit neighborhood growth profiles")
    _add_space_flags(p, tgt=False)
    p.add_argument("--anchors", help="comma-separated anchor words")
    p.add_argument("--thresholds", default="0.9,0.8,0.7,0.6,0.5,0.4,0.3",
                   help="comma-separated descending thresholds")

    p = sub.add_parser("train", help="train one map (whole lexicon or one neighborhood)")
    _add_space_flags(p)
    p.add_argument("--lexicon")
    p.add_argument("--anchor", default=None, help="train on this word's neighborhood only")
    p.add_argument("--s", type=float, default=0.5)
    _add_train_flags(p)

    p = sub.add_parser("experiment", help="full multi-anchor report")
    _add_space_flags(p)
    p.add_argument("--lexicon")
    p.add_argument("--anchors", help="comma list; first anchor is the reference")
    _add_eval_flags(p, test_size=500)
    p.add_argument("--split-method", choices=["random", "frequency"], default="random",
                   help="test words: a seeded sample, or each neighborhood's members nearest its anchor")
    _add_train_flags(p)

    p = sub.add_parser("translate", help="batch translation via a map or an atlas")
    _add_space_flags(p)
    p.add_argument("--map", dest="map_path", default=None)
    p.add_argument("--atlas", default=None, help="directory written by save_atlas")
    p.add_argument("--words", default=None, help="comma-separated source words")
    p.add_argument("--input", default=None, help="file with one source word per line")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--floor", type=float, default=0.0)

    p = sub.add_parser("synth", help="generate a synthetic world on disk")
    p.add_argument("--kind", choices=["linear", "nonlinear"], default="linear")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--d", type=int, default=50)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--variation-strength", type=float, default=1.5)
    p.add_argument("--clusters", type=int, default=8)
    p.add_argument("--cluster-std", type=float, default=0.3)

    p = sub.add_parser("diagnose", help="locality diagnostic on an exported world")
    p.add_argument("--world", help="directory written by the synth subcommand")
    p.add_argument("--anchors", default=None, help="comma list; default: one per cluster")
    _add_eval_flags(p, test_size=100)
    _add_train_flags(p)

    for name, sp in sub.choices.items():
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--config", default=None, help="rerun from a config.json snapshot")
        replaced = (defaults or {}).get(name, {})
        for action in sp._actions:
            if action.dest in replaced and not _parses_to(action, replaced[action.dest]):
                raise TypeError(f"{action.dest}={replaced[action.dest]!r} is no value of "
                                f"{action.option_strings[0]}")
        sp.set_defaults(**replaced)
    return parser


def _parses_to(action: argparse.Action, value) -> bool:
    """Whether a parse of the action's flag could give value."""
    if value is None or action.choices is not None:
        return value == action.default or value in (action.choices or ())
    if action.nargs == 0:  # store_true / store_false
        return isinstance(value, bool)
    return type(value) in {None: (str,), int: (int,), float: (int, float)}[action.type]


# namespace entries that config.json does not record
_UNRECORDED = ("subcommand", "config")


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv; a --config snapshot's values become the subcommand's defaults.

    Flags on argv then win over the snapshot by argparse's own rules, and
    snapshot keys that name no flag of the subcommand (say ``jobs``) are dropped.
    """
    args = build_parser().parse_args(argv)
    if args.config is None:
        return args
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
        if not (isinstance(snapshot, dict) and isinstance(snapshot.get("args", {}), dict)):
            raise TypeError('expected an object with an "args" object')
        if snapshot.get("subcommand") != args.subcommand:
            raise ValueError(f"snapshot is for subcommand {snapshot.get('subcommand')!r}, "
                             f"not {args.subcommand!r}")
        recorded = {k: v for k, v in snapshot.get("args", {}).items()
                    if k in vars(args) and k not in _UNRECORDED}
        parser = build_parser({args.subcommand: recorded})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad config snapshot {args.config}: {exc}") from None
    return parser.parse_args(argv)


def _write_snapshot(args: argparse.Namespace, out: Path) -> None:
    payload = {k: v for k, v in vars(args).items() if k not in _UNRECORDED}
    with (out / "config.json").open("w", encoding="utf-8") as fh:
        json.dump({"subcommand": args.subcommand, "args": payload}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _comma_list(value: str) -> list[str]:
    items = [w for w in value.split(",") if w]
    if not items:
        raise ValueError("empty comma list")
    return items


def _safe_name(token: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in token)


def _distinct_file_names(anchors: list[str]) -> list[str]:
    """anchors, checked that they are distinct and write distinct output files."""
    owners: dict[str, str] = {}
    for anchor in anchors:
        name = _safe_name(anchor)
        if owners.get(name) == anchor:
            raise ValueError(f"anchor words must be unique: {anchor!r} repeats")
        if owners.setdefault(name, anchor) != anchor:
            raise ValueError(f"anchors {owners[name]!r} and {anchor!r} share the file name {name!r}")
    return anchors


def _load_spaces(args, dests=("src_emb", "tgt_emb")) -> tuple[EmbeddingSpace, ...]:
    return tuple(load_embeddings(getattr(args, dest), limit=args.limit,
                                 normalize=not args.no_normalize) for dest in dests)


def _cmd_neighborhood(args, out: Path) -> None:
    anchors = _distinct_file_names(_comma_list(args.anchors))
    thresholds = [float(t) for t in _comma_list(args.thresholds)]
    (space,) = _load_spaces(args, ["src_emb"])
    for anchor in anchors:
        profile = growth_profile(space, anchor, thresholds)
        (out / f"profile_{_safe_name(anchor)}.tsv").write_text(profile_to_tsv(profile), encoding="utf-8")


def _cmd_train(args, out: Path) -> None:
    config = _train_config(args)  # a bad trainer flag fails before any input loads
    src_space, tgt_space = _load_spaces(args)
    lexicon = load_lexicon(args.lexicon)
    if args.anchor is not None:
        nb = build_neighborhood(src_space, args.anchor, args.s)
        train = build_dataset(nb, lexicon, src_space, tgt_space)
        anchor = args.anchor
    else:
        train = build_full_dataset(lexicon, src_space, tgt_space)
        anchor = "global"
    _, fit = get_trainer(args.trainer)
    fitted = fit(train, tgt_space, config, args.lam, anchor)
    save_map(fitted, out / "map.txt")
    print(f"trained {fitted.trainer} map on {fitted.train_size} pairs -> {out / 'map.txt'}")


def _cmd_experiment(args, out: Path) -> None:
    anchors = _distinct_file_names(_comma_list(args.anchors))
    config = _train_config(args)
    _run_report(args, out, config, anchors, *_load_spaces(args), load_lexicon(args.lexicon))


def _cmd_diagnose(args, out: Path) -> None:
    anchors = _distinct_file_names(_comma_list(args.anchors)) if args.anchors else None
    config = _train_config(args)
    world = synth.load_world(args.world)
    _run_report(args, out, config, anchors or synth.default_anchor_words(world),
                world.src_space, world.tgt_space, world.lexicon)


def _run_report(args, out: Path, config, anchors, src_space, tgt_space, lexicon) -> None:
    """run_experiment, then write every report file and map into out."""
    report = analysis.run_experiment(
        anchors,
        args.s,
        src_space,
        tgt_space,
        lexicon,
        config,
        test_size=args.test_size,
        seed=args.seed,
        trainer=args.trainer,
        lam=args.lam,
        eval_k=args.k,
        min_train=args.min_train,
        split_method=getattr(args, "split_method", "random"),  # diagnose has no --split-method
    )
    tsv = analysis.report_to_tsv(report)
    for name, text in [("report.tsv", tsv),
                       ("report.jsonl", analysis.report_to_records(report)),
                       ("scatter.tsv", analysis.report_scatter_tsv(report)),
                       ("pairwise.tsv", analysis.pairwise_to_tsv(report))]:
        (out / name).write_text(text, encoding="utf-8")
    maps_dir = out / "maps"
    maps_dir.mkdir(exist_ok=True)
    # an earlier run into the same --out must not leave its maps beside these
    for stale in [*maps_dir.glob("local_*.txt"), maps_dir / "global.txt"]:
        stale.unlink(missing_ok=True)
    for anchor, fitted in report.local_maps.items():
        save_map(fitted, maps_dir / f"local_{_safe_name(anchor)}.txt")
    if report.global_map is not None:
        save_map(report.global_map, maps_dir / "global.txt")
    print(tsv, end="")


def _cmd_translate(args, out: Path) -> None:
    if (args.map_path is None) == (args.atlas is None):
        raise ValueError("pass exactly one of --map or --atlas")
    if args.k < 1:
        raise ValueError(f"k must be >= 1, got {args.k}")
    # maps load first: a bad path fails before the slow .vec loads
    atlas = load_atlas(args.atlas) if args.atlas else MapAtlas((), fallback=load_map(args.map_path))
    src_space, tgt_space = _load_spaces(args)
    if args.words:
        words = _comma_list(args.words)
    elif args.input:
        # read_text ends every line with \n; splitlines would also split at U+2028 and kin,
        # and str.strip() would cut them off a word, though a .vec token keeps them
        entries = Path(args.input).read_text(encoding="utf-8").split("\n")
        words = [w.strip(" ") for w in entries if w.strip(" ")]
    else:
        raise ValueError("pass --words or --input")

    lines = ["source\tmap\trank\ttarget\tscore"]
    translations = translate_words(atlas, words, src_space, tgt_space, args.k, floor=args.floor)
    for word, (ranking, label) in zip(words, translations):
        for rank, (target, score) in enumerate(ranking, 1):
            lines.append(f"{word}\t{label}\t{rank}\t{target}\t{score:.6f}")
    (out / "translations.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))


def _cmd_synth(args, out: Path) -> None:
    # a linear world is the rotating generator at strength 0, bit for bit
    world = synth.generate_nonlinear_world(
        args.n, args.d, noise_sigma=args.noise_sigma, seed=args.seed,
        variation_strength=args.variation_strength if args.kind == "nonlinear" else 0.0,
        n_clusters=args.clusters, cluster_std=args.cluster_std,
    )
    synth.export_world(world, out)
    print(f"wrote {args.kind} world (n={args.n}, d={args.d}) to {out}")


# each subcommand's handler and the dests that must be set after any --config snapshot
_COMMANDS = {
    "neighborhood": (_cmd_neighborhood, ("src_emb", "anchors", "out")),
    "train": (_cmd_train, ("src_emb", "tgt_emb", "lexicon", "out")),
    "experiment": (_cmd_experiment, ("src_emb", "tgt_emb", "lexicon", "anchors", "out")),
    "translate": (_cmd_translate, ("src_emb", "tgt_emb", "out")),
    "synth": (_cmd_synth, ("out",)),
    "diagnose": (_cmd_diagnose, ("world", "out")),
}


def run(argv: list[str]) -> int:
    """Parse and execute; returns the process exit code."""
    try:
        args = _parse(argv)
        command, required = _COMMANDS[args.subcommand]
        missing = [f for f in required if getattr(args, f) is None]
        if missing:
            flags = ", ".join("--" + f.replace("_", "-") for f in missing)
            print(f"error: usage: missing required arguments: {flags}", file=sys.stderr)
            return 2
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        command(args, out)
        _write_snapshot(args, out)
        return 0
    except SystemExit as exc:  # argparse handles usage errors (exit code 2)
        return int(exc.code or 0)
    except OSError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
    except KeyError as exc:  # str() of a KeyError is the repr of its message
        print(f"error: constraint: {exc.args[0] if exc.args else exc}", file=sys.stderr)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # before ValueError, LinAlgError's base
        print(f"error: numeric: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: constraint: {exc}", file=sys.stderr)
    return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
