"""Command line interface.

Subcommands:
  build     construct a code and write its design + grouping JSON files
  verify    run the rank-criterion certificate and falsifier for one mode
  tradeoff  emit the rate vs worst-case-complexity table (CSV + SVG)
  simulate  run a Monte Carlo sweep from a JSON config, flags override keys

Exit codes: 0 success, 1 infeasible parameters or bad input, 2 a rank
witness was found by verify.  For verify, 0 means that no witness was found
within the budget, not that full diversity is proven (see verify --help).
"""

import argparse
import contextlib
import json
import os
import sys

from . import decoders, diversity, lindesign, simharness
from .constructions import build_code


def _add_code_args(p, required=True):
    p.add_argument("--family", choices=simharness.FAMILIES, required=required,
                   help="code family: sec3 = diagonal layers, sec4 = Alamouti blocks")
    p.add_argument("--antennas", type=int, required=required)
    p.add_argument("--lambda", dest="group_size", type=int, default=None,
                   help="real symbols per group (sec3 only; sec4 uses N/2)")
    p.add_argument("--layers", type=int, required=required)
    p.add_argument("--coarse", action="store_true",
                   help="use the coarse (merged-pairs) grouping, sec4 only")


def _build_code(args):
    return build_code(args.family, args.antennas, args.layers, args.group_size,
                      variant="coarse" if args.coarse else "fine")


def _cmd_build(args):
    stem, ext = os.path.splitext(args.out)  # the file name's extension only
    grouping_out = args.grouping_out or f"{stem}.grouping{ext}"
    with _outputs(args.out, grouping_out) as texts:
        design, grouping, spec = _build_code(args)
        texts[args.out] = _json_text(lindesign.design_to_json(design))
        texts[grouping_out] = _json_text(lindesign.grouping_to_json(grouping))
    print(f"K={spec.num_real_symbols} T={spec.delay} N={spec.antennas} "
          f"groups={spec.num_groups} rate={spec.rate} "
          f"exponent={spec.worst_case_exponent}")
    print(f"design -> {args.out}")
    print(f"grouping -> {grouping_out}")
    return 0


@contextlib.contextmanager
def _outputs(*paths):
    """Check a command's output paths before its work, and write them after it.

    The with block fills the dict it gets with each path's text (a path of
    None is an output not asked for).  Two paths that resolve to one file
    raise ValueError.  Each path is opened for writing, truncating none; any
    failure from then on, KeyboardInterrupt too, removes the files it created.
    """
    paths = [p for p in paths if p]
    real = [os.path.realpath(p) for p in paths]
    if shared := [p for p, r in zip(paths, real) if real.count(r) > 1]:
        raise ValueError(f"{shared[0]} and {shared[1]} are one file; give each output its own")
    made, texts = [], {}
    try:
        for path in paths:
            try:
                open(path, "x").close()
                made.append(path)
            except FileExistsError:
                open(path, "a").close()
        yield texts
        for path in paths:
            with open(path, "w") as f:
                f.write(texts[path])
    except BaseException:
        for path in made:
            os.remove(path)
        raise


def _json_text(doc):
    return json.dumps(doc, indent=1) + "\n"


def _read(from_json, path):
    """from_json of the JSON object in the file at path; a file without one, or a
    document from_json rejects (ValueError, TypeError), raises ValueError naming it."""
    try:
        with open(path) as f:
            doc = json.load(f)
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        return from_json(doc)
    except (ValueError, TypeError) as exc:  # json.JSONDecodeError is a ValueError
        raise ValueError(f"{exc} (in {path})") from exc


def _cmd_verify(args):
    if args.design:
        if not args.grouping:
            raise ValueError("--design requires --grouping")
        design = _read(lindesign.design_from_json, args.design)
        scheme = _read(lindesign.grouping_from_json, args.grouping)
    elif None in (args.family, args.antennas, args.layers):
        raise ValueError("verify needs --design with --grouping, "
                         "or --family, --antennas and --layers")
    else:
        design, scheme, _ = _build_code(args)
    with _outputs(args.out) as texts:
        certified = diversity.certify(design, scheme, args.mode, args.pam_levels)
        falsify = diversity.falsify_pic if args.mode == "pic" else diversity.falsify_picsic
        witness = falsify(design, scheme, pam_levels=args.pam_levels,
                          trials_per_group=args.trials, rng_seed=args.seed)
        texts[args.out] = report = _json_text({
            "mode": args.mode,
            "certified": certified,
            "witness": witness.to_json() if witness else None,
            "budget": {
                "pam_levels": args.pam_levels,
                "trials_per_group": args.trials,
                "rng_seed": args.seed,
                "groups": scheme.num_groups,
            },
        })
    print(report, end="")
    return 2 if witness else 0


def _cmd_tradeoff(args):
    csv_path = args.csv or f"tradeoff_N{args.antennas}_T{args.delay}.csv"
    svg_path = args.svg or f"tradeoff_N{args.antennas}_T{args.delay}.svg"
    with _outputs(csv_path, svg_path) as texts:
        rows, texts[csv_path], texts[svg_path] = simharness.render_tradeoff(
            args.antennas, args.delay)
    for r in rows:
        print(f"{r.family:24s} group={r.symbols_per_group:<3d} rate={str(r.rate):>6s} "
              f"exponent={r.exponent}")
    print(f"table -> {csv_path}")
    print(f"plot  -> {svg_path}")
    return 0


def _cmd_simulate(args):
    doc = _read(dict, args.config)
    # both keys leave the config whatever the flags say; a flag wins
    csv_out, json_out = doc.pop("csv_out", None), doc.pop("json_out", None)
    csv_out, json_out = args.csv or csv_out, args.json_out or json_out
    flags = ("decoder", "search_mode", "master_seed", "min_frame_errors", "max_frames", "rotation")
    doc.update({k: getattr(args, k) for k in flags if getattr(args, k) is not None})
    if args.snr:
        try:
            doc["snr_grid_db"] = [float(s) for s in args.snr.split(",")]
        except ValueError:
            raise ValueError(f"--snr takes comma-separated dB values, got {args.snr!r}") from None
    cfg = simharness.SimConfig.from_json(doc)
    with _outputs(csv_out, json_out, args.svg) as texts:
        result = simharness.run_simulation(cfg, workers=args.workers)
        texts[csv_out] = result.to_csv()
        texts[json_out] = _json_text(result.to_json())
        texts[args.svg] = simharness.render_ber_curves(
            {cfg.decoder: result},
            title=f"{cfg.family} N={cfg.antennas} n={cfg.layers} {cfg.decoder}")
    if result.overloaded:
        print("warning: overloaded link, 2*N_r*T < K: fewer real observations "
              "than real symbols, so the groups cannot all be separated",
              file=sys.stderr)
    for p in result.points:
        print(f"snr={p.snr_db:5.1f} dB  frames={p.frames:<8d} ber={p.ber:.3e} "
              f"ser={p.ser:.3e} fer={p.fer:.3e} max_evals={p.max_evaluations}")
    if result.diversity_order is not None:
        print(f"diversity order ~ {result.diversity_order:.2f} "
              f"(fit over {list(result.fit_window_db)} dB)")
    few = [p.snr_db for p in result.points
           if p.bit_errors < simharness.FIT_MIN_BIT_ERRORS]
    if few:
        print(f"left out of the fit: {few} dB "
              f"(fewer than {simharness.FIT_MIN_BIT_ERRORS} bit errors)")
    for label, path in (("csv", csv_out), ("json", json_out), ("svg", args.svg)):
        if path:
            print(f"{label} -> {path}")
    return 0


def make_parser():
    parser = argparse.ArgumentParser(prog="stbclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a code, write design/grouping JSON")
    _add_code_args(b)
    b.add_argument("--out", required=True, help="design JSON path")
    b.add_argument("--grouping-out", default=None,
                   help="grouping JSON path (default: derived from --out)")
    b.set_defaults(fn=_cmd_build)

    v = sub.add_parser("verify", help="certify and falsify the rank criterion", description=(
        "\"certified\": true is a proof for the named --mode only; false means not proven.  "
        "Exit 2: a rank witness was found, a proof of failure.  Exit 0: no witness was found "
        "within this budget, which does not prove full diversity.  A1 = I, A2 = diag(1, -1) "
        "with groups {1} and {2} exits 0, \"witness\": null, yet 2 A1 - 2 A2 has rank 1."))
    v.add_argument("--design", help="design JSON (else name a code via --family)")
    v.add_argument("--grouping", help="grouping JSON")
    _add_code_args(v, required=False)
    v.add_argument("--mode", choices=("pic", "picsic"), required=True)
    v.add_argument("--pam-levels", type=int, default=4)
    v.add_argument("--trials", type=int, default=1000,
                   help="random interference draws per group")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None, help="also write the JSON report here")
    v.set_defaults(fn=_cmd_verify)

    t = sub.add_parser("tradeoff", help="rate vs worst-case complexity table")
    t.add_argument("--antennas", type=int, required=True)
    t.add_argument("--delay", type=int, required=True)
    t.add_argument("--csv", default=None)
    t.add_argument("--svg", default=None)
    t.set_defaults(fn=_cmd_tradeoff)

    s = sub.add_parser("simulate", help="run a Monte Carlo sweep from a config")
    s.add_argument("--config", required=True, help="JSON config (SimConfig keys)")
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--csv", default=None)
    s.add_argument("--json-out", default=None)
    s.add_argument("--svg", default=None, help="write a BER waterfall plot here")
    s.add_argument("--snr", default=None, help="override grid, e.g. 8,12,16")
    s.add_argument("--decoder", choices=tuple(decoders.DECODERS), default=None)
    s.add_argument("--search-mode", choices=decoders.SEARCH_MODES, default=None)
    s.add_argument("--master-seed", type=int, default=None)
    s.add_argument("--min-frame-errors", type=int, default=None)
    s.add_argument("--max-frames", type=int, default=None)
    s.add_argument("--rotation", choices=("certified", "identity"), default=None,
                   help="identity = the deliberately broken ablation")
    s.set_defaults(fn=_cmd_simulate)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
