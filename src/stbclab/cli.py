"""Command line interface.

Subcommands:
  build     construct a code and write its design + grouping JSON files
  verify    run the rank-criterion falsifier (and certificate, for named codes)
  tradeoff  emit the rate vs worst-case-complexity table (CSV + SVG)
  simulate  run a Monte Carlo sweep from a JSON config, flags override keys

Exit codes: 0 success, 1 infeasible parameters or bad input, 2 a rank
witness was found by verify.
"""

import argparse
import json
import sys

from . import diversity, lindesign, simharness
from .constructions import Family, build_code


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
    design, grouping, spec = _build_code(args)
    lindesign.save_json(lindesign.design_to_json(design), args.out)
    grouping_out = args.grouping_out or _derived_grouping_path(args.out)
    lindesign.save_json(lindesign.grouping_to_json(grouping), grouping_out)
    print(f"K={spec.num_real_symbols} T={spec.delay} N={spec.antennas} "
          f"groups={spec.num_groups} rate={spec.rate} "
          f"exponent={spec.worst_case_exponent}")
    print(f"design -> {args.out}")
    print(f"grouping -> {grouping_out}")
    return 0


def _derived_grouping_path(design_path):
    stem, dot, ext = design_path.rpartition(".")
    return f"{stem}.grouping.{ext}" if dot else f"{design_path}.grouping"


def _cmd_verify(args):
    certified = None
    if args.design:
        if not args.grouping:
            raise ValueError("--design requires --grouping")
        design = lindesign.design_from_json(lindesign.load_json(args.design))
        scheme = lindesign.grouping_from_json(lindesign.load_json(args.grouping))
    else:
        design, scheme, spec = _build_code(args)
        from .rotations import build_rotation
        rot = build_rotation(spec.group_size)
        if spec.family is Family.DIAGONAL:
            certified = diversity.certify_diagonal(spec, rot, args.pam_levels)
        elif spec.grouping_variant == "fine":
            certified = diversity.certify_alamouti_block(spec, rot, args.pam_levels)
    falsify = diversity.falsify_pic if args.mode == "pic" else diversity.falsify_picsic
    witness = falsify(design, scheme, pam_levels=args.pam_levels,
                      trials_per_group=args.trials, rng_seed=args.seed)
    report = {
        "mode": args.mode,
        "certified": certified,
        "witness": witness.to_json() if witness else None,
        "budget": {
            "pam_levels": args.pam_levels,
            "trials_per_group": args.trials,
            "rng_seed": args.seed,
            "groups": scheme.num_groups,
        },
    }
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 2 if witness else 0


def _cmd_tradeoff(args):
    csv_path = args.csv or f"tradeoff_N{args.antennas}_T{args.delay}.csv"
    svg_path = args.svg or f"tradeoff_N{args.antennas}_T{args.delay}.svg"
    rows = simharness.render_tradeoff(args.antennas, args.delay, csv_path, svg_path)
    for r in rows:
        print(f"{r.family:24s} group={r.symbols_per_group:<3d} rate={str(r.rate):>6s} "
              f"exponent={r.exponent}")
    print(f"table -> {csv_path}")
    print(f"plot  -> {svg_path}")
    return 0


def _cmd_simulate(args):
    with open(args.config) as f:
        doc = json.load(f)
    csv_out = args.csv or doc.pop("csv_out", None)
    json_out = args.json_out or doc.pop("json_out", None)
    overrides = {
        "decoder": args.decoder,
        "search_mode": args.search_mode,
        "master_seed": args.master_seed,
        "min_frame_errors": args.min_frame_errors,
        "max_frames": args.max_frames,
        "rotation": args.rotation,
    }
    doc.update({k: v for k, v in overrides.items() if v is not None})
    if args.snr:
        doc["snr_grid_db"] = [float(s) for s in args.snr.split(",")]
    cfg = simharness.SimConfig.from_json(doc)
    result = simharness.run_simulation(cfg, workers=args.workers)
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
    if csv_out:
        simharness.write_results(result, csv_out, "csv")
        print(f"csv -> {csv_out}")
    if json_out:
        simharness.write_results(result, json_out, "json")
        print(f"json -> {json_out}")
    if args.svg:
        simharness.write_ber_curves(args.svg, {cfg.decoder: result},
                                    title=f"{cfg.family} N={cfg.antennas} "
                                          f"n={cfg.layers} {cfg.decoder}")
        print(f"svg -> {args.svg}")
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

    v = sub.add_parser("verify", help="falsify the full-diversity rank criterion")
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
    s.add_argument("--decoder", choices=("ml", "zf", "pic", "picsic"), default=None)
    s.add_argument("--search-mode", choices=("exhaustive", "conditioned"), default=None)
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
    except (ValueError, TypeError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
