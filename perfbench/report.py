"""Summary statistics and the per-layer metrics of a traced run."""

import statistics

import numpy as np

from spantrace import per_frame_totals, self_times

FRAME = "simharness.frame"
US, MS = 1e6, 1e3

# Span names every traced pass of a workload kind must record, and every
# traced set-up probe must record.
PASS_SPANS = {
    "sim": (FRAME, "channel.modulate", "channel.sample_link", "channel.transmit",
            "channel.demap", "lindesign.assemble_codeword", "lindesign.vec_complex",
            "lindesign.equivalent_channel", "decoders.decode",
            "decoders.group_search"),
    "verify": ("diversity.falsify_pic", "diversity.falsify_picsic",
               "diversity.certify", "diversity.numerical_rank"),
}
SETUP_SPANS = ("constructions.build_code", "rotations.build_rotation",
               "rotations.certify_rotation")

# The span names each per-layer metric is computed from, where they are not
# just the metric's name without its unit suffix.
METRIC_SPANS = {
    "simharness.frame_self_us": (FRAME,),
    "decoders.projection_us": ("decoders.decode", "decoders.group_search"),
    "decoders.search_gflops": ("decoders.group_search",),
    "decoders.group_searches_per_frame": (FRAME, "decoders.group_search"),
    "decoders.evals_per_group_search": ("decoders.group_search",),
    "diversity.rank_checks": (),
    "diversity.numerical_rank_calls": ("diversity.numerical_rank",),
    "diversity.witness_ratio": ("diversity.numerical_rank",),
    "trace_overhead_frac": (),
}


def summary(values, scale=1.0):
    """Median, quartiles, the highest tail percentile with >= 10 samples
    beyond it (None when there are fewer than 20 samples), and the count."""
    v = np.asarray(values, dtype=float) * scale
    n = len(v)
    if n == 0:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "tail": None, "n": 0}
    q1, _, q3 = statistics.quantiles(v, n=4) if n > 1 else (v[0], v[0], v[0])
    tail = None
    for pct in (99, 90, 50):
        if n * (100 - pct) / 100 >= 10:
            tail = {"pct": pct, "value": float(np.percentile(v, pct))}
            break
    return {"median": float(np.median(v)), "q1": float(q1), "q3": float(q3),
            "tail": tail, "n": n}


def unrecorded_spans(kind, spans, probes):
    """Span names the workload must record but that no traced pass recorded,
    or that a traced set-up probe did not record."""
    seen = {s.name for s in spans}
    return ([n for n in PASS_SPANS[kind] if n not in seen]
            + [n for n in SETUP_SPANS
               if not probes or any(n not in p["span_seconds"] for p in probes)])


def metric_spans(metric):
    """The span names a per-layer metric is computed from."""
    return METRIC_SPANS.get(metric, (metric.rsplit("_", 1)[0],))


def _roots(spans):
    """Index of each span's outermost ancestor (spans are in start order)."""
    roots = []
    for i, s in enumerate(spans):
        roots.append(i if s.parent < 0 else roots[s.parent])
    return roots


def _per_pass_totals(spans, roots, name, pass_name):
    """Total seconds and call count of `name` within each traced pass."""
    totals = {i: [0.0, 0] for i, s in enumerate(spans) if s.name == pass_name}
    for s, r in zip(spans, roots):
        if s.name == name and r in totals:
            totals[r][0] += s.duration
            totals[r][1] += 1
    return list(totals.values())


def layer_metrics(kind, spans, pass_name, traced_passes, untraced_passes, probes):
    """Per-layer statistics: name -> (unit, summary dict or exact value).

    The pass arguments are lists of `run.Timed` passes.

    Frame-level timings come from frame spans; call-level ones from every
    span of a name; set-up ones from the traced fresh-process probes, one
    sample per probe.  Layers of the other workload kind read 0; a layer
    the workload calls but that recorded no span is found by
    `unrecorded_spans`, and the caller must not report it.
    """
    out = {}
    frames = self_times(spans, FRAME)
    out["simharness.frame_us"] = ("us", summary([f for f, _ in frames], US))
    out["simharness.frame_self_us"] = ("us", summary([s for _, s in frames], US))
    for name in ("channel.modulate", "channel.sample_link", "channel.transmit",
                 "channel.demap", "lindesign.assemble_codeword",
                 "lindesign.vec_complex", "lindesign.equivalent_channel",
                 "decoders.decode"):
        out[f"{name}_us"] = ("us", summary(
            [s.duration for s in spans if s.name == name], US))

    search = per_frame_totals(spans, "decoders.group_search")
    decode = per_frame_totals(spans, "decoders.decode")
    out["decoders.group_search_us"] = ("us", summary(list(search.values()), US))
    out["decoders.projection_us"] = ("us", summary(
        [t - search.get(f, 0.0) for f, t in decode.items()], US))
    searches = [s for s in spans if s.name == "decoders.group_search"]
    search_s = sum(s.duration for s in searches)
    macs = sum(s.count[1] for s in searches)
    evals = sum(s.count[0] for s in searches)
    out["decoders.search_gflops"] = ("GMAC/s", macs / search_s / 1e9 if search_s else 0.0)
    out["decoders.group_searches_per_frame"] = (
        "count", len(searches) / len(frames) if frames else 0.0)
    out["decoders.evals_per_group_search"] = (
        "count", evals / len(searches) if searches else 0.0)

    for metric, name in (("constructions.build_code_ms", "constructions.build_code"),
                         ("rotations.build_rotation_ms", "rotations.build_rotation"),
                         ("rotations.certify_rotation_ms", "rotations.certify_rotation")):
        out[metric] = ("ms", summary(
            [p["span_seconds"].get(name, 0.0) for p in probes], MS))

    roots = _roots(spans)
    for metric, name, unit, scale in (
            ("diversity.falsify_pic_s", "diversity.falsify_pic", "s", 1.0),
            ("diversity.falsify_picsic_s", "diversity.falsify_picsic", "s", 1.0),
            ("diversity.certify_ms", "diversity.certify", "ms", MS)):
        out[metric] = (unit, summary(
            [t for t, _ in _per_pass_totals(spans, roots, name, pass_name)], scale))
    confirmations = _per_pass_totals(spans, roots, "diversity.numerical_rank", pass_name)
    calls = sum(c for _, c in confirmations)
    witnesses = sum(sum(1 for op, outcome in t.result.record.items()
                        if op.startswith("falsify_") and outcome is not None)
                    for t in traced_passes)
    out["diversity.rank_checks"] = ("count", float(statistics.median(
        t.result.ops for t in traced_passes)) if kind == "verify" else 0.0)
    out["diversity.numerical_rank_calls"] = (
        "count", calls / len(confirmations) if confirmations else 0.0)
    out["diversity.witness_ratio"] = ("ratio", witnesses / calls if calls else 0.0)

    # pass times normalized to nominal machine speed, so drift between the
    # interleaved traced and untraced passes does not read as overhead
    traced = statistics.median(t.seconds for t in traced_passes)
    untraced = statistics.median(t.seconds for t in untraced_passes)
    out["trace_overhead_frac"] = ("frac", traced / untraced - 1.0)
    return out
