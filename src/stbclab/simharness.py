"""Monte Carlo link simulation, diversity-order estimation and results I/O.

One frame = one codeword: draw bits, Gray-map to PAM, assemble the codeword,
push it through a fresh quasi-static Rayleigh link and decode.  Each frame
seeds its own RNG stream from (master_seed, snr_index, frame_index), so the
result is a pure function of the configuration no matter how frames are
scheduled across workers.  Per SNR point the loop stops once it has seen
min_frame_errors frame errors or max_frames frames, whichever comes first,
checking at fixed batch boundaries.

A link with fewer real observations than real symbols (2*N_r*T < K) is
overloaded: it is decoded as configured, and the result carries the flag.

CSV column contract (byte-stable across runs and worker counts):
    snr_db,frames,bit_errors,ber,ser,fer,mean_evals,max_evals
"""

import json
import multiprocessing
import time

import numpy as np
from dataclasses import dataclass, field, asdict

from .channel import demap, modulate, pam_for_qam, sample_link, transmit
# The two family builders stay importable from this module only because
# perfbench's tracer still names them here; nothing here calls them, so
# those spans no longer record.
from .constructions import (  # noqa: F401
    build_alamouti_block_code, build_code, build_diagonal_code, tabulate_tradeoff,
)
from .decoders import DECODERS, DEFAULT_ML_CAP, SEARCH_MODES, DecodeProblem, decode
from .lindesign import assemble_codeword, equivalent_channel, vec_complex

CSV_HEADER = "snr_db,frames,bit_errors,ber,ser,fer,mean_evals,max_evals"
FRAME_BATCH = 256
FAMILIES = ("sec3", "sec4")
# SNR points with fewer bit errors than this stay out of the diversity fit.
FIT_MIN_BIT_ERRORS = 50


@dataclass(frozen=True)
class SimConfig:
    """Everything a simulation run depends on; the result is a function of this."""

    family: str  # "sec3" | "sec4"
    antennas: int
    layers: int
    group_size: int = 0  # required for sec3; 0 or N/2 for sec4
    grouping_variant: str = "fine"
    receive_antennas: int = 1
    qam: int = 4
    decoder: str = "picsic"
    search_mode: str = "conditioned"
    snr_grid_db: tuple = ()
    min_frame_errors: int = 200
    max_frames: int = 1_000_000
    master_seed: int = 0
    rotation: str = "certified"  # "identity" runs the deliberately broken ablation

    def __post_init__(self):
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        grid = self.snr_grid_db
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr_grid_db must be non-empty and strictly ascending")
        if self.min_frame_errors < 1 or self.max_frames < 1:
            raise ValueError("stop rule must be positive")
        if self.rotation not in ("certified", "identity"):
            raise ValueError("rotation must be 'certified' or 'identity'")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.decoder not in DECODERS:
            raise ValueError(f"unknown decoder {self.decoder!r}; "
                             f"choose from {sorted(DECODERS)}")
        if self.search_mode not in SEARCH_MODES:
            raise ValueError(f"unknown search mode {self.search_mode!r}; "
                             f"choose from {SEARCH_MODES}")
        pam_for_qam(self.qam)

    def to_json(self):
        d = asdict(self)
        d["snr_grid_db"] = list(self.snr_grid_db)
        return d

    @classmethod
    def from_json(cls, doc):
        return cls(**doc)


@dataclass(frozen=True)
class SnrPointResult:
    snr_db: float
    frames: int
    bit_errors: int
    symbol_errors: int
    frame_errors: int
    total_evaluations: int
    max_evaluations: int
    bits_per_frame: int
    symbols_per_frame: int

    @property
    def ber(self):
        return self.bit_errors / (self.frames * self.bits_per_frame) if self.frames else 0.0

    @property
    def ser(self):
        return self.symbol_errors / (self.frames * self.symbols_per_frame) if self.frames else 0.0

    @property
    def fer(self):
        return self.frame_errors / self.frames if self.frames else 0.0

    @property
    def mean_evaluations(self):
        return self.total_evaluations / self.frames if self.frames else 0.0


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    points: tuple  # of SnrPointResult
    diversity_order: float | None
    fit_window_db: tuple
    wall_time_s: float = field(compare=False)
    overloaded: bool = False  # 2 * N_r * T < K: fewer observations than symbols


class _SimContext:
    """Design, grouping and alphabets prebuilt once per process."""

    def __init__(self, cfg):
        self.design, self.scheme, self.spec = build_code(
            cfg.family, cfg.antennas, cfg.layers, cfg.group_size,
            variant=cfg.grouping_variant, identity_rotation=cfg.rotation == "identity")
        self.cfg = cfg
        self.alphabet = pam_for_qam(cfg.qam)
        k = self.design.num_real_symbols
        self.overloaded = 2 * cfg.receive_antennas * self.design.delay < k
        self.alphabets = (self.alphabet,) * k
        self.bits_per_frame = k * self.alphabet.bit_width
        if cfg.decoder == "ml":
            space = self.alphabet.size ** k
            if space > DEFAULT_ML_CAP:
                raise ValueError(
                    f"ML search space {space} exceeds the cap {DEFAULT_ML_CAP}"
                )

    def run_frame(self, snr_index, frame_index):
        cfg = self.cfg
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.master_seed, spawn_key=(snr_index, frame_index))
        )
        bits = rng.integers(0, 2, self.bits_per_frame, dtype=np.int64)
        x = modulate(bits, self.alphabet)
        codeword = assemble_codeword(self.design, x)
        link = sample_link(cfg.antennas, cfg.receive_antennas, self.design.delay,
                           cfg.snr_grid_db[snr_index], rng)
        y = vec_complex(transmit(codeword, link))
        g = equivalent_channel(self.design, link.h)
        problem = DecodeProblem(y, g, self.scheme, self.alphabets, link.snr)
        result = decode(problem, cfg.decoder, cfg.search_mode)
        bits_hat = demap(result.decided, self.alphabet)
        bit_err = int(np.sum(bits_hat != bits))
        sym_err = int(np.sum(result.decided.entries != x.entries))
        return (bit_err, sym_err, 1 if bit_err else 0, result.candidate_evaluations)

    def run_range(self, snr_index, lo, hi):
        bit_err = sym_err = frame_err = total_ev = max_ev = 0
        for fi in range(lo, hi):
            b, s, f, ev = self.run_frame(snr_index, fi)
            bit_err += b
            sym_err += s
            frame_err += f
            total_ev += ev
            max_ev = max(max_ev, ev)
        return bit_err, sym_err, frame_err, total_ev, max_ev


_WORKER_CTX = None


def _worker_init(cfg_doc):
    global _WORKER_CTX
    _WORKER_CTX = _SimContext(SimConfig.from_json(cfg_doc))


def _worker_range(task):
    return _WORKER_CTX.run_range(*task)


def run_simulation(cfg, workers=1):
    """Run the configured sweep; the result does not depend on worker count."""
    t0 = time.perf_counter()
    ctx = _SimContext(cfg)
    pool = None
    if workers > 1:
        pool = multiprocessing.Pool(workers, initializer=_worker_init,
                                    initargs=(cfg.to_json(),))
    try:
        points = []
        for si in range(len(cfg.snr_grid_db)):
            agg = np.zeros(4, dtype=np.int64)
            max_ev = frames = 0
            while frames < cfg.max_frames and agg[2] < cfg.min_frame_errors:
                batch_end = min(frames + FRAME_BATCH, cfg.max_frames)
                if pool is not None:
                    step = max(1, (batch_end - frames + workers - 1) // workers)
                    tasks = [(si, lo, min(lo + step, batch_end))
                             for lo in range(frames, batch_end, step)]
                    outs = pool.map(_worker_range, tasks)
                else:
                    outs = [ctx.run_range(si, frames, batch_end)]
                for b, s, f, ev, mx in outs:
                    agg += (b, s, f, ev)
                    max_ev = max(max_ev, mx)
                frames = batch_end
            points.append(SnrPointResult(
                snr_db=cfg.snr_grid_db[si], frames=frames,
                bit_errors=int(agg[0]), symbol_errors=int(agg[1]),
                frame_errors=int(agg[2]), total_evaluations=int(agg[3]),
                max_evaluations=max_ev, bits_per_frame=ctx.bits_per_frame,
                symbols_per_frame=ctx.design.num_real_symbols,
            ))
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    order, window = _fit_diversity(points)
    return SimResult(cfg, tuple(points), order, window,
                     time.perf_counter() - t0, ctx.overloaded)


def estimate_diversity_order(ber_points, window):
    """Negated log-log slope of the last `window` positive-BER points.

    ber_points is a sequence of (snr_linear, ber); zero-BER points are
    dropped first.  Raises ValueError when fewer than two usable points
    remain.
    """
    usable = [(s, b) for s, b in ber_points if b > 0]
    usable = usable[-window:]
    if len(usable) < 2:
        raise ValueError("need at least two SNR points with positive BER")
    logsnr = np.log10([s for s, _ in usable])
    logber = np.log10([b for _, b in usable])
    slope = np.polyfit(logsnr, logber, 1)[0]
    return -float(slope)


def _fit_diversity(points, min_bit_errors=FIT_MIN_BIT_ERRORS, window=3):
    """Default fit: the highest `window` SNR points with enough bit errors."""
    qualified = [p for p in points if p.bit_errors >= min_bit_errors]
    chosen = qualified[-window:]
    if len(chosen) < 2:
        return None, ()
    pts = [(10.0 ** (p.snr_db / 10.0), p.ber) for p in chosen]
    return estimate_diversity_order(pts, window), tuple(p.snr_db for p in chosen)


def _fmt(x):
    return repr(float(x))


def write_results(result, path, fmt="csv"):
    """Write a SimResult as CSV (fixed column contract) or JSON (lossless)."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for p in result.points:
            lines.append(",".join([
                _fmt(p.snr_db), str(p.frames), str(p.bit_errors), _fmt(p.ber),
                _fmt(p.ser), _fmt(p.fer), _fmt(p.mean_evaluations),
                str(p.max_evaluations),
            ]))
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
    elif fmt == "json":
        doc = {
            "config": result.config.to_json(),
            "points": [dict(asdict(p), ber=p.ber, ser=p.ser, fer=p.fer,
                            mean_evaluations=p.mean_evaluations)
                       for p in result.points],
            "diversity_order": result.diversity_order,
            "fit_window_db": list(result.fit_window_db),
            "wall_time_s": result.wall_time_s,
            "overloaded": result.overloaded,
        }
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


_POINT_FIELDS = ("snr_db", "frames", "bit_errors", "symbol_errors", "frame_errors",
                 "total_evaluations", "max_evaluations", "bits_per_frame",
                 "symbols_per_frame")


def read_results(path):
    """Load a JSON results file back into a SimResult."""
    with open(path) as f:
        doc = json.load(f)
    points = tuple(
        SnrPointResult(**{k: p[k] for k in _POINT_FIELDS}) for p in doc["points"]
    )
    return SimResult(
        SimConfig.from_json(doc["config"]), points, doc["diversity_order"],
        tuple(doc["fit_window_db"]), doc["wall_time_s"], doc["overloaded"],
    )


def render_tradeoff(antennas, delay, csv_path=None, svg_path=None):
    """Rate vs worst-case-exponent points for all families at (N, T).

    Writes a CSV table and an SVG scatter when paths are given; returns the
    rows.  Comparison families are included at their published exponents.
    """
    rows = tabulate_tradeoff(antennas, delay)
    if csv_path:
        lines = ["family,symbols_per_group,rate,rate_float,exponent,exponent_float"]
        for r in rows:
            lines.append(f"{r.family},{r.symbols_per_group},{r.rate},"
                         f"{float(r.rate)!r},{r.exponent},{float(r.exponent)!r}")
        with open(csv_path, "w") as f:
            f.write("\n".join(lines) + "\n")
    if svg_path:
        series = {}
        for r in rows:
            series.setdefault(r.family, []).append((float(r.rate), float(r.exponent)))
        write_svg_scatter(
            svg_path, series, xlabel="rate (cspcu)",
            ylabel="worst-case exponent e (cost M^e)",
            title=f"rate vs decoding cost, N={antennas}, T={delay}",
        )
    return rows


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo, hi, target=6):
    span = hi - lo if hi > lo else 1.0
    raw = span / target
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min((s for s in (1, 2, 5, 10) if s * mag >= raw), default=10) * mag
    first = np.ceil(lo / step) * step
    return [round(first + i * step, 10) for i in range(int((hi - first) / step) + 1)]


def _decade_ticks(lo, hi):
    return [10.0 ** k for k in range(int(np.floor(np.log10(lo))),
                                     int(np.ceil(np.log10(hi))) + 1)]


def write_svg_scatter(path, series, xlabel="", ylabel="", title="",
                      width=640, height=480, ylog=False, lines=False):
    """Self-contained SVG scatter plot, one marker set (and color) per series.

    Axes are linear; ylog=True switches the y axis to log10 with decade
    ticks (non-positive y values are dropped).  lines=True also connects
    each series' points in the given order.
    """
    margin, inner_w, inner_h = 60, width - 120, height - 110
    if ylog:
        series = {k: [(x, y) for x, y in ps if y > 0] for k, ps in series.items()}
    pts = [p for ps in series.values() for p in ps]
    xs = [p[0] for p in pts] or [0.0, 1.0]
    ys = [p[1] for p in pts] or ([0.1, 1.0] if ylog else [0.0, 1.0])
    xlo, xhi = min(xs + [0.0] * (not ylog)), max(xs) + 0.05 * (max(xs) - min(xs)) + 1e-9
    if ylog:
        ylo, yhi = 10.0 ** np.floor(np.log10(min(ys))), 10.0 ** np.ceil(np.log10(max(ys)))
        if yhi <= ylo:
            yhi = 10.0 * ylo
    else:
        ylo, yhi = min(ys + [0.0]), max(ys) * 1.05 + 1e-9

    def sx(x):
        return margin + (x - xlo) / (xhi - xlo) * inner_w

    def sy(y):
        if ylog:
            frac = (np.log10(y) - np.log10(ylo)) / (np.log10(yhi) - np.log10(ylo))
        else:
            frac = (y - ylo) / (yhi - ylo)
        return margin + inner_h - frac * inner_h

    def fmt(t):
        return f"{t:.0e}".replace("e-0", "e-").replace("e+0", "e") if ylog else f"{t:g}"

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="13">{title}</text>',
        f'<rect x="{margin}" y="{margin}" width="{inner_w}" height="{inner_h}" '
        f'fill="none" stroke="black"/>',
    ]
    for t in _ticks(xlo, xhi):
        x = sx(t)
        out.append(f'<line x1="{x:.1f}" y1="{margin + inner_h}" x2="{x:.1f}" '
                   f'y2="{margin + inner_h + 4}" stroke="black"/>')
        out.append(f'<text x="{x:.1f}" y="{margin + inner_h + 16}" '
                   f'text-anchor="middle">{t:g}</text>')
    for t in (_decade_ticks(ylo, yhi) if ylog else _ticks(ylo, yhi)):
        y = sy(t)
        out.append(f'<line x1="{margin - 4}" y1="{y:.1f}" x2="{margin}" '
                   f'y2="{y:.1f}" stroke="black"/>')
        out.append(f'<text x="{margin - 8}" y="{y + 3:.1f}" text-anchor="end">{fmt(t)}</text>')
    out.append(f'<text x="{margin + inner_w / 2}" y="{height - 12}" '
               f'text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="16" y="{margin + inner_h / 2}" text-anchor="middle" '
               f'transform="rotate(-90 16 {margin + inner_h / 2})">{ylabel}</text>')
    for i, (label, ps) in enumerate(series.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        if lines and len(ps) > 1:
            path_d = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in ps)
            out.append(f'<polyline points="{path_d}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"/>')
        for x, y in ps:
            out.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4" '
                       f'fill="{color}" fill-opacity="0.8"/>')
        ly = margin + 14 + 14 * i
        out.append(f'<circle cx="{margin + inner_w - 120}" cy="{ly - 4}" r="4" fill="{color}"/>')
        out.append(f'<text x="{margin + inner_w - 110}" y="{ly}">{label}</text>')
    out.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")


def write_ber_curves(path, results, title="BER vs SNR"):
    """Waterfall plot (log BER over dB) for one or more labeled SimResults.

    results is {label: SimResult}; zero-error points are omitted.
    """
    series = {
        label: [(p.snr_db, p.ber) for p in res.points if p.bit_errors > 0]
        for label, res in results.items()
    }
    write_svg_scatter(path, series, xlabel="SNR (dB)", ylabel="BER",
                      title=title, ylog=True, lines=True)
