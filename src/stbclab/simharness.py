"""Monte Carlo link simulation, diversity-order estimation, and results as text.

One frame = one codeword: draw bits, Gray-map to PAM, assemble the codeword
and push it through a fresh quasi-static Rayleigh link.  Each frame has its
own PCG64 stream, the one SeedSequence(master_seed, spawn_key=(snr_index,
frame_index)) seeds: a range's seed words are formed in one NumPy pass
(_frame_seeds), and each frame draws the raw words of its bits (run_frame),
whose 32-bit halves' top bits are what Generator.integers(0, 2) would draw
(_raw_bits).  A range's frames are then drawn, each generator drawing its
link after its bits, and decoded as one stack (draw_range, run_range).
A frame's values do not depend on the frames stacked with it, so the result
is a pure function of the configuration however frames are scheduled across
workers.  Per SNR point the loop stops at min_frame_errors frame errors or
max_frames frames, whichever comes first, checked at batch boundaries.

A link with fewer real observations than real symbols (2*N_r*T < K) is
overloaded: it is decoded as configured, and the result carries the flag.

Nothing here opens a file: SimResult.to_csv / to_json / from_json and the
render_* functions give text and JSON documents, which cli writes.

CSV column contract (byte-stable across runs and worker counts):
    snr_db,frames,bit_errors,ber,ser,fer,mean_evals,max_evals
"""

import time
from numbers import Real

import numpy as np
from dataclasses import dataclass, field, fields, asdict

from .channel import demap, modulate, pam_for_qam, sample_link, transmit
# The two family builders stay importable from this module only because
# perfbench's tracer still names them here; nothing here calls them, so
# those spans no longer record.
from .constructions import (  # noqa: F401
    Family, build_alamouti_block_code, build_code, build_diagonal_code, tabulate_tradeoff,
)
from .decoders import DECODERS, SEARCH_MODES, DecodeProblem, check_ml_cap, decode
from .lindesign import assemble_codeword, check_integer, equivalent_channel, vec_complex

CSV_HEADER = "snr_db,frames,bit_errors,ber,ser,fer,mean_evals,max_evals"
FRAME_BATCH = 256
FAMILIES = tuple(f.value for f in Family)
# SNR points with fewer bit errors than this stay out of the diversity fit.
FIT_MIN_BIT_ERRORS = 50
# SeedSequence's hash constants (numpy/random/bit_generator.pyx): (init, mult) of
# its pool's hashes and of generate_state's, and the multipliers of its mix
_A, _B, _MIX_L, _MIX_R = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED), 0xCA01F9DD, 0x4973F715


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
        least = {"min_frame_errors": 1, "max_frames": 1, "receive_antennas": 1, "master_seed": 0}
        for f in fields(self):  # a bool is an int, and 10.5 would pass the bounds
            value = getattr(self, f.name)
            if f.type is int:
                check_integer(f.name, value, least.get(f.name))
            if f.type is str and not isinstance(value, str):
                raise ValueError(f"{f.name} must be a string, got {value!r}")
        grid = self.snr_grid_db  # "16" would run 1 and 6 dB, and [true, 12] a 1 dB point
        entries = grid.tolist() if isinstance(grid, np.ndarray) else grid
        if not isinstance(entries, (list, tuple)) or not all(
                isinstance(s, Real) and not isinstance(s, bool) for s in entries):
            raise ValueError(f"snr_grid_db must be a list of dB values, got {grid!r}")
        grid = tuple(float(s) for s in entries)
        object.__setattr__(self, "snr_grid_db", grid)
        if not np.isfinite(grid).all():
            raise ValueError("snr_grid_db must be finite")
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr_grid_db must be non-empty and strictly ascending")
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

    def to_csv(self):
        """The points as CSV text, by the module docstring's column contract."""
        rows = [",".join([_fmt(p.snr_db), str(p.frames), str(p.bit_errors), _fmt(p.ber),
                          _fmt(p.ser), _fmt(p.fer), _fmt(p.mean_evaluations),
                          str(p.max_evaluations)])
                for p in self.points]
        return "\n".join([CSV_HEADER] + rows) + "\n"

    def to_json(self):
        """A lossless JSON document of the result; from_json inverts it."""
        return {
            "config": self.config.to_json(),
            "points": [dict(asdict(p), ber=p.ber, ser=p.ser, fer=p.fer,
                            mean_evaluations=p.mean_evaluations)
                       for p in self.points],
            "diversity_order": self.diversity_order,
            "fit_window_db": list(self.fit_window_db),
            "wall_time_s": self.wall_time_s,
            "overloaded": self.overloaded,
        }

    @classmethod
    def from_json(cls, doc):
        names = [f.name for f in fields(SnrPointResult)]
        points = tuple(SnrPointResult(**{k: p[k] for k in names}) for p in doc["points"])
        return cls(SimConfig.from_json(doc["config"]), points, doc["diversity_order"],
                   tuple(doc["fit_window_db"]), doc["wall_time_s"], doc["overloaded"])


class _SimContext:
    """Design, grouping and alphabet prebuilt once per process."""

    def __init__(self, cfg):
        self.design, self.scheme, _ = build_code(
            cfg.family, cfg.antennas, cfg.layers, cfg.group_size,
            variant=cfg.grouping_variant, identity_rotation=cfg.rotation == "identity")
        self.cfg = cfg
        self.alphabet = pam_for_qam(cfg.qam)
        k = self.design.num_real_symbols
        self.overloaded = 2 * cfg.receive_antennas * self.design.delay < k
        self.bits_per_frame = k * self.alphabet.bit_width
        if cfg.decoder == "ml":
            check_ml_cap(self.alphabet, k)

    def run_frame(self, seed):
        """(generator, raw words) of one frame from its seed words (_frame_seeds):
        its own PCG64 stream, after the words that carry its bits (_raw_bits)."""
        rng = np.random.Generator(np.random.PCG64(_FrameSeed(seed)))
        return rng, rng.bit_generator.random_raw(-(-self.bits_per_frame // 2))

    def draw_range(self, snr_index, lo, hi):
        """(bits, x, y, g, linear snr) of frames lo..hi-1, stacked on a leading axis."""
        cfg = self.cfg
        rngs, raw = zip(*map(self.run_frame, _frame_seeds(cfg.master_seed, snr_index, lo, hi)))
        bits = _raw_bits(np.array(raw), self.bits_per_frame)
        x = modulate(bits, self.alphabet)
        link = sample_link(cfg.antennas, cfg.receive_antennas, self.design.delay,
                           cfg.snr_grid_db[snr_index], rngs)
        y = vec_complex(transmit(assemble_codeword(self.design, x), link))
        return bits, x, y, equivalent_channel(self.design, link.h), link.snr

    def run_range(self, snr_index, lo, hi):
        """(bit, symbol and frame errors, evaluations, most evaluations in a frame)
        of frames lo..hi-1, drawn and decoded as one stack."""
        bits, x, y, g, snr = self.draw_range(snr_index, lo, hi)
        result = decode(DecodeProblem(y, g, self.scheme, self.alphabet, snr),
                        self.cfg.decoder, self.cfg.search_mode)
        bit_err = np.count_nonzero(demap(result.decided, self.alphabet) != bits, axis=1)
        evals = result.candidate_evaluations
        return (int(bit_err.sum()), int(np.count_nonzero(result.decided != x)),
                int(np.count_nonzero(bit_err)), int(evals.sum()), int(evals.max()))


class _FrameSeed:
    """A frame's seed words (_frame_seeds), which PCG64 takes as generate_state's.

    _frame_seeds registers it as an ISeedSequence, so that importing this
    module does not load numpy.random (about 11 ms)."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=None):
        return self.words


def _hash(v, init, mult, start, count):
    """SeedSequence's hashes (v ^ c_k) * c_(k+1), xor-shifted by 16, of words v, by its
    constants c_k = init * mult**k mod 2**32, the count of them from k = start."""
    c = [init * pow(mult, start, 1 << 32) & 0xFFFFFFFF] + [mult] * (count - 1)
    c = np.multiply.accumulate(np.array(c, dtype=np.uint32), dtype=np.uint32)
    v = (v.astype(np.uint32) ^ c[:-1]) * c[1:]
    return v ^ v >> 16


def _frame_seeds(master, snr_index, lo, hi):
    """Seed words (hi - lo, 4) of frames lo..hi-1, in one pass: row f is
    SeedSequence(master, spawn_key=(snr_index, lo + f)).generate_state(4, np.uint64)."""
    np.random.bit_generator.ISeedSequence.register(_FrameSeed)
    # the pool before a frame index's uint32 words (one below 2**32, two above)
    # are mixed in, after 4 hash constants for each word of its own entropy
    prefix = np.random.SeedSequence(master, spawn_key=(snr_index,))
    done = 4 * (max(4, -(-int(master).bit_length() // 32))
                + max(1, -(-int(snr_index).bit_length() // 32)))
    out = np.empty((hi - lo, 4), dtype=np.uint64)
    for a, b in ((lo, min(hi, 1 << 32)), (max(lo, 1 << 32), hi)):  # one index word, then two
        if a < b:
            fi, pool = np.arange(a, b, dtype=np.uint64)[:, None], np.tile(prefix.pool, (b - a, 1))
            for j in range(1 + (a >> 32 > 0)):
                v = _MIX_L * pool - _MIX_R * _hash(fi >> np.uint64(32 * j), *_A, done + 4 * j, 5)
                pool = v ^ v >> 16
            out[a - lo:b - lo] = _hash(np.tile(pool, 2), *_B, 0, 9).astype("<u4").view("<u8")
    return out


def _raw_bits(raw, count):
    """The count bits (..., count) int64 that integers(0, 2) draws from raw words (..., W):
    the top bit of each word's 32-bit halves, low half first."""
    return (raw.astype("<u8").view("<u4") >> 31)[..., :count].astype(np.int64)


_WORKER_CTX = None


def _worker_init(cfg_doc):
    global _WORKER_CTX
    _WORKER_CTX = _SimContext(SimConfig.from_json(cfg_doc))


def _worker_range(task):
    return _WORKER_CTX.run_range(*task)


def run_simulation(cfg, workers=1):
    """Run the configured sweep; the result does not depend on worker count."""
    check_integer("workers", workers, 1)
    t0 = time.perf_counter()
    ctx = _SimContext(cfg)
    pool = None
    if workers > 1:
        import multiprocessing  # only a pool needs it: about 9 ms of every import otherwise

        pool = multiprocessing.Pool(workers, initializer=_worker_init,
                                    initargs=(cfg.to_json(),))
    try:
        points = []
        for si in range(len(cfg.snr_grid_db)):
            agg = np.zeros(4, dtype=np.int64)
            max_ev = frames = 0
            while frames < cfg.max_frames and agg[2] < cfg.min_frame_errors:
                batch_end = min(frames + FRAME_BATCH, cfg.max_frames)
                step = -((frames - batch_end) // workers)  # ceil: one task a worker
                tasks = [(si, lo, min(lo + step, batch_end))
                         for lo in range(frames, batch_end, step)]
                outs = (pool.map(_worker_range, tasks) if pool is not None
                        else [ctx.run_range(*task) for task in tasks])
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
    order, window = fit_diversity(points)
    return SimResult(cfg, tuple(points), order, window,
                     time.perf_counter() - t0, ctx.overloaded)


def fit_diversity(points):
    """The diversity fit of a sweep: (order, window_db).

    order is the negated least-squares slope of log10 BER over log10 linear
    SNR on the highest three SNR points with FIT_MIN_BIT_ERRORS bit errors or
    more, and window_db their SNRs in dB; (None, ()) when fewer than two
    points qualify.
    """
    chosen = [p for p in points if p.bit_errors >= FIT_MIN_BIT_ERRORS][-3:]
    if len(chosen) < 2:
        return None, ()
    logsnr = np.log10([10.0 ** (p.snr_db / 10.0) for p in chosen])
    logber = np.log10([p.ber for p in chosen])
    return -float(np.polyfit(logsnr, logber, 1)[0]), tuple(p.snr_db for p in chosen)


def _fmt(x):
    return repr(float(x))


def render_tradeoff(antennas, delay):
    """Rate vs worst-case-exponent points for all families at (N, T).

    Returns (rows, csv, svg): the rows, their CSV table and their SVG scatter.
    Comparison families are included at their published exponents.
    """
    rows = tabulate_tradeoff(antennas, delay)
    lines = ["family,symbols_per_group,rate,rate_float,exponent,exponent_float"]
    series = {}
    for r in rows:
        lines.append(f"{r.family},{r.symbols_per_group},{r.rate},"
                     f"{float(r.rate)!r},{r.exponent},{float(r.exponent)!r}")
        series.setdefault(r.family, []).append((float(r.rate), float(r.exponent)))
    svg = render_scatter(series, xlabel="rate (cspcu)",
                         ylabel="worst-case exponent e (cost M^e)",
                         title=f"rate vs decoding cost, N={antennas}, T={delay}")
    return rows, "\n".join(lines) + "\n", svg


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo, hi, target=6):
    span = hi - lo if hi > lo else 1.0
    raw = span / target
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min((s for s in (1, 2, 5, 10) if s * mag >= raw), default=10) * mag
    first = np.ceil(lo / step) * step
    return [round(first + i * step, 10) for i in range(int((hi - first) / step) + 1)]


def render_scatter(series, xlabel="", ylabel="", title="", ylog=False, lines=False):
    """The text of a self-contained 640 x 480 SVG scatter plot, one marker set
    (and color) per series.

    Axes are linear; ylog=True switches the y axis to log10 with decade
    ticks (non-positive y values are dropped).  lines=True also connects
    each series' points in the given order.
    """
    width, height = 640, 480
    margin, inner_w, inner_h = 60, width - 120, height - 110
    if ylog:  # plot log10 y from here on
        series = {k: [(x, np.log10(y)) for x, y in ps if y > 0] for k, ps in series.items()}
    pts = [p for ps in series.values() for p in ps]
    xs = [p[0] for p in pts] or [0.0, 1.0]
    ys = [p[1] for p in pts] or ([-1.0, 0.0] if ylog else [0.0, 1.0])
    xlo, xhi = min(xs + [0.0] * (not ylog)), max(xs) + 0.05 * (max(xs) - min(xs)) + 1e-9
    if ylog:  # whole decades, at least one
        ylo, yhi = np.floor(min(ys)), max(np.ceil(max(ys)), np.floor(min(ys)) + 1)
    else:
        ylo, yhi = min(ys + [0.0]), max(ys + [0.0]) * 1.05 + 1e-9
    # a zero-width range gets one unit each side, so that its ticks differ
    if xlo == max(xs):
        xlo, xhi = xlo - 1.0, xlo + 1.0
    if not ylog and ylo == max(ys):
        ylo, yhi = ylo - 1.0, ylo + 1.0

    def sx(x):
        return margin + (x - xlo) / (xhi - xlo) * inner_w

    def sy(y):
        return margin + inner_h - (y - ylo) / (yhi - ylo) * inner_h

    def fmt(t):
        return f"{10.0 ** t:.0e}".replace("e-0", "e-").replace("e+0", "e") if ylog else f"{t:g}"

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
    for t in (range(int(ylo), int(yhi) + 1) if ylog else _ticks(ylo, yhi)):
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
    return "\n".join(out) + "\n"


def render_ber_curves(results, title="BER vs SNR"):
    """The SVG text of a waterfall plot (log BER over dB) for labeled SimResults.

    results is {label: SimResult}; zero-error points are omitted.
    """
    series = {
        label: [(p.snr_db, p.ber) for p in res.points if p.bit_errors > 0]
        for label, res in results.items()
    }
    return render_scatter(series, xlabel="SNR (dB)", ylabel="BER",
                          title=title, ylog=True, lines=True)
