"""The benchmark's workloads: three Monte Carlo link sweeps and one verify pass.

A pass is a fixed amount of work, identical on every commit: a sweep runs a
fixed frame count per SNR point with early stop disabled, and the verify
pass runs a fixed falsifier budget plus the certificates.  The workload
seed is the only input that varies between runs.

Every call into the package goes through a module attribute at call time
(`simharness.run_simulation`, `diversity.falsify_pic`, ...), so the
wrappers installed by `spantrace.Tracer` see it.
"""

import itertools
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from stbclab import constructions, diversity, rotations, simharness

from spantrace import Target

# Seed of the pass whose outcome must equal perfbench/reference.json.
REFERENCE_SEED = 2026


@dataclass
class PassResult:
    """One pass: comparable per-operation outcomes plus its timings."""

    record: dict  # operation name -> JSON-able outcome
    errors: dict  # operation name -> why it failed (raised or broke a check)
    # (wall seconds, whether the throughput is taken over it) of each timed
    # segment, in pass order
    segments: list
    ops: int  # frames, or rank checks

    @property
    def seconds(self):
        return sum(s for s, _ in self.segments)

    @property
    def op_seconds(self):
        return sum(s for s, timed_op in self.segments if timed_op)


def _failure(exc_summary, names, seconds):
    return PassResult({}, {n: exc_summary for n in names}, [(seconds, False)], 0)


def _exception_summary():
    return traceback.format_exc(limit=2).strip().splitlines()[-1]


@dataclass(frozen=True)
class SimWorkload:
    """A fixed-frame sweep through `simharness.run_simulation`."""

    name: str
    config: dict  # SimConfig fields other than the stop rule and seed
    frames_per_point: int
    kind: str = field(default="sim", init=False)

    def sim_config(self, seed, frames=None, grid=None):
        frames = frames or self.frames_per_point
        cfg = dict(self.config, snr_grid_db=grid or self.config["snr_grid_db"])
        return simharness.SimConfig(**cfg, max_frames=frames,
                                    min_frame_errors=frames + 1, master_seed=seed)

    @property
    def op_names(self):
        return [f"snr={float(s)!r}" for s in self.config["snr_grid_db"]]

    def setup(self):
        """The first frame of a fresh process: builds the code, fills the caches."""
        simharness.run_simulation(
            self.sim_config(REFERENCE_SEED, frames=1,
                            grid=self.config["snr_grid_db"][:1]))

    def run_pass(self, seed, between=lambda: None):
        """One timed segment: the whole sweep, so `between` never runs."""
        t0 = perf_counter()
        try:
            result = simharness.run_simulation(self.sim_config(seed))
        except Exception:
            return _failure(_exception_summary(), self.op_names, perf_counter() - t0)
        seconds = perf_counter() - t0
        record, errors = {}, {}
        for name, p in zip(self.op_names, result.points):
            record[name] = [p.frames, p.bit_errors, p.symbol_errors, p.frame_errors,
                            p.total_evaluations, p.max_evaluations]
            problem = self.point_problem(p)
            if problem:
                errors[name] = problem
        return PassResult(record, errors, [(seconds, True)],
                          sum(p.frames for p in result.points))

    def max_evals_per_frame(self):
        """Evaluations of an exhaustive search over every group of a frame."""
        c = self.config
        levels = int(round(np.sqrt(c["qam"])))
        if c["family"] == "sec3":
            groups, size = 2 * c["layers"], c["group_size"]
        else:
            groups, size = 4 * c["layers"], c["antennas"] // 2
        return groups * levels ** size

    def point_problem(self, p):
        """Why an SNR point's counts are impossible, or '' when consistent."""
        f = self.frames_per_point
        checks = [
            (p.frames == f, f"ran {p.frames} frames, expected {f}"),
            (0 <= p.frame_errors <= p.frames, "frame errors out of range"),
            (p.frame_errors <= p.bit_errors <= p.frames * p.bits_per_frame,
             "bit errors out of range"),
            (p.symbol_errors <= p.frames * p.symbols_per_frame,
             "symbol errors out of range"),
            ((p.bit_errors == 0) == (p.frame_errors == 0) == (p.symbol_errors == 0),
             "bit, symbol and frame errors disagree on whether any occurred"),
            (p.frames <= p.total_evaluations <= p.frames * p.max_evaluations,
             "evaluation total inconsistent with its maximum"),
            (p.max_evaluations <= self.max_evals_per_frame(),
             "more evaluations than an exhaustive search"),
        ]
        return "; ".join(msg for ok, msg in checks if not ok)


def rank_checks(scheme, pam_levels, trials, interference_of, witness=None):
    """Rank checks a falsifier call makes, counted from its public inputs.

    A rank check is one (difference, probe) pair.  Each group enumerates
    its (2L-1)^|group| - 1 nonzero PAM differences; each is paired with
    1 + 2|I| + trials probes over the interference indices I (zero, +-unit
    vectors, random draws), or with the zero probe alone when I is empty.
    A witness stops the search after the probe batch of its difference.
    """
    values = [int(v) for v in diversity.pam_difference_values(pam_levels)]
    total = 0
    for k, group in enumerate(scheme.groups):
        if len(values) ** len(group) > diversity.DIFFERENCE_ENUM_CAP:
            raise ValueError("difference sampling above the cap is not counted")
        interference = len(interference_of(k))
        probes = 1 + 2 * interference + trials if interference else 1
        diffs = [a for a in itertools.product(values, repeat=len(group)) if any(a)]
        if witness is not None and witness["group"] == k + 1:
            return total + (diffs.index(tuple(witness["difference"])) + 1) * probes
        total += len(diffs) * probes
    return total


# (code, PAM levels of its falsifier runs)
VERIFY_CODES = (("sec3(3,2,4)", 4), ("sec4(4,2)", 4), ("identity-sec3(2,2,1)", 2))
VERIFY_TRIALS = 200  # random interference draws per group in each falsifier call
ROTATION_BOUND = 3  # PAM difference bound B of every rotation certificate


@dataclass(frozen=True)
class VerifyWorkload:
    """Falsifiers, structural certificates and rotation certificates."""

    name: str
    kind: str = field(default="verify", init=False)

    @staticmethod
    def build_codes():
        return {
            "sec3(3,2,4)": constructions.build_diagonal_code(3, 2, 4),
            "sec4(4,2)": constructions.build_alamouti_block_code(4, 2),
            "identity-sec3(2,2,1)": constructions.build_diagonal_code(
                2, 2, 1, rotation=np.eye(2), normalize=False),
        }

    def operations(self, seed, codes):
        """(name, kind, call) in pass order; kind is 'falsify' or 'certify'."""
        rot2 = rotations.build_rotation(2)
        _, _, spec3 = codes["sec3(3,2,4)"]
        _, _, spec4 = codes["sec4(4,2)"]
        ops = [
            ("certify_diagonal:sec3(3,2,4)", "certify",
             lambda: diversity.certify_diagonal(spec3, rot2)),
            ("certify_alamouti_block:sec4(4,2)", "certify",
             lambda: diversity.certify_alamouti_block(spec4, rot2)),
        ]
        for dim in rotations.SUPPORTED_DIMENSIONS:
            ops.append((f"certify_rotation:dim{dim}", "certify",
                        lambda dim=dim: list(rotations.certify_rotation(
                            rotations.build_rotation(dim).entries,
                            ROTATION_BOUND))))
        for code, pam in VERIFY_CODES:
            design, scheme, _ = codes[code]
            for mode in ("pic", "picsic"):
                fn_name = f"falsify_{mode}"

                def call(design=design, scheme=scheme, pam=pam, fn_name=fn_name):
                    w = getattr(diversity, fn_name)(
                        design, scheme, pam_levels=pam,
                        trials_per_group=VERIFY_TRIALS, rng_seed=seed)
                    return None if w is None else _witness_record(w)

                ops.append((f"{fn_name}:{code}", "falsify", call))
        return ops

    @property
    def op_names(self):
        return (["certify_diagonal:sec3(3,2,4)", "certify_alamouti_block:sec4(4,2)"]
                + [f"certify_rotation:dim{d}" for d in rotations.SUPPORTED_DIMENSIONS]
                + [f"falsify_{m}:{c}" for c, _ in VERIFY_CODES
                   for m in ("pic", "picsic")])

    def setup(self):
        """Build the codes and every rotation cold, then run the first check."""
        codes = self.build_codes()
        for dim in rotations.SUPPORTED_DIMENSIONS:
            rotations.build_rotation(dim)
        self.operations(REFERENCE_SEED, codes)[0][2]()

    def run_pass(self, seed, between=lambda: None):
        """Timed segments: building the codes, then each operation.

        `between` runs before each operation, outside the timing; the
        throughput is taken over the falsify calls.
        """
        t0 = perf_counter()
        try:
            codes = self.build_codes()
            ops = self.operations(seed, codes)
        except Exception:
            return _failure(_exception_summary(), self.op_names, perf_counter() - t0)
        segments = [(perf_counter() - t0, False)]
        record, errors = {}, {}
        checks = 0
        for name, kind, call in ops:
            between()
            start = perf_counter()
            try:
                record[name] = call()
            except Exception:
                errors[name] = _exception_summary()
                continue
            finally:
                segments.append((perf_counter() - start, kind == "falsify"))
            problem = expectation_problem(name, record[name])
            if problem:
                errors[name] = problem
            if kind == "falsify":
                fn_name, code = name.split(":")
                _, scheme, _ = codes[code]
                interference_of = (scheme.complement if fn_name == "falsify_pic"
                                   else scheme.later)
                pam = dict(VERIFY_CODES)[code]
                checks += rank_checks(scheme, pam, VERIFY_TRIALS, interference_of,
                                      record[name])
        return PassResult(record, errors, segments, checks)


def _witness_record(w):
    doc = w.to_json()
    return {k: doc[k] for k in ("group", "difference", "interference", "rank")}


def expectation_problem(name, outcome):
    """Why a verify outcome contradicts what holds at every seed, or ''.

    The certified codes must yield no witness and pass their certificates;
    the identity-rotation code must yield the witness a = (2, 0), u = 0 in
    the first group, found by the seed-independent zero probe.
    """
    if name.startswith("falsify_"):
        if "identity" in name:
            ok = (outcome is not None and outcome["group"] == 1
                  and outcome["difference"] == [2, 0]
                  and not any(outcome["interference"]))
            return "" if ok else f"expected witness a=(2,0), u=0, got {outcome}"
        return "" if outcome is None else f"unexpected witness {outcome}"
    if name.startswith("certify_rotation"):
        passed, delta = outcome
        return "" if passed and delta > 0 else f"rotation certificate failed: {outcome}"
    return "" if outcome is True else f"certificate returned {outcome}"


WORKLOADS = {
    w.name: w for w in (
        SimWorkload("sim-sec4-picsic", dict(
            family="sec4", antennas=4, layers=2, receive_antennas=2, qam=4,
            decoder="picsic", search_mode="conditioned",
            snr_grid_db=(4.0, 8.0, 12.0, 16.0)), frames_per_point=100),
        SimWorkload("sim-sec3-pic-qam64", dict(
            family="sec3", antennas=4, group_size=4, layers=2, receive_antennas=2,
            qam=64, decoder="pic", search_mode="exhaustive",
            snr_grid_db=(16.0, 20.0, 24.0, 28.0)), frames_per_point=24),
        SimWorkload("sim-sec4-overloaded", dict(
            family="sec4", antennas=4, layers=2, receive_antennas=1, qam=4,
            decoder="picsic", search_mode="conditioned",
            snr_grid_db=(8.0, 12.0, 16.0, 20.0, 24.0)), frames_per_point=80),
        VerifyWorkload("verify-falsify"),
    )
}


def _search_count(args, result):
    """(metric evaluations, multiply-adds) of one group search.

    Each evaluated candidate costs a rows x n product with the projected
    group channel plus a rows-long squared norm: rows * (n + 1).
    """
    rows, n = np.shape(args[1])
    evals = int(result[2])
    return [evals, evals * rows * (n + 1)]


def _build_targets():
    sim = "stbclab.simharness"
    targets = [
        Target(sim, "_SimContext.run_frame", "simharness.frame", frame=True),
        Target(sim, "modulate", "channel.modulate"),
        Target(sim, "sample_link", "channel.sample_link"),
        Target(sim, "transmit", "channel.transmit"),
        Target(sim, "demap", "channel.demap"),
        Target(sim, "assemble_codeword", "lindesign.assemble_codeword"),
        Target(sim, "vec_complex", "lindesign.vec_complex"),
        Target(sim, "equivalent_channel", "lindesign.equivalent_channel"),
        Target(sim, "decode", "decoders.decode"),
        Target("stbclab.decoders", "group_joint_decode", "decoders.group_search",
               count=_search_count),
        Target("stbclab.constructions", "build_rotation", "rotations.build_rotation"),
        Target("stbclab.rotations", "build_rotation", "rotations.build_rotation"),
        Target("stbclab.rotations", "certify_rotation", "rotations.certify_rotation"),
        Target("stbclab.diversity", "certify_rotation", "rotations.certify_rotation"),
        Target("stbclab.diversity", "numerical_rank", "diversity.numerical_rank"),
        Target("stbclab.diversity", "falsify_pic", "diversity.falsify_pic"),
        Target("stbclab.diversity", "falsify_picsic", "diversity.falsify_picsic"),
        Target("stbclab.diversity", "certify_diagonal", "diversity.certify"),
        Target("stbclab.diversity", "certify_alamouti_block", "diversity.certify"),
    ]
    for module in ("stbclab.simharness", "stbclab.constructions", "stbclab.diversity"):
        for fn in ("build_diagonal_code", "build_alamouti_block_code"):
            targets.append(Target(module, fn, "constructions.build_code"))
    return tuple(targets)


TARGETS = _build_targets()
