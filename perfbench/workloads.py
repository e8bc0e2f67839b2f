"""The four workloads: ensemble, kernels, wigner and cli.

A workload is a fixed cycle of operation templates.  Operation ``i`` runs
template ``i % len(templates)`` on inputs drawn from ``(seed, i)`` alone, so a
seed fixes the inputs, another seed changes the inputs but not the mix, and
no input repeats within a run.  Inputs come from numpy's generator, never
from the package's own sampler, so the benchmark's inputs stay the same when
the package changes.

Each workload offers ``make_op(i)`` (set-up, untimed), ``run(op)`` (the timed
call into qdiv) and ``check(op, out)`` (the oracle, untimed), which returns
``None`` for a correct outcome or a one-line reason.  The package is always
reached through module attributes at call time, so the timing shims of a
traced run see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

import qdiv
import qdiv.cli
import qdiv.files
import qdiv.preserver

import oracle

PAIR_CLASSES = ("full/full", "half/full", "rank1/half", "nested", "orthogonal")
RESIDUAL_TOL = 1e-8
SUBPROCESS_TIMEOUT_S = 120


def child_env():
    """Environment of a qdiv subprocess: the package from src/, no QDIV_SEED."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qdiv.__file__)))
    env.pop("QDIV_SEED", None)
    return env


def op_rng(seed: int, i: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([stream, seed, i])


def haar(n, rng):
    """Haar unitary: QR of a complex Gaussian matrix with R's phases removed."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def density_on(v, rank, rng):
    """Unit-trace PSD matrix of the given rank inside the span of columns v."""
    x = v @ haar(v.shape[1], rng)[:, :rank]
    p = rng.exponential(size=rank)
    p /= p.sum()
    m = (x * p) @ x.conj().T
    return 0.5 * (m + m.conj().T)


def make_pair(cls, n, rng):
    """A density pair whose supports relate as the class name says."""
    eye = np.eye(n, dtype=np.complex128)
    h = n // 2
    if cls == "full/full":
        return density_on(eye, n, rng), density_on(eye, n, rng)
    if cls == "half/full":
        return density_on(eye, h, rng), density_on(eye, n, rng)
    if cls == "rank1/half":
        return density_on(eye, 1, rng), density_on(eye, h, rng)
    u = haar(n, rng)
    if cls == "nested":
        return density_on(u[:, :h], h // 2, rng), density_on(u[:, :h], h, rng)
    if cls == "orthogonal":
        return density_on(u[:, :h], h, rng), density_on(u[:, h:], n - h, rng)
    raise ValueError(f"unknown pair class {cls!r}")


def probe_projections(n):
    """The standard probe set, in the order the package documents."""
    eye = np.eye(n, dtype=np.complex128)
    vecs = [eye[:, i] for i in range(n)]
    vecs += [(eye[:, 0] + eye[:, j]) / math.sqrt(2) for j in range(1, n)]
    vecs.append((eye[:, 0] + 1j * eye[:, 1]) / math.sqrt(2))
    return [np.outer(x, x.conj()) for x in vecs]


def write_operator(path, m, role):
    """Operator file: JSON with re/im parts; floats as shortest round-trip text."""
    doc = {"dim": m.shape[0], "role": role,
           "re": m.real.tolist(), "im": m.imag.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _raised(out):
    if isinstance(out, BaseException):
        return f"raised {type(out).__name__}: {out}"
    return None


ENSEMBLE_MAPS = ("unitary", "antiunitary", "depolarizing")
ENSEMBLE_DIVERGENCES = (("sandwiched", {"alpha": 0.5}), ("sandwiched", {"alpha": 2.0}),
                        ("sandwiched", {"alpha": 3.0}), ("umegaki", {}),
                        ("renyi", {"alpha": 2.0}))
WIGNER_KINDS = ("unitary", "antiunitary", "transpose")


class Ensemble:
    """``check_invariance`` on batches of mixed-rank density pairs at dim 4."""

    name = "ensemble"
    dim = 4
    # Pairs per call: the default of ``qdiv check --samples`` and of
    # ``suites.run_suite``, which drives ``check_invariance`` per (map, divergence).
    batch = 100
    maps = ENSEMBLE_MAPS
    divergences = ENSEMBLE_DIVERGENCES
    # 3 maps x 5 divergences, coprime, so i % 15 meets every combination.
    templates = tuple(f"{ENSEMBLE_MAPS[t % 3]}/{ENSEMBLE_DIVERGENCES[t % 5][0]}"
                      f"{ENSEMBLE_DIVERGENCES[t % 5][1].get('alpha', '')}"
                      for t in range(15))
    trace_ops = 30

    def __init__(self, seed, workdir, in_process):
        self.seed = seed
        self.depolarizing = qdiv.depolarizing_channel(0.3, self.dim)

    def make_op(self, i, stream=0):
        rng = op_rng(self.seed, i, stream)
        kind = self.maps[i % 3]
        if kind == "depolarizing":
            state_map = self.depolarizing
        elif kind == "unitary":
            state_map = qdiv.StateMap.unitary_conjugation(haar(self.dim, rng))
        else:
            state_map = qdiv.StateMap.antiunitary_conjugation(haar(self.dim, rng))
        tag, params = self.divergences[i % 5]
        return kind, state_map, tag, params, int(rng.integers(2**62))

    def run(self, op):
        _kind, state_map, tag, params, seed = op
        return qdiv.check_invariance(state_map, tag, n_samples=self.batch,
                                     seed=seed, **params)

    def check(self, op, out):
        kind = op[0]
        if _raised(out):
            return _raised(out)
        if out.samples != self.batch:
            return f"checked {out.samples} pairs, expected {self.batch}"
        if kind == "depolarizing":
            return "depolarizing channel reported invariant" if out.passed else None
        if not out.passed or out.infinity_mismatches:
            return (f"{kind} conjugation reported not invariant: deviation "
                    f"{out.max_abs_deviation:.3e}, {out.infinity_mismatches} "
                    "+inf mismatches")
        return None

    def branch(self, op, out):
        return None


class Kernels:
    """Single divergence calls on raw ndarray pairs at n = 24."""

    name = "kernels"
    n = 24
    superop_n = 5
    templates = ("sandwiched0.5", "sandwiched2", "umegaki", "renyi0.5", "renyi2",
                 "fdiv-xlogx", "dfg-sqrt-square", "fdiv-vs-superop")
    # 8 templates and 5 pair classes are coprime: every template meets every class.
    trace_ops = 40

    def __init__(self, seed, workdir, in_process):
        self.seed = seed
        self.xlogx = qdiv.spec_from_name("xlogx")
        self.sqrt = qdiv.spec_from_name("power:0.5")
        self.square = qdiv.spec_from_name("power:2")
        self.calls = {
            "sandwiched0.5": lambda a, b: qdiv.sandwiched_renyi(a, b, 0.5),
            "sandwiched2": lambda a, b: qdiv.sandwiched_renyi(a, b, 2.0),
            "umegaki": lambda a, b: qdiv.umegaki(a, b),
            "renyi0.5": lambda a, b: qdiv.renyi_traditional(a, b, 0.5),
            "renyi2": lambda a, b: qdiv.renyi_traditional(a, b, 2.0),
            "fdiv-xlogx": lambda a, b: qdiv.f_divergence(a, b, self.xlogx),
            "dfg-sqrt-square": lambda a, b: qdiv.d_fg(a, b, self.sqrt, self.square),
            "fdiv-vs-superop": lambda a, b: (
                qdiv.f_divergence(a, b, self.xlogx),
                qdiv.f_divergence_superop(a, b, self.xlogx)),
        }

    references = {
        "sandwiched0.5": lambda a, b: oracle.sandwiched(a, b, 0.5),
        "sandwiched2": lambda a, b: oracle.sandwiched(a, b, 2.0),
        "umegaki": oracle.umegaki,
        "renyi0.5": lambda a, b: oracle.renyi(a, b, 0.5),
        "renyi2": lambda a, b: oracle.renyi(a, b, 2.0),
        # On unit-trace inputs the x log x f-divergence is Umegaki's.
        "fdiv-xlogx": oracle.umegaki,
        "dfg-sqrt-square": oracle.dfg_sqrt_square,
    }
    tags = {"sandwiched0.5": "sandwiched", "sandwiched2": "sandwiched",
            "umegaki": "umegaki", "renyi0.5": "renyi", "renyi2": "renyi",
            "fdiv-xlogx": "fdiv", "dfg-sqrt-square": "dfg"}

    def make_op(self, i, stream=0):
        rng = op_rng(self.seed, i, stream)
        template = self.templates[i % len(self.templates)]
        if template == "fdiv-vs-superop":
            eye = np.eye(self.superop_n, dtype=np.complex128)
            a = density_on(eye, self.superop_n, rng)
            b = density_on(eye, self.superop_n, rng)
            return template, "full/full", a, b
        cls = PAIR_CLASSES[i % len(PAIR_CLASSES)]
        return (template, cls) + make_pair(cls, self.n, rng)

    def run(self, op):
        template, _cls, a, b = op
        return self.calls[template](a, b)

    def check(self, op, out):
        template, cls, a, b = op
        if _raised(out):
            return _raised(out)
        if template == "fdiv-vs-superop":
            spectral, superop = out
            if not oracle.close(spectral.value, superop):
                return f"f_divergence {spectral!r} vs superoperator {superop!r}"
            want = oracle.umegaki(a, b)
            if not oracle.close(superop, want):
                return f"superoperator {superop!r} vs reference {want!r}"
            return None
        want = self.references[template](a, b)
        if not oracle.close(out.value, want):
            return f"{template} on {cls}: got {out!r}, reference {want!r}"
        return None

    def branch(self, op, out):
        template = op[0]
        if template == "fdiv-vs-superop" or isinstance(out, BaseException):
            return None
        return self.tags[template], out.is_inf


class Wigner:
    """Probe images -> reconstruction -> conjugation check at n = 16."""

    name = "wigner"
    n = 16
    # Default of ``verify_conjugation``; ``suites.suite_wigner`` uses it too.
    verify_samples = 50
    kinds = WIGNER_KINDS
    # i % 3 picks the map and i % 4 == 3 swaps two probe images: 12 templates.
    templates = tuple(WIGNER_KINDS[t % 3] + ("-swapped" if t % 4 == 3 else "")
                      for t in range(12))
    trace_ops = 24

    def __init__(self, seed, workdir, in_process):
        self.seed = seed

    def make_op(self, i, stream=0):
        rng = op_rng(self.seed, i, stream)
        kind = self.kinds[i % 3]
        u0 = haar(self.n, rng)
        if kind == "unitary":
            state_map, u_true = qdiv.StateMap.unitary_conjugation(u0), u0
        elif kind == "antiunitary":
            state_map, u_true = qdiv.StateMap.antiunitary_conjugation(u0), u0
        else:
            # A -> (U A U*)^T is antiunitary with unitary part conj(U).
            state_map, u_true = (qdiv.StateMap.antiunitary_conjugation(u0.conj()),
                                 u0.conj())
        swap = None
        if i % 4 == 3:
            # Two basis probes past the first: the superposition probe of
            # either then sees a transition probability of 0 instead of 1/2.
            swap = tuple(int(k) for k in rng.choice(np.arange(1, self.n), 2,
                                                    replace=False))
        return kind, state_map, u_true, swap, int(rng.integers(2**62))

    def run(self, op):
        _kind, state_map, _u_true, swap, seed = op
        images = [state_map.apply(p) for p in qdiv.wigner_probe_projections(self.n)]
        if swap:
            j, k = swap
            images[j], images[k] = images[k], images[j]
        u, kind, residual = qdiv.wigner_reconstruct(images)
        report = qdiv.verify_conjugation(state_map, u, kind,
                                         n_samples=self.verify_samples, seed=seed)
        return u, kind, residual, report

    def check(self, op, out):
        kind, _map, u_true, swap, _seed = op
        if swap:
            if isinstance(out, qdiv.preserver.WignerError):
                return None
            return f"swapped probes {swap} not rejected: {_raised(out) or 'accepted'}"
        if _raised(out):
            return _raised(out)
        u, got_kind, residual, report = out
        want_kind = "unitary" if kind == "unitary" else "antiunitary"
        if got_kind != want_kind:
            return f"{kind} map recovered as {got_kind}"
        if not residual <= RESIDUAL_TOL:
            return f"{kind} residual {residual:.3e}"
        if not report.max_deviation <= RESIDUAL_TOL:
            return f"{kind} conjugation deviation {report.max_deviation:.3e}"
        # The recovered unitary equals the true one up to a global phase.
        overlap = abs(np.vdot(u_true, u))
        if abs(overlap - self.n) > RESIDUAL_TOL * self.n:
            return f"{kind} recovered unitary overlap {overlap:.12g} != {self.n}"
        return None

    def branch(self, op, out):
        return None


class Cli:
    """One ``python -m qdiv`` command per operation."""

    name = "cli"
    n = 16
    image_n = 8
    div_params = {
        "umegaki": {},
        "renyi": {"alpha": 0.5},
        "sandwiched": {"alpha": 2.0},
        "sandwiched-core": {"alpha": 0.5},
        "fdiv": {"f": "xlogx"},
        "dfg": {"f": "power:0.5", "g": "power:2"},
    }
    # 9 templates and 5 pair classes are coprime: every div tag meets every class.
    templates = ("sample", *(f"div-{tag}" for tag in div_params), "reconstruct",
                 "prop1")
    trace_ops = 45

    def __init__(self, seed, workdir, in_process):
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process
        self.env = child_env()

    def make_op(self, i, stream=0):
        rng = op_rng(self.seed, i, stream)
        template = self.templates[i % len(self.templates)]
        stem = os.path.join(self.workdir, f"s{stream}-op{i}")
        op = {"template": template}
        if template == "sample":
            op["rank"] = int(rng.integers(1, self.n + 1))
            op["seed"] = int(rng.integers(2**31))
            op["path"] = stem + "-sample.json"
            op["argv"] = ["sample", "density", "--dim", str(self.n),
                          "--rank", str(op["rank"]), "--seed", str(op["seed"]),
                          "--out", op["path"]]
        elif template.startswith("div-"):
            tag = template[4:]
            cls = PAIR_CLASSES[i % len(PAIR_CLASSES)]
            a, b = make_pair(cls, self.n, rng)
            paths = (stem + "-a.json", stem + "-b.json")
            for path, m in zip(paths, (a, b)):
                write_operator(path, m, "density")
            flags = [x for k, v in self.div_params[tag].items()
                     for x in (f"--{k}", str(v))]
            op.update(tag=tag, cls=cls, a=a, b=b, argv=["div", tag, *paths, *flags])
        elif template == "reconstruct":
            u0 = haar(self.image_n, rng)
            kind = ("unitary", "antiunitary")[i // len(self.templates) % 2]
            directory = stem + "-images"
            os.makedirs(directory, exist_ok=True)
            for k, p in enumerate(probe_projections(self.image_n)):
                image = u0 @ (p if kind == "unitary" else p.conj()) @ u0.conj().T
                write_operator(os.path.join(directory, f"img_{k:03d}.json"),
                               image, "projection")
            op.update(kind=kind, dir=directory,
                      argv=["reconstruct", "--images", directory])
        else:
            op["argv"] = ["check", "prop1", "--alpha", "2",
                          "--seed", str(int(rng.integers(2**31)))]
        return op

    def run(self, op):
        if self.in_process:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = qdiv.cli.main(op["argv"])
            return code, stdout.getvalue()
        proc = subprocess.run([sys.executable, "-m", "qdiv", *op["argv"]],
                              cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def check(self, op, out):
        if _raised(out):
            return _raised(out)
        code, stdout = out
        template = op["template"]
        if code != 0:
            return f"{template} exited {code}"
        lines = stdout.splitlines()
        if template == "sample":
            want = qdiv.files.operator_to_text(
                qdiv.random_density(self.n, op["rank"],
                                    qdiv.SeededRng(op["seed"])).matrix, "density")
            with open(op["path"], encoding="utf-8") as fh:
                if fh.read() != want:
                    return "sample output differs from the in-process sampler"
            return None
        if template == "prop1":
            return None if lines[-1:] == ["suite passed"] else "prop1 did not pass"
        if template == "reconstruct":
            names = sorted(os.listdir(op["dir"]))
            images = [qdiv.files.load_operator(os.path.join(op["dir"], f))[0]
                      for f in names]
            _u, kind, residual = qdiv.wigner_reconstruct(images)
            want = [f"kind: {kind}", f"residual: {residual:.6e}"]
            if lines != want:
                return f"reconstruct printed {lines}, in process {want}"
            if kind != op["kind"] or not residual <= RESIDUAL_TOL:
                return f"reconstruct of a {op['kind']} map gave {lines}"
            return None
        return self._check_div(op, lines)

    def _check_div(self, op, lines):
        tag, a, b = op["tag"], op["a"], op["b"]
        loaded = [qdiv.files.load_operator(p)[0] for p in op["argv"][2:4]]
        params = self.div_params[tag]
        alpha = params.get("alpha")
        div = qdiv.make_divergence(tag, **params)
        coerce = qdiv.DensityOperator if tag in ("umegaki", "renyi") else \
            qdiv.PositiveOperator
        want = qdiv.extended.fmt_extended(div(*map(coerce, loaded)))
        if lines != [want]:
            return f"div {tag} on {op['cls']} printed {lines}, in process {want}"
        reference = {
            "umegaki": lambda: oracle.umegaki(a, b),
            "renyi": lambda: oracle.renyi(a, b, alpha),
            "sandwiched": lambda: oracle.sandwiched(a, b, alpha),
            "sandwiched-core": lambda: oracle.sandwiched_core(a, b, alpha),
            "fdiv": lambda: oracle.umegaki(a, b),  # x log x on unit trace
            "dfg": lambda: oracle.dfg_sqrt_square(a, b),
        }[tag]()
        if not oracle.close(float(want), reference):
            return f"div {tag} on {op['cls']} printed {want}, reference {reference!r}"
        return None

    def branch(self, op, out):
        if "tag" not in op or isinstance(out, BaseException) or out[0] != 0:
            return None
        return op["tag"], out[1].strip() == "inf"


WORKLOADS = {w.name: w for w in (Ensemble, Kernels, Wigner, Cli)}
