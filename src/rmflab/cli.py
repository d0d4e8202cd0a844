"""Batch command-line front end.

Subcommands: simulate, moments, lambda, correlations, events, signprob,
avg-v, mertens, models, selftest.  Every experiment writes flat result
records (CSV or JSON lines) plus a run manifest sufficient to reproduce
each number bit-exactly.

Each subcommand takes only the options its handler reads.  Config
precedence is flags > config file > defaults: the config file's values
become the subcommand's defaults before the command line is parsed, so the
file can also supply options the subcommand requires.  The file is flat
``key = value`` text; keys are the long option names of the chosen
subcommand (dashes or underscores).  Unknown keys are rejected.  The
manifest records the command and its resolved options.

Exit codes: 0 success, 2 parameter error, 3 resource error.  Errors print
to stderr as ``rmflab: error: <kind>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import secrets
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, signs
from .analysis import (
    LambdaParams,
    exact_correlation,
    lambda_asymptotic,
    lambda_exact,
)
from .errors import ParameterError, ResourceError, RmflabError
from .models import (KINDS, MARTINGALE_A, MARTINGALE_B, ModelSpec, mian_chowla,
                     peak_rss_mb, psi_predictor, sample_path, usable_cpus)
from .montecarlo import (
    EstimateWithCI,
    ExperimentPlan,
    correlation_table,
    estimate_event_probs,
    estimate_sign_change_prob,
    expected_v_table,
    moment_table,
    regime_flags,
    resolve_budget,
    x_ell_grid,
)
from .rmf import grid_positions
from .sieve import mertens_trace

CSV_HEADER = (
    "experiment,model,x,N,q,point,ci_lo,ci_hi,n_samples,seed,"
    "regime_n_small,regime_loglog_ok"
)
RECORD_FIELDS = CSV_HEADER.split(",")


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def record(experiment: str, model: str = "", est: EstimateWithCI | None = None, flags=None, **columns) -> dict:
    """A row holding every ``RECORD_FIELDS`` column: ``columns``, then ``est`` and ``flags``; None elsewhere."""
    r = dict.fromkeys(RECORD_FIELDS)
    r.update(experiment=experiment, model=model, **columns)
    if est is not None:
        r.update(point=est.point, ci_lo=est.ci_lo, ci_hi=est.ci_hi, n_samples=est.n_samples, seed=est.seed)
    if flags is not None:
        r.update(regime_n_small=flags.n_small, regime_loglog_ok=flags.loglog_ok)
    return r


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad numeric list {text!r}") from exc
    if not values:
        raise ParameterError(f"numeric list {text!r} is empty")
    if not all(math.isfinite(v) for v in values):
        raise ParameterError(f"numeric list {text!r} holds a non-finite value")
    return values


def _parse_ints(text: str) -> list[int]:
    values = _parse_floats(text)
    if not all(v.is_integer() for v in values):
        raise ParameterError(f"integer list {text!r} holds a non-integer value")
    return [int(v) for v in values]


def load_config(path: str) -> dict[str, str]:
    cfg = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParameterError(f"{path}:{line_no}: expected 'key = value'")
                key, val = line.split("=", 1)
                cfg[key.strip().replace("-", "_")] = val.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    return cfg


def _apply_config(sub: argparse.ArgumentParser, argv: list[str]) -> None:
    """Make the values of the ``--config`` file in ``argv`` ``sub``'s defaults.

    The file is found by option name alone, before the one parse of
    ``argv``; its values are typed and checked as their flags are, and an
    option the file supplies is no longer required on the command line.
    """
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    names = argparse.ArgumentParser(prog=sub.prog, add_help=False)
    for action in actions.values():
        names.add_argument(*action.option_strings, dest=action.dest)
    path = getattr(names.parse_known_args(argv)[0], "config", None)
    if not path:
        return
    cfg = load_config(path)
    unknown = set(cfg) - set(actions)
    if unknown:
        raise ParameterError(
            f"unknown config keys: {sorted(unknown)}; valid: {sorted(actions)}"
        )
    values = {}
    for key, raw in cfg.items():
        action = actions[key]
        try:
            values[key] = action.type(raw) if action.type else raw
        except ValueError as exc:
            raise ParameterError(f"config key {key}: bad value {raw!r}") from exc
        if action.choices is not None and values[key] not in action.choices:
            raise ParameterError(f"config key {key}: {raw!r} is not one of {list(action.choices)}")
    sub.set_defaults(**values)
    for key in values:
        actions[key].required = False


def _check_finite(args: argparse.Namespace) -> None:
    for key, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"{key} must be finite, got {value}")


def positive_int(text: str) -> int:
    """An int >= 1; a ``ValueError`` otherwise, so flag and config both exit 2."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is not >= 1")
    return value


def master_seed(text: str) -> int:
    """An int in [0, 2^63); a ``ValueError`` otherwise, so flag and config both exit 2."""
    return signs.check_seed(int(text))  # a ParameterError is a ValueError


_OPTIONS = {
    "seed": dict(type=master_seed, default=None, help="master seed (all randomness flows from it)"),
    "samples": dict(type=int, default=1000),
    "workers": dict(type=positive_int, default=1, help="sample-level parallelism; output independent of it"),
    "n-boot": dict(dest="n_boot", type=int, default=1000),
    "budget": dict(type=float, default=None, help="step budget override (also env RMFLAB_BUDGET)"),
    "out": dict(default=None, help="output file path"),
    "format": dict(choices=("csv", "jsonl"), default="csv"),
    "config": dict(default=None, help="flat key=value config file"),
}
SAMPLING = ("seed", "samples", "workers", "n-boot", "budget")
OUTPUT = ("out", "format", "config")


def _options(sub: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        sub.add_argument(f"--{name}", **_OPTIONS[name])


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    p = argparse.ArgumentParser(prog="rmflab", description=__doc__)
    p.add_argument("--version", action="version", version=f"rmflab {__version__}")
    sp = p.add_subparsers(dest="command", required=True)

    s = sp.add_parser("simulate", help="one sample path of a model walk")
    s.add_argument("--model", choices=KINDS, default="rmf")
    s.add_argument("--x", type=float, required=True)
    s.add_argument("--checkpoints", type=str, default="")
    s.add_argument("--sample-index", type=int, default=0)
    _options(s, "seed", "budget", *OUTPUT)

    s = sp.add_parser("moments", help="E|M(x)|^q over x- and q-grids")
    s.add_argument("--model", choices=KINDS, default="rmf")
    s.add_argument("--x", type=str, required=True, help="comma list of x values")
    s.add_argument("--q", type=str, default="1,2", help="comma list of q values")
    _options(s, *SAMPLING, *OUTPUT)

    s = sp.add_parser("lambda", help="grid sum: exact vs asymptotic")
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--x", type=float, default=None)
    s.add_argument("--log-x", dest="log_x", type=float, default=None)
    s.add_argument("--loglog-x", dest="loglog_x", type=float, default=None)
    s.add_argument("--q", type=str, default="1")
    _options(s, *OUTPUT)

    s = sp.add_parser("correlations", help="empirical vs exact checkpoint correlations")
    s.add_argument("--x", type=float, required=True)
    s.add_argument("--n", type=int, default=1)
    s.add_argument("--m", type=int, default=None, help="single partner index")
    s.add_argument("--max-m", dest="max_m", type=int, default=None, help="all pairs n<=a<b<=max-m, from one walk")
    _options(s, *SAMPLING, *OUTPUT)
    s.set_defaults(model="rmf")  # no --model: these walks are always rmf

    s = sp.add_parser("events", help="probabilities of the forcing events A, B")
    s.add_argument("--x", type=float, required=True)
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--epsilon", type=float, default=0.1)
    s.add_argument("--delta", type=float, default=0.1)
    _options(s, *SAMPLING, *OUTPUT)
    s.set_defaults(model="rmf")

    s = sp.add_parser("signprob", help="P(sign change in (x, e^N x])")
    s.add_argument("--x", type=str, required=True, help="comma list of x values")
    s.add_argument("--N", type=int, required=True)
    _options(s, *SAMPLING, *OUTPUT)
    s.set_defaults(model="rmf")

    s = sp.add_parser("avg-v", help="averaged sign-change counts E V(x)")
    s.add_argument("--model", choices=KINDS, default="rmf")
    s.add_argument("--x", type=str, default=None, help="explicit comma list of x values")
    s.add_argument("--grid-eps", dest="grid_eps", type=float, default=None, help="use the x_ell grid with this epsilon")
    s.add_argument("--ell-max", dest="ell_max", type=int, default=20)
    s.add_argument("--xmin", type=float, default=None)
    s.add_argument("--xmax", type=float, default=None)
    _options(s, *SAMPLING, *OUTPUT)

    s = sp.add_parser("mertens", help="deterministic Mertens sign-change census")
    s.add_argument("--x", type=float, required=True)
    _options(s, "budget", *OUTPUT)

    sp.add_parser("models", help="list model kinds and their declarations")

    s = sp.add_parser("selftest", help="run the full acceptance suite")
    _options(s, "seed", "workers", *OUTPUT)
    return p, sp.choices


def _seed(args) -> int:
    """``args.seed``, drawn from system entropy (and noted on stderr) if not given."""
    if args.seed is None:
        args.seed = secrets.randbits(48)
        print(f"rmflab: note: no --seed given; drew {args.seed} from system entropy", file=sys.stderr)
    return args.seed


def _plan(args) -> ExperimentPlan:
    return ExperimentPlan(
        master_seed=_seed(args),
        samples=args.samples,
        model=ModelSpec(args.model),
        workers=args.workers,
        budget=args.budget,
        n_boot=args.n_boot,
    )


def _git_commit(package_dir: str) -> str | None:
    """The commit checked out in the git checkout holding ``package_dir``, read without git.

    ``.git/HEAD`` holds the commit or a ``ref:`` line, which resolves
    through the loose ref file or ``packed-refs``.  None outside a
    checkout, for a ``.git`` file (a worktree) and for an unreadable ref.
    """
    here = Path(package_dir).resolve()
    git = next((d / ".git" for d in (here, *here.parents) if (d / ".git").exists()), None)
    if git is None or not git.is_dir():
        return None
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref:"):
            return head or None
        ref = head[4:].strip()
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip() or None
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            commit, _, name = line.partition(" ")
            if name == ref:
                return commit
    except OSError:
        pass
    return None


def _emit(args, records: list[dict], t0: float) -> None:
    """Print the records; with ``--out``, also write them and ``PATH.manifest.json``.

    The records file holds one record per line; CSV keeps the fixed
    documented header and each JSON line names its manifest.
    """
    for r in records:
        cells = [f"{k}={_fmt(r[k])}" for k in RECORD_FIELDS if r[k] not in (None, "")]
        print("  ".join(cells))
    if not getattr(args, "out", None):
        return
    if not records:
        raise ParameterError("no records to export")
    options = dict(vars(args))
    manifest = {
        "command": options.pop("command"),
        "options": options,
        "code_version": __version__,
        "wall_time_s": time.time() - t0,
        "experiment_seeds": {r["experiment"]: r["seed"] for r in records},
        "zero_policy": "zero-skip",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": usable_cpus(),
        "peak_rss_mb": peak_rss_mb(),
        "git_commit": _git_commit(os.path.dirname(__file__)),
    }
    manifest_path = args.out + ".manifest.json"
    if args.format == "csv":
        lines = [CSV_HEADER, *(",".join(_fmt(r[k]) for k in RECORD_FIELDS) for r in records)]
    else:
        ref = os.path.basename(manifest_path)
        lines = [json.dumps({**r, "manifest": ref}) for r in records]
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
    except OSError as exc:
        raise ResourceError(f"cannot write {exc.filename or args.out}: {exc}") from exc
    print(f"rmflab: wrote {args.out} and {manifest_path}", file=sys.stderr)


def cmd_simulate(args) -> tuple[list[dict], int]:
    seed = _seed(args)
    checkpoints = _parse_ints(args.checkpoints) if args.checkpoints else []
    trace = sample_path(
        ModelSpec(args.model),
        int(args.x),
        seed,
        sample_index=args.sample_index,
        checkpoints=checkpoints,
        budget=resolve_budget(args.budget),
    )
    k = args.model
    recs = [
        record("simulate-final", k, x=trace.x_end, point=float(trace.final_value), n_samples=1, seed=seed),
        record("simulate-changes", k, x=trace.x_end, point=float(trace.sign_change_count), n_samples=1, seed=seed),
    ]
    for c, v in zip(trace.checkpoint_requests, trace.checkpoint_values):
        recs.append(record("simulate-checkpoint", k, x=c, point=float(v), n_samples=1, seed=seed))
    return recs, 0


def cmd_moments(args) -> tuple[list[dict], int]:
    plan = _plan(args)
    xs = _parse_floats(args.x)
    qs = _parse_floats(args.q)
    table = moment_table(plan, xs, qs)
    return [
        record("moment", plan.model.kind, x=x, q=q, est=table[(x, q)])
        for x in xs
        for q in qs
    ], 0


def cmd_lambda(args) -> tuple[list[dict], int]:
    qs = _parse_floats(args.q)
    terms, budget = args.N * len(qs), resolve_budget(None)
    if terms > budget:
        raise ResourceError(f"lambda sums N * len(q) = {terms} terms but the budget is {budget}; "
                            f"raise it via RMFLAB_BUDGET", required=terms)
    recs = []
    for q in qs:
        params = LambdaParams(
            N=args.N, q=q, x=args.x, log_x=args.log_x, log_log_x=args.loglog_x
        )
        exact = lambda_exact(params)
        recs.append(record("lambda-exact", x=args.x, N=args.N, q=q, point=exact))
        if q <= 1.9:
            asym = lambda_asymptotic(params)
            recs.append(record("lambda-asymptotic", x=args.x, N=args.N, q=q, point=asym))
            print(f"q={q}: exact={exact:.6g} asymptotic={asym:.6g} ratio={exact / asym:.6g}")
        else:
            print(f"q={q}: exact={exact:.6g} (asymptotic needs q <= 1.9)")
    return recs, 0


def cmd_correlations(args) -> tuple[list[dict], int]:
    plan = _plan(args)
    if args.max_m is not None:
        if args.max_m <= args.n:
            raise ParameterError(f"--max-m must exceed --n={args.n}, got {args.max_m}")
        grid_positions(args.x, args.max_m)  # an overflowing grid is refused before any pair is built
        pairs = [(n, m) for n in range(args.n, args.max_m) for m in range(n + 1, args.max_m + 1)]
    elif args.m is not None:
        if args.m <= args.n:
            raise ParameterError(f"--m must exceed --n={args.n}, got {args.m}")
        pairs = [(args.n, args.m)]
    else:
        raise ParameterError("give --m or --max-m")
    recs = []
    for (n, m), est in correlation_table(plan, args.x, pairs).items():
        exact = exact_correlation(args.x, n, m)
        recs.append(record(f"correlation[{n},{m}]", plan.model.kind, x=args.x, N=m, est=est))
        recs.append(record(f"correlation-exact[{n},{m}]", "exact", x=args.x, N=m, point=exact))
    return recs, 0


def cmd_events(args) -> tuple[list[dict], int]:
    plan = _plan(args)
    res = estimate_event_probs(plan, args.x, args.N, args.epsilon, args.delta)
    flags = regime_flags(args.x, args.N)
    recs = [
        record("event-A", plan.model.kind, x=args.x, N=args.N, est=res.p_a, flags=flags),
        record("event-B", plan.model.kind, x=args.x, N=args.N, est=res.p_b, flags=flags),
    ]
    if res.p_change_given_ab is not None:
        recs.append(
            record("event-change-given-AB", plan.model.kind, x=args.x, N=args.N,
                   est=res.p_change_given_ab, flags=flags)
        )
    else:
        print("conditional sign-change frequency undefined (no A&B samples or N=1)")
    print(f"lambda1={res.lambda1:.6g} forcing geometry holds: {res.threshold_ok}")
    return recs, 0


def cmd_signprob(args) -> tuple[list[dict], int]:
    plan = _plan(args)
    recs = []
    for x in _parse_floats(args.x):
        flags = regime_flags(x, args.N)
        if not flags.n_small or not flags.loglog_ok:
            print(f"rmflab: warning: x={x} N={args.N} outside hypothesis regime {flags}", file=sys.stderr)
        est = estimate_sign_change_prob(plan, x, args.N)
        recs.append(record("signprob", plan.model.kind, x=x, N=args.N, est=est, flags=flags))
    return recs, 0


def cmd_avg_v(args) -> tuple[list[dict], int]:
    plan = _plan(args)
    if args.x:
        xs = _parse_floats(args.x)
    elif args.grid_eps is not None:
        xs = x_ell_grid(args.grid_eps, args.ell_max)
    else:
        raise ParameterError("give --x or --grid-eps")
    if args.xmin is not None:
        xs = [x for x in xs if x >= args.xmin]
    if args.xmax is not None:
        xs = [x for x in xs if x <= args.xmax]
    if not xs:
        raise ParameterError("x grid is empty after filtering")
    table = expected_v_table(plan, xs)
    return [record("avg-v", plan.model.kind, x=x, est=table[x]) for x in xs], 0


def cmd_mertens(args) -> tuple[list[dict], int]:
    trace = mertens_trace(int(args.x), budget=resolve_budget(args.budget))
    return [
        record("mertens-changes", "mertens", x=trace.x_end, point=float(trace.sign_change_count), n_samples=1),
        record("mertens-final", "mertens", x=trace.x_end, point=float(trace.final_value), n_samples=1),
    ], 0


def cmd_models(args) -> tuple[list[dict], int]:
    for kind in KINDS:
        spec = ModelSpec(kind)
        mean1 = spec.mean(1)
        v5 = spec.variance_bounds(5)
        try:
            psi = f"psi(1e6) = {psi_predictor(spec, 1e6):.4f}"
        except ParameterError:
            psi = "psi: none declared (stress model)"
        extras = ""
        if kind == "bounded_martingale":
            extras = f"  amplitudes [{MARTINGALE_A}, {MARTINGALE_B}]"
        if kind == "sidon_cosine":
            extras = f"  greedy B2 head: {mian_chowla(8).elements}"
        print(f"{kind:22s} EX_1={mean1:+.0f}  VarX_5 in {v5}  {psi}{extras}")
    return [], 0


def cmd_selftest(args) -> tuple[list[dict], int]:
    from .acceptance import run_all

    if args.seed is None:
        raise ParameterError("selftest requires an explicit --seed")
    results = run_all(seed=int(args.seed), workers=args.workers)
    recs = []
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.number:>2}: {res.name}  ({res.elapsed_s:.1f}s)  {res.detail}")
        failed += not res.passed
        recs.append(
            record(f"selftest-{res.number}", "acceptance", point=float(res.passed),
                   n_samples=None, seed=int(args.seed))
        )
    print(f"selftest: {len(results) - failed}/{len(results)} criteria passed")
    return recs, 1 if failed else 0


_HANDLERS = {
    "simulate": cmd_simulate,
    "moments": cmd_moments,
    "lambda": cmd_lambda,
    "correlations": cmd_correlations,
    "events": cmd_events,
    "signprob": cmd_signprob,
    "avg-v": cmd_avg_v,
    "mertens": cmd_mertens,
    "models": cmd_models,
    "selftest": cmd_selftest,
}


def run(argv: list[str]) -> int:
    parser, subparsers = build_parser()
    try:
        at = next((i for i, a in enumerate(argv) if a in subparsers), None)
        if at is not None:
            _apply_config(subparsers[argv[at]], argv[at + 1 :])
        args = parser.parse_args(argv)
        _check_finite(args)
        t0 = time.time()
        records, status = _HANDLERS[args.command](args)
        _emit(args, records, t0)
        return status
    except ParameterError as exc:
        print(f"rmflab: error: parameter: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"rmflab: error: resource: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"rmflab: error: resource: out of memory: {exc}", file=sys.stderr)
        return 3
    except RmflabError as exc:
        print(f"rmflab: error: internal: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
