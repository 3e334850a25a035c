"""Command-line front end.

Subcommands wrap the library operations and emit CSV.  Exit codes:
0 success, 2 parse or validation failure, 3 numerical failure,
4 violated precondition (e.g. asymptotics of a null-recurrent model).
Phase indices on the command line are 0-based.  ``reward`` weights the
phases before the Laplace inversion, so it inverts one curve per level.
"""

import argparse
import contextlib
import sys

import numpy as np

from . import bench as bench_mod
from . import mapph
from .errors import (ModelError, ModelParseError, NumericalError,
                     PreconditionError, QbdError, StructuralError)
from .gmatrices import gmatrices
from .model import (assemble_generator, classify_drift, load_model,
                    save_model, validate)
from .oracle import (oracle_deviation, oracle_passage, oracle_stationary,
                     oracle_transient_deviation)
from .passage import deviation_matrix_diffeq, passage_column
from .perturbation import deviation_recursive, deviation_time_recursive
from .stationary import stationary_rmatrix
from .transform import deviation_time, reward_time

_EXIT_CODES = (
    (ModelParseError, 2), (StructuralError, 2), (ModelError, 2),
    (PreconditionError, 4), (NumericalError, 3), (QbdError, 3),
)


@contextlib.contextmanager
def _output(path):
    if not path:
        yield sys.stdout
        return
    with open(path, "w", newline="") as out:
        yield out


def _matrix_lines(mat, n, origin=(0, 0)):
    """The CSV lines (k, l, i, j, value) of a block-structured matrix whose
    top-left block is block ``origin`` of the deviation matrix: the header,
    then one string per matrix row, byte for byte what csv.writer writes
    for the same rows with repr floats, at a fraction of its cost.  Each
    row fills one %-template, built once with \0 and \1 standing for its
    k and i."""
    k0, l0 = origin
    yield "k,l,i,j,value\r\n"
    template = "".join(f"\0{l0 + b // n},\1{b % n},%r\r\n"
                       for b in range(mat.shape[1]))
    for a in range(mat.shape[0]):
        row = template.replace("\0", f"{k0 + a // n},").replace(
            "\1", f"{a % n},")
        yield row % tuple(np.real(mat[a]).astype(float).tolist())


def _grid_lines(header, rows, columns, values):
    """The header, then the CSV lines (row, column, value) of the 2-d
    ``values`` with repr floats, byte for byte as csv.writer writes them:
    one string per row label, from a %-template with \0 for the label."""
    yield header
    template = "".join(f"\0,{c},%r\r\n" for c in columns)
    for label, row in zip(rows, np.asarray(values, dtype=float).tolist()):
        yield template.replace("\0", str(label)) % tuple(row)


def _reward_lines(t_values, levels, values):
    """The CSV lines (t, level, value) of ``values[time, level]``."""
    return _grid_lines("t,level,value\r\n",
                       (repr(float(t)) for t in t_values), levels, values)


def _write_levels(path, header, blocks, values):
    """Write the stacked level vector ``values`` as CSV lines."""
    with _output(path) as out:
        out.writelines(_grid_lines(
            header, range(blocks.C + 1), range(blocks.n),
            np.reshape(values, (blocks.C + 1, blocks.n))))


def _parse_block(spec, C):
    if spec is None:
        return None
    try:
        k, level = (int(x) for x in spec.split(","))
    except ValueError as exc:
        raise ModelParseError("--block must look like K,L") from exc
    if not (0 <= k <= C and 0 <= level <= C):
        raise ModelParseError(f"--block levels must lie in 0..{C}")
    return k, level


def _parse_t_grid(spec):
    parts = spec.split(":")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ModelParseError("--t-grid must look like start:stop:step") \
            from exc
    if not (0 <= start <= stop < np.inf and 0 < step < np.inf):
        raise ModelParseError("--t-grid needs 0 <= start <= stop and step > 0,"
                              " all finite")
    try:
        return list(np.arange(start, stop + step / 2, step))
    except ValueError as exc:  # more points than an array can index
        raise ModelParseError(f"--t-grid has too many points: {exc}") from exc


def _parse_nonnegative(value, flag):
    """``value`` if it is None or finite and nonnegative."""
    if value is not None and not 0 <= value < np.inf:
        raise ModelParseError(f"{flag} must be finite and nonnegative")
    return value


def _parse_levels(spec, C):
    if spec is None:
        return list(range(C + 1))
    try:
        levels = [int(x) for x in spec.split(",")]
    except ValueError as exc:
        raise ModelParseError("--levels must be comma-separated integers") \
            from exc
    if not all(0 <= k <= C for k in levels):
        raise ModelParseError(f"--levels must lie in 0..{C}")
    return levels


def _phase_distribution(spec, blocks):
    if spec == "alpha":
        return classify_drift(blocks).alpha
    if spec == "uniform":
        return np.ones(blocks.n) / blocks.n
    try:
        dist = np.array([float(x) for x in spec.split(",")])
    except ValueError as exc:
        raise ModelParseError(f"bad --phase-dist: {exc}") from exc
    if (dist.size != blocks.n or not np.all(dist >= 0)
            or not abs(dist.sum() - 1) <= 1e-9):
        raise ModelParseError(
            f"--phase-dist needs {blocks.n} nonnegative entries summing to 1")
    return dist


def _flag_rewards(args, blocks):
    """The revenue rewards of --theta, with --gamma if given; None without
    --theta, which --gamma needs."""
    _parse_nonnegative(args.theta, "--theta")
    _parse_nonnegative(args.gamma, "--gamma")
    if args.theta is None:
        if args.gamma is not None:
            raise ModelParseError("--gamma needs --theta")
        return None
    if args.gamma is None:
        return mapph.lost_revenue_rewards(blocks, args.theta)
    return mapph.gained_revenue_rewards(blocks, args.theta, args.gamma)


def _rewards_for(args, blocks, file_rewards):
    rewards = _flag_rewards(args, blocks)
    if rewards is None:
        rewards = file_rewards
    if rewards is None:
        raise ModelParseError(
            "no rewards: embed them in the model file or pass --theta/--gamma")
    return rewards


def cmd_validate(args):
    blocks, _ = load_model(args.model)
    report = validate(blocks)
    for violation in report:
        print(violation)
    if report:
        raise StructuralError(f"{len(report)} invariant violation(s)")


def cmd_stationary(args):
    blocks, _ = load_model(args.model)
    if args.method == "oracle":
        pi = oracle_stationary(assemble_generator(blocks))
    elif args.method == "perturb":
        pi = deviation_recursive(blocks).pi
    else:
        pi = stationary_rmatrix(blocks).pi
    _write_levels(args.output, "level,phase,probability\r\n", blocks, pi)


def cmd_gmatrix(args):
    blocks, _ = load_model(args.model)
    gm = gmatrices(blocks, _parse_nonnegative(args.s, "--s"))
    n = blocks.n
    rows = [f"{name},{i}" for name in ("G", "Ghat", "H0") for i in range(n)]
    with _output(args.output) as out:
        out.writelines(_grid_lines(
            "matrix,i,j,value\r\n", rows, range(n),
            np.real(np.concatenate([gm.G, gm.Ghat, gm.H0]))))
        out.write(f"residual_G,0,0,{gm.residual_G!r}\r\n"
                  f"residual_Ghat,0,0,{gm.residual_Ghat!r}\r\n")


def cmd_reward(args):
    blocks, file_rewards = load_model(args.model)
    rewards = _rewards_for(args, blocks, file_rewards)
    dist = _phase_distribution(args.phase_dist, blocks)
    if (args.t is None) == (args.t_grid is None):
        raise ModelParseError("pass one of --t and --t-grid")
    if args.t_grid is not None:
        t_values = _parse_t_grid(args.t_grid)
    else:
        t_values = [_parse_nonnegative(args.t, "--t")]
    levels = _parse_levels(args.levels, blocks.C)
    curves = reward_time(blocks, rewards, np.array(t_values, dtype=float),
                         dist=dist)
    with _output(args.output) as out:
        out.writelines(_reward_lines(t_values, levels, curves[:, levels]))


def _deviation_diffeq(blocks, t, block):
    """The deviation matrix by the difference-equation route, or only its
    block (k, level), from the one block column that holds it."""
    if t is not None:
        return deviation_time(blocks, t, block=block)
    if block is None:
        return deviation_matrix_diffeq(blocks)
    k, level = block
    n = blocks.n
    return deviation_matrix_diffeq(blocks, levels=[level])[k * n:(k + 1) * n]


def cmd_deviation(args):
    blocks, _ = load_model(args.model)
    n = blocks.n
    block = _parse_block(args.block, blocks.C)
    t = _parse_nonnegative(args.t, "--t")
    if args.method == "diffeq":
        dev = _deviation_diffeq(blocks, t, block)
    elif args.method == "perturb" and t is not None:
        dev = deviation_time_recursive(blocks, t, block=block)
    else:
        if args.method == "oracle":
            q = assemble_generator(blocks)
            pi = oracle_stationary(q)
            dev = (oracle_deviation(q, pi) if t is None
                   else oracle_transient_deviation(q, pi, t))
        else:
            dev = deviation_recursive(blocks).dev
        if block is not None:
            k, level = block
            dev = dev[k * n:(k + 1) * n, level * n:(level + 1) * n]
    with _output(args.output) as out:
        out.writelines(_matrix_lines(dev, n, block or (0, 0)))


def cmd_passage(args):
    blocks, _ = load_model(args.model)
    if not (0 <= args.level <= blocks.C and 0 <= args.phase < blocks.n):
        raise ModelParseError(f"--level must lie in 0..{blocks.C} and "
                              f"--phase in 0..{blocks.n - 1}")
    if args.method == "oracle":
        q = assemble_generator(blocks)
        m = oracle_passage(q, args.level * blocks.n + args.phase)
    else:
        m = passage_column(blocks, args.level, args.phase).m
    _write_levels(args.output, "level,phase,mean_first_passage\r\n", blocks, m)


def cmd_bench(args):
    n_values = _parse_range(args.n_range)
    c_values = _parse_range(args.c_range)
    if args.reps < 1:
        raise ModelParseError("--reps must be at least 1")
    records = bench_mod.run_bench(n_values, c_values, reps=args.reps,
                                  seed=args.seed)
    with _output(args.output) as out:
        out.write("n,C,method,median_scaled_cpu_seconds,reps,seed\r\n")
        out.writelines(f"{r.n},{r.C},{r.method},"
                       f"{r.median_scaled_cpu_seconds!r},{r.repetitions},"
                       f"{r.seed}\r\n" for r in records)


def cmd_mapph_build(args):
    map_params, ph_params, C = mapph.load_params(args.params)
    blocks = mapph.build_blocks(map_params, ph_params, C)
    save_model(args.output, blocks, _flag_rewards(args, blocks))


def _parse_range(spec):
    """The sizes a, a..b or a..b by step; all of them at least 1."""
    try:
        parts = [int(x) for x in spec.split(":")]
    except ValueError as exc:
        raise ModelParseError("range must look like a, a:b or a:b:step") \
            from exc
    if not 1 <= len(parts) <= 3:
        raise ModelParseError("range must look like a, a:b or a:b:step")
    if len(parts) == 1:
        parts = [parts[0], parts[0]]
    if len(parts) == 2:
        parts.append(1)
    start, stop, step = parts
    if not 1 <= start <= stop or step < 1:
        raise ModelParseError("range needs 1 <= a <= b and step >= 1")
    return list(range(start, stop + 1, step))


def build_parser(argv=None):
    """The parser with only the subcommand that argv[0] names, or with all
    when it names none; usage and error text are the same either way."""
    names = ("validate", "stationary", "gmatrix", "reward", "deviation",
             "passage", "bench", "mapph-build")
    wanted = argv[0] if argv and argv[0] in names else None
    parser = argparse.ArgumentParser(
        prog="qbdr",
        description="Rewards, deviation matrices and passage times of "
                    "finite QBD processes")
    # the metavar lists every command in the usage of a partial build
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if wanted is None else "{" + ",".join(names) + "}")

    def add(name, func, **kwargs):
        if wanted not in (None, name):  # takes its arguments, keeps none
            return argparse.Namespace(add_argument=lambda *a, **k: None)
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("validate", cmd_validate, help="check model invariants")
    p.add_argument("--model", required=True)

    p = add("stationary", cmd_stationary, help="stationary distribution")
    p.add_argument("--model", required=True)
    p.add_argument("--method", choices=["rmatrix", "oracle", "perturb"],
                   default="rmatrix")
    p.add_argument("--output")

    p = add("gmatrix", cmd_gmatrix, help="G(s), Ghat(s) and H0(s)")
    p.add_argument("--model", required=True)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--output")

    p = add("reward", cmd_reward, help="expected cumulative reward")
    p.add_argument("--model", required=True)
    p.add_argument("--t", type=float)
    p.add_argument("--t-grid")
    p.add_argument("--levels", help="comma-separated initial levels")
    p.add_argument("--phase-dist", default="alpha",
                   help="alpha, uniform, or comma-separated weights")
    p.add_argument("--theta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--output")

    p = add("deviation", cmd_deviation, help="deviation matrix or blocks")
    p.add_argument("--model", required=True)
    p.add_argument("--method", choices=["diffeq", "perturb", "oracle"],
                   default="diffeq")
    p.add_argument("--t", type=float, help="transient horizon (omit for "
                                           "the asymptotic matrix)")
    p.add_argument("--block", help="restrict output to block K,L")
    p.add_argument("--output")

    p = add("passage", cmd_passage, help="mean first passage times")
    p.add_argument("--model", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--phase", type=int, required=True,
                   help="target phase, 0-based")
    p.add_argument("--method", choices=["diffeq", "oracle"],
                   default="diffeq")
    p.add_argument("--output")

    p = add("bench", cmd_bench, help="two-method CPU-time benchmark")
    p.add_argument("--n-range", default="2:5")
    p.add_argument("--c-range", default="5:100:5")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")

    p = add("mapph-build", cmd_mapph_build, help="build a MAP/PH/1/C model")
    p.add_argument("--params", required=True)
    p.add_argument("--theta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--output", required=True)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        args.func(args)
    except QbdError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        for cls, code in _EXIT_CODES:
            if isinstance(exc, cls):
                return code
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
