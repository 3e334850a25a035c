"""Command-line front end.

Subcommands wrap the library operations and emit CSV.  Exit codes:
0 success, 2 parse or validation failure, 3 numerical failure,
4 violated precondition (e.g. H0 at s = 0 of a null-recurrent model).
Phase indices on the command line are 0-based.  ``reward`` weights the
phases before the Laplace inversion, so it inverts one curve per level.
"""

import contextlib
import sys
import types

import numpy as np

from . import mapph
from .errors import (ModelError, ModelParseError, NumericalError,
                     PreconditionError, QbdError, StructuralError)
from .gmatrices import gmatrices
from .model import (assemble_generator, classify_drift, load_model,
                    open_for_writing, save_model, validate)
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
    with open_for_writing(path, newline="") as out:
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
    if args.seed < 0:
        raise ModelParseError("--seed must be nonnegative")
    from .bench import run_bench  # loaded here: only this command uses it
    records = run_bench(n_values, c_values, reps=args.reps, seed=args.seed)
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


def _opt(flag, convert=str, default=None, required=False, choices=(),
         help=""):
    """An option; with choices, its default is the first of them."""
    return (flag, convert, choices[0] if choices else default, required,
            choices, help)


def _commands():
    """Each command's handler, help line and options, by name."""
    model, output = _opt("--model", required=True), _opt("--output")
    theta, gamma = _opt("--theta", float), _opt("--gamma", float)
    return {
        "validate": (cmd_validate, "check model invariants", [model]),
        "stationary": (cmd_stationary, "stationary distribution", [model, _opt(
            "--method", choices=("rmatrix", "oracle", "perturb")), output]),
        "gmatrix": (cmd_gmatrix, "G(s), Ghat(s) and H0(s)",
                    [model, _opt("--s", float, 0.0), output]),
        "reward": (cmd_reward, "expected cumulative reward", [
            model, _opt("--t", float), _opt("--t-grid"),
            _opt("--levels", help="comma-separated initial levels"),
            _opt("--phase-dist", str, "alpha",
                 help="alpha, uniform, or comma-separated weights"),
            theta, gamma, output]),
        "deviation": (cmd_deviation, "deviation matrix or blocks", [
            model, _opt("--method", choices=("diffeq", "perturb", "oracle")),
            _opt("--t", float,
                 help="transient horizon (omit for the asymptotic matrix)"),
            _opt("--block", help="restrict output to block K,L"), output]),
        "passage": (cmd_passage, "mean first passage times", [
            model, _opt("--level", int, required=True),
            _opt("--phase", int, required=True, help="target phase, 0-based"),
            _opt("--method", choices=("diffeq", "oracle")), output]),
        "bench": (cmd_bench, "two-method CPU-time benchmark", [
            _opt("--n-range", str, "2:5"), _opt("--c-range", str, "5:100:5"),
            _opt("--reps", int, 3), _opt("--seed", int, 0), output]),
        "mapph-build": (cmd_mapph_build, "build a MAP/PH/1/C model", [
            _opt("--params", required=True), theta, gamma,
            _opt("--output", required=True)]),
    }


def _usage(table, name, full=False):
    """The usage line of qbdr or of one command, or in full its help."""
    if name is None:
        usage = "usage: qbdr [-h] {" + ",".join(table) + "} ..."
        rows = [(cmd, entry[1], True) for cmd, entry in table.items()]
    else:
        rows = [(f"{flag} " + ("{" + ",".join(choices) + "}" if choices else
                              flag[2:].replace("-", "_").upper()), text, req)
                for flag, _, _, req, choices, text in table[name][2]]
        usage = " ".join([f"usage: qbdr {name} [-h]"] + [
            left if req else f"[{left}]" for left, _, req in rows])
    rows = [f"  {left:22s} {text}".rstrip() for left, text, _ in rows]
    return "\n".join([usage, "", *rows]) if full else usage


def parse(argv):
    """The (handler, namespace) that argv asks for: a command, then its
    flags by full name, as --flag value or --flag=value (a value may begin
    with '-'; the last one wins).  Help (-h) and misuse are printed here,
    and their handler returns the exit code, 0 or 2."""
    table = _commands()
    name = argv[0] if argv and argv[0] in table else None
    if "-h" in argv or "--help" in argv:
        print(_usage(table, name, full=True))
        return (lambda _: 0), None

    def fail(reason):
        print(f"{_usage(table, name)}\nqbdr{' ' + name if name else ''}: "
              f"error: {reason}", file=sys.stderr)
        return (lambda _: 2), None

    if name is None:
        return fail(f"argument command: invalid choice: {argv[0]!r}" if argv
                    else "the following arguments are required: command")
    handler, _, options = table[name]
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in (option[0] for option in options):
            return fail(f"unrecognized arguments: {token}")
        given[flag] = value if eq else next(tokens, None)
        if given[flag] is None:
            return fail(f"argument {flag}: expected one argument")
    args = types.SimpleNamespace()
    for flag, convert, default, required, choices, _ in options:
        if required and flag not in given:
            return fail(f"the following arguments are required: {flag}")
        try:
            value = convert(given[flag]) if flag in given else default
        except ValueError:
            return fail(f"argument {flag}: invalid {convert.__name__} value:"
                        f" {given[flag]!r}")
        if choices and value not in choices:
            return fail(f"argument {flag}: invalid choice: {value!r} (choose"
                        f" from {', '.join(choices)})")
        setattr(args, flag[2:].replace("-", "_"), value)
    return handler, args


def main(argv=None):
    """Run the command that argv (default sys.argv[1:]) asks for; the exit
    code is the handler's, or that of the error it raises."""
    handler, args = parse(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args) or 0
    except QbdError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        for cls, code in _EXIT_CODES:
            if isinstance(exc, cls):
                return code
        return 3


if __name__ == "__main__":
    sys.exit(main())
