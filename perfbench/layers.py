"""Per-layer metrics from the traced rounds of a run.

Each traced round sums its jobs' counters; a metric is the median of the
per-round values over the traced rounds.  ``self_s`` is span time minus the
time covered by traced child spans; ``bytes`` is computed from the result
arrays' shapes (``B_computed``), not measured.  ``<layer>.self_s`` is the
self time of all traced functions of the layer, ``cli.self_s`` that of the
root span around ``qbdr.cli.main`` (argument parsing, row generation, CSV
output and any untraced code).
"""

import statistics

from tracer import LAYERS

# Counters reported per traced function, as "<layer>.<function>.<field>".
_FUNCTION_METRICS = {
    "model.load_model": ("total_s",),
    "model.assemble_generator": ("calls", "self_s", "bytes"),
    "gmatrices.gmatrices": ("calls", "self_s"),
    "stationary.stationary_rmatrix": ("calls", "self_s"),
    "passage.passage_column": ("calls", "self_s"),
    "passage.passage_level_matrices": ("self_s",),
    "passage.deviation_block_asymptotic": ("calls", "self_s"),
    "passage.deviation_matrix_diffeq": ("self_s",),
    "transform.transform_context": ("calls", "self_s"),
    "transform.reward_transform": ("calls", "self_s"),
    "transform.boundary_vectors": ("self_s",),
    "transform.deviation_transform": ("calls", "self_s"),
    "transform.deviation_transform_block": ("calls", "self_s"),
    "transform.invert_laplace": ("calls", "self_s"),
    "perturbation.deviation_recursive": ("calls", "self_s"),
    "perturbation.resolvent_recursive": ("calls", "self_s"),
    "perturbation.t_group_inverse": ("self_s",),
    "perturbation.deviation_update": ("self_s",),
    "linalg.solve_refined": ("calls", "self_s"),
    "linalg.matrix_powers": ("calls", "self_s", "bytes"),
}
_UNITS = {"calls": "count", "self_s": "s", "total_s": "s",
          "bytes": "B_computed"}
# The largest residual the program computed, per layer.
_RESIDUAL_METRICS = {"gmatrices.max_residual": "gmatrices.gmatrices",
                     "passage.max_column_residual": "passage.passage_column"}

_ZERO = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0,
         "max_residual": 0.0}


def round_stats(records):
    """Counters of one round, summed over its jobs (residuals: maximum)."""
    out = {}
    for rec in records:
        for name, stat in rec.get("trace", {}).get("stats", {}).items():
            acc = out.setdefault(name, dict(_ZERO))
            for field in ("calls", "total_s", "self_s", "bytes"):
                acc[field] += stat[field]
            acc["max_residual"] = max(acc["max_residual"],
                                      stat["max_residual"])
    return out


def block_yield(records, n_of_job):
    """Output blocks times Laplace nodes, over deviation_transform_block
    calls: the share of block evaluations whose result reaches the CSV."""
    useful = attempted = 0
    for rec in records:
        stats = rec.get("trace", {}).get("stats", {})
        calls = stats.get("transform.deviation_transform_block",
                          _ZERO)["calls"]
        if calls:
            nodes = stats["transform.transform_context"]["calls"]
            blocks = rec.get("rows", 0) / n_of_job(rec["job"]) ** 2
            useful += blocks * nodes
            attempted += calls
    return useful / attempted if attempted else 0.0


def per_round(records, n_of_job):
    stats = round_stats(records)

    def get(name, field):
        return stats.get(name, _ZERO)[field]

    values = {
        "cli.self_s": (get("cli.main", "self_s"), "s"),
        "cli.rows_written": (sum(r.get("rows", 0) for r in records), "count"),
        "cli.bytes_written": (sum(r.get("bytes", 0) for r in records), "B"),
    }
    for layer, names in LAYERS.items():
        values[f"{layer}.self_s"] = (
            sum(get(f"{layer}.{f}", "self_s") for f in names), "s")
    for counter, fields in _FUNCTION_METRICS.items():
        for field in fields:
            values[f"{counter}.{field}"] = (get(counter, field), _UNITS[field])
    for metric, counter in _RESIDUAL_METRICS.items():
        values[metric] = (get(counter, "max_residual"), "1")
    values["transform.block_yield"] = (block_yield(records, n_of_job), "1")
    values["trace.wall_s"] = (sum(r["wall_s"] for r in records), "s")
    return values


def per_layer(rounds, jobs):
    """Median of each per-round value over the rounds' traced runs, and
    trace.overhead_frac over all traced and untraced runs of the job pairs."""
    def n_of_job(index):
        return jobs[index].model.n

    traced = [[r for r in rnd if r["traced"]] for rnd in rounds]
    values = [per_round(rnd, n_of_job) for rnd in traced]
    out = {name: (statistics.median(v[name][0] for v in values), unit,
                  len(values))
           for name, (_, unit) in values[0].items()}
    plain = sum(r["wall_s"] for rnd in rounds for r in rnd if not r["traced"])
    with_trace = sum(r["wall_s"] for rnd in traced for r in rnd)
    out["trace.overhead_frac"] = (with_trace / plain - 1.0, "1",
                                  sum(map(len, traced)))
    return out
