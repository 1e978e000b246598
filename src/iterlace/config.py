"""Declarative model configs: JSON schema, CSV tables, model assembly.

A config is a JSON object with three parts: ``components`` declaring
the latent blocks, ``likelihoods`` binding data files and formulas to
observation families, and ``options`` for the fit.  This module
validates configs (errors carry a JSON-pointer path into the file),
reads the CSV tables and graph files they reference, and assembles the
engine :class:`~iterlace.engine.Model`.

Paths inside a config are resolved relative to the config file's
directory.  ``build_model`` also accepts preloaded tables and graphs,
which is how a fit file rebuilds its model without touching disk.
"""

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .engine import DEFAULT_OPTIONS, Component, Model, ObsBlock
from .exprs import AdditiveAll, ExprError, Ref, parse_expr
from .latents import (
    Ar1Model,
    BesagModel,
    BymModel,
    FixedEffectsModel,
    GaussianPrior,
    Graph,
    IidModel,
    LogGammaPrior,
    Rw1Model,
    _precision_hyper,
    _rho_hyper,
    read_graph,
)
from .likelihoods import GaussianFamily, PoissonFamily
from .mappers import (
    AggregateMapper,
    BlockSpec,
    ExponentialQuantile,
    GammaQuantile,
    LogSumExpMapper,
    MarginalMapper,
)

__all__ = [
    "ConfigError",
    "ModelSpec",
    "BuiltModel",
    "load_model",
    "write_model",
    "validate_config",
    "build_model",
    "bind_new_inputs",
    "read_table",
    "canonical_json",
    "jsonable",
    "table_to_lists",
    "table_from_lists",
    "graph_to_dict",
    "graph_from_dict",
]


class ConfigError(ValueError):
    """Invalid config; ``where`` is a JSON-pointer path into the file."""

    def __init__(self, message, where=None):
        self.message = message
        self.where = where
        super().__init__(message if not where else f"{where}: {message}")


@dataclass
class ModelSpec:
    """A validated config plus the directory its file paths resolve against."""

    components: list
    likelihoods: list
    options: dict = field(default_factory=dict)
    base_dir: str = field(default=".", compare=False, repr=False)

    @classmethod
    def from_config(cls, cfg, path):
        """Validate the config ``cfg``, read from the file ``path``, whose
        directory its paths resolve against."""
        validate_config(cfg)
        return cls(
            components=cfg["components"],
            likelihoods=cfg["likelihoods"],
            options=dict(cfg.get("options", {})),
            base_dir=os.path.dirname(os.path.abspath(path)),
        )

    def to_dict(self):
        return {
            "components": self.components,
            "likelihoods": self.likelihoods,
            "options": self.options,
        }


@dataclass
class BuiltModel:
    """An assembled engine model plus everything needed to rebuild it."""

    model: Model
    spec: ModelSpec
    tables: dict  # path string -> {column name: array}
    graphs: dict  # path string -> Graph
    seed: int


# --- schema tables ---------------------------------------------------------

MODELS = ("iid", "linear", "constant", "factor", "ar1", "rw1", "besag", "bym")
INPUT_KINDS = ("const", "column", "index_column", "factor_column", "blocks")

_GRAPH_MODELS = ("besag", "bym")
_FIXED_MODELS = ("linear", "constant", "factor")
_SIZED_MODELS = ("iid", "ar1", "rw1")
_INDEXED_MODELS = ("iid", "ar1", "rw1", "besag", "bym")
_MODEL_HYPERS = {
    "iid": ("prec",),
    "ar1": ("prec", "rho"),
    "rw1": ("prec",),
    "besag": ("prec",),
    "bym": ("prec_spatial", "prec_iid"),
    "linear": (),
    "constant": (),
    "factor": (),
}
# input kinds each model's mapper can consume ("const" binds an all-ones
# column, which indexed models read as index 1 -- handy when n is 1)
_MODEL_INPUTS = {
    "iid": ("index_column", "const"),
    "ar1": ("index_column", "const"),
    "rw1": ("index_column", "const"),
    "besag": ("index_column", "const"),
    "bym": ("index_column", "const"),
    "linear": ("column", "const"),
    "constant": ("const",),
    "factor": ("factor_column",),
}

_TOP_KEYS = frozenset({"components", "likelihoods", "options"})
_COMPONENT_KEYS = frozenset(
    {"name", "model", "input", "graph", "hyper", "group",
     "n", "marginal", "levels", "coding", "mean", "prec"}
)
_INPUT_KEYS = frozenset({"kind", "column", "weights_column", "block_column"})
_LIK_KEYS = frozenset(
    {"family", "response", "formula", "data", "response_data", "hyper", "aggregate"}
)
_AGG_KEYS = frozenset({"kind", "weights_column", "block_column", "rescale"})
_OPTION_KEYS = frozenset(DEFAULT_OPTIONS) | {"seed"}
_HYPER_KEYS = frozenset({"initial", "fixed", "prior"})
_MARGINAL_KEYS = frozenset({"distribution", "rate", "shape"})

# names the formula language reserves
_RESERVED_NAMES = frozenset({"exp", "log", "c"})


# --- validation ------------------------------------------------------------

def _fail(where, message):
    raise ConfigError(message, where=where)


def _check_keys(obj, allowed, where):
    for key in obj:
        if key not in allowed:
            _fail(f"{where}/{key}", "unknown key")


def _need_dict(obj, where):
    if not isinstance(obj, dict):
        _fail(where, "expected an object")
    return obj


def _need_str(obj, where):
    if not isinstance(obj, str) or not obj:
        _fail(where, "expected a non-empty string")
    return obj


def _need_num(obj, where):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(where, "expected a number")
    return obj


def _need_int(obj, where):
    if isinstance(obj, bool) or not isinstance(obj, int):
        _fail(where, "expected an integer")
    return obj


def _need_bool(obj, where):
    if not isinstance(obj, bool):
        _fail(where, "expected true or false")
    return obj


def validate_config(cfg):
    """Check a raw config dict; raises ConfigError with a JSON-pointer path."""
    _need_dict(cfg, "")
    _check_keys(cfg, _TOP_KEYS, "")
    comps = cfg.get("components")
    if not isinstance(comps, list) or not comps:
        _fail("/components", "needs a non-empty array of components")
    names = []
    for i, comp in enumerate(comps):
        _validate_component(comp, f"/components/{i}", names)
    liks = cfg.get("likelihoods")
    if not isinstance(liks, list) or not liks:
        _fail("/likelihoods", "needs a non-empty array of likelihoods")
    for i, lik in enumerate(liks):
        _validate_likelihood(lik, f"/likelihoods/{i}", names)
    options = cfg.get("options", {})
    _validate_options(_need_dict(options, "/options"), "/options", names)


def _validate_component(comp, where, names):
    _need_dict(comp, where)
    _check_keys(comp, _COMPONENT_KEYS, where)

    name = _need_str(comp.get("name"), f"{where}/name")
    if not name.isidentifier():
        _fail(f"{where}/name", f"{name!r} is not a valid component name")
    if name in _RESERVED_NAMES or name.endswith(("_latent", "_eval")):
        _fail(f"{where}/name", f"{name!r} is reserved by the formula language")
    if name in names:
        _fail(f"{where}/name", f"duplicate component name {name!r}")
    names.append(name)

    model = _need_str(comp.get("model"), f"{where}/model")
    if model not in MODELS:
        _fail(f"{where}/model", f"unknown model {model!r}; one of {', '.join(MODELS)}")

    if "input" in comp:
        _validate_input(comp["input"], f"{where}/input", model)
    if model in _GRAPH_MODELS:
        _need_str(comp.get("graph"), f"{where}/graph")
    elif "graph" in comp:
        _fail(f"{where}/graph", f"model {model!r} does not take a graph")

    if "n" in comp:
        if model not in _SIZED_MODELS:
            _fail(f"{where}/n", f"model {model!r} does not take an explicit size")
        if _need_int(comp["n"], f"{where}/n") < 1:
            _fail(f"{where}/n", "must be at least 1")

    if "levels" in comp or "coding" in comp:
        if model != "factor":
            _fail(where, "'levels' and 'coding' apply to factor components only")
        if "levels" in comp:
            levels = comp["levels"]
            if not isinstance(levels, list) or not levels:
                _fail(f"{where}/levels", "expected a non-empty array")
            if len(set(map(repr, levels))) != len(levels):
                _fail(f"{where}/levels", "levels must be distinct")
        if "coding" in comp and comp["coding"] not in ("full", "contrast"):
            _fail(f"{where}/coding", "expected \"full\" or \"contrast\"")

    for key in ("mean", "prec"):
        if key in comp:
            if model not in _FIXED_MODELS:
                _fail(f"{where}/{key}", f"model {model!r} does not take {key!r}")
            _need_num(comp[key], f"{where}/{key}")

    if "hyper" in comp:
        hyper = _need_dict(comp["hyper"], f"{where}/hyper")
        valid = _MODEL_HYPERS[model]
        for hname, hcfg in hyper.items():
            if hname not in valid:
                msg = (
                    f"model {model!r} has no hyperparameter {hname!r}"
                    + (f"; one of {', '.join(valid)}" if valid else "")
                )
                _fail(f"{where}/hyper/{hname}", msg)
            _validate_hyper(hcfg, f"{where}/hyper/{hname}")

    if comp.get("group") is not None:
        _fail(f"{where}/group", "component groups are not supported")

    if "marginal" in comp:
        if model not in _INDEXED_MODELS:
            _fail(f"{where}/marginal", f"model {model!r} does not take a marginal")
        _validate_marginal(comp["marginal"], f"{where}/marginal")


def _validate_input(inp, where, model):
    _need_dict(inp, where)
    _check_keys(inp, _INPUT_KEYS, where)
    kind = _need_str(inp.get("kind"), f"{where}/kind")
    if kind not in INPUT_KINDS:
        _fail(f"{where}/kind", f"unknown kind {kind!r}; one of {', '.join(INPUT_KINDS)}")
    if kind == "blocks":
        _need_str(inp.get("weights_column"), f"{where}/weights_column")
        _need_str(inp.get("block_column"), f"{where}/block_column")
        if "column" in inp:
            _fail(f"{where}/column", "a blocks input names weights/block columns instead")
    elif kind == "const":
        for key in ("column", "weights_column", "block_column"):
            if key in inp:
                _fail(f"{where}/{key}", "a const input takes no column")
    else:
        _need_str(inp.get("column"), f"{where}/column")
        for key in ("weights_column", "block_column"):
            if key in inp:
                _fail(f"{where}/{key}", f"a {kind} input takes no {key}")
    if kind not in _MODEL_INPUTS[model]:
        expected = " or ".join(_MODEL_INPUTS[model])
        _fail(f"{where}/kind", f"model {model!r} takes a {expected} input, not {kind!r}")


def _validate_hyper(hcfg, where):
    _need_dict(hcfg, where)
    _check_keys(hcfg, _HYPER_KEYS, where)
    if "initial" in hcfg:
        _need_num(hcfg["initial"], f"{where}/initial")
    if "fixed" in hcfg:
        _need_bool(hcfg["fixed"], f"{where}/fixed")
    if "prior" in hcfg:
        _validate_prior(hcfg["prior"], f"{where}/prior")


def _validate_prior(prior, where):
    _need_dict(prior, where)
    kind = _need_str(prior.get("kind"), f"{where}/kind")
    if kind == "log_gamma":
        _check_keys(prior, {"kind", "a", "b"}, where)
        for key in ("a", "b"):
            if _need_num(prior.get(key), f"{where}/{key}") <= 0:
                _fail(f"{where}/{key}", "must be positive")
    elif kind == "gaussian":
        _check_keys(prior, {"kind", "mean", "prec"}, where)
        _need_num(prior.get("mean"), f"{where}/mean")
        if _need_num(prior.get("prec"), f"{where}/prec") <= 0:
            _fail(f"{where}/prec", "must be positive")
    else:
        _fail(f"{where}/kind", f"unknown prior {kind!r}; one of log_gamma, gaussian")


def _validate_marginal(marg, where):
    _need_dict(marg, where)
    _check_keys(marg, _MARGINAL_KEYS, where)
    dist = _need_str(marg.get("distribution"), f"{where}/distribution")
    if dist not in ("exponential", "gamma"):
        _fail(f"{where}/distribution", f"unknown distribution {dist!r}")
    if _need_num(marg.get("rate"), f"{where}/rate") <= 0:
        _fail(f"{where}/rate", "must be positive")
    if dist == "gamma":
        if _need_num(marg.get("shape"), f"{where}/shape") <= 0:
            _fail(f"{where}/shape", "must be positive")
    elif "shape" in marg:
        _fail(f"{where}/shape", "exponential marginals take no shape")


def _validate_likelihood(lik, where, names):
    _need_dict(lik, where)
    _check_keys(lik, _LIK_KEYS, where)
    family = _need_str(lik.get("family"), f"{where}/family")
    if family not in ("gaussian", "poisson"):
        _fail(f"{where}/family", f"unknown family {family!r}; one of gaussian, poisson")
    _need_str(lik.get("response"), f"{where}/response")
    _need_str(lik.get("data"), f"{where}/data")
    if "response_data" in lik:
        _need_str(lik["response_data"], f"{where}/response_data")

    formula = lik.get("formula")
    if formula is not None and not isinstance(formula, str):
        _fail(f"{where}/formula", "expected a string or null")
    try:
        expr = parse_expr(formula)
    except ExprError as err:
        _fail(f"{where}/formula", str(err))
    if not isinstance(expr, AdditiveAll):
        n_effects = 0
        for ref in expr.refs():
            if not isinstance(ref, Ref):
                continue
            if ref.name not in names:
                _fail(f"{where}/formula",
                      f"formula references undeclared component {ref.name!r}")
            if ref.kind == "eval":
                _fail(f"{where}/formula",
                      "_eval references are only available when predicting")
            n_effects += ref.kind == "effect"
        if n_effects == 0:
            _fail(f"{where}/formula",
                  "formula needs at least one component effect")

    if "hyper" in lik:
        if family != "gaussian":
            _fail(f"{where}/hyper", f"family {family!r} has no hyperparameters")
        hyper = _need_dict(lik["hyper"], f"{where}/hyper")
        for hname, hcfg in hyper.items():
            if hname != "prec":
                _fail(f"{where}/hyper/{hname}",
                      "gaussian likelihoods have one hyperparameter, 'prec'")
            _validate_hyper(hcfg, f"{where}/hyper/{hname}")

    if "aggregate" in lik:
        if "response_data" not in lik:
            _fail(f"{where}/aggregate", "aggregation needs response_data")
        agg = _need_dict(lik["aggregate"], f"{where}/aggregate")
        _check_keys(agg, _AGG_KEYS, f"{where}/aggregate")
        kind = agg.get("kind", "logsumexp")
        if kind not in ("logsumexp", "sum"):
            _fail(f"{where}/aggregate/kind",
                  f"unknown kind {kind!r}; one of logsumexp, sum")
        for key in ("weights_column", "block_column"):
            if key in agg:
                _need_str(agg[key], f"{where}/aggregate/{key}")
        if "rescale" in agg:
            _need_bool(agg["rescale"], f"{where}/aggregate/rescale")


def _validate_options(options, where, names):
    _check_keys(options, _OPTION_KEYS, where)
    if "bru_max_iter" in options:
        if _need_int(options["bru_max_iter"], f"{where}/bru_max_iter") < 1:
            _fail(f"{where}/bru_max_iter", "must be at least 1")
    for key in ("rel_tol", "gamma"):
        if key in options and _need_num(options[key], f"{where}/{key}") <= 0:
            _fail(f"{where}/{key}", "must be positive")
    if "bru_verbose" in options:
        if _need_int(options["bru_verbose"], f"{where}/bru_verbose") < 0:
            _fail(f"{where}/bru_verbose", "must be non-negative")
    if "seed" in options:
        seed = _need_int(options["seed"], f"{where}/seed")
        if not 0 <= seed < 2**64:
            _fail(f"{where}/seed", "must fit an unsigned 64-bit integer")
    if "force_iterative" in options:
        _need_bool(options["force_iterative"], f"{where}/force_iterative")
    init = options.get("bru_initial")
    if init is not None:
        _need_dict(init, f"{where}/bru_initial")
        for name, val in init.items():
            if name not in names:
                _fail(f"{where}/bru_initial/{name}",
                      f"unknown component {name!r}")
            vals = val if isinstance(val, list) else [val]
            for v in vals:
                _need_num(v, f"{where}/bru_initial/{name}")


# --- config files ----------------------------------------------------------

def load_model(path):
    """Read and validate a model config file."""
    path = os.fspath(path)
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"not valid JSON: {err}", where="") from None
    return ModelSpec.from_config(cfg, path)


def write_model(spec, path):
    """Write a spec as canonical JSON; load_model inverts this exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(spec.to_dict()))


def jsonable(obj):
    """Recursively convert numpy scalars and arrays to plain JSON types."""
    if isinstance(obj, dict):
        return {key: jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(val) for val in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def canonical_json(obj):
    """Deterministic JSON text: sorted keys, two-space indent, one trailing newline."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# --- data tables -----------------------------------------------------------

def read_table(path):
    """Read a CSV with a header row into named columns.

    Types are inferred per column: all cells integers gives int64, all
    numeric gives float64, anything else keeps the strings.
    """
    path = os.fspath(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ConfigError(f"{path}: empty file")
    header = rows[0]
    if len(set(header)) != len(header):
        raise ConfigError(f"{path}: duplicate column names")
    body = rows[1:]
    for r, row in enumerate(body):
        if len(row) != len(header):
            raise ConfigError(
                f"{path}: row {r + 2} has {len(row)} fields, header has {len(header)}"
            )
    return {
        name: _infer_column([row[j] for row in body], path, name)
        for j, name in enumerate(header)
    }


def _infer_column(cells, path, name):
    if any(cell == "" for cell in cells):
        raise ConfigError(f"{path}: column {name!r} has empty cells")
    try:
        return np.array([int(cell) for cell in cells], dtype=np.int64)
    except ValueError:
        pass
    try:
        return np.array([float(cell) for cell in cells], dtype=float)
    except ValueError:
        return np.array(cells)


def _table_rows(table):
    for col in table.values():
        return len(col)
    return 0


def table_to_lists(table):
    """Columns as plain lists, for embedding a table in JSON."""
    return {name: np.asarray(col).tolist() for name, col in table.items()}


def table_from_lists(cols):
    """Rebuild column arrays from their JSON form."""
    out = {}
    for name, vals in cols.items():
        arr = np.asarray(vals)
        if np.issubdtype(arr.dtype, np.integer):
            arr = arr.astype(np.int64)
        out[name] = arr
    return out


def graph_to_dict(graph):
    """A graph as JSON data, edges 1-based as in the file format."""
    return {"n": graph.n, "edges": [[i + 1, j + 1] for i, j in graph.edges]}


def graph_from_dict(data):
    return Graph(int(data["n"]), [(int(i) - 1, int(j) - 1) for i, j in data["edges"]])


# --- model assembly --------------------------------------------------------

def build_model(spec, tables=None, graphs=None):
    """Assemble the engine model a spec describes.

    ``tables`` and ``graphs`` optionally supply preloaded resources
    keyed by the path strings the spec uses; anything missing is read
    from disk relative to ``spec.base_dir``.
    """
    tables = dict(tables or {})
    graphs = dict(graphs or {})

    def table_of(path):
        if path not in tables:
            tables[path] = read_table(os.path.join(spec.base_dir, path))
        return tables[path]

    def graph_of(path):
        if path not in graphs:
            graphs[path] = read_graph(os.path.join(spec.base_dir, path))
        return graphs[path]

    lik_tables = []
    for i, lik in enumerate(spec.likelihoods):
        try:
            data = table_of(lik["data"])
            rdata = table_of(lik["response_data"]) if "response_data" in lik else None
        except OSError as err:
            raise ConfigError(str(err), where=f"/likelihoods/{i}") from err
        lik_tables.append((data, rdata))

    components = []
    for i, comp in enumerate(spec.components):
        where = f"/components/{i}"
        try:
            latent = _build_latent(comp, where, lik_tables, graph_of)
            mapper = None
            if "marginal" in comp:
                mapper = MarginalMapper(
                    _quantile_family(comp["marginal"]), inner=latent.default_mapper()
                )
        except ConfigError:
            raise
        except (ValueError, OSError) as err:
            raise ConfigError(str(err), where=where) from err
        components.append(Component(comp["name"], latent, mapper))

    obs = []
    for i, lik in enumerate(spec.likelihoods):
        where = f"/likelihoods/{i}"
        data, rdata = lik_tables[i]
        resp_table = rdata if rdata is not None else data
        resp_col = lik["response"]
        if resp_col not in resp_table:
            source = lik.get("response_data", lik["data"])
            _fail(f"{where}/response", f"no column {resp_col!r} in {source!r}")
        y = resp_table[resp_col]
        n_rows = _table_rows(data)
        formula = parse_expr(lik.get("formula"))

        try:
            aggregation = _build_aggregation(lik, data, len(y), n_rows, where)
        except ConfigError:
            raise
        except ValueError as err:
            raise ConfigError(str(err), where=f"{where}/aggregate") from err

        inputs = {}
        for comp in spec.components:
            bound = _bind_input(comp, data, n_rows, len(y), where=where)
            if bound is not None:
                inputs[comp["name"]] = bound
        if isinstance(formula, AdditiveAll):
            if not inputs:
                _fail(where, "no component input could be bound to this data table")
        else:
            for ref in formula.refs():
                if isinstance(ref, Ref) and ref.kind == "effect" and ref.name not in inputs:
                    _fail(where,
                          f"component {ref.name!r} has no input in {lik['data']!r}")

        try:
            block = ObsBlock(
                family=_build_family(lik),
                y=y,
                formula=formula,
                inputs=inputs,
                aggregation=aggregation,
            )
        except ValueError as err:
            raise ConfigError(str(err), where=where) from err
        obs.append(block)

    engine_opts = {k: v for k, v in spec.options.items() if k != "seed"}
    model = Model(components, obs, options=engine_opts)
    return BuiltModel(
        model=model,
        spec=spec,
        tables=tables,
        graphs=graphs,
        seed=int(spec.options.get("seed", 0)),
    )


def _build_latent(comp, where, lik_tables, graph_of):
    model = comp["model"]
    hyper_cfg = comp.get("hyper", {})
    mean = comp.get("mean", 0.0)
    prec = comp.get("prec", 0.001)
    if model == "iid":
        return IidModel(_component_n(comp, where, lik_tables),
                        prec_hyper=_prec_hyper("prec", hyper_cfg))
    if model == "linear":
        return FixedEffectsModel.linear(mean=mean, prec=prec)
    if model == "constant":
        return FixedEffectsModel.constant(mean=mean, prec=prec)
    if model == "factor":
        return FixedEffectsModel.factor(
            _factor_levels(comp, where, lik_tables),
            coding=comp.get("coding", "full"), mean=mean, prec=prec,
        )
    if model == "ar1":
        return Ar1Model(_component_n(comp, where, lik_tables),
                        prec_hyper=_prec_hyper("prec", hyper_cfg),
                        rho_hyper=_rho_hyper(**_hyper_settings(hyper_cfg, "rho")))
    if model == "rw1":
        return Rw1Model(_component_n(comp, where, lik_tables),
                        prec_hyper=_prec_hyper("prec", hyper_cfg))
    if model == "besag":
        return BesagModel(graph_of(comp["graph"]),
                          prec_hyper=_prec_hyper("prec", hyper_cfg))
    return BymModel(graph_of(comp["graph"]),
                    prec_spatial_hyper=_prec_hyper("prec_spatial", hyper_cfg),
                    prec_iid_hyper=_prec_hyper("prec_iid", hyper_cfg))


def _component_n(comp, where, lik_tables):
    """Explicit size, or the largest index the data tables use."""
    if "n" in comp:
        return comp["n"]
    inp = comp.get("input")
    if not inp or inp["kind"] != "index_column":
        _fail(where,
              f"model {comp['model']!r} needs 'n' or an index_column input to size it")
    col = inp["column"]
    top = 0
    seen = False
    for data, _ in lik_tables:
        if col in data:
            vals = data[col]
            if not np.issubdtype(np.asarray(vals).dtype, np.number):
                _fail(where, f"index column {col!r} is not numeric")
            seen = True
            if len(vals):
                top = max(top, int(np.max(vals)))
    if not seen:
        _fail(where, f"cannot infer 'n': no data table has a column {col!r}")
    if top < 1:
        _fail(where, f"cannot infer 'n': column {col!r} has no positive index")
    return top


def _factor_levels(comp, where, lik_tables):
    """Explicit levels, or the sorted distinct values the data tables use."""
    if "levels" in comp:
        return list(comp["levels"])
    inp = comp.get("input")
    if not inp or inp["kind"] != "factor_column":
        _fail(where, "factor needs 'levels' or a factor_column input")
    col = inp["column"]
    seen = []
    for data, _ in lik_tables:
        if col in data:
            for val in data[col].tolist():
                if val not in seen:
                    seen.append(val)
    if not seen:
        _fail(where, f"cannot infer levels: no data table has a column {col!r}")
    try:
        return sorted(seen)
    except TypeError:
        _fail(where, "factor column values mix types; give explicit 'levels'")


def _hyper_settings(hyper_cfg, name):
    """The keyword arguments of ``_precision_hyper`` or ``_rho_hyper``
    that the entry ``name`` of a hyper object sets; what it leaves out
    keeps their default."""
    cfg = hyper_cfg.get(name, {})
    out = {}
    if "initial" in cfg:
        out["initial"] = float(cfg["initial"])
    if "fixed" in cfg:
        out["fixed"] = bool(cfg["fixed"])
    prior = cfg.get("prior")
    if prior is not None:
        out["prior"] = (LogGammaPrior(prior["a"], prior["b"]) if prior["kind"] == "log_gamma"
                        else GaussianPrior(prior["mean"], prior["prec"]))
    return out


def _prec_hyper(name, hyper_cfg):
    return _precision_hyper(name, **_hyper_settings(hyper_cfg, name))


def _quantile_family(marg):
    if marg["distribution"] == "exponential":
        return ExponentialQuantile(marg["rate"])
    return GammaQuantile(marg["shape"], marg["rate"])


def _build_family(lik):
    if lik["family"] == "poisson":
        return PoissonFamily()
    return GaussianFamily(prec_hyper=_prec_hyper("prec", lik.get("hyper", {})))


def _build_aggregation(lik, data, n_y, n_rows, where):
    """The (mapper, BlockSpec) pair bridging predictor rows to responses.

    Aggregation happens when the likelihood asks for it, or when
    response_data is present and the data table carries the default
    weight/block columns.  Without a bridge, response and predictor
    row counts must agree.
    """
    agg = lik.get("aggregate")
    if agg is None:
        if "response_data" in lik and "weight" in data and "block" in data:
            agg = {}
        elif n_y != n_rows:
            _fail(where,
                  f"response has {n_y} rows but the data table has {n_rows}; "
                  "bridging them needs 'weight' and 'block' columns")
        else:
            return None
    wcol = agg.get("weights_column", "weight")
    bcol = agg.get("block_column", "block")
    for col in (wcol, bcol):
        if col not in data:
            _fail(f"{where}/aggregate", f"no column {col!r} in {lik['data']!r}")
    spec = BlockSpec(data[bcol], data[wcol], n_block=n_y)
    rescale = bool(agg.get("rescale", False))
    if agg.get("kind", "logsumexp") == "sum":
        return AggregateMapper(rescale=rescale, n_block=n_y), spec
    return LogSumExpMapper(rescale=rescale, n_block=n_y), spec


def _bind_input(comp, data, n_rows, n_block, where=None):
    """One component's mapper input from one data table, or None."""
    inp = comp.get("input")
    if inp is None:
        if comp["model"] == "constant":
            return np.ones(n_rows)
        return None
    kind = inp["kind"]
    if kind == "const":
        return np.ones(n_rows)
    if kind == "blocks":
        wcol, bcol = inp["weights_column"], inp["block_column"]
        if wcol in data and bcol in data:
            return BlockSpec(data[bcol], data[wcol], n_block=n_block)
        return None
    col = inp["column"]
    if col not in data:
        return None
    vals = data[col]
    if kind == "factor_column":
        return vals
    if not np.issubdtype(np.asarray(vals).dtype, np.number):
        raise ConfigError(f"column {col!r} is not numeric", where=where)
    if kind == "column":
        return np.asarray(vals, dtype=float)
    return vals


def bind_new_inputs(spec, table):
    """Component inputs rebound to a fresh data table, for prediction."""
    n_rows = _table_rows(table)
    n_block = n_rows
    inputs = {}
    for comp in spec.components:
        inp = comp.get("input")
        if inp is not None and inp["kind"] == "blocks":
            bcol = inp["block_column"]
            if bcol in table and len(table[bcol]):
                n_block = int(np.max(table[bcol]))
        bound = _bind_input(comp, table, n_rows, n_block)
        if bound is not None:
            inputs[comp["name"]] = bound
    return inputs
