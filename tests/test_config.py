"""Config schema validation, CSV tables, and model assembly."""

import json
import warnings

import numpy as np
import pytest

from iterlace.config import (
    ConfigError,
    ModelSpec,
    bind_new_inputs,
    build_model,
    canonical_json,
    graph_from_dict,
    graph_to_dict,
    load_model,
    read_table,
    table_from_lists,
    table_to_lists,
    validate_config,
    write_model,
)
from iterlace.engine import fit
from iterlace.latents import (
    Ar1Model,
    BesagModel,
    BymModel,
    GaussianPrior,
    Graph,
    IidModel,
    Rw1Model,
    _precision_hyper,
    _rho_hyper,
)
from iterlace.likelihoods import GaussianFamily
from iterlace.mappers import AggregateMapper, LogSumExpMapper, MarginalMapper
from shared import toy_config, write_csv


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def minimal_cfg(data="d.csv"):
    return {
        "components": [{"name": "mu", "model": "constant"}],
        "likelihoods": [
            {"family": "gaussian", "response": "y", "formula": "~ mu", "data": data}
        ],
    }


def where_of(excinfo):
    return excinfo.value.where


# --- schema validation ----------------------------------------------------

class TestValidateConfig:
    def test_minimal_passes(self):
        validate_config(minimal_cfg())

    @pytest.mark.parametrize(
        "mangle, where",
        [
            (lambda c: c.pop("components"), "/components"),
            (lambda c: c.__setitem__("components", []), "/components"),
            (lambda c: c.pop("likelihoods"), "/likelihoods"),
            (lambda c: c.__setitem__("extra", 1), "/extra"),
            (lambda c: c["components"][0].pop("name"), "/components/0/name"),
            (lambda c: c["components"][0].__setitem__("model", "spline"),
             "/components/0/model"),
            (lambda c: c["components"][0].__setitem__("zzz", 1), "/components/0/zzz"),
            (lambda c: c["likelihoods"][0].__setitem__("family", "beta"),
             "/likelihoods/0/family"),
            (lambda c: c["likelihoods"][0].pop("data"), "/likelihoods/0/data"),
            (lambda c: c.__setitem__("options", {"bru_max_iter": 0}),
             "/options/bru_max_iter"),
            (lambda c: c.__setitem__("options", {"rel_tol": 0}), "/options/rel_tol"),
            (lambda c: c.__setitem__("options", {"seed": -1}), "/options/seed"),
            (lambda c: c.__setitem__("options", {"force_iterative": "yes"}),
             "/options/force_iterative"),
            (lambda c: c.__setitem__("options", {"bru_initial": {"nope": 1.0}}),
             "/options/bru_initial/nope"),
        ],
    )
    def test_pointer_paths(self, mangle, where):
        cfg = minimal_cfg()
        mangle(cfg)
        with pytest.raises(ConfigError) as excinfo:
            validate_config(cfg)
        assert where_of(excinfo) == where

    def test_duplicate_component_name(self):
        cfg = minimal_cfg()
        cfg["components"].append({"name": "mu", "model": "constant"})
        with pytest.raises(ConfigError, match="duplicate component name 'mu'"):
            validate_config(cfg)

    @pytest.mark.parametrize("name", ["exp", "log", "c", "w_latent", "w_eval", "a b"])
    def test_reserved_or_invalid_names(self, name):
        cfg = minimal_cfg()
        cfg["components"][0]["name"] = name
        cfg["likelihoods"][0]["formula"] = None
        with pytest.raises(ConfigError) as excinfo:
            validate_config(cfg)
        assert where_of(excinfo) == "/components/0/name"

    def test_input_kind_unknown(self):
        cfg = minimal_cfg()
        cfg["components"][0] = {
            "name": "b", "model": "linear", "input": {"kind": "matrix"},
        }
        with pytest.raises(ConfigError, match="unknown kind 'matrix'") as excinfo:
            validate_config(cfg)
        assert where_of(excinfo) == "/components/0/input/kind"

    def test_input_kind_needs_column(self):
        cfg = minimal_cfg()
        cfg["components"][0] = {
            "name": "b", "model": "linear", "input": {"kind": "column"},
        }
        with pytest.raises(ConfigError) as excinfo:
            validate_config(cfg)
        assert where_of(excinfo) == "/components/0/input/column"

    def test_input_kind_must_suit_model(self):
        cfg = minimal_cfg()
        cfg["components"][0] = {
            "name": "u", "model": "iid", "n": 3,
            "input": {"kind": "column", "column": "x"},
        }
        with pytest.raises(ConfigError, match="model 'iid' takes a"):
            validate_config(cfg)

    def test_blocks_input_fits_no_builtin_model(self):
        cfg = minimal_cfg()
        cfg["components"][0] = {
            "name": "u", "model": "iid", "n": 3,
            "input": {"kind": "blocks", "weights_column": "w", "block_column": "b"},
        }
        with pytest.raises(ConfigError) as excinfo:
            validate_config(cfg)
        assert where_of(excinfo) == "/components/0/input/kind"

    def test_graph_required_and_forbidden(self):
        cfg = minimal_cfg()
        cfg["components"][0] = {"name": "s", "model": "besag"}
        with pytest.raises(ConfigError) as excinfo:
            validate_config(cfg)
        assert where_of(excinfo) == "/components/0/graph"

        cfg["components"][0] = {"name": "s", "model": "linear", "graph": "g.txt"}
        with pytest.raises(ConfigError, match="does not take a graph"):
            validate_config(cfg)

    def test_size_key_rules(self):
        cfg = minimal_cfg()
        cfg["components"][0] = {"name": "s", "model": "besag", "graph": "g", "n": 4}
        with pytest.raises(ConfigError, match="does not take an explicit size"):
            validate_config(cfg)
        cfg["components"][0] = {"name": "u", "model": "iid", "n": 0}
        with pytest.raises(ConfigError, match="at least 1"):
            validate_config(cfg)

    def test_hyper_names_are_model_specific(self):
        cfg = minimal_cfg()
        cfg["components"][0] = {
            "name": "u", "model": "iid", "n": 2, "hyper": {"rho": {"initial": 0.5}},
        }
        with pytest.raises(ConfigError, match="no hyperparameter 'rho'") as excinfo:
            validate_config(cfg)
        assert where_of(excinfo) == "/components/0/hyper/rho"

    def test_prior_shapes(self):
        cfg = minimal_cfg()
        cfg["components"][0] = {
            "name": "u", "model": "iid", "n": 2,
            "hyper": {"prec": {"prior": {"kind": "cauchy"}}},
        }
        with pytest.raises(ConfigError, match="unknown prior"):
            validate_config(cfg)
        cfg["components"][0]["hyper"]["prec"]["prior"] = {"kind": "log_gamma", "a": 1}
        with pytest.raises(ConfigError) as excinfo:
            validate_config(cfg)
        assert where_of(excinfo) == "/components/0/hyper/prec/prior/b"

    def test_group_not_supported(self):
        cfg = minimal_cfg()
        cfg["components"][0]["group"] = "region"
        with pytest.raises(ConfigError, match="not supported"):
            validate_config(cfg)
        cfg["components"][0]["group"] = None  # explicit null is tolerated
        validate_config(cfg)

    def test_marginal_rules(self):
        cfg = minimal_cfg()
        cfg["components"][0] = {
            "name": "b", "model": "linear",
            "marginal": {"distribution": "exponential", "rate": 1.0},
        }
        with pytest.raises(ConfigError, match="does not take a marginal"):
            validate_config(cfg)
        cfg["components"][0] = {
            "name": "u", "model": "iid", "n": 1,
            "marginal": {"distribution": "gamma", "rate": 1.0},
        }
        with pytest.raises(ConfigError) as excinfo:
            validate_config(cfg)
        assert where_of(excinfo) == "/components/0/marginal/shape"

    def test_formula_undeclared_component_named(self):
        cfg = minimal_cfg()
        cfg["likelihoods"][0]["formula"] = "~ mu + w2"
        with pytest.raises(ConfigError, match="undeclared component 'w2'"):
            validate_config(cfg)

    def test_formula_syntax_error_points_at_formula(self):
        cfg = minimal_cfg()
        cfg["likelihoods"][0]["formula"] = "~ mu + "
        with pytest.raises(ConfigError) as excinfo:
            validate_config(cfg)
        assert where_of(excinfo) == "/likelihoods/0/formula"

    def test_formula_needs_an_effect(self):
        cfg = minimal_cfg()
        cfg["likelihoods"][0]["formula"] = "~ mu_latent"
        with pytest.raises(ConfigError, match="at least one component effect"):
            validate_config(cfg)

    def test_eval_refs_are_prediction_only(self):
        cfg = minimal_cfg()
        cfg["likelihoods"][0]["formula"] = "~ mu + mu_eval(c(1))"
        with pytest.raises(ConfigError, match="only available when predicting"):
            validate_config(cfg)

    @pytest.mark.parametrize("model, name, initial, fixed", [
        ("iid", "prec", -1.0, True),
        ("iid", "prec", -1.0, False),
        ("iid", "prec", 0, True),
        ("iid", "prec", 0, False),
        ("bym", "prec_iid", 0.0, False),
        ("ar1", "rho", 1.5, False),
        ("ar1", "rho", -1.0, True),
        ("gaussian", "prec", -1.0, False),  # the likelihood's
    ])
    def test_initial_outside_the_domain(self, model, name, initial, fixed):
        # each of these once passed validation and failed inside the fit
        # with a runtime error and a numpy RuntimeWarning
        cfg = minimal_cfg()
        hyper = {name: {"initial": initial, "fixed": fixed}}
        if model == "gaussian":
            cfg["likelihoods"][0]["hyper"] = hyper
            where = "/likelihoods/0"
        else:
            size = {"graph": "g.graph"} if model == "bym" else {"n": 3}
            cfg["components"][0] = {"name": "u", "model": model, **size, "hyper": hyper}
            where = "/components/0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as excinfo:
                validate_config(cfg)
        assert where_of(excinfo) == f"{where}/hyper/{name}/initial"

    def test_initial_inside_the_domain(self):
        cfg = minimal_cfg()
        cfg["components"].append({"name": "u", "model": "ar1", "n": 3, "hyper": {
            "prec": {"initial": 1e-6}, "rho": {"initial": -0.99, "fixed": True}}})
        cfg["likelihoods"][0]["hyper"] = {"prec": {"initial": 0.5}}
        validate_config(cfg)

    def test_poisson_has_no_hyper(self):
        cfg = minimal_cfg()
        cfg["likelihoods"][0] = {
            "family": "poisson", "response": "y", "formula": "~ mu", "data": "d.csv",
            "hyper": {"prec": {"initial": 1.0}},
        }
        with pytest.raises(ConfigError, match="has no hyperparameters"):
            validate_config(cfg)

    def test_aggregate_needs_response_data(self):
        cfg = minimal_cfg()
        cfg["likelihoods"][0]["aggregate"] = {"kind": "logsumexp"}
        with pytest.raises(ConfigError, match="needs response_data"):
            validate_config(cfg)


# --- config files ----------------------------------------------------------

class TestLoadWrite:
    def test_round_trip(self, tmp_path):
        spec = ModelSpec(
            components=[
                {"name": "b0", "model": "constant"},
                {"name": "u", "model": "iid", "n": 4,
                 "input": {"kind": "index_column", "column": "idx"},
                 "hyper": {"prec": {"initial": 2.0}}},
            ],
            likelihoods=[
                {"family": "poisson", "response": "y",
                 "formula": "~ b0 + u", "data": "d.csv"},
            ],
            options={"bru_max_iter": 7, "seed": 11, "bru_initial": {"b0": 0.5}},
        )
        path = tmp_path / "model.json"
        write_model(spec, path)
        assert load_model(path) == spec

    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_model(path)

    def test_paths_resolve_against_config_dir(self, tmp_path, monkeypatch):
        write_csv(tmp_path / "d.csv", ["y"], [[0.5], [1.0]])
        write_json(tmp_path / "model.json", minimal_cfg())
        monkeypatch.chdir(tmp_path.parent)
        built = build_model(load_model(tmp_path / "model.json"))
        assert built.model.n_latent == 1


# --- CSV tables -------------------------------------------------------------

class TestReadTable:
    def test_type_inference(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["i", "x", "s"],
                  [[1, 0.5, "a"], [2, 3, "b"]])
        table = read_table(tmp_path / "t.csv")
        assert table["i"].dtype == np.int64
        assert table["x"].dtype == np.float64
        assert table["s"].dtype.kind == "U"
        np.testing.assert_array_equal(table["x"], [0.5, 3.0])

    def test_integer_looking_floats_stay_float(self, tmp_path):
        (tmp_path / "t.csv").write_text("x\n1.0\n2.0\n")
        assert read_table(tmp_path / "t.csv")["x"].dtype == np.float64

    def test_empty_cell_rejected(self, tmp_path):
        (tmp_path / "t.csv").write_text("x,y\n1,\n")
        with pytest.raises(ConfigError, match="empty cells"):
            read_table(tmp_path / "t.csv")

    def test_ragged_row_rejected(self, tmp_path):
        (tmp_path / "t.csv").write_text("x,y\n1,2\n3\n")
        with pytest.raises(ConfigError, match="row 3 has 1 fields"):
            read_table(tmp_path / "t.csv")

    def test_duplicate_header_rejected(self, tmp_path):
        (tmp_path / "t.csv").write_text("x,x\n1,2\n")
        with pytest.raises(ConfigError, match="duplicate column names"):
            read_table(tmp_path / "t.csv")

    def test_lists_round_trip(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["i", "x", "s"], [[1, 0.5, "a"], [2, 3, "b"]])
        table = read_table(tmp_path / "t.csv")
        back = table_from_lists(json.loads(canonical_json(table_to_lists(table))))
        for name in table:
            assert back[name].dtype == table[name].dtype
            np.testing.assert_array_equal(back[name], table[name])

    def test_graph_round_trip(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        back = graph_from_dict(json.loads(canonical_json(graph_to_dict(graph))))
        assert back == graph


# --- model assembly ---------------------------------------------------------

def build_from(tmp_path, cfg):
    write_json(tmp_path / "model.json", cfg)
    return build_model(load_model(tmp_path / "model.json"))


class TestBuildModel:
    def test_minimal_intercept_model(self, tmp_path):
        write_csv(tmp_path / "d.csv", ["y"], [[0.1], [0.4], [0.2]])
        built = build_from(tmp_path, minimal_cfg())
        assert built.model.n_latent == 1
        assert built.seed == 0

    def test_bym_with_graph_gives_2n_plus_1(self, tmp_path):
        n = 5
        (tmp_path / "map.graph").write_text(
            "n 5\n1 2\n2 3\n3 4\n4 5\n5 1\n"
        )
        write_csv(tmp_path / "d.csv", ["y", "area"],
                  [[2, 1], [0, 2], [1, 3], [3, 4], [1, 5]])
        cfg = {
            "components": [
                {"name": "b0", "model": "constant"},
                {"name": "s", "model": "bym", "graph": "map.graph",
                 "input": {"kind": "index_column", "column": "area"}},
            ],
            "likelihoods": [
                {"family": "poisson", "response": "y",
                 "formula": "~ b0 + s", "data": "d.csv"},
            ],
        }
        built = build_from(tmp_path, cfg)
        assert built.model.n_latent == 2 * n + 1
        assert built.graphs["map.graph"].n == n

    def test_iid_size_inferred_from_index_column(self, tmp_path):
        write_csv(tmp_path / "d.csv", ["y", "idx"],
                  [[0.1, 1], [0.2, 5], [0.3, 2]])
        cfg = minimal_cfg()
        cfg["components"].append({
            "name": "u", "model": "iid",
            "input": {"kind": "index_column", "column": "idx"},
        })
        cfg["likelihoods"][0]["formula"] = "~ mu + u"
        built = build_from(tmp_path, cfg)
        assert built.model.n_latent == 1 + 5

    def test_explicit_size_wins(self, tmp_path):
        write_csv(tmp_path / "d.csv", ["y", "idx"], [[0.1, 1], [0.2, 3]])
        cfg = minimal_cfg()
        cfg["components"].append({
            "name": "u", "model": "iid", "n": 7,
            "input": {"kind": "index_column", "column": "idx"},
        })
        cfg["likelihoods"][0]["formula"] = "~ mu + u"
        built = build_from(tmp_path, cfg)
        assert built.model.n_latent == 1 + 7

    def test_factor_levels_inferred_sorted(self, tmp_path):
        write_csv(tmp_path / "d.csv", ["y", "grp"],
                  [[0.1, "b"], [0.2, "a"], [0.3, "b"], [0.4, "c"]])
        cfg = minimal_cfg()
        cfg["components"] = [{
            "name": "f", "model": "factor",
            "input": {"kind": "factor_column", "column": "grp"},
        }]
        cfg["likelihoods"][0]["formula"] = "~ f"
        built = build_from(tmp_path, cfg)
        assert built.model.n_latent == 3
        assert built.model.component("f").mapper.levels == ["a", "b", "c"]

    def test_factor_contrast_coding(self, tmp_path):
        write_csv(tmp_path / "d.csv", ["y", "grp"], [[0.1, "b"], [0.2, "a"]])
        cfg = minimal_cfg()
        cfg["components"] = [{
            "name": "f", "model": "factor", "coding": "contrast",
            "levels": ["a", "b"],
            "input": {"kind": "factor_column", "column": "grp"},
        }]
        cfg["likelihoods"][0]["formula"] = "~ f"
        built = build_from(tmp_path, cfg)
        assert built.model.n_latent == 1

    def test_fixed_hyper_drops_out_of_theta(self, tmp_path):
        write_csv(tmp_path / "d.csv", ["y", "idx"], [[1, 1], [2, 2]])
        cfg = {
            "components": [{
                "name": "u", "model": "iid",
                "input": {"kind": "index_column", "column": "idx"},
                "hyper": {"prec": {"initial": 4.0, "fixed": True}},
            }],
            "likelihoods": [{
                "family": "poisson", "response": "y", "formula": "~ u",
                "data": "d.csv",
            }],
        }
        built = build_from(tmp_path, cfg)
        assert built.model.theta_names == []

    def test_gaussian_likelihood_hyper(self, tmp_path):
        write_csv(tmp_path / "d.csv", ["y"], [[0.1], [0.2]])
        cfg = minimal_cfg()
        cfg["likelihoods"][0]["hyper"] = {"prec": {"initial": 3.0, "fixed": True}}
        built = build_from(tmp_path, cfg)
        assert built.model.theta_names == []

        cfg["likelihoods"][0]["hyper"] = {
            "prec": {"initial": 3.0, "prior": {"kind": "log_gamma", "a": 2.0, "b": 1.0}},
        }
        built = build_from(tmp_path, cfg)
        (_, _, hyper), = built.model.theta_entries
        assert hyper.initial == 3.0
        assert hyper.prior.a == 2.0

    def test_component_hyper_prior_override(self, tmp_path):
        write_csv(tmp_path / "d.csv", ["y", "t"], [[1, 1], [0, 2], [2, 3]])
        cfg = {
            "components": [{
                "name": "u", "model": "ar1",
                "input": {"kind": "index_column", "column": "t"},
                "hyper": {"rho": {"initial": 0.5,
                                  "prior": {"kind": "gaussian", "mean": 1.0, "prec": 2.0}}},
            }],
            "likelihoods": [{
                "family": "poisson", "response": "y", "formula": "~ u",
                "data": "d.csv",
            }],
        }
        built = build_from(tmp_path, cfg)
        assert built.model.theta_names == ["u.prec", "u.rho"]
        rho = built.model.theta_entries[1][2]
        assert rho.initial == 0.5
        assert rho.prior.mean == 1.0

    def test_marginal_wraps_default_mapper(self, tmp_path):
        write_csv(tmp_path / "d.csv", ["y"], [[1], [3]])
        built = build_from(tmp_path, toy_config("d.csv"))
        assert isinstance(built.model.component("lam").mapper, MarginalMapper)

    def test_aggregation_bridges_row_counts(self, tmp_path):
        write_csv(tmp_path / "points.csv", ["idx", "weight", "block"],
                  [[1, 0.5, 1], [2, 0.5, 1], [3, 0.25, 2],
                   [4, 0.25, 2], [5, 0.25, 2], [6, 0.25, 2]])
        write_csv(tmp_path / "areas.csv", ["count"], [[3], [1]])
        cfg = {
            "components": [{
                "name": "u", "model": "iid",
                "input": {"kind": "index_column", "column": "idx"},
            }],
            "likelihoods": [{
                "family": "poisson", "response": "count", "formula": "~ u",
                "data": "points.csv", "response_data": "areas.csv",
            }],
        }
        built = build_from(tmp_path, cfg)
        block = built.model.obs[0]
        mapper, blocks = block.aggregation
        assert isinstance(mapper, LogSumExpMapper)
        assert blocks.n_block == 2
        assert len(block.y) == 2

    def test_aggregate_kind_sum(self, tmp_path):
        write_csv(tmp_path / "points.csv", ["idx", "w", "b"],
                  [[1, 1.0, 1], [2, 1.0, 2]])
        write_csv(tmp_path / "areas.csv", ["z"], [[0.3], [0.4]])
        cfg = {
            "components": [{
                "name": "u", "model": "iid",
                "input": {"kind": "index_column", "column": "idx"},
            }],
            "likelihoods": [{
                "family": "gaussian", "response": "z", "formula": "~ u",
                "data": "points.csv", "response_data": "areas.csv",
                "aggregate": {"kind": "sum", "weights_column": "w",
                              "block_column": "b", "rescale": True},
            }],
        }
        built = build_from(tmp_path, cfg)
        mapper, _ = built.model.obs[0].aggregation
        assert isinstance(mapper, AggregateMapper)
        assert mapper.rescale

    def test_row_count_mismatch_without_bridge(self, tmp_path):
        write_csv(tmp_path / "points.csv", ["idx"], [[1], [2], [3]])
        write_csv(tmp_path / "areas.csv", ["z"], [[0.3], [0.4]])
        cfg = {
            "components": [{
                "name": "u", "model": "iid",
                "input": {"kind": "index_column", "column": "idx"},
            }],
            "likelihoods": [{
                "family": "gaussian", "response": "z", "formula": "~ u",
                "data": "points.csv", "response_data": "areas.csv",
            }],
        }
        with pytest.raises(ConfigError, match="response has 2 rows"):
            build_from(tmp_path, cfg)

    def test_missing_response_column(self, tmp_path):
        write_csv(tmp_path / "d.csv", ["z"], [[0.1]])
        cfg = minimal_cfg()
        with pytest.raises(ConfigError, match="no column 'y'") as excinfo:
            build_from(tmp_path, cfg)
        assert excinfo.value.where == "/likelihoods/0/response"

    def test_missing_data_file(self, tmp_path):
        cfg = minimal_cfg(data="nowhere.csv")
        with pytest.raises(ConfigError, match="nowhere.csv"):
            build_from(tmp_path, cfg)

    def test_unbound_effect_rejected(self, tmp_path):
        write_csv(tmp_path / "d.csv", ["y"], [[0.1]])
        cfg = minimal_cfg()
        cfg["components"].append({
            "name": "u", "model": "iid", "n": 2,
            "input": {"kind": "index_column", "column": "idx"},
        })
        cfg["likelihoods"][0]["formula"] = "~ mu + u"
        with pytest.raises(ConfigError, match="component 'u' has no input"):
            build_from(tmp_path, cfg)

    def test_size_inference_needs_numeric_index(self, tmp_path):
        write_csv(tmp_path / "d.csv", ["y", "idx"], [[0.1, "a"], [0.2, "b"]])
        cfg = minimal_cfg()
        cfg["components"] = [{
            "name": "u", "model": "iid",
            "input": {"kind": "index_column", "column": "idx"},
        }]
        cfg["likelihoods"][0]["formula"] = "~ u"
        with pytest.raises(ConfigError, match="not numeric"):
            build_from(tmp_path, cfg)

    def test_latent_model_errors_carry_pointer(self, tmp_path):
        write_csv(tmp_path / "d.csv", ["y", "t"], [[0.1, 1], [0.2, 2]])
        cfg = minimal_cfg()
        cfg["components"] = [{
            "name": "u", "model": "rw1", "n": 1,
            "input": {"kind": "index_column", "column": "t"},
        }]
        cfg["likelihoods"][0]["formula"] = "~ u"
        with pytest.raises(ConfigError, match="rw1 needs n >= 2") as excinfo:
            build_from(tmp_path, cfg)
        assert excinfo.value.where == "/components/0"

    def test_additive_formula_binds_everything(self, tmp_path):
        write_csv(tmp_path / "d.csv", ["y", "x"], [[0.1, 1.5], [0.2, -0.5]])
        cfg = {
            "components": [
                {"name": "b0", "model": "constant"},
                {"name": "b1", "model": "linear",
                 "input": {"kind": "column", "column": "x"}},
            ],
            "likelihoods": [{
                "family": "gaussian", "response": "y", "formula": None,
                "data": "d.csv",
            }],
        }
        built = build_from(tmp_path, cfg)
        assert set(built.model.obs[0].inputs) == {"b0", "b1"}

    def test_fit_runs_on_built_model(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.normal(size=25)
        y = 0.4 + 0.9 * x + 0.2 * rng.standard_normal(25)
        write_csv(tmp_path / "d.csv", ["x", "y"],
                  [[a, b] for a, b in zip(x, y)])
        cfg = {
            "components": [
                {"name": "b0", "model": "constant"},
                {"name": "b1", "model": "linear",
                 "input": {"kind": "column", "column": "x"}},
            ],
            "likelihoods": [{
                "family": "gaussian", "response": "y", "formula": "~ b0 + b1",
                "data": "d.csv",
                "hyper": {"prec": {"initial": 25.0, "fixed": True}},
            }],
            "options": {"seed": 5},
        }
        built = build_from(tmp_path, cfg)
        result = fit(built.model)
        assert result.converged
        start, end = built.model.offsets["b1"]
        assert abs(result.latent_mean[start:end][0] - 0.9) < 0.2


class TestOneDefinition:
    """A config and the Python API build every hyperparameter through the
    same helpers (``_precision_hyper``, ``_rho_hyper``): their defaults
    agree, and so do a config's settings and the same keyword arguments."""

    MODELS = ("iid", "ar1", "rw1", "besag", "bym")
    GRAPH = Graph(4, ((0, 1), (1, 2), (2, 3)))
    HYPER = {"initial": 0.3, "fixed": True, "prior": {"kind": "gaussian", "mean": 0.5, "prec": 2.0}}

    def _from_config(self, tmp_path, hyper):
        """The five components and the Gaussian likelihood of a config,
        each hyperparameter set to ``hyper`` unless it is None."""
        (tmp_path / "map.graph").write_text("n 4\n1 2\n2 3\n3 4\n")
        write_csv(tmp_path / "d.csv", ["y", "i"], [[0.1, 1], [0.4, 2], [0.2, 3], [0.3, 4]])
        names = {"ar1": ("prec", "rho"), "bym": ("prec_spatial", "prec_iid")}
        comps = []
        for model in self.MODELS:
            comp = {"name": model, "model": model,
                    "input": {"kind": "index_column", "column": "i"}}
            if model in ("besag", "bym"):
                comp["graph"] = "map.graph"
            if hyper is not None:
                comp["hyper"] = {name: hyper for name in names.get(model, ("prec",))}
            comps.append(comp)
        lik = {"family": "gaussian", "response": "y", "data": "d.csv",
               "formula": "~ " + " + ".join(self.MODELS)}
        if hyper is not None:
            lik["hyper"] = {"prec": hyper}
        model = build_from(tmp_path, {"components": comps, "likelihoods": [lik]}).model
        return [c.model for c in model.components] + [model.obs[0].family]

    def _from_api(self, **settings):
        def prec(name="prec"):
            return _precision_hyper(name, **settings)

        g = self.GRAPH
        return [IidModel(4, prec()), Ar1Model(4, prec(), _rho_hyper(**settings)),
                Rw1Model(4, prec()), BesagModel(g, prec()),
                BymModel(g, prec("prec_spatial"), prec("prec_iid")),
                GaussianFamily(prec_hyper=prec())]

    @staticmethod
    def _hypers(obj):
        """Every hyperparameter of a component or family, fixed ones too,
        as what defines it: name, transform, prior and its parameters,
        initial value and whether it is fixed."""
        hypers = [getattr(obj, attr) for attr in ("_hyper", "_prec", "_rho", "_prec_u", "_prec_v")
                  if hasattr(obj, attr)]
        return [(h.name, type(h.transform), type(h.prior), h.prior.params(), h.initial, h.fixed)
                for h in hypers]

    def _check(self, got, want):
        assert [type(obj) for obj in got] == [type(obj) for obj in want]
        for a, b in zip(got, want):
            assert self._hypers(a) == self._hypers(b) and self._hypers(a)

    def test_defaults(self, tmp_path):
        g = self.GRAPH
        self._check(self._from_config(tmp_path, None),
                    [IidModel(4), Ar1Model(4), Rw1Model(4), BesagModel(g), BymModel(g),
                     GaussianFamily()])

    def test_fixed_initial_and_prior_set(self, tmp_path):
        self._check(self._from_config(tmp_path, self.HYPER),
                    self._from_api(initial=0.3, fixed=True, prior=GaussianPrior(0.5, 2.0)))


class TestBindNewInputs:
    def test_rebinding_resolvable_components(self, tmp_path):
        cfg = {
            "components": [
                {"name": "b0", "model": "constant"},
                {"name": "b1", "model": "linear",
                 "input": {"kind": "column", "column": "x"}},
                {"name": "u", "model": "iid", "n": 4,
                 "input": {"kind": "index_column", "column": "idx"}},
            ],
            "likelihoods": [{
                "family": "gaussian", "response": "y", "formula": "~ b0 + b1",
                "data": "d.csv",
            }],
        }
        spec = ModelSpec(cfg["components"], cfg["likelihoods"])
        table = {"x": np.array([1.0, 2.0, 3.0])}
        inputs = bind_new_inputs(spec, table)
        assert set(inputs) == {"b0", "b1"}
        np.testing.assert_array_equal(inputs["b0"], np.ones(3))
        np.testing.assert_array_equal(inputs["b1"], [1.0, 2.0, 3.0])
