"""EXPLAIN rendering and the JSON schema the CI smoke step relies on."""

import json

import pytest

from repro.plan.explain import (
    ExplainReport,
    PlanNode,
    validate_explain_json,
)


def make_report(with_actual=True):
    chosen = PlanNode(
        label="join[clb]",
        estimated={"seconds": 0.012},
        actual={"seconds": 0.010} if with_actual else None,
        chosen=True,
        detail={"label": "join[clb]", "method": "join", "bound": "clb"},
    )
    loser = PlanNode(
        label="probing",
        estimated={"seconds": 0.050},
        detail={"label": "probing", "method": "probing"},
    )
    root = PlanNode(
        label="topk k=3 |P|=400 |T|=150 d=2",
        estimated={"seconds": 0.012},
        actual={"seconds": 0.010} if with_actual else None,
        chosen=True,
        detail={"label": "join[clb]"},
        children=[chosen, loser],
    )
    return ExplainReport(
        tree=root, chosen="join[clb]", profile={"n_competitors": 400},
    )


class TestFormatTree:
    def test_tree_shape_and_markers(self):
        text = make_report().format_tree()
        lines = text.splitlines()
        assert lines[0].startswith("topk k=3")
        assert "(chosen)" in lines[0]
        assert lines[1].startswith("├── join[clb]")
        assert lines[2].startswith("└── probing")

    def test_costs_column(self):
        text = make_report().format_tree()
        assert "est=0.012s" in text
        assert "act=0.01s" in text
        # The un-executed candidate shows an estimate only.
        loser_line = [l for l in text.splitlines() if "probing" in l][0]
        assert "act=" not in loser_line

    def test_no_actuals_renders_estimates_only(self):
        text = make_report(with_actual=False).format_tree()
        assert "act=" not in text
        assert "est=" in text


class TestValidateExplainJson:
    def test_valid_document_roundtrips_through_json(self):
        doc = json.loads(json.dumps(make_report().to_dict()))
        validate_explain_json(doc)  # does not raise

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError, match="must be a dict"):
            validate_explain_json([])

    def test_rejects_missing_top_level_key(self):
        doc = make_report().to_dict()
        del doc["profile"]
        with pytest.raises(ValueError, match="profile"):
            validate_explain_json(doc)

    def test_rejects_empty_chosen(self):
        doc = make_report().to_dict()
        doc["chosen"] = ""
        with pytest.raises(ValueError, match="non-empty"):
            validate_explain_json(doc)

    def test_rejects_node_missing_key(self):
        doc = make_report().to_dict()
        del doc["tree"]["children"][0]["estimated"]
        with pytest.raises(ValueError, match=r"children\[0\]"):
            validate_explain_json(doc)

    def test_rejects_chosen_without_matching_node(self):
        doc = make_report().to_dict()
        doc["chosen"] = "join[alb]"
        with pytest.raises(ValueError, match="no chosen=true node"):
            validate_explain_json(doc)

    def test_rejects_executed_node_without_actual_seconds(self):
        doc = make_report().to_dict()
        doc["tree"]["children"][0]["actual"] = {"node_accesses": 4.0}
        with pytest.raises(ValueError, match="actual 'seconds'"):
            validate_explain_json(doc)

    def test_actual_may_be_null_on_unexecuted_plan(self):
        doc = make_report(with_actual=False).to_dict()
        validate_explain_json(doc)  # estimate-only plans are valid
