"""EXPLAIN output: the plan tree with estimated vs actual costs.

The tree has one root node for the logical query and one child per
costed physical alternative.  After execution, the chosen node (and the
root) carry an ``actual`` dict next to their ``estimated`` one — the
acceptance bar for the planner is precisely that every *executed* node
reports both.  :func:`validate_explain_json` is the schema check CI's
planner smoke step runs against ``skyup explain --format json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class PlanNode:
    """One node of the EXPLAIN tree."""

    label: str
    estimated: Dict[str, float] = field(default_factory=dict)
    actual: Optional[Dict[str, float]] = None
    chosen: bool = False
    detail: Dict[str, object] = field(default_factory=dict)
    children: List["PlanNode"] = field(default_factory=list)

    def to_dict(self) -> dict:
        doc: dict = {
            "label": self.label,
            "estimated": self.estimated,
            "actual": self.actual,
            "chosen": self.chosen,
        }
        if self.detail:
            doc["detail"] = self.detail
        if self.children:
            doc["children"] = [c.to_dict() for c in self.children]
        return doc


@dataclass
class ExplainReport:
    """The full EXPLAIN answer: chosen plan, candidates, catalog profile."""

    tree: PlanNode
    chosen: str
    profile: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "chosen": self.chosen,
            "profile": self.profile,
            "tree": self.tree.to_dict(),
        }

    def format_tree(self) -> str:
        """ASCII rendering for terminals and the README."""
        lines: List[str] = []
        _render(self.tree, "", True, True, lines)
        return "\n".join(lines)


def _costs_column(node: PlanNode) -> str:
    parts = []
    if "seconds" in node.estimated:
        parts.append(f"est={node.estimated['seconds']:.4g}s")
    if node.actual and "seconds" in node.actual:
        parts.append(f"act={node.actual['seconds']:.4g}s")
    return "  ".join(parts)


def _render(
    node: PlanNode, prefix: str, is_last: bool, is_root: bool,
    lines: List[str],
) -> None:
    marker = "" if is_root else ("└── " if is_last else "├── ")
    tag = "  (chosen)" if node.chosen else ""
    costs = _costs_column(node)
    line = f"{prefix}{marker}{node.label}{tag}"
    if costs:
        line = f"{line}  [{costs}]"
    lines.append(line)
    child_prefix = prefix if is_root else prefix + (
        "    " if is_last else "│   "
    )
    for i, child in enumerate(node.children):
        _render(
            child, child_prefix, i == len(node.children) - 1, False, lines
        )


_REQUIRED_TOP = ("chosen", "profile", "tree")
_REQUIRED_NODE = ("label", "estimated", "actual", "chosen")


def validate_explain_json(doc: dict) -> None:
    """Validate the dict shape of :meth:`ExplainReport.to_dict`.

    Raises:
        ValueError: a required key is missing or has the wrong type.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"explain document must be a dict, got {type(doc)}")
    for key in _REQUIRED_TOP:
        if key not in doc:
            raise ValueError(f"explain document missing key {key!r}")
    if not isinstance(doc["chosen"], str) or not doc["chosen"]:
        raise ValueError("'chosen' must be a non-empty plan label")
    if not isinstance(doc["profile"], dict):
        raise ValueError("'profile' must be a dict")
    chosen_labels = _validate_node(doc["tree"], path="tree")
    if doc["chosen"] not in chosen_labels:
        raise ValueError(
            f"chosen plan {doc['chosen']!r} has no chosen=true node"
        )


def _validate_node(node: object, path: str) -> List[str]:
    if not isinstance(node, dict):
        raise ValueError(f"{path}: node must be a dict")
    for key in _REQUIRED_NODE:
        if key not in node:
            raise ValueError(f"{path}: node missing key {key!r}")
    if not isinstance(node["estimated"], dict):
        raise ValueError(f"{path}: 'estimated' must be a dict")
    if node["actual"] is not None and not isinstance(node["actual"], dict):
        raise ValueError(f"{path}: 'actual' must be a dict or null")
    if node["chosen"] and node["actual"] is not None:
        for key in ("seconds",):
            if key not in node["actual"]:
                raise ValueError(
                    f"{path}: executed node lacks actual {key!r}"
                )
    detail = node.get("detail")
    plan_label = (
        detail.get("label", node["label"])
        if isinstance(detail, dict)
        else node["label"]
    )
    chosen = [plan_label] if node["chosen"] else []
    for i, child in enumerate(node.get("children", [])):
        chosen.extend(_validate_node(child, f"{path}.children[{i}]"))
    return chosen
