"""BAL abstract syntax tree.

Plain frozen dataclasses; the compiler resolves phrases against the
vocabulary and the evaluator (:mod:`repro.brms.bal.evaluate`) interprets
nodes against a rule context.  Every node renders back to readable BAL via
``render()``, which the authoring-cost experiment (E6) and the tests'
parse/render round-trips rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


class Node:
    """Base class for all AST nodes."""

    def render(self) -> str:
        raise NotImplementedError


# -- expressions --------------------------------------------------------------


@dataclass(frozen=True)
class Literal(Node):
    """A string/number/boolean/null literal."""

    value: object

    def render(self) -> str:
        if self.value is None:
            return "null"
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


@dataclass(frozen=True)
class VarRef(Node):
    """Reference to a definitions-section variable: ``'the request'``."""

    name: str

    def render(self) -> str:
        return f"'{self.name}'"


@dataclass(frozen=True)
class ParamRef(Node):
    """A rule parameter bound at evaluation time: ``<string ID>``."""

    name: str

    def render(self) -> str:
        return f"<{self.name}>"


@dataclass(frozen=True)
class ThisRef(Node):
    """The candidate inside an instance binding's where-clause."""

    concept: Optional[str] = None

    def render(self) -> str:
        return f"this {self.concept}" if self.concept else "this"


@dataclass(frozen=True)
class Navigation(Node):
    """``the <phrase> of <target>`` — a vocabulary member applied to a value."""

    phrase: str
    target: Node

    def render(self) -> str:
        return f"the {self.phrase} of {self.target.render()}"


@dataclass(frozen=True)
class CountOf(Node):
    """``the number of <expr>`` — size of a collection (or 0/1 for scalars)."""

    target: Node

    def render(self) -> str:
        return f"the number of {self.target.render()}"


@dataclass(frozen=True)
class Arith(Node):
    """Binary arithmetic: ``+ - * /``."""

    op: str
    left: Node
    right: Node

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"


# -- conditions ---------------------------------------------------------------


@dataclass(frozen=True)
class Comparison(Node):
    """A comparison condition.

    ``op`` is one of ``eq ne lt le gt ge is_null not_null one_of truthy``.
    For ``one_of``, ``right`` is a tuple of expressions; for ``is_null`` /
    ``not_null`` / ``truthy`` it is None.
    """

    op: str
    left: Node
    right: Union[None, Node, Tuple[Node, ...]] = None

    _RENDERINGS = {
        "eq": "is",
        "ne": "is not",
        "lt": "is less than",
        "le": "is at most",
        "gt": "is more than",
        "ge": "is at least",
    }

    def render(self) -> str:
        if self.op == "is_null":
            return f"{self.left.render()} is null"
        if self.op == "not_null":
            return f"{self.left.render()} is not null"
        if self.op == "truthy":
            return self.left.render()
        if self.op == "one_of":
            options = ", ".join(n.render() for n in self.right)
            return f"{self.left.render()} is one of ({options})"
        keyword = self._RENDERINGS[self.op]
        return f"{self.left.render()} {keyword} {self.right.render()}"


def _render_bullet(condition: "Node") -> str:
    """Render one bullet of a condition block, or one inline operand.

    A nested block must be parenthesized: bullet lists carry no
    indentation, so an unparenthesized inner block would greedily swallow
    the outer block's remaining bullets on re-parse, or the rest of an
    inline ``and``/``or`` into its last bullet.
    """
    rendered = condition.render()
    if isinstance(condition, (And, Or)) and condition.block:
        rendered = f"( {rendered} )"
    return rendered


@dataclass(frozen=True)
class And(Node):
    """Conjunction; also the ``all of the following conditions`` block."""

    conditions: Tuple[Node, ...]
    block: bool = False  # True when written in bullet-list form

    def render(self) -> str:
        if self.block:
            bullets = " ".join(
                f"- {_render_bullet(c)} ," for c in self.conditions
            ).rstrip(" ,")
            return (
                "all of the following conditions are true : " + bullets
            )
        return " and ".join(_render_bullet(c) for c in self.conditions)


@dataclass(frozen=True)
class Or(Node):
    """Disjunction; also the ``any of the following conditions`` block."""

    conditions: Tuple[Node, ...]
    block: bool = False

    def render(self) -> str:
        if self.block:
            bullets = " ".join(
                f"- {_render_bullet(c)} ," for c in self.conditions
            ).rstrip(" ,")
            return (
                "any of the following conditions are true : " + bullets
            )
        return " or ".join(_render_bullet(c) for c in self.conditions)


@dataclass(frozen=True)
class Not(Node):
    condition: Node

    def render(self) -> str:
        return f"not ( {self.condition.render()} )"


@dataclass(frozen=True)
class Exists(Node):
    """``there is a <Concept> [where <cond>]`` / ``there is no <Concept> …``."""

    concept: str
    where: Optional[Node] = None
    negated: bool = False

    def render(self) -> str:
        article = "no" if self.negated else "a"
        text = f"there is {article} {self.concept.lower()}"
        if self.where is not None:
            text += f" where {self.where.render()}"
        return text


@dataclass(frozen=True)
class Quantified(Node):
    """``there are at least/at most/exactly <N> <Concept> [where <cond>]``.

    ``op`` is ``ge``, ``le`` or ``eq``; the condition holds when the number
    of matching instances compares accordingly to ``count``.
    """

    concept: str
    op: str
    count: int
    where: Optional[Node] = None

    _RENDERINGS = {"ge": "at least", "le": "at most", "eq": "exactly"}

    def render(self) -> str:
        quantifier = self._RENDERINGS[self.op]
        text = (
            f"there are {quantifier} {self.count} {self.concept.lower()}"
        )
        if self.where is not None:
            text += f" where {self.where.render()}"
        return text


# -- definitions ----------------------------------------------------------------


@dataclass(frozen=True)
class InstanceBinding(Node):
    """``a <Concept> [where <condition>]`` — bind a graph node."""

    concept: str
    where: Optional[Node] = None

    def render(self) -> str:
        text = f"a {self.concept.lower()}"
        if self.where is not None:
            text += f" where {self.where.render()}"
        return text


@dataclass(frozen=True)
class Definition(Node):
    """``set '<var>' to <binding-or-expression>``."""

    var: str
    binder: Node  # InstanceBinding or an expression Node

    def render(self) -> str:
        return f"set '{self.var}' to {self.binder.render()}"


# -- actions ---------------------------------------------------------------------


@dataclass(frozen=True)
class SetStatus(Node):
    """``the internal control is [not] satisfied``."""

    satisfied: bool

    def render(self) -> str:
        state = "satisfied" if self.satisfied else "not satisfied"
        return f"the internal control is {state}"


@dataclass(frozen=True)
class Alert(Node):
    """``alert "<message>"``."""

    message: str

    def render(self) -> str:
        return f'alert "{self.message}"'


@dataclass(frozen=True)
class Assign(Node):
    """``set '<var>' to <expr>`` in an action position."""

    var: str
    expr: Node

    def render(self) -> str:
        return f"set '{self.var}' to {self.expr.render()}"


# -- the rule ---------------------------------------------------------------------


@dataclass(frozen=True)
class Rule(Node):
    """A full BAL rule: definitions, if, then, else."""

    definitions: Tuple[Definition, ...]
    condition: Node
    then_actions: Tuple[Node, ...]
    else_actions: Tuple[Node, ...] = field(default_factory=tuple)

    def render(self) -> str:
        parts: List[str] = []
        if self.definitions:
            parts.append("definitions")
            for definition in self.definitions:
                parts.append(f"  {definition.render()} ;")
        parts.append("if")
        parts.append(f"  {self.condition.render()}")
        parts.append("then")
        for action in self.then_actions:
            parts.append(f"  {action.render()} ;")
        if self.else_actions:
            parts.append("else")
            for action in self.else_actions:
                parts.append(f"  {action.render()} ;")
        return "\n".join(parts)

    def parameters(self) -> List[str]:
        """All parameter names referenced anywhere in the rule."""
        names: List[str] = []

        def visit(node: object) -> None:
            if isinstance(node, ParamRef) and node.name not in names:
                names.append(node.name)
            if isinstance(node, Node):
                for value in vars(node).values():
                    visit(value)
            elif isinstance(node, tuple):
                for item in node:
                    visit(item)

        visit(self)
        return names

    def concepts(self) -> List[str]:
        """All concept labels referenced by bindings and existence checks."""
        labels: List[str] = []

        def visit(node: object) -> None:
            if isinstance(node, (InstanceBinding, Exists, Quantified)):
                if node.concept not in labels:
                    labels.append(node.concept)
            if isinstance(node, Node):
                for value in vars(node).values():
                    visit(value)
            elif isinstance(node, tuple):
                for item in node:
                    visit(item)

        visit(self)
        return labels

    def phrases(self) -> List[str]:
        """All navigation phrases used (for vocabulary checking)."""
        names: List[str] = []

        def visit(node: object) -> None:
            if isinstance(node, Navigation) and node.phrase not in names:
                names.append(node.phrase)
            if isinstance(node, Node):
                for value in vars(node).values():
                    visit(value)
            elif isinstance(node, tuple):
                for item in node:
                    visit(item)

        visit(self)
        return names
