"""The reprolint rule catalogue.

Each rule encodes one contract the test suite currently guards only by
brute force (differential dump batteries, concurrency fault injection).
The ids group by contract family:

* ``REP1xx`` — determinism: the engine packages must stay bit-identical
  across serial/batch/worker/traced runs and, eventually, across hosts.
* ``REP2xx`` — store discipline: every mutation of a campaign store goes
  through the ``BEGIN IMMEDIATE`` transaction helper; connection intent
  (read vs write) is explicit at the call site.
* ``REP3xx`` — observability hygiene: closed label sets, literal metric
  names, spans only as context managers.
* ``REP4xx`` — robustness: no bare or silently-swallowed exceptions.
* ``REP5xx`` — dead surface and representation: every public name has a
  production caller, and the network, its per-arc quantities and the
  solver have one representation each.

``docs/static-analysis.md`` carries the full catalogue with the *why*
per rule; keep the two in sync when adding rules.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .engine import Finding, ModuleContext, Rule, referenced_names

__all__ = ["ALL_RULES", "rules_by_id"]


# --------------------------------------------------------------------- #
# Scoping helpers
# --------------------------------------------------------------------- #
#: Packages whose results feed ``canonical_dump`` and must therefore be
#: reproducible to the bit: no wall clocks, no unseeded randomness, no
#: order-dependent reductions or unordered iteration.
DETERMINISTIC_PACKAGES = (
    "simulator",
    "scenario",
    "core",
    "routing",
    "traffic",
    "topology",
    "optim",
    "power",
)

#: Modules where float reductions sit on the fairness/MCF hot path and
#: ``repro.routing.mcf.pairwise_sum`` is the ordered primitive (fixed
#: accumulation tree, identical on every host — see PR 6's last-ULP wobble).
ORDERED_SUM_MODULES = (
    "repro/simulator/fairness.py",
    "repro/simulator/network.py",
    "repro/simulator/aggregate.py",
    "repro/routing/mcf.py",
)


def _module_parts(rel_path: str) -> Tuple[str, ...]:
    parts = rel_path.replace("\\", "/").split("/")
    if "repro" in parts:
        parts = parts[parts.index("repro") + 1 :]
    return tuple(parts)


def _in_packages(rel_path: str, packages: Sequence[str]) -> bool:
    parts = _module_parts(rel_path)
    return bool(parts) and parts[0] in packages


def _in_deterministic_code(rel_path: str) -> bool:
    # obs/ is the one place allowed to read clocks; it must never feed
    # results (pinned by the traced-vs-untraced identity tests).
    parts = _module_parts(rel_path)
    return bool(parts) and parts[0] in DETERMINISTIC_PACKAGES and parts[0] != "obs"


def _call_name(ctx: ModuleContext, node: ast.Call) -> Optional[str]:
    return ctx.resolve_name(node.func)


# --------------------------------------------------------------------- #
# REP1xx — determinism
# --------------------------------------------------------------------- #
class WallClockRule(Rule):
    id = "REP101"
    title = "wall-clock read in deterministic engine code"
    rationale = (
        "Engine results must be bit-identical across serial/batch/worker "
        "and (ROADMAP item 5) cross-host runs; any clock read that leaks "
        "into results breaks canonical_dump identity.  Timing belongs in "
        "repro.obs spans or in the orchestration layers."
    )

    CLOCKS = {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }

    def applies_to(self, rel_path: str) -> bool:
        return _in_deterministic_code(rel_path)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in ctx.calls():
            name = _call_name(ctx, call)
            if name is None:
                continue
            # `from datetime import datetime` resolves to datetime.now;
            # normalise both spellings onto the canonical dotted name.
            if name in ("datetime.now", "datetime.utcnow", "datetime.today"):
                name = "datetime." + name
            if name in self.CLOCKS:
                yield ctx.finding(
                    self,
                    call,
                    f"{name}() read in deterministic engine code; results "
                    "must not depend on the clock (use repro.obs spans for "
                    "timing)",
                )


class UnseededRandomRule(Rule):
    id = "REP102"
    title = "unseeded or global-state randomness in engine code"
    rationale = (
        "Every random draw in the engine must come from an explicitly "
        "seeded generator threaded through the scenario spec, or two runs "
        "of the same config hash diverge and a campaign store serves wrong "
        "results."
    )

    #: numpy.random attributes that are legitimate with an explicit seed.
    SEEDED_FACTORIES = {"default_rng", "Generator", "SeedSequence", "PCG64"}
    #: Constructors for which a ``None`` seed means "seed from OS entropy".
    SEED_TAKERS = {"random.Random", "numpy.random.default_rng", "numpy.random.SeedSequence"}

    def applies_to(self, rel_path: str) -> bool:
        return _in_deterministic_code(rel_path)

    @staticmethod
    def _optional_seed(ctx: ModuleContext, call: ast.Call) -> Optional[str]:
        """The parameter of an enclosing function, defaulting to ``None``,
        that *call* takes as its seed."""
        values = [*call.args[:1], *(keyword.value for keyword in call.keywords)]
        names = {value.id for value in values if isinstance(value, ast.Name)}
        for function in ctx.ancestors(call):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            spec = function.args
            positional = [*spec.posonlyargs, *spec.args]
            parameters = [*positional[len(positional) - len(spec.defaults) :], *spec.kwonlyargs]
            for parameter, default in zip(
                parameters, [*spec.defaults, *spec.kw_defaults], strict=True
            ):
                is_none = isinstance(default, ast.Constant) and default.value is None
                if is_none and parameter.arg in names:
                    return parameter.arg
        return None

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in ctx.calls():
            name = _call_name(ctx, call)
            if name is None:
                continue
            parameter = self._optional_seed(ctx, call) if name in self.SEED_TAKERS else None
            if parameter is not None:
                yield ctx.finding(
                    self,
                    call,
                    f"{name}({parameter}) is entropy-seeded whenever the caller omits "
                    f"{parameter!r} (default None); default it to an integer or require it",
                )
                continue
            if name == "random.Random" and (call.args or call.keywords):
                continue  # an explicitly seeded stdlib generator is fine
            if name.startswith("random."):
                yield ctx.finding(
                    self,
                    call,
                    f"stdlib {name}() uses hidden global RNG state; use a "
                    "seeded numpy Generator from the scenario spec instead",
                )
            elif name.startswith("numpy.random."):
                attr = name.split(".")[-1]
                if attr not in self.SEEDED_FACTORIES:
                    yield ctx.finding(
                        self,
                        call,
                        f"{name}() draws from numpy's global RNG state; "
                        "construct numpy.random.default_rng(seed) instead",
                    )
                elif not call.args and not call.keywords:
                    yield ctx.finding(
                        self,
                        call,
                        f"{name}() without a seed is entropy-seeded; pass "
                        "the scenario's seed explicitly",
                    )


class UnorderedReductionRule(Rule):
    id = "REP103"
    title = "raw sum on the ordered-reduction hot path"
    rationale = (
        "np.sum picks its accumulation tree from memory alignment, which "
        "cost PR 6 a cross-interpreter last-ULP wobble; pairwise_sum is "
        "the fixed-order primitive on the fairness/MCF hot paths.  "
        "Integer counts are exactly associative: wrapping the sum in "
        "int(...) marks them safe."
    )

    def applies_to(self, rel_path: str) -> bool:
        normalized = rel_path.replace("\\", "/")
        return any(normalized.endswith(module) for module in ORDERED_SUM_MODULES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in ctx.calls():
            name = _call_name(ctx, call)
            is_np_sum = name == "numpy.sum"
            is_method_sum = (
                isinstance(call.func, ast.Attribute) and call.func.attr == "sum"
            )
            if not (is_np_sum or is_method_sum):
                continue
            if self._within_int(ctx, call):
                continue
            spelled = "np.sum" if is_np_sum else ".sum()"
            yield ctx.finding(
                self,
                call,
                f"raw {spelled} on the ordered-reduction hot path; float "
                "accumulation order must be fixed — use pairwise_sum, or "
                "wrap integer counts in int(...)",
            )

    @staticmethod
    def _within_int(ctx: ModuleContext, node: ast.AST) -> bool:
        for ancestor in ctx.ancestors(node):
            if (
                isinstance(ancestor, ast.Call)
                and isinstance(ancestor.func, ast.Name)
                and ancestor.func.id == "int"
            ):
                return True
        return False


class SetIterationRule(Rule):
    id = "REP104"
    title = "iteration over an unordered set in engine code"
    rationale = (
        "Set iteration order depends on insertion history and hash "
        "randomisation of the running interpreter; anything it feeds — "
        "series, plans, serialized output — can differ between two "
        "bit-identical configs.  Iterate sorted(...) instead — without a "
        "key=, whose ties a stable sort leaves in set order."
    )

    SET_CONSTRUCTORS = {"set", "frozenset"}

    def applies_to(self, rel_path: str) -> bool:
        return _in_deterministic_code(rel_path)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        set_names = self._set_typed_names(ctx)
        iteration_sites: List[ast.expr] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iteration_sites.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iteration_sites.extend(gen.iter for gen in node.generators)
        for site in iteration_sites:
            if self._is_set_expr(ctx, site, set_names):
                yield ctx.finding(
                    self,
                    site,
                    "iterating an unordered set; wrap it in sorted(...) so "
                    "downstream series and serialized output stay "
                    "deterministic",
                )
        for call in ctx.calls():
            if (
                _call_name(ctx, call) == "sorted"
                and call.args
                and self._is_set_expr(ctx, call.args[0], set_names)
                and any(keyword.arg == "key" for keyword in call.keywords)
            ):
                yield ctx.finding(
                    self,
                    call,
                    "sorted(<set>, key=...) leaves elements with equal keys in "
                    "set order; sort the set first, then by key",
                )

    def _set_typed_names(self, ctx: ModuleContext) -> Set[str]:
        """Local names whose every assignment is a set-typed expression.

        Flow-insensitive scope tracking: a name qualifies only when *all*
        its assignments in the file are set expressions, so a name rebound
        to a list later never false-positives.  Repeated until nothing is
        added, so ``kept = candidate`` counts once ``candidate`` does.
        """
        assigned: Dict[str, List[ast.expr]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, []).append(value)
        set_names: Set[str] = set()
        while True:
            grown = {
                name
                for name, values in assigned.items()
                if all(self._is_set_expr(ctx, value, set_names) for value in values)
            }
            if grown == set_names:
                return set_names
            set_names = grown

    def _is_set_expr(
        self, ctx: ModuleContext, node: ast.expr, set_names: Set[str]
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _call_name(ctx, node)
            if name in self.SET_CONSTRUCTORS:
                return True
            # set.union(...) / set(...).difference(...) chains
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union",
                "difference",
                "intersection",
                "symmetric_difference",
            ):
                return self._is_set_expr(ctx, node.func.value, set_names)
            return False
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(ctx, node.left, set_names) or self._is_set_expr(
                ctx, node.right, set_names
            )
        return False


# --------------------------------------------------------------------- #
# REP2xx — store discipline
# --------------------------------------------------------------------- #
class StoreMutationRule(Rule):
    id = "REP201"
    title = "store mutation outside the transaction helper"
    rationale = (
        "Every campaign-store mutation must run inside "
        "CampaignStore.transaction() — the short BEGIN IMMEDIATE block "
        "that makes chunks atomic, keeps writers queueing instead of "
        "deadlocking, and rolls back on any exception.  A raw INSERT on "
        "an autocommit connection can publish half a chunk."
    )

    MUTATING_PREFIXES = ("insert", "update", "delete", "replace")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in ctx.calls():
            if not isinstance(call.func, ast.Attribute):
                continue
            if call.func.attr not in ("execute", "executemany", "executescript"):
                continue
            if not call.args:
                continue
            sql = call.args[0]
            text = self._literal_text(sql)
            if text is None:
                continue
            statement = text.lstrip().lower()
            if not statement.startswith(self.MUTATING_PREFIXES):
                continue
            if self._inside_transaction_with(ctx, call):
                continue
            if self._connection_is_parameter(ctx, call):
                # A helper that *receives* the connection is explicitly
                # transaction-agnostic: the caller owns the BEGIN IMMEDIATE
                # block (e.g. CampaignStore._persist_record).
                continue
            verb = statement.split(None, 1)[0].upper()
            yield ctx.finding(
                self,
                call,
                f"{verb} executed outside a `with ....transaction()` block; "
                "campaign-store mutations must go through the BEGIN "
                "IMMEDIATE helper",
            )

    @staticmethod
    def _literal_text(node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        # "INSERT ..." "OR IGNORE ..." implicit concatenation parses as a
        # single Constant; explicit + concatenation of literals does not —
        # resolve the left-most operand, which carries the verb.
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return StoreMutationRule._literal_text(node.left)
        if isinstance(node, ast.JoinedStr) and node.values:
            first = node.values[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                return first.value
        return None

    @staticmethod
    def _connection_is_parameter(ctx: ModuleContext, call: ast.Call) -> bool:
        receiver = call.func.value if isinstance(call.func, ast.Attribute) else None
        while isinstance(receiver, ast.Attribute):
            receiver = receiver.value
        if not isinstance(receiver, ast.Name):
            return False
        for ancestor in ctx.ancestors(call):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = ancestor.args
                names = {
                    arg.arg
                    for arg in (
                        arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                    )
                }
                return receiver.id in names and receiver.id != "self"
        return False

    @staticmethod
    def _inside_transaction_with(ctx: ModuleContext, node: ast.AST) -> bool:
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    expr = item.context_expr
                    if (
                        isinstance(expr, ast.Call)
                        and isinstance(expr.func, ast.Attribute)
                        and expr.func.attr == "transaction"
                    ):
                        return True
        return False


class ExplicitStoreIntentRule(Rule):
    id = "REP202"
    title = "CampaignStore opened without explicit read_only intent"
    rationale = (
        "Read paths must use read_only=True connections (they never take "
        "the write lock, so status/report/service reads cannot stall a "
        "drain), and a writable connection should be visibly intentional. "
        "Every CampaignStore(...) call therefore states read_only= "
        "explicitly."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in ctx.calls():
            name = _call_name(ctx, call)
            if name is None or not name.endswith("CampaignStore"):
                continue
            keywords = {keyword.arg for keyword in call.keywords}
            if "read_only" in keywords:
                continue
            yield ctx.finding(
                self,
                call,
                "CampaignStore(...) without read_only=; state the intent "
                "explicitly (read_only=True for read paths, "
                "read_only=False for the writer)",
            )


# --------------------------------------------------------------------- #
# REP3xx — observability hygiene
# --------------------------------------------------------------------- #
class InterpolatedLabelRule(Rule):
    id = "REP301"
    title = "interpolated metric label value"
    rationale = (
        "Label sets must stay closed: an f-string label value (a campaign "
        "id, a path) creates unbounded child cardinality, which bloats "
        "every /metrics scrape forever — the registry never forgets a "
        "child.  PR 9's _route_class exists precisely to fold ids into "
        "template labels."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in ctx.calls():
            if not (
                isinstance(call.func, ast.Attribute) and call.func.attr == "labels"
            ):
                continue
            for keyword in call.keywords:
                if keyword.arg is None or keyword.value is None:
                    continue
                if self._interpolates(ctx, keyword.value):
                    yield ctx.finding(
                        self,
                        keyword.value,
                        f"label {keyword.arg!r} is built by string "
                        "interpolation; metric labels must come from a "
                        "closed set (pass a template/class value instead)",
                    )

    @staticmethod
    def _interpolates(ctx: ModuleContext, node: ast.expr) -> bool:
        if isinstance(node, ast.JoinedStr):
            # A pure-literal f-string has no FormattedValue parts.
            return any(
                isinstance(value, ast.FormattedValue) for value in node.values
            )
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "format":
                return True
            if isinstance(node.func, ast.Name) and node.func.id in ("str", "repr"):
                return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mod, ast.Add)):
            return any(
                isinstance(side, (ast.Constant, ast.JoinedStr))
                and not isinstance(getattr(side, "value", None), (int, float))
                for side in (node.left, node.right)
            )
        return False


class LiteralMetricNameRule(Rule):
    id = "REP302"
    title = "dynamic metric name"
    rationale = (
        "Metric families are forever: a dynamically-built name is an "
        "unbounded registry and defeats grep-ability of the taxonomy in "
        "docs/observability.md.  Names are string literals at the call "
        "site."
    )

    FACTORIES = ("counter", "histogram")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in ctx.calls():
            name = _call_name(ctx, call)
            if name is None:
                continue
            if not any(
                name == factory
                or name.endswith(f"metrics.{factory}")
                or name.endswith(f"registry.{factory}")
                for factory in self.FACTORIES
            ):
                continue
            if not self._resolves_to_metrics(ctx, name):
                continue
            target = call.args[0] if call.args else None
            for keyword in call.keywords:
                if keyword.arg == "name":
                    target = keyword.value
            if target is None:
                continue
            if isinstance(target, ast.Constant) and isinstance(target.value, str):
                continue
            yield ctx.finding(
                self,
                target,
                "metric name is not a string literal; families are "
                "process-wide and forever, so names must be greppable "
                "constants",
            )

    @staticmethod
    def _resolves_to_metrics(ctx: ModuleContext, name: str) -> bool:
        if "metrics." in name or "registry." in name:
            return True
        # Bare counter(...) only counts when imported from the obs package.
        head = name.split(".")[0]
        dotted = ctx.aliases.get(head, "")
        return "metrics" in dotted or "obs" in dotted


class SpanContextManagerRule(Rule):
    id = "REP303"
    title = "span(...) not used as a context manager"
    rationale = (
        "span() returns a shared no-op singleton when tracing is off; "
        "holding it, passing it around, or calling __enter__ manually "
        "breaks the span stack's nesting (parent_id attribution) and the "
        "disabled fast path.  The only supported shape is "
        "`with span(...):`."
    )

    def applies_to(self, rel_path: str) -> bool:
        parts = _module_parts(rel_path)
        return not (parts and parts[0] == "obs")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in ctx.calls():
            name = _call_name(ctx, call)
            if name is None:
                continue
            if not (name == "span" or name.endswith("trace.span")):
                continue
            if name == "span" and "span" not in ctx.aliases:
                continue  # a local def span(...), not repro.obs.trace.span
            parent = ctx.parent_of(call)
            if isinstance(parent, ast.withitem):
                continue
            yield ctx.finding(
                self,
                call,
                "span(...) must be used directly as a context manager "
                "(`with span(...) as s:`); storing or passing the span "
                "object breaks nesting and the disabled fast path",
            )


# --------------------------------------------------------------------- #
# REP4xx — robustness
# --------------------------------------------------------------------- #
class BareExceptRule(Rule):
    id = "REP401"
    title = "bare except:"
    rationale = (
        "A bare except catches SystemExit and KeyboardInterrupt, so a "
        "worker stuck in one cannot be stopped cleanly and a lease is "
        "held until expiry.  Catch Exception (or BaseException with a "
        "re-raise) and say which."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.finding(
                    self,
                    node,
                    "bare except: catches KeyboardInterrupt/SystemExit; "
                    "name the exception type (Exception at the broadest)",
                )


class SilentExceptRule(Rule):
    id = "REP402"
    title = "broad exception silently swallowed"
    rationale = (
        "`except Exception: pass` in a worker/lease/service loop turns a "
        "crashed point into a silently-missing row — exactly the failure "
        "the campaign store's error column and the job registry exist to "
        "record.  Log it, record it, or re-raise."
    )

    BROAD = {"Exception", "BaseException"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(ctx, node.type):
                continue
            if all(
                isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in node.body
            ) or (
                len(node.body) == 1
                and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
            ):
                yield ctx.finding(
                    self,
                    node,
                    "broad exception silently swallowed; record the error "
                    "(store/job registry/log) or re-raise so failures stay "
                    "visible",
                )

    def _is_broad(self, ctx: ModuleContext, node: Optional[ast.expr]) -> bool:
        if node is None:
            return True  # bare except is also silent when its body is pass
        name = ctx.resolve_name(node)
        if name is not None and name.split(".")[-1] in self.BROAD:
            return True
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(ctx, element) for element in node.elts)
        return False


# --------------------------------------------------------------------- #
# REP5xx — dead surface
# --------------------------------------------------------------------- #
#: Where a reference counts as a production caller: the library, the
#: frozen harness and paper-figure benches, the documented usage.  Tests
#: are deliberately absent — a test is not a reason for code to exist.
CALLER_ROOTS = ("src", "benchmarks", "examples")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_Function = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_DEFINITIONS = (*_FUNCTIONS, ast.ClassDef)
_Definition = Union[_Function, ast.ClassDef]


class DeadSurfaceRule(Rule):
    id = "REP501"
    title = "public name without a production caller"
    rationale = (
        "A public function, class or method that only its own tests "
        "reference is surface to read, type-check and keep working for "
        "nobody.  Every public name under src/ is referenced (a Name, an "
        "Attribute, or a from-import outside __init__.py) somewhere in "
        "src/, benchmarks/ or examples/ outside its own definition; "
        "@register-ed components and dunders are exempt.  Delete the "
        "name with its tests, or allow it with the test or external "
        "caller that needs it."
    )
    reference_roots = CALLER_ROOTS

    def applies_to(self, rel_path: str) -> bool:
        return rel_path.startswith("src/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.references is None:
            return
        for node in self._public_definitions(ctx):
            own = sum(name == node.name for name in referenced_names(node))
            if ctx.references.names[node.name] <= own:
                yield ctx.finding(
                    self,
                    node,
                    f"{node.name!r} has no caller under "
                    f"{'/, '.join(CALLER_ROOTS)}/ outside its own definition; "
                    "delete it with its tests, or allow it with the reason "
                    "it stays",
                )

    def _public_definitions(self, ctx: ModuleContext) -> Iterator[_Definition]:
        """Top-level definitions and their members, registered ones excepted."""
        for node in ctx.tree.body:
            if not isinstance(node, _DEFINITIONS) or self._registered(ctx, node):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            for definition in (node, *members):
                if isinstance(definition, _DEFINITIONS) and not definition.name.startswith("_"):
                    yield definition

    @staticmethod
    def _registered(ctx: ModuleContext, node: _Definition) -> bool:
        return any(
            isinstance(decorator, ast.Call)
            and (ctx.resolve_name(decorator.func) or "").endswith("registry.register")
            for decorator in node.decorator_list
        )


class UnsetOptionRule(DeadSurfaceRule):
    """REP501's scope, caller roots and registration exemption, one level
    down: the parameters of the names REP501 keeps."""

    id = "REP502"
    title = "option without a production setter"
    rationale = (
        "A defaulted parameter nobody passes is a configuration the "
        "identity batteries must keep pinned for no caller.  Every "
        "defaulted parameter of a public function, method or class "
        "__init__ under src/ is passed - by keyword, by position or "
        "through a * / ** splat - at some call of that callee's identifier "
        "in src/, benchmarks/ or examples/.  Callees nobody calls are "
        "REP501's; register-ed components (their parameters come from "
        "spec JSON) and methods overriding a base-class signature are "
        "exempt.  Make the value a constant and delete the branch only "
        "another value reaches, or allow the parameter with the test "
        "seam or external caller that sets it."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.references is None:
            return
        for owner, function in self._public_callables(ctx):
            callee = owner.name if function.name == "__init__" else function.name
            sites = ctx.references.calls.get(callee)
            if sites is None or sites.splat:
                continue
            arguments = function.args
            positional = arguments.posonlyargs + arguments.args
            bound = isinstance(owner, ast.ClassDef) and not _is_static(function)
            defaulted = positional[len(positional) - len(arguments.defaults) :]
            unset = [
                parameter
                for parameter in defaulted
                if positional.index(parameter) - bound >= sites.positional
            ] + [
                parameter
                for parameter, default in zip(
                    arguments.kwonlyargs, arguments.kw_defaults, strict=True
                )
                if default is not None
            ]
            for parameter in unset:
                if parameter.arg not in sites.keywords:
                    yield ctx.finding(
                        self,
                        parameter,
                        f"no call of {callee!r} under {'/, '.join(CALLER_ROOTS)}/ "
                        f"passes {parameter.arg!r}; make it a constant, or allow "
                        "it with the test seam that sets it",
                    )

    def _public_callables(
        self, ctx: ModuleContext
    ) -> Iterator[Tuple[_Definition, _Function]]:
        """Public functions, public methods and the ``__init__`` of public classes."""
        classes = {node.name: node for node in ctx.tree.body if isinstance(node, ast.ClassDef)}
        for node in ctx.tree.body:
            if not isinstance(node, _DEFINITIONS) or node.name.startswith("_"):
                continue
            if self._registered(ctx, node):
                continue
            if not isinstance(node, ast.ClassDef):
                yield node, node
                continue
            for member in node.body:
                if (
                    isinstance(member, _FUNCTIONS)
                    and (member.name == "__init__" or not member.name.startswith("_"))
                    and not self._overrides(classes, node, member.name)
                ):
                    yield node, member

    def _overrides(
        self, classes: Dict[str, ast.ClassDef], owner: ast.ClassDef, method: str
    ) -> bool:
        """Whether a base fixes *method*'s signature; a base this module
        cannot see (imported: a ``Protocol``, a library class) is taken to."""
        for base in owner.bases:
            parent = classes.get(getattr(base, "id", ""))
            if (
                parent is None
                or any(getattr(member, "name", None) == method for member in parent.body)
                or self._overrides(classes, parent, method)
            ):
                return True
        return False


def _is_static(function: _Function) -> bool:
    return any(
        isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
        for decorator in function.decorator_list
    )


class RepresentationRule(Rule):
    id = "REP503"
    title = "second representation of the network or the solver"
    rationale = (
        "Paths are searched on Topology.index(), HiGHS is driven by "
        "routing/highs.py alone and per-arc quantities are vectors in "
        "arc-index order: a networkx import brings back a second graph of the "
        "network (with its own tie order), a scipy.optimize import a second "
        "solver front end, a dict built from arc_keys a second, name-keyed "
        "load vector.  Each has its owner modules.  Both imports also cost "
        "more start-up than the rest of the library: networkx is imported "
        "inside the one function that needs it, and scipy.optimize never "
        "(highs.py loads the binding's extension file)."
    )

    #: Import prefix -> the one module (under ``repro/``) allowed to import
    #: it, inside a function; ``None``: no module may.
    OWNERS = {"networkx": "topology/generators.py", "scipy.optimize": None}
    #: The modules that may build a dict from ``arc_keys``: the index itself
    #: (its ``arc_index``) and the dict oracle of the simulator.
    ARC_DICT_OWNERS = ("topology/index.py", "simulator/reference.py")

    def applies_to(self, rel_path: str) -> bool:
        return rel_path.startswith("src/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        module = "/".join(_module_parts(ctx.rel_path))
        in_functions = {
            id(inner)
            for node in ast.walk(ctx.tree)
            if isinstance(node, _FUNCTIONS)
            for inner in ast.walk(node)
        }
        for node in ast.walk(ctx.tree):
            if module not in self.ARC_DICT_OWNERS and _builds_arc_dict(node):
                yield ctx.finding(
                    self,
                    node,
                    "per-arc dict built from arc_keys; keep the quantity as a vector "
                    "over Topology.index() (REP503's owners: "
                    f"{', '.join(self.ARC_DICT_OWNERS)})",
                )
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for prefix, owner in self.OWNERS.items():
                if not any(name == prefix or name.startswith(prefix + ".") for name in names):
                    continue
                if owner is None:
                    message = (
                        f"{prefix} is never imported: routing/highs.py loads the HiGHS "
                        "binding from its extension file"
                    )
                elif module != owner:
                    message = f"{prefix} is imported only by {owner} (REP503's owner)"
                elif id(node) not in in_functions:
                    message = (
                        f"{prefix} is imported inside the function that needs it, "
                        "not at module level"
                    )
                else:
                    continue
                yield ctx.finding(self, node, message)


def _builds_arc_dict(node: ast.AST) -> bool:
    """A dict comprehension iterating, or a ``dict(...)`` /
    ``dict.fromkeys(...)`` call taking, something that reads ``arc_keys``."""
    if isinstance(node, ast.DictComp):
        sources: List[ast.AST] = [generator.iter for generator in node.generators]
    elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("dict", "dict.fromkeys"):
        sources = [*node.args, *node.keywords]
    else:
        return False
    return any(
        isinstance(inner, ast.Attribute) and inner.attr == "arc_keys"
        for source in sources
        for inner in ast.walk(source)
    )


ALL_RULES: Tuple[Rule, ...] = (
    WallClockRule(),
    UnseededRandomRule(),
    UnorderedReductionRule(),
    SetIterationRule(),
    StoreMutationRule(),
    ExplicitStoreIntentRule(),
    InterpolatedLabelRule(),
    LiteralMetricNameRule(),
    SpanContextManagerRule(),
    BareExceptRule(),
    SilentExceptRule(),
    DeadSurfaceRule(),
    UnsetOptionRule(),
    RepresentationRule(),
)


def rules_by_id() -> Dict[str, Rule]:
    return {rule.id: rule for rule in ALL_RULES}
