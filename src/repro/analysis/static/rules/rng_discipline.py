"""``RNG-101`` / ``RNG-102`` / ``RNG-103`` — the RNG discipline.

PR 4's backend-equivalence proof rests on one invariant: every random
decision in the colonies comes from :class:`repro.parallel.rng.AntRngStreams`,
where ant ``i`` owns spawn child ``i`` of the launch seed. A generator
constructed anywhere else in ``repro.aco`` / ``repro.parallel`` creates a
parallel universe of randomness the differential harness cannot see, and
an ad-hoc ``.spawn()`` re-derives the stream topology in a second place
where it can silently drift from the one the checkpoints serialize.

Designated owners (exempt): ``parallel/rng.py`` (the stream family) and
``aco/seeding.py`` (the sequential engine's single sanctioned
``random.Random`` construction point).

``RNG-103`` guards the hidden process-wide streams every seeded stream
would otherwise share: module-level ``random.*`` draws and unseeded
``default_rng()`` in kernel/ant paths, legacy ``numpy.random.*`` draws
and global reseeding anywhere, and RNG imports in telemetry.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Set, Tuple

from ..core import Finding, FileContext, Rule, dotted_name, register

#: Packages under the stream discipline.
_SCOPED_HEADS = frozenset({"aco", "parallel"})

#: Module paths allowed to construct generators / spawn streams.
_OWNER_MODULES = frozenset({"parallel/rng.py", "aco/seeding.py"})

#: Dotted constructor names that mint a fresh generator.
_CONSTRUCTOR_TAILS = frozenset({"Random", "default_rng", "Generator", "SeedSequence"})


def _generator_aliases(tree: ast.AST) -> Set[str]:
    """Local names bound to generator constructors via from-imports."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("random", "numpy.random"):
                for alias in node.names:
                    if alias.name in _CONSTRUCTOR_TAILS:
                        aliases.add(alias.asname or alias.name)
    return aliases


@register
class NakedGeneratorConstructionRule(Rule):
    rule_id = "RNG-101"
    name = "naked-generator-construction"
    severity = "error"
    summary = (
        "RNG generator constructed in repro.aco/repro.parallel outside "
        "the designated stream modules"
    )
    rationale = (
        "Backend bit-equivalence holds because ant i's draw sequence "
        "depends only on (seed, i) via AntRngStreams' spawn indexing. A "
        "random.Random/default_rng/SeedSequence constructed elsewhere in "
        "the scheduler packages draws from a stream no harness tracks and "
        "no checkpoint restores. Route construction through "
        "parallel/rng.py or aco/seeding.py."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.package_head not in _SCOPED_HEADS:
            return
        if ctx.module_rel in _OWNER_MODULES:
            return
        aliases = _generator_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if not name:
                continue
            parts = name.split(".")
            tail = parts[-1]
            if tail not in _CONSTRUCTOR_TAILS:
                continue
            # Dotted spellings: random.Random, np.random.default_rng,
            # numpy.random.SeedSequence; bare spellings cover from-imports.
            dotted_hit = len(parts) >= 2 and parts[-2] == "random"
            bare_hit = len(parts) == 1 and name in aliases
            if dotted_hit or bare_hit:
                yield ctx.finding(
                    self,
                    node,
                    "%s(...) constructed outside the designated stream "
                    "modules; draw through AntRngStreams (parallel/rng.py) "
                    "or aco.seeding.launch_rng" % name,
                )


@register
class StreamSpawnOutsideOwnerRule(Rule):
    rule_id = "RNG-102"
    name = "stream-spawn-outside-owner"
    severity = "error"
    summary = ".spawn() called outside parallel/rng.py"
    rationale = (
        "Spawn indexing IS the equivalence contract: ant i owns child i, "
        "wavefront leaders are the lane-0 streams, and checkpoints "
        "serialize exactly that topology. A second spawn site re-derives "
        "the tree independently and drifts from what resume/restore "
        "expects, breaking draw-for-draw checkpoint recovery."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.package_head not in _SCOPED_HEADS:
            return
        if ctx.module_rel in _OWNER_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "spawn"
            ):
                yield ctx.finding(
                    self,
                    node,
                    ".spawn() outside parallel/rng.py; stream topology is "
                    "owned by AntRngStreams",
                )


#: Module-level ``random`` functions that draw from the hidden global stream.
_STDLIB_GLOBAL_DRAWS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "triangular", "gauss", "normalvariate",
        "expovariate", "betavariate", "getrandbits", "vonmisesvariate",
        "paretovariate", "weibullvariate", "lognormvariate",
    }
)

#: Legacy ``numpy.random`` functions that draw from the hidden global stream.
_NUMPY_GLOBAL_DRAWS = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "uniform", "normal",
        "standard_normal", "exponential", "poisson", "beta", "binomial",
    }
)


def _numpy_aliases(tree: ast.AST) -> Set[str]:
    aliases = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
    return aliases


def _global_state_calls(ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
    numpy_aliases = _numpy_aliases(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        parts = dotted_name(node.func).split(".")
        if len(parts) == 2 and parts[0] == "random":
            func = parts[1]
            if func == "seed":
                yield node, "global random.seed() reseeds every module's draws"
            elif func in _STDLIB_GLOBAL_DRAWS and ctx.in_kernel_path:
                yield node, (
                    "module-level random.%s() in a kernel/ant path; draw "
                    "from an injected random.Random" % func
                )
        elif len(parts) >= 3 and parts[0] in numpy_aliases and parts[1] == "random":
            func = parts[2]
            if func == "seed":
                yield node, "global numpy.random.seed() reseeds every module's draws"
            elif func in _NUMPY_GLOBAL_DRAWS:
                yield node, (
                    "legacy global numpy.random.%s(); use "
                    "numpy.random.default_rng(seed)" % func
                )
            elif (
                func == "default_rng"
                and ctx.in_kernel_path
                and not node.args
                and not node.keywords
            ):
                yield node, (
                    "numpy.random.default_rng() without a seed in a "
                    "kernel/ant path"
                )


def _telemetry_rng_imports(ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
    if ctx.package_head != "telemetry":
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "random" for alias in node.names):
                yield node, "telemetry imports the random module"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] == "random" or module.startswith("numpy.random"):
                yield node, "telemetry imports an RNG module"


@register
class GlobalRngStateRule(Rule):
    rule_id = "RNG-103"
    name = "global-rng-state"
    severity = "error"
    summary = (
        "Draw from or reseed process-wide RNG state (module-level random.*, "
        "legacy numpy.random.*, unseeded default_rng, telemetry RNG imports)"
    )
    rationale = (
        "Bit-identical seeded schedules hold because every draw comes from "
        "a stream derived from the run's seed. The module-level random and "
        "numpy.random generators are one hidden stream shared by every "
        "caller: a draw from it in a kernel path depends on what ran "
        "before, a global reseed perturbs every other module's draws, an "
        "unseeded default_rng() reads OS entropy, and a telemetry module "
        "holding an RNG can steer what it should only observe."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node, message in _global_state_calls(ctx):
            yield ctx.finding(self, node, message)
        for node, message in _telemetry_rng_imports(ctx):
            yield ctx.finding(self, node, message)
