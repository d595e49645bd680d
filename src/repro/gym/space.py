"""The design space: arbitrary valid N-cluster machine configurations.

The paper evaluates exactly two machines (1x8-way and 2x4-way).  This
module parameterizes the whole family those two points live in — N
clusters x per-cluster issue widths x dispatch-queue sizes x register-
file sizes x transfer-buffer depths x global-register counts — so the
search drivers (:mod:`repro.gym.drivers`) can ask "where does the
IPC-for-cycle-time trade actually pay off?" instead of comparing two
hand-picked machines.

A :class:`DesignPoint` is the compact, hashable genome of one machine;
:meth:`DesignPoint.to_config` expands it into a full
:class:`~repro.uarch.config.ProcessorConfig` and
:meth:`DesignPoint.assignment` into the matching modulo-N
:class:`~repro.core.registers.RegisterAssignment` (even/odd at N=2, the
paper's default).  Asymmetric points — e.g. one fat 4-wide cluster plus
a "cheap" 1-wide cluster in the style of ineffectuality steering — are
first-class: each cluster carries its own width/queue/registers.

:class:`DesignSpace` owns sampling (seeded, deterministic), validation
(typed :class:`~repro.errors.ConfigError` for every infeasible point,
riding :mod:`repro.robustness.validate`), canonicalization (clusters
sorted fattest-first, so searches deduplicate permuted genomes), and the
genetic operators (mutate/crossover) the evolutionary driver uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping

from repro.core.registers import RegisterAssignment
from repro.errors import ConfigError
from repro.isa.registers import Register, RegisterClass, allocatable_registers
from repro.robustness.validate import validate_assignment, validate_config
from repro.uarch.config import ClusterConfig, IssueRules, ProcessorConfig

#: How many times rejection sampling retries before declaring the space
#: over-constrained (a configuration error, not an infinite loop).
MAX_SAMPLE_ATTEMPTS = 200


def issue_rules_for(width: int) -> IssueRules:
    """Per-class issue limits for a cluster of ``width`` (Table 1 shape).

    Reproduces the paper's rows exactly: width 8 -> 8/4/4/4 (the single-
    cluster machine), width 4 -> 4/2/2/2 (one dual cluster), width 2 ->
    2/1/1/1 (one 2x2-way cluster).
    """
    if width < 1:
        raise ConfigError("cluster issue width must be >= 1", width=width)
    half = max(1, (width + 1) // 2)
    return IssueRules(
        total=width, integer=width, floating_point=half, memory=half, control=half
    )


def extra_global_registers(count: int) -> tuple[Register, ...]:
    """The ``count`` registers widened to global beyond SP/GP.

    Deterministic: the highest-index allocatable integer registers (the
    ones the paper's even/odd map would otherwise localize), so a point's
    genome fully determines its register assignment.
    """
    if count < 0:
        raise ConfigError("extra_globals must be >= 0", extra_globals=count)
    pool = allocatable_registers(RegisterClass.INT)
    if count > len(pool):
        raise ConfigError(
            f"extra_globals {count} exceeds the {len(pool)} allocatable "
            "integer registers",
            extra_globals=count,
        )
    return tuple(pool[len(pool) - count:]) if count else ()


@dataclass(frozen=True)
class ClusterSpec:
    """The genome of one cluster: width, queue depth, register file size."""

    width: int = 4
    queue_entries: int = 64
    registers: int = 64  # physical registers per class (int and fp alike)


@dataclass(frozen=True)
class DesignPoint:
    """One machine in the design space (compact, hashable, serializable)."""

    clusters: tuple[ClusterSpec, ...]
    #: Operand- and result-transfer-buffer entries per cluster (ignored,
    #: i.e. forced to zero, on single-cluster machines).
    buffer_entries: int = 8
    #: Integer registers widened to global beyond the stack/global
    #: pointers (read-port-pressure vs transfer-traffic trade).
    extra_globals: int = 0

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @property
    def total_width(self) -> int:
        return sum(c.width for c in self.clusters)

    @property
    def slug(self) -> str:
        """Deterministic human-readable name, e.g. ``gym-4w64q64r+1w16q32r-b8-g2``."""
        parts = "+".join(
            f"{c.width}w{c.queue_entries}q{c.registers}r" for c in self.clusters
        )
        return f"gym-{parts}-b{self.buffer_entries}-g{self.extra_globals}"

    def as_dict(self) -> dict:
        """JSON-native encoding (stable field order; round-trips exactly)."""
        return {
            "clusters": [
                {
                    "width": c.width,
                    "queue_entries": c.queue_entries,
                    "registers": c.registers,
                }
                for c in self.clusters
            ],
            "buffer_entries": self.buffer_entries,
            "extra_globals": self.extra_globals,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "DesignPoint":
        try:
            clusters = tuple(
                ClusterSpec(
                    width=int(c["width"]),
                    queue_entries=int(c["queue_entries"]),
                    registers=int(c["registers"]),
                )
                for c in payload["clusters"]
            )
            return cls(
                clusters=clusters,
                buffer_entries=int(payload["buffer_entries"]),
                extra_globals=int(payload["extra_globals"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigError(
                f"malformed design-point payload: {error}", payload=repr(payload)
            ) from None

    def to_config(self) -> ProcessorConfig:
        """Expand the genome into a full :class:`ProcessorConfig`.

        The shared front end scales with total width by the paper's own
        ratios: fetch/dispatch = 1.5x total issue width (12 for the
        8-wide machines), retirement = total width.  The 2x(4-wide,
        64-entry, 64-register) point expands to exactly the paper's
        dual-cluster machine, and 1x(8, 128, 128) to its single-cluster
        baseline.
        """
        multi = self.num_clusters > 1
        clusters = tuple(
            ClusterConfig(
                dispatch_queue_entries=spec.queue_entries,
                int_physical_registers=spec.registers,
                fp_physical_registers=spec.registers,
                issue=issue_rules_for(spec.width),
                operand_buffer_entries=self.buffer_entries if multi else 0,
                result_buffer_entries=self.buffer_entries if multi else 0,
                fp_dividers=max(1, spec.width // 4),
            )
            for spec in self.clusters
        )
        total = self.total_width
        front = max(2, total + (total + 1) // 2)
        return ProcessorConfig(
            name=self.slug,
            clusters=clusters,
            fetch_width=front,
            dispatch_width=front,
            retire_width=max(1, total),
        )

    def assignment(self) -> RegisterAssignment:
        """The modulo-N register map with this point's extra globals."""
        return RegisterAssignment.round_robin(
            self.num_clusters, extra_global_registers(self.extra_globals)
        )


@dataclass(frozen=True)
class DesignSpace:
    """Bounds and axis choices the samplers and genetic operators draw from."""

    min_clusters: int = 1
    max_clusters: int = 4
    widths: tuple[int, ...] = (1, 2, 4, 8)
    queue_entries: tuple[int, ...] = (16, 32, 64, 128)
    registers: tuple[int, ...] = (16, 32, 64, 128)
    buffer_entries: tuple[int, ...] = (1, 2, 4, 8, 16)
    extra_globals: tuple[int, ...] = (0, 2, 4, 8)
    #: Permit per-cluster width/queue/register differences ("cheap"
    #: clusters); symmetric-only spaces set this False.
    allow_asymmetric: bool = True

    def __post_init__(self) -> None:
        if self.min_clusters < 1 or self.max_clusters < self.min_clusters:
            raise ConfigError(
                "design space needs 1 <= min_clusters <= max_clusters",
                min_clusters=self.min_clusters,
                max_clusters=self.max_clusters,
            )
        for name in ("widths", "queue_entries", "registers", "buffer_entries",
                     "extra_globals"):
            axis = getattr(self, name)
            if not axis:
                raise ConfigError(f"design-space axis {name!r} is empty", axis=name)

    # ------------------------------------------------------------ validation
    def validate(
        self, point: DesignPoint
    ) -> tuple[ProcessorConfig, RegisterAssignment]:
        """Accept a feasible point (returning its expansion) or raise.

        Feasibility is decided by the same pre-flight validators every
        simulation runs (:mod:`repro.robustness.validate`): structural
        config sanity plus the register-file capacity constraint — each
        cluster must physically hold every architectural register it can
        rename (its modulo-N locals plus all globals).  Infeasible points
        raise a typed :class:`ConfigError` naming the violated
        constraint; nothing is clamped silently.

        The space treats a genome and its permutations as one machine
        (:meth:`canonicalize`), so feasibility is that of the canonical
        order.  The modulo-N map gives cluster indices different numbers
        of registers to rename, so a listed order can pass the
        validators while the canonical one fails: such a point raises
        too.
        """
        if not point.clusters:
            raise ConfigError("design point has no clusters", point=point.as_dict())
        for index, spec in enumerate(point.clusters):
            for attr in ("width", "queue_entries", "registers"):
                value = getattr(spec, attr)
                if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                    raise ConfigError(
                        f"cluster {attr} must be a positive integer, got {value!r}",
                        cluster=index,
                        field=attr,
                    )
        if point.buffer_entries < 0:
            raise ConfigError(
                "buffer_entries must be >= 0", buffer_entries=point.buffer_entries
            )
        config = point.to_config()
        assignment = point.assignment()
        validate_config(config)
        validate_assignment(assignment, config)
        canonical = self.canonicalize(point)
        if canonical.clusters != point.clusters:
            try:
                self.validate(canonical)
            except ConfigError as error:
                raise ConfigError(
                    f"infeasible in canonical cluster order: {error.message}",
                    canonical=canonical.slug,
                    **error.context,
                ) from None
        return config, assignment

    def is_feasible(self, point: DesignPoint) -> bool:
        try:
            self.validate(point)
        except ConfigError:
            return False
        return True

    def contains(self, point: DesignPoint) -> bool:
        """Axis membership (distinct from feasibility): every coordinate
        drawn from this space's choice sets and bounds."""
        if not self.min_clusters <= point.num_clusters <= self.max_clusters:
            return False
        if not self.allow_asymmetric and len({c for c in point.clusters}) > 1:
            return False
        return (
            all(
                c.width in self.widths
                and c.queue_entries in self.queue_entries
                and c.registers in self.registers
                for c in point.clusters
            )
            and (
                point.buffer_entries in self.buffer_entries
                # Canonical single-cluster points zero their (unused)
                # transfer buffers; they are still members.
                or (point.num_clusters == 1 and point.buffer_entries == 0)
            )
            and point.extra_globals in self.extra_globals
        )

    # --------------------------------------------------------- normalization
    def canonicalize(self, point: DesignPoint) -> DesignPoint:
        """Stable normal form: clusters sorted fattest-first.

        Under the modulo-N register map a permutation of clusters is the
        same machine up to register numbering, so searches treat permuted
        genomes as one point.  Idempotent; preserves feasibility (which
        :meth:`validate` decides on this form).
        """
        ordered = tuple(
            sorted(
                point.clusters,
                key=lambda c: (c.width, c.queue_entries, c.registers),
                reverse=True,
            )
        )
        buffers = point.buffer_entries if point.num_clusters > 1 else 0
        return replace(point, clusters=ordered, buffer_entries=buffers)

    # -------------------------------------------------------------- sampling
    def _sample_cluster(self, rng: random.Random) -> ClusterSpec:
        return ClusterSpec(
            width=rng.choice(self.widths),
            queue_entries=rng.choice(self.queue_entries),
            registers=rng.choice(self.registers),
        )

    def sample(self, rng: random.Random) -> DesignPoint:
        """One feasible, canonical point (seeded rejection sampling)."""
        for _ in range(MAX_SAMPLE_ATTEMPTS):
            n = rng.randint(self.min_clusters, self.max_clusters)
            if self.allow_asymmetric:
                clusters = tuple(self._sample_cluster(rng) for _ in range(n))
            else:
                clusters = (self._sample_cluster(rng),) * n
            point = self.canonicalize(
                DesignPoint(
                    clusters=clusters,
                    buffer_entries=rng.choice(self.buffer_entries),
                    extra_globals=rng.choice(self.extra_globals),
                )
            )
            if self.is_feasible(point):
                return point
        raise ConfigError(
            f"no feasible design point found in {MAX_SAMPLE_ATTEMPTS} draws; "
            "the space is over-constrained (e.g. every register-file choice "
            "smaller than the architectural namespace)",
            space=repr(self),
        )

    # ------------------------------------------------------------------ grid
    def grid(self) -> Iterator[DesignPoint]:
        """The symmetric lattice: N x width x buffers, with queue/register
        files scaled to the width (16 entries/registers per issue slot,
        the paper's own ratio: 4-wide -> 64, 8-wide -> 128).

        Infeasible lattice points (e.g. a 1-wide cluster whose scaled
        16-register file cannot hold the monolithic namespace) are
        skipped, exactly as the samplers reject them.
        """
        buffers = sorted({self.buffer_entries[0], self.buffer_entries[-1]})
        for n in range(self.min_clusters, self.max_clusters + 1):
            for width in self.widths:
                queue = self._nearest(self.queue_entries, 16 * width)
                regs = self._nearest(self.registers, 16 * width)
                spec = ClusterSpec(width=width, queue_entries=queue, registers=regs)
                for depth in buffers if n > 1 else buffers[:1]:
                    point = self.canonicalize(
                        DesignPoint(clusters=(spec,) * n, buffer_entries=depth)
                    )
                    if self.is_feasible(point):
                        yield point

    @staticmethod
    def _nearest(axis: tuple[int, ...], target: int) -> int:
        return min(axis, key=lambda v: (abs(v - target), v))

    # ------------------------------------------------------ genetic operators
    def mutate(self, point: DesignPoint, rng: random.Random) -> DesignPoint:
        """Perturb one axis; always returns a feasible canonical point."""
        for _ in range(MAX_SAMPLE_ATTEMPTS):
            candidate = self._mutate_once(point, rng)
            if self.is_feasible(candidate):
                return candidate
        return point  # pathological space: keep the parent

    def _mutate_once(self, point: DesignPoint, rng: random.Random) -> DesignPoint:
        moves = ["width", "queue", "registers", "buffers", "globals"]
        if point.num_clusters < self.max_clusters:
            moves.append("grow")
        if point.num_clusters > self.min_clusters:
            moves.append("shrink")
        move = rng.choice(moves)
        clusters = list(point.clusters)
        index = rng.randrange(len(clusters))
        if move == "grow":
            clusters.append(self._sample_cluster(rng))
        elif move == "shrink":
            clusters.pop(index)
        elif move == "width":
            clusters[index] = replace(clusters[index], width=rng.choice(self.widths))
        elif move == "queue":
            clusters[index] = replace(
                clusters[index], queue_entries=rng.choice(self.queue_entries)
            )
        elif move == "registers":
            clusters[index] = replace(
                clusters[index], registers=rng.choice(self.registers)
            )
        if not self.allow_asymmetric:
            clusters = [clusters[index]] * len(clusters)
        mutated = DesignPoint(
            clusters=tuple(clusters),
            buffer_entries=(
                rng.choice(self.buffer_entries)
                if move == "buffers"
                else point.buffer_entries
            ),
            extra_globals=(
                rng.choice(self.extra_globals)
                if move == "globals"
                else point.extra_globals
            ),
        )
        return self.canonicalize(mutated)

    def crossover(
        self, a: DesignPoint, b: DesignPoint, rng: random.Random
    ) -> DesignPoint:
        """Child from two parents: clusters drawn from both pools, scalar
        genes from either parent.  Feasible and canonical (falls back to
        the fitter-by-convention first parent if recombination cannot
        produce a feasible child)."""
        for _ in range(MAX_SAMPLE_ATTEMPTS):
            pool = list(a.clusters) + list(b.clusters)
            n = rng.randint(
                max(self.min_clusters, 1),
                min(self.max_clusters, len(pool)),
            )
            clusters = tuple(rng.choice(pool) for _ in range(n))
            if not self.allow_asymmetric:
                clusters = (clusters[0],) * n
            child = self.canonicalize(
                DesignPoint(
                    clusters=clusters,
                    buffer_entries=rng.choice((a.buffer_entries, b.buffer_entries)),
                    extra_globals=rng.choice((a.extra_globals, b.extra_globals)),
                )
            )
            if self.is_feasible(child):
                return child
        return a


#: The paper's two machines, expressed as gym genomes (used by tests and
#: the EXPERIMENTS.md recipe: the 2x4 point should sit on the frontier).
PAPER_SINGLE_POINT = DesignPoint(
    clusters=(ClusterSpec(width=8, queue_entries=128, registers=128),),
    buffer_entries=0,
)
PAPER_DUAL_POINT = DesignPoint(
    clusters=(ClusterSpec(width=4, queue_entries=64, registers=64),) * 2,
    buffer_entries=8,
)
