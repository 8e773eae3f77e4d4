"""Seeded inputs and operation lists for the benchmark workloads.

Each workload writes its definition (and forms) files into a directory and
returns the list of operations one round runs.  The program only ever sees
those files.  The same seed writes the same bytes.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Op:
    """One cold CLI command and the outcome the correctness gate expects."""

    id: str  # stable across seeds; the key of the golden digest
    command: str
    definition: str  # path of the definition file
    kind: str | None = None  # recurrence kind for `check` and `fit`
    forms: str | None = None  # forms file for `check`
    expected_exit: int = 0
    expected_fail: int = 0

    def argv(self) -> list[str]:
        """Arguments after the program name, as a user would type them."""
        out = [self.command]
        if self.kind:
            out.append(self.kind)
        out += [self.definition, "--json"]
        if self.forms:
            out += ["--forms", self.forms]
        return out

    def options(self) -> dict:
        """The options dict `lcslab.cli.run` receives for these arguments."""
        return {"kind": self.kind, "forms": self.forms, "p": "0", "lam": None}


def _definition(name, coords, frame, metric, xi, sample) -> dict:
    return {
        "name": name,
        "coords": list(coords),
        "frame": [list(r) for r in frame],
        "metric": [list(r) for r in metric],
        "xi": xi,
        "sample_point": {c: str(v) for c, v in zip(coords, sample)},
    }


def _lorentz_diag(n: int) -> list[list[str]]:
    return [["-1" if i == j == n - 1 else "1" if i == j else "0" for j in range(n)] for i in range(n)]


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return str(path)


# -- paper3 -----------------------------------------------------------------
#
# The three 3-D manifolds of the source paper, written out here so that the
# benchmark input does not move when the package's built-in table does.

PAPER3_FRAMES = {
    "example51": (("z*x", "z*y", "0"), ("0", "z", "0"), ("0", "0", "1")),
    "desitter3": (("z", "0", "0"), ("0", "z", "0"), ("0", "0", "z")),
    "flat3": (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")),
}
EXAMPLE51_COMMANDS = (
    ("check-lcs", None),
    ("curvature", None),
    ("fit", "SGR"),
    ("fit", "SGRR"),
    ("soliton", None),
    ("derived-conditions", None),
    ("conformance", None),
)
OTHER3_COMMANDS = ("check-lcs", "curvature", "derived-conditions")
# flat3 has alpha = 0, so it is not a concircular structure: these two
# commands report one failed check and exit 1 by design.
FLAT3_FAILS = {"check-lcs": 1, "derived-conditions": 1}


def _random_form_entry(rng: random.Random) -> str:
    """A small rational function in z, x, y; never the zero expression."""
    num = f"{rng.randint(1, 5)}*{rng.choice(['x', 'y', 'z', 'x*z', 'y*z'])} + {rng.randint(-4, 4)}"
    return f"({num})/z^{rng.randint(1, 3)}"


def build_paper3(seed: int, folder: Path) -> list[Op]:
    rng = random.Random(f"paper3:{seed}")
    ops: list[Op] = []
    paths = {}
    for name, frame in PAPER3_FRAMES.items():
        # the metric is constant, so any point certifies the signature
        sample = (2, 2, 2) if seed == DEFAULT_SEED else tuple(rng.randint(1, 9) for _ in range(3))
        paths[name] = _write(folder / f"{name}.json", _definition(name, "xyz", frame, _lorentz_diag(3), 3, sample))
    for command, kind in EXAMPLE51_COMMANDS:
        ops.append(Op(f"example51:{command}{':' + kind if kind else ''}", command, paths["example51"], kind))
    # example51 has no exact SGR 1-forms (`fit SGR` reports the witness), so
    # any forms leave a nonzero residual: exactly one failed check, exit 1.
    forms = {key: [_random_form_entry(rng) for _ in range(3)] for key in ("A", "B")}
    forms_path = _write(folder / "forms-sgr.json", forms)
    ops.append(Op("example51:check:SGR", "check", paths["example51"], "SGR", forms_path, 1, 1))
    for name in ("desitter3", "flat3"):
        for command in OTHER3_COMMANDS:
            fails = FLAT3_FAILS.get(command, 0) if name == "flat3" else 0
            ops.append(Op(f"{name}:{command}", command, paths[name], expected_exit=int(fails > 0), expected_fail=fails))
    return ops


# -- lcsN -------------------------------------------------------------------

# (family, n); desitter6 and n = 7 would take a round past what a run
# allows (n = 7: about 8 s per cold curvature)
LCSN_CASES = (("lcs", 4), ("desitter", 4), ("lcs", 5), ("desitter", 5), ("lcs", 6))
LCSN_COMMANDS = ("curvature", "derived-conditions", "check-lcs")
_NAME_POOL = "abcdefghkmnpqrsuvw"


def lcsn_definition(family: str, n: int, coords: list[str], sample) -> dict:
    """lcsN: E1 = t(x1 d1 + x2 d2), Ei = t di, En = dt; desitterN: Ei = t di.

    Metric diag(1, ..., 1, -1) and xi = En in both families.  At n = 3,
    lcsN is example51 and desitterN is desitter3.
    """
    t = coords[-1]
    frame = [["0"] * n for _ in range(n)]
    for i in range(n - 1):
        frame[i][i] = t
    if family == "lcs":
        frame[0][0] = f"{t}*{coords[0]}"
        frame[0][1] = f"{t}*{coords[1]}"
        frame[n - 1][n - 1] = "1"
    else:
        frame[n - 1][n - 1] = t
    return _definition(f"{family}{n}", coords, frame, _lorentz_diag(n), n, sample)


def build_lcsn(seed: int, folder: Path) -> list[Op]:
    rng = random.Random(f"lcsN:{seed}")
    ops = []
    for family, n in LCSN_CASES:
        if seed == DEFAULT_SEED:
            coords = [f"x{i}" for i in range(1, n)] + ["t"]
            sample = [2] * n
        else:
            # renamed coordinates and a moved sample point change the
            # printed reports, not the work
            coords = rng.sample(_NAME_POOL, n - 1) + ["t"]
            sample = [rng.randint(1, 9) for _ in range(n)]
        path = _write(folder / f"{family}{n}.json", lcsn_definition(family, n, coords, sample))
        for command in LCSN_COMMANDS:
            ops.append(Op(f"{family}{n}:{command}", command, path))
    return ops


# -- dense ------------------------------------------------------------------
#
# Upper-triangular 3-D frames: nonzero constant diagonal, two-term degree-1
# polynomials above it.  Each template fixes which monomials appear in the
# cells above the diagonal, the magnitudes of their coefficients and, for
# three of the five, which diagonal metric entry becomes c + v; the seed
# draws the signs.  Fixing all but the signs keeps the work per input close
# across seeds.  An odd count puts the median inside one template's times
# rather than in the gap between two.

DENSE_COORDS = ("x", "y", "z")
DENSE_TEMPLATES = (
    # ((monomials of frame cells 12, 13, 23), non-constant metric entry)
    ((("x", "z"), ("y", ""), ("z", "y")), None),
    ((("z", ""), ("x", ""), ("y", "x")), None),
    ((("z", "x"), ("x", "y"), ("", "x")), (0, "y")),
    ((("", "x"), ("x", ""), ("x", "z")), (2, "z")),
    ((("y", "x"), ("", "x"), ("x", "y")), (1, "y")),
)


def dense_definition(index: int, rng: random.Random) -> dict:
    cells, metric_entry = DENSE_TEMPLATES[index]
    magnitudes = random.Random(f"dense-template:{index}")

    def coef() -> int:
        return magnitudes.choice((1, 2, 3)) * rng.choice((1, -1))

    def poly(monomials) -> str:
        return " + ".join(f"{coef()}*{m}" if m else str(coef()) for m in monomials)

    frame = [["0"] * 3 for _ in range(3)]
    for i in range(3):
        frame[i][i] = str(coef())
    frame[0][1], frame[0][2], frame[1][2] = (poly(m) for m in cells)
    metric = _lorentz_diag(3)
    if metric_entry is not None:
        # c + v with v = 2 at the sample point keeps the entry's sign there
        k, v = metric_entry
        entry = f"{magnitudes.randint(3, 6)} + {v}"
        metric[k][k] = entry if k < 2 else f"-({entry})"
    return _definition(f"dense{index}", DENSE_COORDS, frame, metric, 3, (2, 2, 2))


def build_dense(seed: int, folder: Path) -> list[Op]:
    rng = random.Random(f"dense:{seed}")
    ops = []
    for index in range(len(DENSE_TEMPLATES)):
        path = _write(folder / f"dense{index}.json", dense_definition(index, rng))
        ops.append(Op(f"dense{index}:curvature", "curvature", path))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], list[Op]]
    # whole rounds a timed run always completes; with the round size this
    # fixes the op count the tail percentile is chosen for
    min_rounds: int
    # what the generator self-check runs in-process on each definition
    self_check: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper3",
            "the paper's 3-D built-ins, every command; small ops where start-up, import, load and report matter",
            build_paper3,
            min_rounds=5,
            self_check="",
        ),
        Workload(
            "lcsN",
            "lcs4-6 and desitter4-5: the only n != 3 inputs; scalar-layer bound, nearly every Expr a tiny zero, nabla R dominant",
            build_lcsn,
            min_rounds=2,
            self_check="check-lcs",
        ),
        Workload(
            "dense",
            "seeded 3-D frames with multi-term polynomial cells; kernel and GCD bound, few Exprs with many terms",
            build_dense,
            min_rounds=6,
            self_check="curvature",
        ),
    )
}
