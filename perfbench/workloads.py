"""The benchmark's fixed workloads and the configs they feed the program.

Every workload is a fixed list of jobs.  A job is one `zipzeta` CLI
invocation; the configs it reads are generated here from the benchmark's
own Cartan matrices, so the program sees only JSON.  The seed of a run
sets only the order in which the jobs run.

`check_inputs` recomputes the size of every generated input from the
Cartan matrix alone (Weyl group orders through fundamental-weight
orbits, shares no code with the program) and compares it with the value
known from the literature, so a miswritten matrix cannot silently
shrink a workload.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `python -m zipzeta.cli <args>`.

    `config` names the generated config the job reads, if any; its path
    replaces the literal "{config}" in args.
    """

    name: str
    args: tuple
    config: str | None = None
    sizes: dict = field(default_factory=dict, compare=False, hash=False)

    def argv(self, config_dir):
        path = str(Path(config_dir) / f"{self.config}.json") if self.config else ""
        return [path if a == "{config}" else a for a in self.args]


def cartan(family, rank):
    """Cartan matrix with entry [i][j] = <alpha_j, alpha_i^vee>.

    A, B and D are numbered along the chain (B: the last node is short,
    D: the last node hangs off node rank-2).  E6 uses Bourbaki labels:
    the chain 1-3-4-5-6 with node 2 attached to node 4.
    """
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def join(i, j, cij=-1, cji=-1):
        m[i - 1][j - 1] = cij
        m[j - 1][i - 1] = cji

    if family == "E":
        assert rank == 6
        for i, j in ((1, 3), (3, 4), (4, 5), (5, 6), (2, 4)):
            join(i, j)
    elif family == "D":
        for i in range(1, rank - 1):
            join(i, i + 1)
        join(rank - 2, rank)
    else:
        for i in range(1, rank):
            join(i, i + 1)
        if family == "B":
            join(rank, rank - 1, -2, -1)
    return m


def block_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def _orbit_size(cm, gens, j):
    """Size of the W_gens-orbit of the fundamental weight omega_j.

    s_i(lam) = lam - lam_i * alpha_i, with alpha_i in fundamental-weight
    coordinates the i-th column of the Cartan matrix.
    """
    n = len(cm)
    cols = {i: [cm[r][i - 1] for r in range(n)] for i in gens}
    start = tuple(1 if k == j - 1 else 0 for k in range(n))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for lam in frontier:
            for i, col in cols.items():
                c = lam[i - 1]
                if c:
                    img = tuple(x - c * a for x, a in zip(lam, col))
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
        frontier = nxt
    return len(seen)


def weyl_order(cm, nodes):
    """|W_nodes| as a product of fundamental-weight orbit sizes along
    the chain nodes, nodes minus its largest index, and so on."""
    nodes = sorted(nodes)
    order = 1
    while nodes:
        order *= _orbit_size(cm, nodes, nodes[-1])
        nodes.pop()
    return order


def _zip_config(cm, parabolic, **extra):
    doc = {"schema": 1, "cartan": cm, "I": sorted(parabolic)}
    doc.update(extra)
    return doc


def _all_but(rank, *removed):
    return [i for i in range(1, rank + 1) if i not in removed]


def _reversal(rank):
    return {"diagram_perm": list(range(rank, 0, -1))}


def _a3a3_swap():
    """A3 x A3 with a component group {1, sigma}, sigma swapping the
    factors."""
    return {
        "elements": ["1", "sigma"],
        "table": [[0, 1], [1, 0]],
        "diagram_action": {"1": [1, 2, 3, 4, 5, 6],
                           "sigma": [4, 5, 6, 1, 2, 3]},
    }


def configs():
    """Every generated config, by name, with its expected sizes: |W|,
    |W^I| and |Omega| from the literature."""
    e6 = cartan("E", 6)
    a7 = cartan("A", 7)
    a6 = cartan("A", 6)
    a5 = cartan("A", 5)
    return {
        "e6-a5": (_zip_config(e6, _all_but(6, 2),
                              phi0={"diagram_perm": [6, 2, 5, 4, 3, 1]}),
                  {"W": 51840, "W^I": 72}),
        "e6-d5": (_zip_config(e6, _all_but(6, 1)), {"W": 51840, "W^I": 27}),
        "b6-b5": (_zip_config(cartan("B", 6), _all_but(6, 1)),
                  {"W": 46080, "W^I": 12}),
        "a7-mid": (_zip_config(a7, _all_but(7, 4), phi0=_reversal(7)),
                   {"W": 40320, "W^I": 70}),
        "d6-d5": (_zip_config(cartan("D", 6), _all_but(6, 1)),
                  {"W": 23040, "W^I": 12}),
        "a6": (_zip_config(a6, []), {"W": 5040, "W^I": 5040}),
        "a6-flip": (_zip_config(a6, [], phi0=_reversal(6)),
                    {"W": 5040, "W^I": 5040}),
        "b5": (_zip_config(cartan("B", 5), []), {"W": 3840, "W^I": 3840}),
        "d5-q4": (_zip_config(cartan("D", 5), [], q0=4),
                  {"W": 1920, "W^I": 1920}),
        "a3a3-swap": (_zip_config(block_sum(cartan("A", 3), cartan("A", 3)),
                                  [], omega=_a3a3_swap(),
                                  theta=["1", "sigma"]),
                      {"W": 576, "W^I": 576, "Omega": 2}),
        "bt-6-3": (_zip_config(a5, _all_but(5, 3)),
                   {"W": 720, "W^I": math.comb(6, 3)}),
        "bt-8-4": (_zip_config(a7, _all_but(7, 4)),
                   {"W": 40320, "W^I": math.comb(8, 4)}),
    }


def _oracle(h, d, p, k, scan):
    """A census job; scan is the number of h-by-h matrices over F_(p^k)
    the census scans, written out so a mistyped tuple shows."""
    return Job(f"oracle-{h}{d}{p}{k}",
               ("oracle", "--h", str(h), "--d", str(d), "--p", str(p),
                "--k", str(k)),
               sizes={"scan": scan})


WORKLOADS = {
    # Large Weyl groups with a maximal parabolic: |W^I| is tiny, so the
    # time is the enumeration of all of W and its word sort.
    "coxeter": [Job(f"zeta-{c}", ("zeta", "{config}"), c)
                for c in ("e6-a5", "e6-d5", "b6-b5", "a7-mid", "d6-d5")],
    # I empty, so |W^I| = |W|: canonical decompositions, Theta-orbits and
    # Galois cycles, and multi-MB JSON documents.  Trivial and twisted
    # data use the same layers differently.
    "strata": [
        Job("strata-a6", ("strata", "{config}"), "a6"),
        Job("zeta-a6", ("zeta", "{config}"), "a6"),
        Job("strata-a6-flip", ("strata", "{config}"), "a6-flip"),
        Job("strata-b5", ("strata", "{config}"), "b5"),
        Job("strata-d5-q4", ("strata", "{config}"), "d5-q4"),
        Job("strata-a3a3-swap", ("strata", "{config}"), "a3a3-swap"),
    ],
    # The zeta ring: symbolic series and point counts, plus one numeric
    # series that guards the Fraction route.
    "series": [
        Job("zeta-bt63-s20", ("zeta", "{config}", "--series", "20"), "bt-6-3"),
        Job("zeta-bt84-s10", ("zeta", "{config}", "--series", "10"), "bt-8-4"),
        Job("count-a6-v20", ("count", "{config}", "--v", "20"), "a6"),
        Job("bt-637-s100", ("bt", "--h", "6", "--d", "3", "--p", "7",
                            "--series", "100")),
    ],
    # The finite-field census; (3,1,3,1) is the slowest single job.
    "census": [_oracle(*c) for c in ((2, 1, 3, 2, 6561), (2, 1, 7, 1, 2401),
                                     (2, 1, 5, 1, 625), (3, 1, 2, 1, 512),
                                     (3, 2, 2, 1, 512), (2, 1, 2, 3, 4096),
                                     (3, 1, 3, 1, 19683))],
}


def write_configs(workload, config_dir):
    """Write the configs the workload's jobs read; return their names."""
    table = configs()
    names = sorted({j.config for j in WORKLOADS[workload] if j.config})
    config_dir = Path(config_dir)
    config_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        (config_dir / f"{name}.json").write_text(
            json.dumps(table[name][0], indent=1, sort_keys=True) + "\n")
    return names


def check_inputs(workload):
    """Assert the known size of every input the workload uses."""
    table = configs()
    for job in WORKLOADS[workload]:
        if job.config:
            doc, known = table[job.config]
            cm = doc["cartan"]
            order = weyl_order(cm, range(1, len(cm) + 1))
            quotient = order // weyl_order(cm, doc["I"])
            omega = len(doc.get("omega", {}).get("elements", ["1"]))
            got = {"W": order, "W^I": quotient, "Omega": omega}
            want = {"Omega": 1, **known}
            if got != want:
                raise AssertionError(
                    f"{job.name}: config {job.config} has sizes {got}, "
                    f"expected {want}")
        if job.args[0] == "bt":
            h, d = int(job.args[2]), int(job.args[4])
            cm = cartan("A", h - 1)
            quotient = (weyl_order(cm, range(1, h))
                        // weyl_order(cm, _all_but(h - 1, d)))
            if quotient != math.comb(h, d):
                raise AssertionError(f"{job.name}: |W^I| = {quotient}")
        if job.args[0] == "oracle":
            h, p, k = (int(job.args[i]) for i in (2, 6, 8))
            if (p ** k) ** (h * h) != job.sizes["scan"]:
                raise AssertionError(f"{job.name}: scan size is not "
                                     f"{job.sizes['scan']}")

# The workloads BENCHMARK.json names.  On a shared 2-vCPU machine whose
# speed switches between states about 40% apart every few seconds, a
# run must last about a minute before its medians repeat within the
# bounds, and the run budget allows that for two workloads, not four.
# Each pairs a list that stresses a layer with one that leaves that layer
# nearly idle; the four focused lists stay runnable for per-layer traces.
WORKLOADS["coxeter-strata"] = WORKLOADS["coxeter"] + WORKLOADS["strata"]
WORKLOADS["series-census"] = WORKLOADS["series"] + WORKLOADS["census"]
