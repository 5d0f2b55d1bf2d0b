"""The four benchmark workloads: seeded job lists and the routes each job compares.

A job is a plain dict naming a kind and a window. ``make_jobs`` draws a
workload's job list from a seed; ``run_job`` runs one job against the
``qgordon`` package and returns what was compared.

Every route is looked up through its module at call time (``cli.main``,
``qcombinat.gordon_product``, ...), never bound at import, so the tracer
and the tests can swap a wrapper in at that lookup site.

The seed permutes the jobs and pairs them with a zero-sum triple of window
offsets (-d, 0, +d). The offsets move a window dimension on which the work
barely depends, and because they sum to zero the number of verified cells
is the same for every seed. The single family-roundtrip job instead moves
q by at most 5 in 1200. That keeps the inputs seed-dependent while the
amount of work, and so the timings, do not drift with the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import traceback
from dataclasses import dataclass, field

WORKLOADS = {
    "gordon-verify": {
        "why": "partition enumeration through the verify-gordon command; "
        "the product and multisum do little here, so kernel changes should not move it",
        "window": "l=3, t=1..3, q<=50, xmax 12+-2",
    },
    "analytic-window": {
        "why": "gordon_product against the multisum at x=1 and solve, "
        "with no enumeration; where the product and multisum kernels show",
        "window": "l=3, t=1..3, x<=40+-4, q<=400",
    },
    "oracle-crosscheck": {
        "why": "hilbert_table against solve and the multisum on small series; "
        "dominated by the exact integer rank",
        "window": "k=2, e=1..3, m<=14+-1, w<=26",
    },
    "family-roundtrip": {
        "why": "solve to JSON, then check-recursions on the file; "
        "serialisation, loading and residuals, with the largest memory",
        "window": "k=4, x<=80, q<=1200+-5",
    },
}


def _offsets(rng: random.Random, band: int) -> list[int]:
    d = rng.randint(0, band)
    offsets = [-d, 0, d]
    rng.shuffle(offsets)
    return offsets


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of a workload; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "family-roundtrip":
        return [{"kind": "roundtrip", "k": 4, "xmax": 80, "qmax": 1200 + rng.randint(-5, 5)}]
    members = [1, 2, 3]
    rng.shuffle(members)
    if workload == "gordon-verify":
        return [
            {"kind": "verify-gordon", "l": 3, "t": t, "qmax": 50, "xmax": 12 + d}
            for t, d in zip(members, _offsets(rng, 2))
        ]
    if workload == "analytic-window":
        return [
            {"kind": "analytic", "l": 3, "t": t, "xmax": 40 + d, "qmax": 400}
            for t, d in zip(members, _offsets(rng, 4))
        ]
    return [
        {"kind": "crosscheck", "k": 2, "e": e, "mmax": 14 + d, "wmax": 26}
        for e, d in zip(members, _offsets(rng, 1))
    ]


def warmup_jobs(workload: str) -> list[dict]:
    """Tiny jobs of the workload's kinds, run before timing so that lazy
    set-up (first-call imports, argparse, caches) is paid in set-up time."""
    return {
        "gordon-verify": [{"kind": "verify-gordon", "l": 3, "t": 2, "qmax": 8, "xmax": 4}],
        "analytic-window": [{"kind": "analytic", "l": 3, "t": 2, "xmax": 8, "qmax": 12}],
        "oracle-crosscheck": [{"kind": "crosscheck", "k": 2, "e": 2, "mmax": 3, "wmax": 8}],
        "family-roundtrip": [{"kind": "roundtrip", "k": 4, "xmax": 4, "qmax": 12}],
    }[workload]


@dataclass
class Outcome:
    """What one job compared: each comparison is an exact equality of two routes."""

    attempted: int = 0
    failed: int = 0
    cells: int = 0
    stdout_bytes: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, label: str, equal: bool, cells: int) -> None:
        self.attempted += 1
        if equal:
            self.cells += cells
        else:
            self.failed += 1
            self.failures.append(f"mismatch: {label}")


def _cli(argv: list[str], stdout) -> int:
    from qgordon import cli

    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _verify_gordon(job: dict, out: Outcome, workdir: str) -> None:
    buf = io.StringIO()
    code = _cli(
        ["verify-gordon", "--l", str(job["l"]), "--t", str(job["t"]),
         "--qmax", str(job["qmax"]), "--xmax", str(job["xmax"])],
        buf,
    )
    text = buf.getvalue()
    out.stdout_bytes += len(text.encode())
    lines = [line.split("\t") for line in text.splitlines()]
    # the command reports three comparisons; a missing line is a failure
    for n in range(3):
        fields = lines[n] if n < len(lines) else ["?", "?", "q<=-1", "missing"]
        cells = int(fields[2].removeprefix("q<=")) + 1
        out.check(f"{fields[0]} vs {fields[1]} ({fields[2]})", fields[3] == "match", cells)
    if code != 0 and not out.failed:
        out.check(f"verify-gordon exit code {code}", False, 0)


def _analytic(job: dict, out: Outcome, workdir: str) -> None:
    from qgordon import qcombinat, selberg, series

    k, i, R, N = job["l"] - 1, job["t"] - 1, job["xmax"], job["qmax"]
    cond = qcombinat.GordonCondition(job["l"], job["t"])
    product = qcombinat.gordon_product(cond, N).row(0)
    multisum = qcombinat.andrews_gordon_multisum(k, i, R, N)
    member = selberg.solve(k, R, N).members[i]
    # x=1 is exact only up to the least weight of an (R+1)-part partition
    lossless = min(N, qcombinat.min_gordon_weight(k, R + 1) - 1)
    ms_x1 = series.specialize_x(multisum, "x=1")[0].row(0)[: lossless + 1]
    solve_x1 = series.specialize_x(member, "x=1")[0].row(0)[: lossless + 1]
    out.check(f"solve[F{i}] vs multisum", member == multisum, (R + 1) * (N + 1))
    out.check("product vs multisum(x=1)", product[: lossless + 1] == ms_x1, lossless + 1)
    out.check("product vs solve(x=1)", product[: lossless + 1] == solve_x1, lossless + 1)


def _crosscheck(job: dict, out: Outcome, workdir: str) -> None:
    from qgordon import ideal_quotient, qcombinat, selberg

    k, e, m, w = job["k"], job["e"], job["mmax"], job["wmax"]
    member = selberg.solve(k, m, w).members[e - 1]
    multisum = qcombinat.andrews_gordon_multisum(k, e - 1, m, w)
    table = ideal_quotient.hilbert_table(k, e, m, w).to_biseries()
    cells = (m + 1) * (w + 1)
    out.check(f"solve[F{e - 1}] vs multisum", member == multisum, cells)
    out.check(f"solve[F{e - 1}] vs ideal-quotient[e={e}]", member == table, cells)
    out.check(f"multisum vs ideal-quotient[e={e}]", multisum == table, cells)


@contextlib.contextmanager
def _tap_family(cli):
    """Keep the family `cli.solve` returns and the one `check-recursions`
    loads, so the two can be compared after the commands finish."""
    seen: dict = {}
    solve, check = cli.solve, cli.check_recursions

    def tap_solve(*args, **kwargs):
        seen["solved"] = solve(*args, **kwargs)
        return seen["solved"]

    def tap_check(fam):
        seen["loaded"] = fam
        return check(fam)

    cli.solve, cli.check_recursions = tap_solve, tap_check
    try:
        yield seen
    finally:
        cli.solve, cli.check_recursions = solve, check


def _roundtrip(job: dict, out: Outcome, workdir: str) -> None:
    from qgordon import cli

    k, R, N = job["k"], job["xmax"], job["qmax"]
    path = os.path.join(workdir, f"family-{os.getpid()}.json")
    cells = (R + 1) * (N + 1)
    try:
        with _tap_family(cli) as seen:
            with open(path, "w", encoding="utf-8") as fh:
                code = _cli(
                    ["solve", "--k", str(k), "--xmax", str(R), "--qmax", str(N),
                     "--format", "json"],
                    fh,
                )
            out.stdout_bytes += os.path.getsize(path)
            if code != 0:
                raise RuntimeError(f"solve exited with {code}")
            buf = io.StringIO()
            _cli(["check-recursions", "--input", path], buf)
        text = buf.getvalue()
        out.stdout_bytes += len(text.encode())
        lines = [line.split("\t") for line in text.splitlines()]
        # k difference equations and the shift equation, each a residual
        for n in range(k + 1):
            fields = lines[n] if n < len(lines) else ["missing", "missing"]
            out.check(f"residual {fields[0]}", fields[1] == "zero", cells)
        solved, loaded = seen.get("solved"), seen.get("loaded")
        for i in range(k + 1):
            equal = (
                solved is not None
                and loaded is not None
                and len(loaded.members) == k + 1
                and loaded.members[i] == solved.members[i]
            )
            out.check(f"loaded F{i} vs solved F{i}", equal, cells)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


_RUNNERS = {
    "verify-gordon": _verify_gordon,
    "analytic": _analytic,
    "crosscheck": _crosscheck,
    "roundtrip": _roundtrip,
}


def comparisons(job: dict) -> int:
    """Number of comparisons a job makes when it runs to the end."""
    return 2 * (job["k"] + 1) if job["kind"] == "roundtrip" else 3


def run_job(job: dict, workdir: str) -> Outcome:
    """Run one job; an exception fails every comparison it had not made yet."""
    out = Outcome()
    try:
        _RUNNERS[job["kind"]](job, out, workdir)
    except Exception:
        missing = max(comparisons(job) - out.attempted, 1)
        out.attempted += missing
        out.failed += missing
        out.failures.append(traceback.format_exc())
    return out


def dumps_jobs(jobs: list[dict]) -> str:
    """Canonical text of a job list, for recording and comparing."""
    return json.dumps(jobs, sort_keys=True, separators=(",", ":"))
