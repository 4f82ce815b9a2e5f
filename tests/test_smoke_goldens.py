"""The smoke grids' printed tables, pinned to committed goldens.

`make sweep-smoke` and `make cluster-smoke` run the argument vectors of
`tests/golden/smoke_argv.txt`; this test reruns the same vectors, each in
a fresh interpreter as make does, and requires the joined stdout of each
target to equal `tests/golden/<target>.out` byte for byte. Every row is
also verified fast == reference kernel by the grid itself (`--verify`),
so the goldens say that neither kernel drifted. The example scripts of
`EXAMPLES` are pinned the same way, to `tests/golden/<name>.out`. After
a change that really moves a printed digit, `make golden-update`
rewrites the goldens. The first sweep vector is also run twice against
one `--checkpoint` journal: the resumed run prints the same section of
the golden and appends no record.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.concurrency import ResultJournal

GOLDEN = Path(__file__).parent / "golden"
ROOT = GOLDEN.parents[1]

#: examples whose stdout is committed: golden name -> script
EXAMPLES = {"policy-comparison": "examples/policy_comparison.py"}


def smoke_vectors() -> dict[str, list[list[str]]]:
    """``{target: [argv, ...]}`` from the shared argument-vector file."""

    vectors: dict[str, list[list[str]]] = {}
    for line in (GOLDEN / "smoke_argv.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            target, *argv = line.split()
            vectors.setdefault(target, []).append(argv)
    return vectors


def _run(args: list[str]) -> str:
    """stdout of ``python *args`` in a fresh interpreter."""

    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    return subprocess.run(
        [sys.executable, *args],
        env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        check=True,
    ).stdout


def test_every_target_has_a_golden():
    targets = smoke_vectors()
    assert sorted(targets) == ["cluster-smoke", "sweep-smoke"]
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(
        [*targets, *EXAMPLES]
    )


def _assert_golden(name: str, out: str) -> None:
    assert out == (GOLDEN / f"{name}.out").read_text(), (
        f"{name} output moved; if that is intended, run "
        "`make golden-update` and name each moved line"
    )


@pytest.mark.parametrize("target", ["sweep-smoke", "cluster-smoke"])
def test_smoke_stdout_equals_golden(target):
    _assert_golden(target, "".join(
        _run(["-m", "repro.cli", *argv]) for argv in smoke_vectors()[target]
    ))


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_stdout_equals_golden(name):
    _assert_golden(name, _run([str(ROOT / EXAMPLES[name])]))


def golden_sections(text: str) -> list[str]:
    """A target's joined stdout split into one section per vector.

    Within one table the blocks are separated by a blank line, so a
    block header right after a row starts the next vector's table.
    """

    sections: list[list[str]] = [[]]
    for line in text.splitlines(keepends=True):
        if line.startswith("# ") and sections[-1] and sections[-1][-1].strip():
            sections.append([])
        sections[-1].append(line)
    return ["".join(lines) for lines in sections]


def test_sweep_resumes_from_its_checkpoint(tmp_path):
    vectors = smoke_vectors()["sweep-smoke"]
    sections = golden_sections((GOLDEN / "sweep-smoke.out").read_text())
    assert len(sections) == len(vectors)
    journal = tmp_path / "sweep.journal"
    argv = ["-m", "repro.cli", *vectors[0], "--checkpoint", str(journal)]
    assert _run(argv) == sections[0]
    size, records = journal.stat().st_size, len(ResultJournal(journal).load())
    assert records == sections[0].count(" ok ")  # one record per cell
    assert _run(argv) == sections[0]  # resumed: every cell journalled
    assert journal.stat().st_size == size
