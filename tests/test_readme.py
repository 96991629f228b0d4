"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README has no python block under 'Library example'"
    exec(compile(block.group(1), f"{README}:library-example", "exec"), {})


def test_check_ids_are_the_cli_order():
    from conesym.cli import CHECK_ORDER

    listed = README.read_text().split("Check ids:", 1)[1].split(".", 1)[0]
    assert tuple(re.findall(r"`(\w+)`", listed)) == CHECK_ORDER


def test_quoted_caps_are_the_code_caps():
    from conesym.autgrp import AUT_VERTEX_CAP
    from conesym.cli import CHECKS

    text = README.read_text()
    section = text.split("the `max_n` column of `cli.CHECKS`", 1)[1].split("\n\n", 2)[1]
    quoted = {}
    for item in section.split("* ")[1:]:
        checks, n = re.match(r"(.*?) for `n <= (\d+)`", " ".join(item.split())).groups()
        quoted.update((check, int(n)) for check in re.findall(r"`(\w+)`", checks))
    assert quoted == {check: spec.max_n for check, spec in CHECKS.items()}
    vertex_cap = re.search(r"\(default (\d+) vertices,\s+`autgrp.AUT_VERTEX_CAP`", text)
    assert vertex_cap, "README no longer quotes the search vertex cap"
    assert int(vertex_cap.group(1)) == AUT_VERTEX_CAP


def test_quoted_bound_cap_is_the_code_cap():
    from conesym.cli import HYPERMETRIC_BOUND_MAX

    text = " ".join(README.read_text().split())
    quoted = re.search(r"`--hypermetric-bound` is refused above (\d+) \(`cli.HYPERMETRIC_BOUND_MAX`\)", text)
    assert quoted, "README no longer quotes the coefficient bound cap"
    assert int(quoted.group(1)) == HYPERMETRIC_BOUND_MAX


def test_quoted_n_max_cap_is_the_code_cap():
    from conesym.cli import MAX_N

    text = " ".join(README.read_text().split())
    quoted = re.search(r"`--n-max` is refused above (\d+) \(`cli.MAX_N`", text)
    assert quoted, "README no longer quotes the n_max cap"
    assert int(quoted.group(1)) == MAX_N


def test_quoted_export_cap_is_the_code_cap():
    from conesym.cli import EXPORT_MAX_N

    text = " ".join(README.read_text().split())
    quoted = re.search(r"`--export` is refused above `n = (\d+)` \(`cli.EXPORT_MAX_N`", text)
    assert quoted, "README no longer quotes the export cap"
    assert int(quoted.group(1)) == EXPORT_MAX_N


def test_quoted_sweep_figures_are_the_sweep():
    from conesym.cones import _sorted_representatives, hypermetric_sweep

    text = " ".join(README.read_text().split())
    quoted = re.search(
        r"At `n = 6`, bound 3, that is (\d+) representatives for ([\d,]+) coefficient vectors", text
    )
    assert quoted, "README no longer quotes the sweep's figures at n = 6, bound 3"
    reps, vectors = quoted.groups()
    assert len(list(_sorted_representatives(6, 3))) == int(reps)
    assert hypermetric_sweep(6, 3).vector_count == int(vectors.replace(",", ""))
