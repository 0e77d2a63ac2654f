"""The per-architecture record: every architecture fact pinned, dispatch in one place."""
import ast
from pathlib import Path

import pytest

import gatenoise
from gatenoise.rates import (
    ARCHITECTURES,
    ArchitectureModel,
    ArchKind,
    NoiseKind,
    gate_count,
    scaling_scan,
    worst_case_pair,
)
from gatenoise.register import GateDrive

SRC = Path(gatenoise.__file__).parent
SCAN_LENGTHS = [1, 2, 3, 4, 8, 64]

# Worst-case right labels (the left label is all-up) at L = 1..8; the
# hypercube at powers of two only, the bus with its default drive (none at L = 1).
WORST_CASE = {
    ArchKind.FSA_UNIFORM: {1: "+", 2: "+-", 3: "++-", 4: "++--", 5: "+++--", 6: "+++---",
                           7: "++++---", 8: "++++----"},
    ArchKind.FSA_INDEPENDENT: {1: "+", 2: "-+", 3: "-++", 4: "--++", 5: "--+++",
                               6: "---+++", 7: "---++++", 8: "----++++"},
    ArchKind.BUS: {2: "-+", 3: "-++", 4: "-+++", 5: "-++++", 6: "-+++++", 7: "-++++++",
                   8: "-+++++++"},
    ArchKind.HYPERCUBE: {2: "+-", 4: "+--+", 8: "+--+-++-"},
    ArchKind.PROCESSOR_CORE: {1: "-", 2: "--", 3: "---", 4: "----", 5: "-----",
                              6: "------", 7: "-------", 8: "--------"},
}

GATE_COUNT = {
    ArchKind.FSA_UNIFORM: {1: 1, 2: 3, 3: 6, 4: 10, 5: 15, 6: 21, 7: 28, 8: 36},
    ArchKind.FSA_INDEPENDENT: {1: 1, 2: 3, 3: 6, 4: 10, 5: 15, 6: 21, 7: 28, 8: 36},
    ArchKind.BUS: {n: n for n in range(1, 9)},
    ArchKind.HYPERCUBE: {2: 1, 4: 4, 8: 12},
    ArchKind.PROCESSOR_CORE: {n: n for n in range(1, 9)},
}

# Relative rates at SCAN_LENGTHS; None marks a length the law refuses.
SCAN = {
    (ArchKind.FSA_UNIFORM, NoiseKind.CENTRAL): [0.0, 16.0, 64.0, 256.0, 4096.0, 16777216.0],
    (ArchKind.FSA_INDEPENDENT, NoiseKind.INDEPENDENT): [0.0, 1.0, 2.0, 4.0, 16.0, 1024.0],
    (ArchKind.BUS, NoiseKind.CENTRAL): [1.0, 4.0, 9.0, 16.0, 64.0, 4096.0],
    (ArchKind.HYPERCUBE, NoiseKind.INDEPENDENT): [None, 1.0, None, 4.0, 12.0, 192.0],
    (ArchKind.PROCESSOR_CORE, NoiseKind.CENTRAL): [1.0, 4.0, 9.0, 16.0, 64.0, 4096.0],
    (ArchKind.PROCESSOR_CORE, NoiseKind.INDEPENDENT): [1.0, 2.0, 3.0, 4.0, 8.0, 64.0],
}


def test_every_kind_has_a_record():
    assert list(ARCHITECTURES) == list(ArchKind)


@pytest.mark.parametrize("noise", list(NoiseKind), ids=lambda k: k.value)
@pytest.mark.parametrize("kind", list(ArchKind), ids=lambda k: k.value)
def test_scaling_scan_pins_every_law_and_refuses_the_rest(kind, noise):
    expected = SCAN.get((kind, noise))
    if expected is None:
        with pytest.raises(ValueError, match="no scaling law in scope"):
            scaling_scan(kind, noise, [2])
        with pytest.raises(ValueError, match="no scaling law in scope"):
            scaling_scan(kind, noise, [])
        return
    for n, rate in zip(SCAN_LENGTHS, expected):
        if rate is None:
            with pytest.raises(ValueError, match="requires L = 2\\^d"):
                scaling_scan(kind, noise, [n])
        else:
            (point,) = scaling_scan(kind, noise, [n])
            assert (point.n_qubits, point.relative_rate) == (n, rate)
    with pytest.raises(ValueError, match="register length must be >= 1"):
        scaling_scan(kind, noise, [0])


@pytest.mark.parametrize("kind", list(ArchKind), ids=lambda k: k.value)
def test_worst_case_pair_and_gate_count(kind):
    for n, right in WORST_CASE[kind].items():
        pair = worst_case_pair(kind, n)
        assert (str(pair.left), str(pair.right)) == ("+" * n, right)
    for n, count in GATE_COUNT[kind].items():
        drive = GateDrive.idle(n) if kind is ArchKind.BUS else None
        assert gate_count(ArchitectureModel(kind, n, drive)) == count


@pytest.mark.parametrize("n", [1, 3, 6])
def test_hypercube_length_rule(n):
    for build in (lambda: worst_case_pair(ArchKind.HYPERCUBE, n),
                  lambda: ArchitectureModel(ArchKind.HYPERCUBE, n),
                  lambda: scaling_scan(ArchKind.HYPERCUBE, NoiseKind.INDEPENDENT, [n])):
        with pytest.raises(ValueError, match=f"requires L = 2\\^d with d >= 1, got L = {n}"):
            build()


def test_bus_worst_case_follows_the_drive():
    # the default drive is the gate on qubits (0, 1); otherwise the first active qubit flips
    assert str(worst_case_pair(ArchKind.BUS, 4, GateDrive.two_qubit_gate(4, 0, 1)).right) == "-+++"
    assert str(worst_case_pair(ArchKind.BUS, 4, GateDrive((0.0, 2.0, 1.0, 0.0))).right) == "+-++"
    drive = GateDrive((0.0, 0.0, 0.0, 1.5, 1.5))
    assert str(worst_case_pair(ArchKind.BUS, 5, drive).right) == "+++-+"
    with pytest.raises(ValueError, match="non-idle drive"):
        worst_case_pair(ArchKind.BUS, 3, GateDrive.idle(3))
    with pytest.raises(ValueError, match="need 0 <= j < k < 1"):
        worst_case_pair(ArchKind.BUS, 1)
    with pytest.raises(ValueError, match="requires a gate drive"):
        ArchitectureModel(ArchKind.BUS, 3)
    with pytest.raises(ValueError, match="drive length 5 does not match L = 3"):
        worst_case_pair(ArchKind.BUS, 3, GateDrive((0.0, 0.0, 0.0, 1.0, 1.0)))


_COMPARISONS = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def _is_member(node):
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ArchKind"
    )


def archkind_comparisons(source):
    """Lines where an ``ArchKind.<member>`` (alone or in a literal tuple, list
    or set) is an operand of is, is not, ==, !=, in or not in."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, _COMPARISONS) for op in node.ops):
            continue
        for operand in (node.left, *node.comparators):
            elements = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else []
            if _is_member(operand) or any(_is_member(e) for e in elements):
                lines.append(node.lineno)
    return lines


def test_guard_flags_comparisons_and_allows_data():
    flagged = ("a = kind is ArchKind.BUS\nb = kind in (ArchKind.BUS, x)\n"
               "c = ArchKind.HYPERCUBE != k\n")
    assert archkind_comparisons(flagged) == [1, 2, 3]
    data = "f(ArchKind.BUS)\nt = {ArchKind.BUS: 1}\nk = ArchKind('bus')\nok = kind is other\n"
    assert archkind_comparisons(data) == []


def test_architecture_dispatch_reads_the_record_only():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := archkind_comparisons(path.read_text()))
    }
    assert found == {}
