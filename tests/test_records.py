"""Result records are plain classes, and importing the CLI stays light."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import jetsym
from jetsym.engine import (
    AnsatzSpace,
    BoundCheck,
    DeterminingSystem,
    LambdaScan,
    SymmetryBasis,
    build_ansatz,
    determining_system,
)
from jetsym.expr import T, U, Y, jet
from jetsym.parser import parse_equation
from jetsym.report import Report, RunConfig
from jetsym.structure import (
    Block,
    BlockDecomposition,
    CriterionVerdict,
    SelectedVariables,
    ShiftAction,
)

SRC = Path(jetsym.__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "flags, absent",
    [((), ("dataclasses", "inspect")), (("-S",), ("dataclasses", "inspect", "typing"))],
    ids=["site", "no-site"],
)
def test_cli_import_leaves_out_heavy_modules(flags, absent):
    """``-S`` skips site-packages ``.pth`` files, which may import typing themselves."""
    code = f"import sys, jetsym.cli; print(*(m for m in {absent!r} if m in sys.modules))"
    done = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split() == []


# record: (required fields, {defaulted field: default}), in constructor order
RECORDS = {
    AnsatzSpace: (("generators", "q_max", "y_degree", "jet_degree", "weights"), {}),
    DeterminingSystem: (("generators", "row_shapes", "_cells", "_denominator"), {}),
    SymmetryBasis: (("equation", "ansatz", "elements", "dims", "system"), {}),
    LambdaScan: (("candidates", "residual_factors", "generic_nullity", "pivots"), {}),
    BoundCheck: (("label", "q", "value", "bound", "passed"), {}),
    RunConfig: (
        ("equation",),
        {
            "mode": "solve",
            "order_cap": 3,
            "y_degree": 3,
            "jet_degree": 2,
            "lambda_mode": "auto",
            "lambda_weights": (),
            "target": "y",
            "checks": (),
            "include_timing": False,
        },
    ),
    Report: (
        ("config", "equation"),
        {
            **dict.fromkeys(("resolved_weights", "lambda_scan", "basis", "bounds", "action")),
            **dict.fromkeys(("decomposition", "verdict", "checks")),
            "notes": [],
            "elapsed_ms": None,
        },
    ),
    ShiftAction: (("elements", "selected", "matrices"), {}),
    Block: (("eigenvalues", "size", "degrees", "vectors", "elements"), {}),
    BlockDecomposition: (
        ("selected", "blocks", "source_elements", "to_block_coords", "from_block_coords"),
        {},
    ),
    CriterionVerdict: (
        ("target", "exists", "method"),
        dict.fromkeys(("witness", "witness_expression", "certificate", "lambda_scan")),
    ),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_defaults_and_freezing(cls):
    required, defaults = RECORDS[cls]
    values = [object() for _ in required]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(required, values)))
    for record in (by_position, by_keyword):
        assert [getattr(record, name) for name in required] == values
        assert {name: getattr(record, name) for name in defaults} == defaults
    everything = [object() for _ in (*required, *defaults)]
    assert vars(cls(*everything)) == dict(zip((*required, *defaults), everything))
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*everything, object())
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    if cls is Report:  # the one record the pipeline fills in
        by_position.notes.append("a note")
        assert by_keyword.notes == [] and Report.notes == []
        by_position.basis = values[0]
        assert by_position.basis is values[0]
        return
    before = dict(vars(by_position))
    for name in (*required, *defaults):
        with pytest.raises(AttributeError):
            setattr(by_position, name, object())
    assert vars(by_position) == before


def test_selected_variables_validates_and_freezes():
    assert SelectedVariables((Y, T)).coords == (Y, T)
    assert SelectedVariables(coords=[U]).coords == (U,)  # kept as a tuple
    for bad in ((), (Y, Y), (jet(1),), (Y, jet(2))):
        with pytest.raises(ValueError):
            SelectedVariables(bad)
    with pytest.raises(AttributeError):
        SelectedVariables((Y,)).coords = (T,)


def test_determining_system_caches_rows_and_weight_states():
    eq = parse_equation("u_t = u_2")
    ansatz = build_ansatz(1, 0, 1)
    system, other = determining_system(ansatz, eq), determining_system(ansatz, eq)
    assert system.rows is system.rows
    assert system._weight_states == {} and system._weight_states is not other._weight_states


def test_ansatz_replace_changes_only_the_given_fields():
    ansatz = build_ansatz(2, 1, 2)
    wider = ansatz.replace(weights=(-1, 0), generators=ansatz.generators[:3])
    assert (wider.weights, wider.generators) == ((-1, 0), ansatz.generators[:3])
    assert (wider.q_max, wider.y_degree, wider.jet_degree) == (2, 1, 2)
    assert ansatz.weights == (0,) and len(ansatz.generators) > 3
