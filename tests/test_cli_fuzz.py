"""Seeded fuzz of the CLI input contract.

Whatever the documents and flags hold, ``main`` returns an exit code in 0-3
and raises nothing; stdout is empty or one JSON document, and a failure
leaves stdout empty and exactly one ``{"error": {...}}`` document on stderr.
A JSON boolean anywhere in a document is a usage error (exit 2).
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qmarginal.cli import main

HUGE = 10**400  # parses to an int no float can hold

# what a malformed document may hold where a count or a number belongs
junk = st.one_of(
    st.sampled_from([None, True, False, "2", HUGE, -1, 2.5, 1e300, float("inf"), float("nan")]),
    st.integers(-3, 6),
    st.floats(allow_nan=True, allow_infinity=True),
)


def holds_bool(doc) -> bool:
    """Is there a JSON boolean anywhere in the document?"""
    if isinstance(doc, dict):
        doc = list(doc.values())
    return doc is True or doc is False or isinstance(doc, list) and any(map(holds_bool, doc))


@st.composite
def defective(draw, doc, list_key):
    """``doc`` as is, or with one defect: a junk or missing field, a junk item
    in ``doc[list_key]`` (or a junk number inside a pair item), that list one
    item short or long, or junk in place of the whole document."""
    defect = draw(st.sampled_from([None, None, None, "field", "field", "missing", "item", "item",
                                   "length", "document"]))
    items = doc[list_key]
    if defect == "field":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(junk)
    elif defect == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif defect == "item":
        i = draw(st.integers(0, len(items) - 1))
        if isinstance(items[i], list) and draw(st.booleans()):
            items[i][draw(st.integers(0, 1))] = draw(junk)
        else:
            items[i] = draw(junk)
    elif defect == "length":
        if draw(st.booleans()):
            items.pop()
        else:
            items.append(draw(junk))
    elif defect == "document":
        return draw(st.one_of(junk, st.lists(junk, max_size=3)))
    return doc


@st.composite
def matrix_docs(draw):
    """A small bipartite state, I/d or a pure product state, maybe with a defect."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d = m * n
    pure = draw(st.booleans())
    diag = [1.0 if i == 0 else 0.0 for i in range(d)] if pure else [1.0 / d] * d
    entries = [[diag[i // d] if i % (d + 1) == 0 else 0.0, 0.0] for i in range(d * d)]
    return draw(defective({"rows": d, "cols": d, "m": m, "n": n, "entries": entries}, "entries"))


@st.composite
def spectrum_docs(draw, size):
    return draw(defective({"values": [1.0 / size] * size}, "values"))


dims_value = st.sampled_from(["1", "2", "3", "4", "6", "0", "-2", "1e400", "2.5"])


@st.composite
def invocations(draw):
    """(argv with placeholders DOC/LAM/MU, {placeholder: document})."""
    command = draw(st.sampled_from(["validate", "ptrace", "extreme", "split", "compat", "construct23"]))
    flags = []
    if command in ("validate", "ptrace", "extreme", "split"):
        docs = {"DOC": draw(matrix_docs())}
        argv = [command, "DOC"]
        if command != "validate":
            if command == "ptrace":
                flags += ["--side", draw(st.sampled_from(["first", "second"]))]
            for flag in draw(st.lists(st.sampled_from(["--m", "--n"]), max_size=2, unique=True)):
                flags += [flag, draw(dims_value)]
    else:
        n = draw(st.integers(1, 3)) if command == "compat" else 3
        mn = n * draw(st.integers(1, 3)) if command == "compat" else 6
        docs = {"LAM": draw(spectrum_docs(n)), "MU": draw(spectrum_docs(mn))}
        argv = [command, "LAM", "MU"]
        if command == "compat" and draw(st.booleans()):
            flags += ["--m", draw(dims_value)]
    return argv + flags, docs


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(invocations())
# finite entries whose Hermitian part (A + A*)/2 would overflow
@example((["extreme", "DOC", "--m", "1"], {"DOC": {
    "rows": 2, "cols": 2, "m": 1, "n": 2,
    "entries": [[0.5, 0.0], [1e308, 1e308], [1e308, -1e308], [0.5, 0.0]]}}))
def test_cli_input_contract(tmp_path, capsys, invocation):
    argv, docs = invocation
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a in docs else a for a in argv]
    capsys.readouterr()

    code = main(argv)
    out, err = capsys.readouterr()

    assert code in (0, 1, 2, 3)
    if any(holds_bool(doc) for doc in docs.values()):
        assert code == 2  # a boolean is never a count, a number or a document
    if out:
        json.loads(out)
    if code == 0 or (code == 1 and argv[0] == "compat"):
        assert err == ""
    else:
        assert out == ""
        payload = json.loads(err)
        assert list(payload) == ["error"] and isinstance(payload["error"], dict)
