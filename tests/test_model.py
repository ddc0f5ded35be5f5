"""Vectors, contexts, set construction, and derived statistics."""
import ast
import copy
import importlib
import os
import pickle
import random
import re
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ksbound as kb
from conftest import all_pairs_connections
from ksbound import (
    Context,
    DimensionMismatchError,
    ExactScalar,
    KsSet,
    RayVector,
    RingMismatchError,
    build_stats,
    inner_product,
    make_set,
    same_ray,
)
from ksbound.model import check_dimension, incidence


def vec(vid, *comps, k=1):
    return RayVector(vid, tuple(ExactScalar(c, 0, k) for c in comps))


def test_inner_product_rational():
    assert inner_product(vec("a", 1, 0, 0), vec("b", 0, 1, 0)) == ExactScalar(0)
    assert inner_product(vec("a", 1, 1, 0), vec("b", 1, -1, 0)) == ExactScalar(0)
    ip = inner_product(vec("a", 1, 1, 0), vec("b", 1, 0, 0))
    assert ip == ExactScalar(1)


def test_inner_product_with_surds():
    # (sqrt2, -1, 0) . (1, sqrt2, 0) = sqrt2 - sqrt2 = 0
    u = RayVector("u", (ExactScalar(0, 1, 2), ExactScalar(-1, 0, 2), ExactScalar(0, 0, 2)))
    v = RayVector("v", (ExactScalar(1, 0, 2), ExactScalar(0, 1, 2), ExactScalar(0, 0, 2)))
    assert inner_product(u, v) == ExactScalar(0, 0, 2)
    norm = inner_product(u, u)
    assert norm == ExactScalar(3, 0, 2)


def test_inner_product_mismatches():
    with pytest.raises(DimensionMismatchError):
        inner_product(vec("a", 1, 0, 0), vec("b", 1, 0))
    with pytest.raises(RingMismatchError):
        inner_product(vec("a", 1, 0, 0), vec("b", 1, 0, 0, k=2))


def test_same_ray_scalar_multiples():
    assert same_ray(vec("a", 2, 0, 0), vec("b", 1, 0, 0))
    assert same_ray(vec("a", Fraction(1, 2), Fraction(1, 3), 0), vec("b", 3, 2, 0))
    assert not same_ray(vec("a", 1, 1, 0), vec("b", 1, -1, 0))
    assert not same_ray(vec("a", 1, 0, 0), vec("b", 0, 1, 0))


def test_same_ray_surd_scaling():
    # v = sqrt2 * u
    u = RayVector("u", (ExactScalar(0, 1, 2), ExactScalar(0, 1, 2), ExactScalar(2, 0, 2)))
    v = RayVector("v", (ExactScalar(2, 0, 2), ExactScalar(2, 0, 2), ExactScalar(0, 2, 2)))
    assert same_ray(u, v)


def test_ray_vector_validation():
    with pytest.raises(ValueError, match="zero vector"):
        vec("z", 0, 0, 0)
    with pytest.raises(ValueError, match="no components"):
        RayVector("e", ())
    with pytest.raises(RingMismatchError, match=r"mixes ring radicands \[2, 3\]"):
        RayVector("m", (ExactScalar(1, 0, 2), ExactScalar(1, 0, 3)))
    # the ring check comes before the zero check
    with pytest.raises(RingMismatchError, match=r"mixes ring radicands \[2, 3\]"):
        RayVector("m0", (ExactScalar(0, 0, 2), ExactScalar(0, 0, 3), ExactScalar(0, 0, 2)))


def test_context_rejects_repeats():
    with pytest.raises(ValueError, match="^context repeats vector id 'a'$"):
        Context(("a", "b", "a"))
    with pytest.raises(ValueError, match="^context repeats vector id 'c'$"):  # the first repeat
        Context(("c", "d", "c", "d"))


def test_make_set_refuses_float_components():
    # 1/10 + 2/10 - 3/10 is 0, but the binary floats 0.1 + 0.2 - 0.3 are not
    tenths = (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10))
    ks = make_set("t", 3, [("a", tenths), ("b", (1, 1, -1))], [])
    assert kb.orthogonal(*ks.vectors)
    with pytest.raises(TypeError, match="float"):
        make_set("t", 3, [("a", (0.1, 0.2, 0.3)), ("b", (1, 1, -1))], [])


def test_set_structural_validation():
    vs = [("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1))]
    with pytest.raises(ValueError, match="dimension must be >= 3, got 2"):
        make_set("bad", 2, [("a", (1, 0)), ("b", (0, 1))], [])
    with pytest.raises(ValueError, match=f"^dimension must be <= {kb.MAX_DIMENSION}, got 129$"):
        check_dimension(kb.MAX_DIMENSION + 1)
    assert check_dimension(kb.MAX_DIMENSION) == 128
    with pytest.raises(ValueError, match="undeclared"):
        make_set("bad", 3, vs, [("a", "b", "x")])
    with pytest.raises(ValueError, match="expected 3"):
        make_set("bad", 3, vs, [("a", "b")])
    with pytest.raises(ValueError, match="duplicate vector id"):
        make_set("bad", 3, vs + [("a", (0, 1, 1))], [])
    with pytest.raises(DimensionMismatchError):
        make_set("bad", 3, [("a", (1, 0))], [])
    with pytest.raises(ValueError, match=f"^{re.escape('m_override must be >= 0, got -1')}$"):
        make_set("bad", 3, vs, [], m_override=-1)
    mixed = r"'a' lives in ring sqrt\(2\), set declares sqrt\(1\)"
    with pytest.raises(RingMismatchError, match=mixed):
        KsSet("bad", 3, 1, (vec("a", 1, 0, 0, k=2),), ())
    with pytest.raises(ValueError, match="exceeds the limit"):
        KsSet("bad", 3, 10**18 + 3, (), ())


def test_m_override_must_be_an_integer():
    # serialize_set would write "m-override 1.5", which the parser refuses
    vs = [("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1))]
    for value in (1.5, 2.0, "3", True, 9.5, Fraction(3, 2)):
        with pytest.raises(ValueError, match=re.escape(f"m_override must be an integer, got {value!r}")):
            make_set("bad", 3, vs, [("a", "b", "c")], m_override=value)
    ks = make_set("ok", 3, vs, [("a", "b", "c")], m_override=0)
    assert build_stats(ks).M == 0
    assert build_stats(make_set("ok", 3, vs, [("a", "b", "c")], m_override=np.int64(7))).M == 7


def test_m_override_must_reach_m_cut(cabello18, kernaghan20, kp36):
    # M_cut = (N*d - n1)/2, n1 the rays in one context: each catalog set
    # takes its M_cut and refuses one less, whatever its own M
    for ks, cut in ((cabello18, 18), (kernaghan20, 22), (kp36, 44)):
        assert KsSet(*ks._replace(m_override=cut)).m_override == cut
        message = f"m_override must be >= M_cut = (N*d - n1)/2 = {cut}, got {cut - 1}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            KsSet(*ks._replace(m_override=cut - 1))
    # three triads sharing a: N*d - n1 = 9 - 6, so M_cut = 3/2 and M = 2 is the least
    vs = [("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1)), ("d", (0, 1, 1)),
          ("e", (0, 1, -1)), ("f", (0, 1, 2)), ("g", (0, 2, -1))]
    fan = [("a", "b", "c"), ("a", "d", "e"), ("a", "f", "g")]
    assert build_stats(make_set("fan", 3, vs, fan, m_override=2)).M == 2
    with pytest.raises(ValueError, match=re.escape("= (N*d - n1)/2 = 3/2, got 1")):
        make_set("fan", 3, vs, fan, m_override=1)


@pytest.mark.parametrize("field, value, message", [
    ("dimension", 3.0, "dimension must be an integer, got 3.0"),
    ("ring_radicand", 2.0, "radicand must be an integer, got 2.0"),
    ("m_override", True, "m_override must be an integer, got True"),
])
def test_integer_fields_refuse_floats_and_bools(field, value, message):
    # each is equal to an integer without being one, and would be written
    # back as "dim 3.0", "field sqrt 2.0" or "m-override True", which the
    # parser refuses; the integer itself round-trips
    vs = [("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1))]
    fields = dict(name="x", dimension=3, vectors=vs, contexts=[("a", "b", "c")])
    with pytest.raises(ValueError, match=re.escape(message)):
        make_set(**{**fields, field: value})
    ks = make_set(**{**fields, field: int(value)})
    assert kb.parse_document(kb.serialize_set(ks)).ks_set == ks


def test_stats_single_triad(triad, loose_ray):
    st = build_stats(triad)
    assert (st.n, st.N, st.M) == (3, 1, 0)
    assert st.m_all_pairs == 0
    assert st.multiplicities == {"a": 1, "b": 1, "c": 1}
    st = build_stats(loose_ray)
    assert (st.n, st.N, st.M, st.m_all_pairs) == (4, 1, 0, 0)
    assert st.multiplicities == {"a": 1, "b": 1, "c": 1, "x": 0}


def test_stats_shared_vector(two_triads):
    st = build_stats(two_triads)
    assert (st.n, st.N, st.M) == (5, 2, 1)
    assert st.m_all_pairs == 1
    assert all_pairs_connections(two_triads) == [("a", (0, 1))]
    assert st.multiplicities["a"] == 2


def test_stats_override_keeps_connections(two_triads):
    ks = KsSet(
        name=two_triads.name,
        dimension=two_triads.dimension,
        ring_radicand=two_triads.ring_radicand,
        vectors=two_triads.vectors,
        contexts=two_triads.contexts,
        m_override=7,
    )
    st = build_stats(ks)
    assert st.M == 7
    assert st.m_all_pairs == 1
    assert all_pairs_connections(ks) == [("a", (0, 1))]


def test_stats_slot_count_identity(catalog_sets):
    # every context contributes d slots: sum of multiplicities = N*d
    for ks in catalog_sets:
        st = build_stats(ks)
        assert sum(st.multiplicities.values()) == st.N * ks.dimension


def fresh_incidence(ks):
    """The incidence record of ``ks`` by a fresh walk over its contexts' ids:
    each context's rays by position, and each ray's slots c*d + p in context
    order, found ray by ray."""
    index = {v.id: i for i, v in enumerate(ks.vectors)}
    contexts = tuple(tuple(index[vid] for vid in ctx.vector_ids) for ctx in ks.contexts)
    slots = tuple(
        tuple(
            c * ks.dimension + ctx.vector_ids.index(v.id)
            for c, ctx in enumerate(ks.contexts)
            if v.id in ctx.vector_ids
        )
        for v in ks.vectors
    )
    return contexts, slots


@pytest.mark.parametrize(
    "name", ["cabello18", "kernaghan20", "kp36", "fan50", "cabello18x2", "loose_ray"]
)
def test_incidence_matches_a_fresh_walk(name, request):
    # every engine reads the set's one record: the coloring search and the
    # oracle its contexts, build_stats and the slot walks each ray's slots
    ks = request.getfixturevalue(name)
    contexts, slots = fresh_incidence(ks)
    assert incidence(ks) == (contexts, slots)
    assert build_stats(ks).multiplicities == {v.id: len(at) for v, at in zip(ks.vectors, slots)}
    # default_base reads each ray's value off a witness by slot, 1 for none
    rng = random.Random(21)
    value = {v.id: rng.randint(0, 1) for v in ks.vectors}
    witness = tuple(value[vid] for ctx in ks.contexts for vid in ctx.vector_ids)
    base = kb.default_base(ks, kb.DefectReport(1, witness, 0))
    assert base == {v.id: value[v.id] if at else 1 for v, at in zip(ks.vectors, slots)}


def test_incidence_is_derived_from_the_fields_alone(cabello18):
    # the record is built on each call from the fields, so a _replace, a deep
    # copy and a pickle each get their own, and ==, hash and pickle see none
    ks = KsSet(*cabello18)
    before, pickled = hash(ks), pickle.dumps(ks)
    record = incidence(ks)
    assert record == fresh_incidence(ks) and incidence(ks) == record
    assert hash(ks) == before and ks == cabello18 and pickle.dumps(ks) == pickled
    assert incidence(copy.deepcopy(ks)) == record
    back = pickle.loads(pickled)
    assert back == ks and hash(back) == before and incidence(back) == record
    fewer = ks._replace(contexts=ks.contexts[1:])
    assert incidence(fewer) == fresh_incidence(fewer) != record
    for copied in (copy.deepcopy(fewer), pickle.loads(pickle.dumps(fewer))):
        assert incidence(copied) == fresh_incidence(fewer)


def test_catalog_published_parameters(catalog_sets):
    expected = {
        "cabello18": (4, 18, 9, 18),
        "kernaghan20": (4, 20, 11, 30),
        "kernaghan-peres36": (8, 36, 11, 72),
    }
    for ks in catalog_sets:
        st = build_stats(ks)
        assert (ks.dimension, st.n, st.N, st.M) == expected[ks.name]


def test_kp36_override_structure(kp36):
    st = build_stats(kp36)
    assert kp36.m_override == 72
    assert st.m_all_pairs == 76
    mults = sorted(st.multiplicities.values())
    assert mults.count(2) == 28 and mults.count(4) == 8


def test_connection_pairs_are_ordered(catalog_sets, fan50):
    for ks in (*catalog_sets, fan50):
        st = build_stats(ks)
        connections = all_pairs_connections(ks)
        assert len(connections) == st.m_all_pairs
        for vid, (a, b) in connections:
            assert 0 <= a < b < st.N
            assert vid in ks.contexts[a].vector_ids
            assert vid in ks.contexts[b].vector_ids


PUBLIC_NAMES = """
    ColoringResult Context CriticalRate
    DefectReport DimensionMismatchError ExactScalar
    KsSet MAX_DIMENSION MAX_RADICAND ParseError RayVector RingMismatchError SetDocument
    SetStats SimSummary TABLE_ROWS TableRow TrialModel
    ValidationReport Violation assignment_defect
    build_stats catalog_text critical_rate default_base delta_analytic
    delta_lower_bound epsilon_analytic find_coloring
    independent_error_lhs inequality_margin inner_product
    is_square_free list_catalog load_catalog make_set min_defect orthogonal
    parse_document same_ray serialize_set simulate_model table_report
    validate_orthogonality __version__
""".split()


def _summary(**changes):
    fields = dict(seed=3, trials=10, r=0.25, context_error_counts=(1, 2),
                  connection_mismatch_counts=(3,), total_defect=6, min_trial_defect=0)
    return kb.SimSummary(**{**fields, **changes})


def test_records_are_immutable_hashable_values(two_triads):
    ks = two_triads
    stats = build_stats(ks)
    records = [  # each record, then its fields
        kb.ExactScalar(1, 2, 2), ("rational", "surd", "radicand"),
        vec("a", 1, 0, 0), ("id", "components", "key"),
        ks.contexts[0], ("vector_ids",),
        ks, ("name", "dimension", "ring_radicand", "vectors", "contexts", "m_override"),
        stats, ("n", "N", "M", "multiplicities", "m_all_pairs"),
        kb.critical_rate(9, 18, 4), ("r", "floor4", "bracket_low", "bracket_high", "iterations"),
        kb.TABLE_ROWS[0], ("name", "d", "n_label", "N", "M"),
        kb.Violation("m"), ("message",),
        kb.validate_orthogonality(ks), ("ok", "violations"),
        kb.find_coloring(ks), ("satisfiable", "assignment", "nodes"),
        kb.min_defect(ks), ("d_min", "witness", "nodes"),
        kb.parse_document(kb.serialize_set(ks)), ("ks_set",),
        kb.TrialModel(ks, kb.default_base(ks), 0.1, 1), ("ks_set", "base", "flip_rate", "seed"),
        _summary(), ("seed", "trials", "r", "context_error_counts",
                     "connection_mismatch_counts", "total_defect", "min_trial_defect"),
    ]
    assert len({type(r) for r in records[::2]}) == 14
    for record, names in zip(records[::2], records[1::2]):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    # equal values compare and hash equal; a different value does not compare equal
    for make, other in (
        (lambda: ExactScalar(Fraction(1, 2), 3, 2), ExactScalar(Fraction(1, 2), 3, 3)),
        (lambda: vec("a", 2, 4, 0), vec("a", 1, 2, 0)),
        (lambda: Context(("a", "b", "c")), Context(("a", "c", "b"))),
        (lambda: make_set("t", 3, [("a", (1, 0, 0))], []),
         make_set("t", 3, [("a", (1, 0, 0))], [], m_override=0)),
        (_summary, _summary(total_defect=7)),
        (lambda: kb.min_defect(ks), kb.min_defect(ks)._replace(nodes=1)),  # a tuple witness
    ):
        assert make() == make() and hash(make()) == hash(make())
        assert make() != other

    # keyword and positional construction, with the defaults
    assert ExactScalar(rational=1, surd=0) == ExactScalar(Fraction(1), Fraction(0), 1)
    assert ExactScalar(1, 0).radicand == 1
    comps = (ExactScalar(1), ExactScalar(0), ExactScalar(0))
    assert RayVector(id="a", components=comps) == RayVector("a", comps)
    # the key is derived, so the repr leaves it out
    assert repr(RayVector("a", comps)) == (
        "RayVector(id='a', components=(ExactScalar(1), ExactScalar(0), ExactScalar(0)))"
    )
    assert Context(vector_ids=("a", "b")) == Context(("a", "b"))
    same = KsSet(name=ks.name, dimension=3, ring_radicand=1, vectors=ks.vectors,
                 contexts=ks.contexts)
    assert same == KsSet(ks.name, 3, 1, ks.vectors, ks.contexts, None) == ks
    assert same.m_override is None
    assert kb.Violation(message="m") == kb.Violation("m")
    assert kb.TableRow(name="x", d=3, n_label="4", N=5, M=6) == kb.TableRow("x", 3, "4", 5, 6)
    assert kb.TrialModel(ks_set=ks, base=dict.fromkeys("abcde", 1), flip_rate=0.5, seed=2).seed == 2

    # copies and pickles rebuild through the constructor
    assert copy.deepcopy(ks) == ks == pickle.loads(pickle.dumps(ks))
    # a set is a plain value: no instance dict to hold derived state
    assert not hasattr(ks, "__dict__")
    with pytest.raises(TypeError):
        vars(ks)

    # a scalar is no sequence to repeat
    with pytest.raises(TypeError):
        3 * ExactScalar(1)
    assert kb.__all__ == PUBLIC_NAMES


def test_bench_traces_only_functions_that_exist():
    # bench/spans.py looks these up by name only when a run is traced, so a
    # renamed or removed function would otherwise break traced runs alone
    spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "spans.py"))
    names = spans["SPANNED"] + spans["COUNTED"]
    assert ("model", "build_stats") in names
    for module, function in names:
        assert callable(getattr(importlib.import_module(f"ksbound.{module}"), function, None)), (
            module, function)


def test_importing_the_cli_loads_every_traced_module():
    # bench/child.py installs its tracer right after `import ksbound.cli`, and
    # Tracer.install looks each module up in sys.modules, so a module the CLI
    # imported lazily would break traced runs alone.  Drop this test once the
    # tracer imports what it traces (ROADMAP.md item 5).
    root = Path(__file__).resolve().parents[1]
    spans = runpy.run_path(str(root / "bench" / "spans.py"))
    names = [f"{module}.{function}" for module, function in spans["SPANNED"] + spans["COUNTED"]]
    probe = (
        "import sys\n"
        "import ksbound.cli\n"
        "for name in sys.argv[1:]:\n"
        "    module, function = name.split('.')\n"
        "    loaded = sys.modules.get('ksbound.' + module)\n"
        "    assert callable(getattr(loaded, function, None)), name\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(kb.__file__).resolve().parents[1])}
    argv = [sys.executable, "-c", probe, *names]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr


def test_bench_counts_each_min_defect_probe(cabello18):
    # bench/spans.py keys each traced find_coloring call by its set's contexts
    # and counts a min_defect probe only where they differ from the whole
    # set's: a min_defect that handed find_coloring the same KsSet, or a
    # context subset of it, would read no probe and a ratio of 0
    spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "spans.py"))
    for module, _ in spans["SPANNED"]:  # install looks each module up
        importlib.import_module(f"ksbound.{module}")
    tracer = spans["Tracer"]()
    tracer.install()
    try:
        tracer.op = 0
        kb.min_defect(cabello18)
    finally:
        tracer.uninstall()
    assert not hasattr(kb.coloring.find_coloring, "__wrapped__")
    metrics = spans["layer_metrics"](tracer, 1)
    assert metrics["coloring.find_coloring.calls"] == (2, "count/op")
    assert metrics["coloring.min_defect.probe_hit_ratio"] == (1.0, "ratio")


def test_bench_selftest_passes():
    # the benchmark reads records and functions of the library by name; its
    # self-tests fail here, in the suite, when one of them changes
    root = Path(__file__).resolve().parents[1]
    argv = [sys.executable, "-B", "bench/selftest.py"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.rstrip().endswith("OK")


def test_src_line_counter():
    root = Path(__file__).resolve().parents[1]
    counter = runpy.run_path(str(root / "tools" / "src_lines.py"))
    text = (
        '"""Doc."""\n\n# note\nx = (1,\n     2)  # two\n\n\n'
        'def f():\n    """A\n    doc."""\n    return x\n'
    )
    assert counter["count"](text) == (11, 4)
    argv = [sys.executable, "-B", "tools/src_lines.py"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    header, *rows, total = (line.split() for line in done.stdout.splitlines())
    sources = sorted((root / "src" / "ksbound").glob("*.py"))
    assert header == ["module", "raw", "code"]
    assert [row[0] for row in rows] == [path.name for path in sources]
    raw = [path.read_text(encoding="utf-8").count("\n") for path in sources]
    assert [int(row[1]) for row in rows] == raw
    assert total == ["total", str(sum(raw)), str(sum(int(row[2]) for row in rows))]


def test_ab_probe_prints_a_paired_row_per_input():
    # three copies of this checkout (A, B and the A/A control) on the stats layer
    root = Path(__file__).resolve().parents[1]
    argv = [sys.executable, "-B", "tools/ab_probe.py", "--a", ".", "--layer", "stats"]
    argv += ["--passes", "3"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split()[:4] == ["row", "A_ms", "B_ms", "B/A"]
    ratio = r"(\d+\.\d{3}) \[(\d+\.\d{3})-(\d+\.\d{3})\]"
    names = ["cabello18", "kernaghan20", "kernaghan-peres36", "peres57"]
    medians = r"\d+\.\d{3} +\d+\.\d{3}"
    pattern = re.compile(rf"(\S+) +{medians}  {ratio} +[0-3]/3 +{ratio}  (-|faster|slower) *")
    matches = [pattern.fullmatch(row) for row in rows]
    assert all(matches), done.stdout
    assert [m[1] for m in matches] == names
    for m in matches:
        for q1, q2, q3 in (m.group(3, 2, 4), m.group(6, 5, 7)):
            assert float(q1) <= float(q2) <= float(q3)


def test_sources_parse_as_the_oldest_supported_python():
    # pyproject.toml promises Python 3.10; syntax added later would fail only there
    root = Path(__file__).resolve().parents[1]
    assert 'requires-python = ">=3.10"' in (root / "pyproject.toml").read_text()
    with pytest.raises(SyntaxError):  # the check bites on this interpreter
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    sources = sorted((root / "src" / "ksbound").glob("*.py"))
    sources += sorted((root / "tools").glob("*.py"))
    assert root / "src" / "ksbound" / "model.py" in sources
    assert root / "tools" / "src_lines.py" in sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_only_check_integer_asks_for_index():
    # the integer rule is written once: every mention of __index__ in the
    # code of src/ksbound (docstrings and comments aside) is in check_integer
    def mentions_index(node):
        return (
            isinstance(node, ast.Constant) and node.value == "__index__"
            or isinstance(node, ast.Attribute) and node.attr == "__index__"
            or isinstance(node, ast.Name) and node.id == "__index__"
            or isinstance(node, ast.FunctionDef) and node.name == "__index__"
        )

    places = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "ksbound").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in filter(mentions_index, ast.walk(tree)):
            scope = parent.get(node)
            while scope is not None and not isinstance(scope, ast.FunctionDef):
                scope = parent.get(scope)
            places.add((path.name, scope.name if scope else None))
    assert places == {("model.py", "check_integer")}


def test_only_model_checks_a_set_invariant():
    # each set invariant is written once, in a method of the SetCheck that
    # KsSet and the parser both feed: no other code of src/ksbound imports
    # the exact orthogonality test on ray keys or words an invariant's refusal
    rules = ("duplicate ray", "duplicate context", "not orthogonal", "M_cut")
    places = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "ksbound").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert "_keys_orthogonal" not in [alias.name for alias in node.names], path.name
            if not (
                isinstance(node, ast.Name) and node.id == "_keys_orthogonal"
                or isinstance(node, ast.Constant) and isinstance(node.value, str)
                and not isinstance(parent.get(node), ast.Expr)  # a docstring
                and any(rule in node.value for rule in rules)
            ):
                continue
            scopes, scope = [], node  # the enclosing classes and functions, outermost first
            while scope in parent:
                scope = parent[scope]
                if isinstance(scope, (ast.ClassDef, ast.FunctionDef)):
                    scopes.insert(0, scope.name)
            places.add((path.name, ".".join(scopes)))
    assert places == {("model.py", name) for name in (
        "orthogonal", "SetCheck.vector", "SetCheck.context", "SetCheck.m_override"
    )}


def test_only_simulate_imports_numpy():
    # numpy is the simulator's dependency alone: every numpy import, at any
    # depth (function bodies and TYPE_CHECKING blocks too), is in simulate.py
    def is_numpy(name):
        return name == "numpy" or name.startswith("numpy.")

    importers = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "ksbound").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(map(is_numpy, names)):
                importers.add(path.name)
    assert importers == {"simulate.py"}
