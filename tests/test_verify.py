from fractions import Fraction

from boxagree import Arrangement, Graph, exposure, fixtures, search, verify
from boxagree.exposure import ExposureCertificate, split_identity_failures

from helpers import box_specs

CHECK_NAMES = [
    "z5 graph", "z5 agreement", "z5 f-vector",
    "fig38a graph", "fig38a regular", "fig38a omega/triangles", "fig38a f-vector",
    "fig38b graph", "fig38b degrees/omega", "fig38b triangles", "fig38b f-vector",
    "fig38c graph", "fig134 shape", "fig134 cliques", "fig134 proportion",
    "w4 wheel", "w4 strict degree slack", "two_camps 1", "two_camps 2", "two_camps 3",
    "eta table", "no graphs at n=6, omega<=2", "no graphs at n=9, omega<=3",
    "comparison table", "root map at 1/2", "beta(2,3,1)", "beta(2,3,2)",
    "main bound dominates", "fig38a boxicity 2", "fig38b boxicity 2",
    "k_partite 3 boxicity 3", "k_partite 4 boxicity 4", "adiga on vertex pairs",
    "roberts on K7", "exposure figure claim", "exposure lemma validates",
    "fig38a split degree", "split identity on fixtures", "edge recurrence at n=8",
    "closed edge bound at n=8", "edge sandwich", "linear minimum", "planar minimum",
    "main theorem d=1", "main theorem d=2",
]


def _by_name(results):
    return {c.name: c for c in results}


def test_check_names_and_order_are_pinned():
    results = verify.run_paper_checks()
    assert [c.name for c in results] == CHECK_NAMES
    assert all(c.ok for c in results)


def _counting(monkeypatch, calls, fn, *modules):
    def counted(*args):
        calls.append(args)
        return fn(*args)

    for module in modules:
        monkeypatch.setattr(module, fn.__name__, counted)


def test_each_walk_and_split_runs_once_per_pass(monkeypatch):
    walks, splits = [], []
    # every module binding, so that a call through any of them counts
    _counting(monkeypatch, walks, search.min_agreement_proportion, search, verify)
    # every module binding of `split`: the split identity and
    # "fig38a split degree" both build B'' through it
    _counting(monkeypatch, splits, exposure.split, exposure, verify)
    results = _by_name(verify.run_paper_checks())
    assert walks == [(2, 1), (2, 2)]
    # one per fixture of the split-identity check, one for "fig38a split degree"
    assert len(splits) == 5
    assert results["main theorem d=1"].detail == "rho(2,1) = 1/2 >= 1/2"
    assert results["main theorem d=2"].detail == "rho(2,2) = 2/5 >= 1/4"


def test_clique_checks_count_by_size_before_anything_counts_every_size(monkeypatch):
    # the triangle and 4-clique checks and the f-vector checks come from
    # separate traversals only while each count by size meets a graph that
    # has not counted every size: fresh fixtures show a first run's order
    real_load, real_count = fixtures.load, verify.count_cliques_of_size

    def fresh(name):
        obj = real_load(name)
        if isinstance(obj, Graph):
            return Graph(obj.n, obj.edges())
        return Arrangement.of(obj.dimension, box_specs(obj.boxes))

    warm = []

    def count(g, s):
        warm.append(g._clique_counts is not None)
        return real_count(g, s)

    monkeypatch.setattr(fixtures, "load", fresh)
    monkeypatch.setattr(verify, "count_cliques_of_size", count)
    assert all(c.ok for c in verify.run_paper_checks())
    assert warm == [False] * 4


def test_split_identity_check_fails_when_a_piece_is_dropped(monkeypatch):
    real_split = exposure.split

    def lossy_split(arr, i):
        met, pieces = real_split(arr, i)
        rest = pieces.boxes[1:]
        return met[1:], Arrangement.of(pieces.dimension, box_specs(rest)) if rest else None

    monkeypatch.setattr(exposure, "split", lossy_split)
    # a lost present piece undercounts f_0(B''), so k = 1 fails
    assert 1 in split_identity_failures(fixtures.load("z5"))
    check = _by_name(verify.run_paper_checks())["split identity on fixtures"]
    assert not check.ok
    assert "z5 k=1..4 fails at k=[1" in check.detail


def test_lemma_check_fails_on_a_box_that_is_not_exposed(monkeypatch):
    # find_exposed trusts its lemma, so this check is where a wrong
    # candidate shows: box 4 of `exposure` spans x in [0, 4], and box 1
    # (x from 1/2) lies on the same side of {x = 0}
    bogus = ExposureCertificate(4, 1, "lower", Fraction(0))
    monkeypatch.setattr(verify, "find_exposed", lambda arr: bogus)
    check = _by_name(verify.run_paper_checks())["exposure lemma validates"]
    assert not check.ok
    assert check.detail == "box 4 by axis 1 lower face at 0"
