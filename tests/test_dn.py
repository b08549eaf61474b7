import collections
import itertools
import pathlib
import random

import pytest

from dnalg import dn, truncated
from dnalg.cli import parse_presentation
from dnalg.dn import (
    DnInstance,
    DnSearchConfig,
    _build_slots,
    check_dn,
    check_instance,
    max_dn,
    max_dn_report,
)
from dnalg.steenrod import SteenrodElement, basis_of_degree
from dnalg.theorems import derive_actions
from dnalg.truncated import AlgebraError, AlgebraPresentation, filtration

from conftest import (
    derived,
    oracle_check_instance,
    random_element,
    random_table,
    s3_model,
)


def definition_level_ok(a, n, max_support=2):
    """Oracle: quantify the correction condition directly from its
    definition -- every support of single-monomial operations up to the
    given size, every coordinate assignment of the alphas, and exhaustive
    search over the correction assignments.  Exponential; tiny models only."""
    p = a.p
    top = a.top_degree
    slots = []
    for e in [d for d in a.nonzero_degrees() if d > 0]:
        for q_deg in range(2 * (p - 1), top - e + 1, 2 * (p - 1)):
            for w in basis_of_degree(p, q_deg, top=top):
                if any(w.eps):
                    continue
                slots.append((e, w))
    for size in (1, 2)[:max_support]:
        for chosen in itertools.combinations(range(len(slots)), size):
            sel = [slots[i] for i in chosen]
            if len({e + w.degree() for e, w in sel}) != 1:
                continue
            d = sel[0][0] + sel[0][1].degree()
            deep = filtration(a, n + 1, d)
            alpha_spaces = [a.basis_of_degree(e) for e, _ in sel]
            nu_spaces = [
                [m for m in a.basis_of_degree(e) if sum(m) >= 2] for e, _ in sel
            ]
            for alpha_coords in itertools.product(
                *(itertools.product(range(p), repeat=len(s)) for s in alpha_spaces)
            ):
                value = a.zero()
                for (e, w), coords, basis in zip(sel, alpha_coords, alpha_spaces):
                    alpha = a.element({m: c for m, c in zip(basis, coords)})
                    value = value + a.act_word(w, alpha)
                if not value.in_filtration(2):
                    continue
                total_nu_dims = sum(len(s) for s in nu_spaces)
                corrected = False
                for nu_coords in itertools.product(range(p), repeat=total_nu_dims):
                    rest = value
                    pos = 0
                    for (e, w), monos in zip(sel, nu_spaces):
                        nu = a.element(
                            {m: nu_coords[pos + i] for i, m in enumerate(monos)}
                        )
                        pos += len(monos)
                        rest = rest - a.act_word(w, nu)
                    if deep.contains(a.coords(rest, d)):
                        corrected = True
                        break
                if not corrected:
                    return False
    return True


@pytest.mark.parametrize("p,ms", [(3, (2,)), (3, (1, 2))])
def test_check_dn_matches_definition_level_oracle(p, ms):
    config = DnSearchConfig(max_support=2, theta_dim_bound=0)  # single monomials
    for a in derived(p, ms)[:2]:
        for n in range(1, p + 1):
            assert check_dn(a, n, config).ok == definition_level_ok(a, n)


def test_check_dn_matches_oracle_with_a_linear_action_term():
    # P^1 y4 = y8 is no valid action (no Adem-consistent table has a linear
    # action term), but the inclusions are defined for any table, and only
    # such a term gives an operation's image an indecomposable part.
    a = AlgebraPresentation(3, [("y4", 2), ("y8", 4)], {("y4", 1): {(0, 1): 1}})
    config = DnSearchConfig(max_support=2, theta_dim_bound=0)
    for n in (1, 3):
        assert check_dn(a, n, config).ok == definition_level_ok(a, n)


def test_trivial_degrees_match_filtration_dimensions(pool):
    # a degree is trivial at order n exactly when D^{n+1} fills D^2 there
    for a in list(pool)[::3]:
        for n in range(1, a.p + 1):
            for r in check_dn(a, n).degrees:
                dec = filtration(a, 2, r.degree).dim
                deep = filtration(a, n + 1, r.degree).dim
                assert r.trivial == (dec == deep)


def p1_instance(a, n):
    return DnInstance(a, ((SteenrodElement.power(a.p, 1), a.gen(0)),), n)


def test_instance_satisfied_at_order_one():
    a = s3_model(3, 2)
    verdict = check_instance(p1_instance(a, 1))
    assert verdict.status == "satisfied-with-witness"
    assert all(nu.is_zero() for nu in verdict.witness)


def test_instance_violated_at_order_two():
    a = s3_model(3, 2)
    verdict = check_instance(p1_instance(a, 2))
    assert verdict.status == "violated"
    assert verdict.certificate["dim_correction_span"] == 0


def test_instance_vacuous_when_value_not_decomposable():
    a = s3_model(3, 2)
    inst = DnInstance(a, ((SteenrodElement.unit(3), a.gen(0)),), 1)
    assert check_instance(inst).status == "vacuous"


def test_witnesses_reverify(pool):
    rng = random.Random(31)
    for a in rng.sample(list(pool), 12):
        for n in (1, 2):
            inst = p1_instance(a, n)
            verdict = check_instance(inst)
            if verdict.status == "satisfied-with-witness":
                assert_witness_reverifies(inst, verdict.witness)


def assert_witness_reverifies(inst, witness):
    """Each correction is decomposable of its pair's degree, and
    sum theta(alpha - nu) lies in D^{n+1}."""
    a = inst.presentation
    total = a.zero()
    for (theta, alpha), nu in zip(inst.pairs, witness, strict=True):
        assert nu.in_filtration(2)
        assert nu.is_zero() or nu.degree() == alpha.degree()
        total = total + a.act(theta, alpha - nu)
    assert total.in_filtration(inst.n + 1)


def random_pairs(rng, a, ks, keep=lambda d: True):
    """(P^k, alpha) for each k in ks, all landing in one random target
    degree that ``keep`` accepts and whose sources are nonzero positive
    degrees; None if none is."""
    step = 2 * (a.p - 1)
    targets = [
        d for d in a.nonzero_degrees()
        if keep(d) and all(d - k * step > 0 and a.dim(d - k * step) for k in ks)
    ]
    if not targets:
        return None
    d = rng.choice(targets)
    pairs = []
    for k in ks:
        e = d - k * step
        alpha = random_element(rng, a, e) + a.element({rng.choice(a.basis_of_degree(e)): 1})
        if alpha.is_zero():
            alpha = a.element({a.basis_of_degree(e)[0]: 1})
        pairs.append((SteenrodElement.power(a.p, k), alpha))
    return tuple(pairs)


def test_check_instance_matches_full_system_oracle(pool):
    """The solve on the coordinates of n or fewer factors against the
    full system with a unit column per monomial of D^{n+1}.  Random tables
    may have linear action terms, so their corrections reach below
    D^{n+1} and a violation certificate counts a nonzero rank."""
    rng = random.Random(37)
    models = list(pool) + [derived(p, (1,) * l)[0] for p, l in ((3, 4), (5, 3), (7, 3))]
    models += [
        random_table(rng, 3, ms) for ms in ((2, 4), (1, 2, 4), (2, 4, 6)) for _ in range(12)
    ]
    seen = collections.Counter()
    for a in models:
        for ks in ((1,), (2,), (1, 2)):
            pairs = random_pairs(rng, a, ks)
            if pairs is None:
                continue
            for n in range(1, a.p + 1):
                inst = DnInstance(a, pairs, n)
                got, want = check_instance(inst), oracle_check_instance(inst)
                assert (got.status, got.certificate) == (want.status, want.certificate), inst
                if got.witness is not None:
                    assert_witness_reverifies(inst, got.witness)
                cert = got.certificate or {}
                ranked = cert.get("dim_correction_span", 0) > cert.get("dim_deep_filtration", 0)
                seen[got.status, ranked] += 1
    assert seen == {
        ("satisfied-with-witness", False): 1346,
        ("vacuous", False): 15,
        ("violated", False): 71,
        ("violated", True): 7,
    }


def test_deep_degree_instances_are_answered_from_counts(pool, monkeypatch):
    """When A^d has no monomial of n or fewer factors, A^d = D^{n+1} A^d:
    check_instance answers from the word-length counts alone, with the
    full system's verdict and zero corrections, and never evaluates the
    instance.  The inputs are the decide benchmark's seeded instances on
    its half-degree-1 models (target degree 2 + 4(p-1), whose monomials
    have 2p-1 factors), and seeded instances on the pool models at every
    order n in 1..p for which their target degree is that deep."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    instances = []
    for mid, text in workloads.load_models():
        if mid.startswith("ones"):
            a = parse_presentation(text)
            monomials = workloads.monomials_by_degree(a)
            for seed in range(5):
                rng = random.Random(seed)
                for shape in range(3):
                    plain = workloads.random_instance(rng, a, monomials, shape)
                    instances.append(workloads.build_instance(a, plain))
    ones = len(instances)
    rng = random.Random(43)
    for a in pool:
        for ks in ((1,), (2,), (1, 2)):
            pairs = random_pairs(rng, a, ks, keep=lambda d: not any(a.word_length_counts(d)[:2]))
            if pairs is None:
                continue
            theta, alpha = pairs[0]
            counts = a.word_length_counts(theta.degree() + alpha.degree())
            instances += [
                DnInstance(a, pairs, n) for n in range(1, a.p + 1) if not any(counts[:n + 1])
            ]
    for inst in instances:  # the benchmark's draw must stay deep for this input
        counts = inst.presentation.word_length_counts(inst.target_degree)
        assert not any(counts[:inst.n + 1]), inst.to_dict()
    want = [oracle_check_instance(inst) for inst in instances]
    evaluated = []
    monkeypatch.setattr(DnInstance, "evaluate", lambda inst: evaluated.append(inst))
    got = [check_instance(inst) for inst in instances]
    assert evaluated == []
    for inst, g, w in zip(instances, got, want):
        assert (g.status, g.certificate) == (w.status, w.certificate) == (
            "satisfied-with-witness", None
        )
        assert all(nu.is_zero() for nu in g.witness)
        assert_witness_reverifies(inst, g.witness)
    assert (ones, len(instances)) == (45, 901)


def exhaustive_decider(inst):
    """Oracle: search every correction assignment (small spaces only)."""
    a = inst.presentation
    d = inst.target_degree
    total = inst.evaluate()
    if not total.in_filtration(2):
        return "vacuous"
    deep = filtration(a, inst.n + 1, d)
    spaces = []
    for theta, alpha in inst.pairs:
        monos = [m for m in a.basis_of_degree(alpha.degree()) if sum(m) >= 2]
        spaces.append(monos)
    sizes = sum(len(s) for s in spaces)
    assert sizes <= 6, "oracle reserved for small correction spaces"
    for coeffs in itertools.product(range(a.p), repeat=sizes):
        value = total
        pos = 0
        for (theta, alpha), monos in zip(inst.pairs, spaces):
            nu = a.element({m: coeffs[pos + i] for i, m in enumerate(monos)})
            pos += len(monos)
            value = value - a.act(theta, nu)
        if deep.contains(a.coords(value, d)):
            return "satisfied-with-witness"
    return "violated"


def test_solver_agrees_with_exhaustive_search(pool):
    rng = random.Random(33)
    checked = 0
    for a in rng.sample(list(pool), 16):
        degs = [d for d in a.nonzero_degrees() if d > 0]
        theta = SteenrodElement.power(a.p, rng.choice([1, 1, 2]))
        e = rng.choice(degs)
        alpha = random_element(rng, a, e)
        if alpha.is_zero():
            continue
        inst = DnInstance(a, ((theta, alpha),), rng.choice([1, 2, a.p]))
        monos = [m for m in a.basis_of_degree(e) if sum(m) >= 2]
        if len(monos) > 6:
            continue
        assert check_instance(inst).status == exhaustive_decider(inst)
        checked += 1
    assert checked >= 8


def test_order_one_always_passes(pool):
    for a in list(pool)[::4]:
        assert check_dn(a, 1).ok


def test_order_p_always_fails_with_witness(pool):
    rng = random.Random(35)
    for a in rng.sample(list(pool), 10):
        report = check_dn(a, a.p)
        assert not report.ok
        verdict = report.violation
        assert verdict is not None and verdict.status == "violated"
        assert check_instance(verdict.instance).status == "violated"


def test_monotonicity_of_orders(pool):
    for a in pool:
        results = [check_dn(a, n).ok for n in range(1, a.p + 1)]
        # once an order fails, all higher orders fail
        assert results == sorted(results, reverse=True)
        assert results[0] is True and results[-1] is False


def ascending_scan(a, config):
    """Reference for the one-sweep max_dn: check_dn at each order from 1
    up, keeping the report of the last order that passes."""
    best = None
    for n in range(1, a.p):
        report = check_dn(a, n, config)
        if not report.ok:
            break
        best = report
    return best


@pytest.mark.parametrize(
    "config",
    [DnSearchConfig(), DnSearchConfig(max_support=1, theta_dim_bound=0)],
    ids=["default", "single-slots"],
)
def test_sweep_report_equals_ascending_scan(pool, config):
    extra = [
        a for p, ms in [(3, (1,) * 4), (5, (1,) * 3), (7, (1,) * 3)]
        for a in derived(p, ms)
    ]
    for a in list(pool) + extra:
        assert max_dn_report(a, config) == ascending_scan(a, config)


@pytest.mark.parametrize(
    "p,ms,expected", [(5, (1,) * 5, 4), (7, (1,) * 4, 6), (3, (1,) * 6, 2)]
)
def test_max_order_pinned_on_degree_two_generators(p, ms, expected):
    # values computed with the ascending check_dn scan
    (a,) = derived(p, ms)
    assert max_dn(a) == expected


def test_slot_columns_match_the_action(pool):
    # Each column is theta on one monomial of A^e, in the monomial basis of A^d.
    config = DnSearchConfig()
    slots = 0
    for a in pool:
        words_of = {}  # shared by the degrees of one model, as in a sweep
        for d in a.nonzero_degrees():
            for slot in _build_slots(a, d, config, set(), words_of):
                monos = a.basis_of_degree(slot.source_degree)
                assert len(slot.columns) == len(monos)
                for col, m in zip(slot.columns, monos):
                    assert col == a.coords(a.act(slot.theta, a.element({m: 1})), d)
                slots += 1
    assert slots


def test_max_order_without_generators():
    # No generator leaves no case, so every order passes, as at each check_dn.
    a = AlgebraPresentation(5, [])
    assert max_dn(a) == 4
    assert all(check_dn(a, n).ok for n in range(1, 6))


@pytest.mark.parametrize("field,value", [("max_support", 0), ("max_support", -1),
                                         ("theta_dim_bound", -1)])
def test_config_rejects_out_of_range_bounds(field, value):
    with pytest.raises(ValueError):
        DnSearchConfig(**{field: value})


@pytest.mark.parametrize(
    "p,m,expected", [(3, 2, 1), (5, 2, 2), (5, 4, 1)]
)
def test_max_order_single_sphere(p, m, expected):
    for a in derived(p, (m,)):
        assert max_dn(a) == expected


def test_report_shape_and_bounds():
    a = s3_model(3, 2)
    report = check_dn(a, 2)
    doc = report.to_dict()
    assert doc["search_bounds"]["max_support"] == 2
    assert doc["search_bounds"]["homogeneous_only"] is True
    assert isinstance(doc["degrees"], list)
    assert doc["overall"] == report.ok
    assert all(r.degree % 2 == 0 for r in report.degrees)


def test_incomplete_theta_enumeration_flagged():
    # With a zero combination bound, operation degrees holding 2+ admissible
    # words are reported as incompletely enumerated; the default bound
    # enumerates them all.  Swept over every degree at the slot level, since
    # no check_dn sweep on a small model reaches such a degree.
    a = derived(3, (2, 3))[0]

    def flagged(bound):
        incomplete, words_of = set(), {}
        config = DnSearchConfig(max_support=2, theta_dim_bound=bound)
        for d in a.nonzero_degrees():
            _build_slots(a, d, config, incomplete, words_of)
        return incomplete

    assert flagged(0) == {16, 20}
    assert flagged(3) == set()


def test_larger_support_configuration_runs():
    a = s3_model(5, 2)
    report = check_dn(a, 2, DnSearchConfig(max_support=3, theta_dim_bound=3))
    assert report.ok
    doc = report.to_dict()
    sizes = set()
    for entry in doc["degrees"]:
        sizes.update(entry["cases_by_support_size"])
    assert sizes <= {"1", "2", "3"}


def test_order_out_of_range_rejected():
    a = s3_model(3, 2)
    with pytest.raises(AlgebraError):
        check_dn(a, 0)
    with pytest.raises(AlgebraError):
        check_dn(a, 4)


def test_max_order_reaches_p_minus_one():
    # the forced table at m = p has its only obstruction at the top order
    a = s3_model(3, 3)
    assert max_dn(a) == 2


@pytest.mark.parametrize("n", [0, -1])
def test_instance_rejects_order_below_one(n):
    a = s3_model(3, 2)
    with pytest.raises(AlgebraError, match=f"order must be >= 1, got {n}"):
        p1_instance(a, n)


def test_check_instance_never_builds_the_filtration(pool, monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return filtration(*args)

    monkeypatch.setattr(truncated, "filtration", spy)
    monkeypatch.setattr(dn, "filtration", spy)
    statuses = set()
    for a in list(pool)[::8]:
        for n in range(1, a.p + 1):
            statuses.add(check_instance(p1_instance(a, n)).status)
    assert calls == [] and statuses == {"satisfied-with-witness", "violated"}


def test_instance_requires_consistent_degrees():
    a = s3_model(3, 2)
    with pytest.raises(AlgebraError):
        DnInstance(
            a,
            (
                (SteenrodElement.power(3, 1), a.gen(0)),
                (SteenrodElement.power(3, 2), a.gen(0)),
            ),
            1,
        )
    # Both would land in degree 12 = |y^3|, which is deep at n = 2, so
    # check_instance would answer them without evaluating anything.
    with pytest.raises(AlgebraError, match="prime mismatch"):
        DnInstance(a, ((SteenrodElement.power(5, 1), a.gen(0)),), 2)
    b = AlgebraPresentation(3, [("y", 2)], {("y", 1): {(2,): 1}})
    with pytest.raises(AlgebraError, match="presentation mismatch"):
        DnInstance(a, ((SteenrodElement.power(3, 2), b.gen(0)),), 2)


def test_violation_values_escape_corrections():
    a = s3_model(5, 4)
    report = check_dn(a, 2)
    assert not report.ok
    inst = report.violation.instance
    value = inst.evaluate()
    d = inst.target_degree
    assert value.in_filtration(2)
    assert not filtration(a, 3, d).contains(a.coords(value, d))
    cert = report.violation.certificate
    assert cert["dim_image_cap_decomposables"] >= 1
    assert "dim_corrections_plus_deep" in cert


@pytest.mark.parametrize("p,ms,tables,order", [
    (3, (1, 1, 2), 14, 1), (5, (1, 1, 2), 34, 2), (7, (2, 2), 40, 3), (3, (1, 2, 3), 24, 1),
])
def test_default_search_bounds_reach_max_dn(p, ms, tables, order):
    # Wider bounds change no max_dn, and the sweep at max_dn + 1 enumerates
    # every theta degree in full, so a change to the defaults shows here.
    wide = DnSearchConfig(max_support=3, theta_dim_bound=8)
    models = derive_actions(p, list(ms), max_unknowns=24)
    assert len(models) == tables
    for a in models:
        n = max_dn(a)
        assert n == order == max_dn(a, wide)
        report = check_dn(a, n + 1)
        assert not report.ok and report.incomplete_theta_degrees == ()
