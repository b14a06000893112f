"""The bulk family readers against the per-entry readers they replaced.

`reference_*` below are the readers as they were before the set and subspace
readers decided entry types, sizes, order and range in bulk, and before
`SubspaceFamily.make` decided the echelon form per distinct row and column of
row ids. They are kept here, unchanged, as the specification: on every document, valid or malformed,
the production reader must return an equal family or raise a
`ValidationError` with the identical message, so the first bad entry in file
order (for the readers) and the first bad member in sorted order (for
`SetFamily.make`) are still the ones named.
"""

import random
from itertools import combinations

import pytest

from shadowlab.errors import ValidationError
from shadowlab.hypergraph import SetFamily, set_family_from_obj
from shadowlab.qlinalg import SubspaceFamily, enumerate_subspaces, is_prime, subspace_family_from_obj


def _require_keys(obj, required, optional, what):
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ValidationError(f"{what}: missing fields {sorted(missing)}")
    if unknown:
        raise ValidationError(f"{what}: unknown fields {sorted(unknown)}")


def _int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _list(value, what):
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list, got {value!r}")
    return value


def reference_set_family_make(n, sets, d=None):
    members = sorted(tuple(sorted(s)) for s in sets)
    if d is None:
        if not members:
            raise ValidationError("d is required for an empty family")
        d = len(members[0])
    for s in members:
        if len(s) != d:
            raise ValidationError(f"member {s} has cardinality {len(s)}, expected {d}")
        if len(set(s)) != len(s):
            raise ValidationError(f"member {s} repeats an element")
        if s and (s[0] < 0 or s[-1] >= n):
            raise ValidationError(f"member {s} outside ground set [0, {n})")
    if len(set(members)) != len(members):
        raise ValidationError("duplicate member sets")
    return SetFamily(n=n, d=d, sets=tuple(members))


def reference_set_family_from_obj(obj):
    if not isinstance(obj, dict):
        raise ValidationError("set family JSON must be an object")
    _require_keys(obj, {"n", "d", "sets"}, set(), "set family")
    return reference_set_family_make(
        _int(obj["n"], "n"),
        [[_int(v, "element") for v in _list(s, "set")] for s in _list(obj["sets"], "sets")],
        d=_int(obj["d"], "d"),
    )


def _is_reduced_echelon(mat):
    """True iff rref(mat, q) == mat for a matrix with entries already in [0, q)."""
    last = -1
    for row in mat:
        for lead, x in enumerate(row):
            if x:
                break
        else:
            return False
        if lead <= last or x != 1 or [other[lead] for other in mat].count(0) != len(mat) - 1:
            return False
        last = lead
    return True


def reference_subspace_family_make(q, n, d, members):
    if not is_prime(q):
        raise ValidationError(f"q must be prime, got {q}")
    if not (0 <= d <= n):
        raise ValidationError(f"need 0 <= d <= n, got d={d}, n={n}")
    canon = []
    for m in members:
        mat = tuple(tuple(int(x) % q for x in row) for row in m)
        for row in mat:
            if len(row) != n:
                raise ValidationError(f"row {row} has length {len(row)}, expected {n}")
        if len(mat) != d or not _is_reduced_echelon(mat):
            raise ValidationError(f"member {mat} is not a rank-{d} reduced echelon matrix")
        canon.append(mat)
    if len(set(canon)) != len(canon):
        raise ValidationError("duplicate subspaces")
    return SubspaceFamily(q=q, n=n, d=d, members=tuple(sorted(canon)))


def reference_subspace_family_from_obj(obj):
    if not isinstance(obj, dict):
        raise ValidationError("subspace family JSON must be an object")
    _require_keys(obj, {"q", "n", "d", "members"}, set(), "subspace family")
    return reference_subspace_family_make(
        _int(obj["q"], "q"),
        _int(obj["n"], "n"),
        _int(obj["d"], "d"),
        [
            [[_int(x, "subspace entry") for x in _list(row, "member row")] for row in _list(m, "member")]
            for m in _list(obj["members"], "members")
        ],
    )


def outcome(read, *args, **kwargs):
    """The family read, or the type and message of the exception raised."""
    try:
        return read(*args, **kwargs)
    except (ValidationError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _bad_entry(rng):
    return rng.choice([True, False, "3", 1.0, 2.5, None, [1], {"v": 1}])


def _mutate_set_family(rng, obj, n, d):
    """One malformation at a random position: what a reader or `make` must refuse or canonicalize."""
    sets = obj.get("sets", [])
    if not sets:
        sets.append([rng.randrange(n + 1) for _ in range(d)])
        return
    i = rng.randrange(len(sets))
    s = sets[i]
    if not isinstance(s, list):
        return
    kind = rng.randrange(9)
    if kind == 0 and s:
        s[rng.randrange(len(s))] = _bad_entry(rng)
    elif kind == 1:
        sets[i] = rng.choice([7, "0 1", None, (0, 1), {"v": s}])
    elif kind == 2 and len(s) > 1:
        j, k = rng.sample(range(len(s)), 2)
        s[j] = s[k]
    elif kind == 3 and s:
        s[rng.randrange(len(s))] = rng.choice([n, n + rng.randrange(5), -1 - rng.randrange(3)])
    elif kind == 4:
        if s and rng.random() < 0.5:
            s.pop(rng.randrange(len(s)))
        else:
            s.insert(rng.randrange(len(s) + 1), rng.randrange(n))
    elif kind == 5:
        dup = list(s)
        rng.shuffle(dup)
        sets.insert(rng.randrange(len(sets) + 1), dup)
    elif kind == 6:
        rng.shuffle(s)
    elif kind == 7:
        obj[rng.choice(["n", "d"])] = _bad_entry(rng)
    else:
        obj["extra" if rng.random() < 0.5 else "unused"] = 0
        if rng.random() < 0.5:
            del obj["extra" if "extra" in obj else "unused"]
            del obj[rng.choice(["n", "d", "sets"])]


def random_set_family_obj(rng):
    n = rng.randint(1, 9)
    d = rng.randint(0, n)
    pool = [list(s) for s in combinations(range(n), d)]
    sets = rng.sample(pool, rng.randint(0, min(len(pool), 12)))
    for s in sets:
        if rng.random() < 0.3:
            rng.shuffle(s)
    return {"n": n, "d": d, "sets": sets}


@pytest.mark.parametrize("seed", range(400))
def test_set_family_reader_matches_reference(seed):
    rng = random.Random(seed)
    obj = random_set_family_obj(rng)
    n, d = obj["n"], obj["d"]
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        _mutate_set_family(rng, obj, n, d)
    expected = outcome(reference_set_family_from_obj, obj)
    assert outcome(set_family_from_obj, obj) == expected


def test_set_reader_names_first_bad_entry_in_file_order():
    with pytest.raises(ValidationError, match=r"^element must be an integer, got '1'$"):  # before a bad d
        set_family_from_obj({"n": 5, "d": 1.0, "sets": [[0, 1, 2], [0, "1", 3]]})
    obj = {"n": 5, "d": 3, "sets": [[0, 1, 2], [0, "1", 3], [True, 1, 2], 4]}
    with pytest.raises(ValidationError, match=r"^element must be an integer, got '1'$"):
        set_family_from_obj(obj)
    obj["sets"][1] = 9
    with pytest.raises(ValidationError, match=r"^set must be a list, got 9$"):
        set_family_from_obj(obj)


@pytest.mark.parametrize("seed", range(200))
def test_set_family_make_matches_reference(seed):
    """`make` on lists, tuples and one-shot iterators, with and without d."""
    rng = random.Random(seed)
    obj = random_set_family_obj(rng)
    n, d = obj["n"], obj["d"]
    for _ in range(rng.choice([0, 1, 2])):
        _mutate_set_family(rng, obj, n, d)
    sets = [s for s in obj.get("sets", []) if isinstance(s, list)]
    sets = [[v for v in s if type(v) is int] for s in sets]
    d = obj.get("d") if type(obj.get("d")) is int and rng.random() < 0.7 else None
    n = obj["n"] if type(obj.get("n")) is int else 5
    expected = outcome(reference_set_family_make, n, sets, d=d)
    for shape in (list, tuple, iter):
        assert outcome(SetFamily.make, n, shape([shape(s) for s in sets]), d=d) == expected


@pytest.mark.parametrize("d", [0, 1, 3])
def test_set_family_make_empty(d):
    assert SetFamily.make(4, [], d=d) == reference_set_family_make(4, [], d=d) == SetFamily(4, d, ())
    with pytest.raises(ValidationError, match="d is required for an empty family"):
        SetFamily.make(4, iter([]))


def test_set_family_make_complete_from_combinations():
    assert SetFamily.make(9, combinations(range(9), 4)) == reference_set_family_make(9, combinations(range(9), 4))


def test_set_family_make_names_first_bad_member_in_sorted_order():
    sets = [(4, 3, 9), (0, 1, 2), (2, 2, 1), (0, 4)]
    assert outcome(SetFamily.make, 5, sets) == outcome(reference_set_family_make, 5, sets)
    assert outcome(SetFamily.make, 5, sets) == (ValidationError, "member (0, 4) has cardinality 2, expected 3")


_SORTED = list(combinations(range(6), 3))  # 20 members, strictly increasing


# name -> (n, d, sets) of families in or near sorted order, which `make` accepts in bulk and sorts in one pass
SORTED_FAMILIES = {
    "sorted": (6, 3, _SORTED),
    "sorted, d = 0": (6, 0, [()]),
    "sorted, d = 0, duplicate": (6, 0, [(), ()]),
    "one adjacent duplicate": (6, 3, _SORTED[:9] + _SORTED[8:]),
    "one adjacent pair swapped": (6, 3, _SORTED[:9] + [_SORTED[10], _SORTED[9]] + _SORTED[11:]),
    "negative entry only in the first column": (6, 3, [(-1, 4, 5)] + _SORTED),
    "entry >= n only in the last column": (6, 3, _SORTED[:3] + [(0, 1, 6)] + _SORTED[3:]),
    "holding True": (6, 3, [(0, True, 2)] + _SORTED[1:]),
}


@pytest.mark.parametrize("name", SORTED_FAMILIES)
def test_set_family_make_on_sorted_families_matches_reference(name):
    n, d, sets = SORTED_FAMILIES[name]
    obj = {"n": n, "d": d, "sets": [list(s) for s in sets]}
    expected = outcome(reference_set_family_from_obj, obj)  # the reference `make` takes True for 1
    assert outcome(set_family_from_obj, obj) == expected
    for shape in (list, tuple, iter):
        assert outcome(SetFamily.make, n, shape([shape(s) for s in sets]), d=d) == expected
    if name != "holding True":
        assert outcome(SetFamily.make, n, sets) == outcome(reference_set_family_make, n, sets)


@pytest.mark.parametrize("sets, message", [
    ([(0.5, 1, 2), (1, 2, 3)], "element must be an integer, got 0.5"),
    ([(0, 1, 2), (1, True, 3)], "element must be an integer, got True"),
    ([(3, 1, 2), (0, "1", 3)], "element must be an integer, got '1'"),
])
def test_set_family_make_refuses_non_int_elements_as_the_reader_does(sets, message):
    assert outcome(SetFamily.make, 5, sets) == (ValidationError, message)
    obj = {"n": 5, "d": 3, "sets": [list(s) for s in sets]}
    assert outcome(set_family_from_obj, obj) == (ValidationError, message)


def _mutate_subspace_family(rng, obj, q, n):
    """One malformation at a random position, or entries moved outside [0, q)."""
    members = obj["members"]
    if not members:
        members.append([[rng.randrange(q) for _ in range(n)]])
        return
    i = rng.randrange(len(members))
    m = members[i]
    if not (isinstance(m, list) and all(isinstance(row, list) for row in m)):
        return
    kind = rng.randrange(8)
    if kind == 0 and m and m[0]:
        row = rng.choice(m)
        row[rng.randrange(len(row))] = _bad_entry(rng)
    elif kind == 1:
        if m and rng.random() < 0.5:
            m[rng.randrange(len(m))] = rng.choice([7, None, "1 0", (1, 0)])
        else:
            members[i] = rng.choice([7, None, "x", {"rows": m}])
    elif kind == 2 and m:
        row = rng.choice(m)
        if row and rng.random() < 0.5:
            row.pop()
        else:
            row.append(rng.randrange(q))
    elif kind == 3 and len(m) > 1:
        j, k = rng.sample(range(len(m)), 2)
        m[j], m[k] = m[k], m[j]
    elif kind in (4, 5) and m and m[0]:
        # accepted: entries outside [0, q) are reduced mod q
        for _ in range(rng.randint(1, 3)):
            row = rng.choice(m)
            j = rng.randrange(len(row))
            if type(row[j]) is int:
                row[j] += q * rng.choice([-2, -1, 1, 3])
    elif kind == 6:
        members.insert(rng.randrange(len(members) + 1), [list(row) for row in m])
    else:
        obj[rng.choice(["q", "n", "d"])] = rng.choice([_bad_entry(rng), 4, 9, -1])


def random_subspace_family_obj(rng):
    q = rng.choice([2, 2, 3, 5])
    n = rng.randint(1, 4 if q == 2 else 3)
    d = rng.randint(0, n)
    pool = [[list(row) for row in m] for m in enumerate_subspaces(q, n, d).members]
    return {"q": q, "n": n, "d": d, "members": rng.sample(pool, rng.randint(0, min(len(pool), 10)))}


@pytest.mark.parametrize("seed", range(400))
def test_subspace_family_reader_matches_reference(seed):
    rng = random.Random(seed)
    obj = random_subspace_family_obj(rng)
    q, n = obj["q"], obj["n"]
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        _mutate_subspace_family(rng, obj, q, n)
    expected = outcome(reference_subspace_family_from_obj, obj)
    assert outcome(subspace_family_from_obj, obj) == expected


def test_subspace_reader_names_first_bad_entry_in_file_order():
    with pytest.raises(ValidationError, match=r"^subspace entry must be an integer, got 1.0$"):  # before a bad q
        subspace_family_from_obj({"q": 9, "n": 2, "d": 1, "members": [[[1, 0]], [[0, 1.0]]]})
    obj = {"q": 2, "n": 2, "d": 1, "members": [[[1, 0]], [[0, 1.0]], [[1, True]], [5]]}
    with pytest.raises(ValidationError, match=r"^subspace entry must be an integer, got 1.0$"):
        subspace_family_from_obj(obj)
    obj["members"][1] = [7]
    with pytest.raises(ValidationError, match=r"^member row must be a list, got 7$"):
        subspace_family_from_obj(obj)


@pytest.mark.parametrize("seed", range(100))
def test_subspace_family_make_matches_reference(seed):
    """`make` on lists, tuples and one-shot iterators, entries reduced mod q or not."""
    rng = random.Random(seed)
    obj = random_subspace_family_obj(rng)
    q, n = obj["q"], obj["n"]
    for _ in range(rng.choice([0, 1, 2])):
        _mutate_subspace_family(rng, obj, q, n)
    if not all(type(obj.get(k)) is int for k in "qnd"):
        return
    members = [[[x for x in row if type(x) is int] for row in m if isinstance(row, list)]
               for m in obj["members"] if isinstance(m, list)]
    expected = outcome(reference_subspace_family_make, obj["q"], obj["n"], obj["d"], members)
    for shape in (list, tuple, iter):
        shaped = shape([shape([shape(row) for row in m]) for m in members])
        assert outcome(SubspaceFamily.make, obj["q"], obj["n"], obj["d"], shaped) == expected


@pytest.mark.parametrize("members, message", [
    ([[[1.5, 0, 0]]], "subspace entry must be an integer, got 1.5"),
    ([[[1, 0, 0]], [[0, 1, False]]], "subspace entry must be an integer, got False"),
    ([[[1, 0, 3.0]]], "subspace entry must be an integer, got 3.0"),
])
def test_subspace_family_make_refuses_non_int_entries_as_the_reader_does(members, message):
    assert outcome(SubspaceFamily.make, 2, 3, 1, members) == (ValidationError, message)
    obj = {"q": 2, "n": 3, "d": 1, "members": members}
    assert outcome(subspace_family_from_obj, obj) == (ValidationError, message)


@pytest.mark.parametrize("seed", range(60))
def test_subspace_entries_outside_field_reduced_mod_q(seed):
    """A valid family with one entry off a pivot column moved by a multiple of q reads as before."""
    rng = random.Random(seed)
    q = rng.choice([2, 3, 5])
    n = rng.randint(2, 4 if q == 2 else 3)
    d = rng.randint(1, n - 1)
    pool = enumerate_subspaces(q, n, d).members
    obj = {"q": q, "n": n, "d": d,
           "members": [[list(row) for row in m] for m in rng.sample(pool, rng.randint(1, min(len(pool), 8)))]}
    fam = subspace_family_from_obj(obj)
    m = rng.choice(obj["members"])
    pivots = {row.index(1) for row in m}
    i, j = rng.choice([(i, j) for i in range(d) for j in range(n) if j not in pivots])
    m[i][j] += q * rng.choice((-2, -1, 1, 3))
    assert subspace_family_from_obj(obj) == reference_subspace_family_from_obj(obj) == fam


def _lead(row):
    return next(j for j, x in enumerate(row) if x)


def _one_bad_member(rng, members, q, kind):
    """A defect of the given kind in one member, or in the family's order, at a random position."""
    i = rng.randrange(len(members))
    m = members[i]
    r, s = sorted(rng.sample(range(len(m)), 2)) if len(m) > 1 else (0, 0)
    if kind == "lead":  # a leading entry other than 1
        c = rng.randrange(2, q)
        m[r] = [c * x % q for x in m[r]]
    elif kind == "above":  # a nonzero entry above a later pivot
        m[r][_lead(m[s])] = rng.randrange(1, q)
    elif kind == "equal":  # a later row with the same pivot
        m[s] = [0] * _lead(m[r]) + [1] + [rng.randrange(q) for _ in range(len(m[r]) - _lead(m[r]) - 1)]
    elif kind == "swap":
        m[r], m[s] = m[s], m[r]
    elif kind == "zero":
        m[r] = [0] * len(m[r])
    elif kind == "duplicate":
        members.insert(rng.randrange(len(members) + 1), [list(row) for row in m])
    else:  # two members out of order
        j = rng.randrange(len(members))
        members[i], members[j] = members[j], members[i]


@pytest.mark.parametrize("kind", ["lead", "above", "equal", "swap", "zero", "duplicate", "order"])
@pytest.mark.parametrize("seed", range(40))
def test_subspace_family_make_one_bad_member_matches_per_member_reference(seed, kind):
    """Sorted families with one defect: the bulk accept path gives the reference's family or message."""
    rng = random.Random(seed)
    q = rng.choice([3, 5, 7] if kind == "lead" else [2, 3, 5, 7])
    n = rng.randint(2, 4 if q < 5 else 3)
    d = rng.randint(1 if kind in ("lead", "zero", "duplicate", "order") else 2, n)
    pool = enumerate_subspaces(q, n, d).members
    members = [[list(row) for row in m] for m in sorted(rng.sample(pool, min(len(pool), rng.randint(2, 12))))]
    _one_bad_member(rng, members, q, kind)
    expected = outcome(reference_subspace_family_make, q, n, d, members)
    assert (kind == "order") == isinstance(expected, SubspaceFamily)
    assert outcome(SubspaceFamily.make, q, n, d, members) == expected
    obj = {"q": q, "n": n, "d": d, "members": members}
    assert outcome(subspace_family_from_obj, obj) == outcome(reference_subspace_family_from_obj, obj) == expected
