"""Planted inputs: table files whose right answers follow from how they were built.

Every builder draws from a ``random.Random`` seeded by the benchmark seed and
returns a ``Case``: the CLI arguments (which name only the files written
here) and the expected answer, which stays with the benchmark. Nothing here
imports fndecomp, so the answers do not depend on the code under test.

Certainty comes from one explicit term per table:

* random tables get their value at u = (1, ..., 1) chosen so that the
  derivative on all n positions at parameters u is nonzero, which makes every
  variable essential and the minimal decomposition arity exactly n;
* planted k-ary sums put a term with a nonzero k-fold derivative on the
  first k-set in mask order and on a cover of all positions, so the minimal
  arity is exactly k and every variable is essential;
* the Taylor refusal tables add one indicator term c * [x_J = u_J] on a
  (k+1)-set J with u_J free of zeros, so the only nonzero (k+1)-fold
  derivative, and hence the witness, is (J, u on J).

Values are residue tuples, one residue per cyclic factor of the codomain.
Table indices follow the library's file format: index(x) = sum x[i] * a**i.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from math import comb, gcd, lcm, prod


@dataclass
class Case:
    """One CLI command of a workload and the answer it must give."""

    label: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# groups as moduli tuples
# ----------------------------------------------------------------------


def group_text(moduli):
    return "x".join(f"Z{m}" for m in moduli)


def elem_text(x):
    return ",".join(str(r) for r in x)


def g_add(moduli, x, y):
    return tuple((a + b) % m for a, b, m in zip(x, y, moduli))


def g_scale(moduli, k, x):
    return tuple((k * a) % m for a, m in zip(x, moduli))


def g_zero(moduli):
    return (0,) * len(moduli)


def g_random(rng, moduli, nonzero=False):
    while True:
        x = tuple(rng.randrange(m) for m in moduli)
        if not nonzero or any(x):
            return x


def g_order(moduli, x):
    return lcm(*(m // gcd(r, m) for r, m in zip(x, moduli)))


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def all_tuples(a, n):
    """Every n-tuple in table-index order (component 0 varies fastest)."""
    return tuple(t[::-1] for t in product(range(a), repeat=n))


def digits(a, n, idx):
    return all_tuples(a, n)[idx]


def index_of(a, x):
    idx = 0
    for c in reversed(x):
        idx = idx * a + c
    return idx


def write_table(path, a, n, moduli, values):
    lines = [f"domain={a}", f"arity={n}", f"group={group_text(moduli)}"]
    texts = [elem_text(v) for v in values]
    chunk = a ** min(n, 2)
    for start in range(0, len(texts), chunk):
        lines.append(" ".join(texts[start:start + chunk]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def top_derivative(moduli, a, n, values, u):
    """Derivative on all n positions at parameters u, base 0."""
    acc = g_zero(moduli)
    for J in range(1 << n):
        x = [u[i] if J >> i & 1 else 0 for i in range(n)]
        sign = -1 if (n - J.bit_count()) & 1 else 1
        acc = g_add(moduli, acc, g_scale(moduli, sign, values[index_of(a, x)]))
    return acc


def force_top_derivative(rng, moduli, a, n, values):
    """Reset f(1,...,1) so that the n-fold derivative there is nonzero."""
    u_idx = index_of(a, [1] * n)
    values[u_idx] = g_zero(moduli)
    rest = top_derivative(moduli, a, n, values, [1] * n)
    # f(u) enters with sign +1, so the derivative becomes rest + f(u)
    values[u_idx] = g_add(moduli, g_random(rng, moduli, nonzero=True), g_scale(moduli, -1, rest))


def random_values(rng, moduli, a, n):
    """Random table that is neither symmetric nor determined by odd support and
    whose minimal decomposition arity is exactly n (needs n >= 3)."""
    values = [g_random(rng, moduli) for _ in range(a**n)]
    zero_pt, pair_pt = index_of(a, [0] * n), index_of(a, [1, 1] + [0] * (n - 2))
    e0, e1 = index_of(a, [1] + [0] * (n - 1)), index_of(a, [0, 1] + [0] * (n - 2))
    # (0,...,0) and (1,1,0,...,0) share their odd support
    values[pair_pt] = g_add(moduli, values[zero_pt], g_random(rng, moduli, nonzero=True))
    values[e1] = g_add(moduli, values[e0], g_random(rng, moduli, nonzero=True))
    force_top_derivative(rng, moduli, a, n, values)
    return values


def planted_sum(rng, moduli, a, n, k):
    """Sum of k-ary terms on a cover of the positions; minimal arity exactly k."""
    sets = [tuple(range(k))]
    for i in range(k, n):
        if not any(i in s for s in sets):
            others = rng.sample([j for j in range(n) if j != i], k - 1)
            s = tuple(sorted(others + [i]))
            if s not in sets:
                sets.append(s)
    values = [g_zero(moduli)] * a**n
    for s in sets:
        term = [g_random(rng, moduli) for _ in range(a**k)]
        force_top_derivative(rng, moduli, a, k, term)
        for idx in range(a**n):
            x = digits(a, n, idx)
            values[idx] = g_add(moduli, values[idx], term[index_of(a, [x[p] for p in s])])
    return values


# ----------------------------------------------------------------------
# odd support
# ----------------------------------------------------------------------


def support_mask(x):
    mask = 0
    for c in x:
        mask ^= 1 << c
    return mask


def subset_text(mask):
    return "{" + ",".join(str(i) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def phi_domain(a, n):
    """Masks of the subsets of the alphabet reachable as odd supports of n-tuples."""
    keys = [m for m in range(1 << a) if m.bit_count() <= n and (n - m.bit_count()) % 2 == 0]
    return sorted(keys, key=lambda m: (m.bit_count(), m))


def representative(mask, n):
    s = [i for i in range(mask.bit_length()) if mask >> i & 1]
    if not s:
        return [0] * n
    return [s[0]] * (n - len(s) + 1) + s[1:]


def table_from_phi(phi, a, n):
    return [phi[support_mask(digits(a, n, idx))] for idx in range(a**n)]


def phi_entries(phi, keys):
    return [[subset_text(m), elem_text(phi[m])] for m in keys]


def determined_min_arity(phi, moduli, a, n):
    """Exact minimal decomposition arity of x -> phi(odd_support(x)).

    A derivative with a parameter equal to the base (0) vanishes, and for a
    determined table the others depend only on how many positions carry each
    nonzero letter, so it suffices to sum over those letter counts.
    """
    for s in range(n, 0, -1):
        for counts in compositions(s, a - 1):
            coef: dict[int, int] = {}
            for picks in product(*(range(c + 1) for c in counts)):
                weight = prod(comb(c, j) for c, j in zip(counts, picks))
                size = sum(picks)
                mask = sum(1 << (l + 1) for l, j in enumerate(picks) if j & 1)
                if (n - size) & 1:
                    mask |= 1
                sign = -1 if (s - size) & 1 else 1
                coef[mask] = coef.get(mask, 0) + sign * weight
            acc = g_zero(moduli)
            for mask, c in coef.items():
                acc = g_add(moduli, acc, g_scale(moduli, c, phi[mask]))
            if any(acc):
                return s
    return 0


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def random_phi(rng, moduli, a, n):
    """Random non-constant phi; where the codomain allows it, the n-fold
    derivative at (1,...,1) is made nonzero so the minimal arity is n."""
    keys = phi_domain(a, n)
    phi = {m: g_random(rng, moduli) for m in keys}
    # at parameters (1,...,1) the derivative is +-2**(n-1) * (phi(S_even) - phi(S_odd))
    s_even, s_odd = (n & 1), 0b10 | ((n - 1) & 1)
    two = pow(2, n - 1)
    if any(two % m for m in moduli):
        while not any((two * (x - y)) % m for x, y, m in zip(phi[s_even], phi[s_odd], moduli)):
            phi[s_odd] = g_random(rng, moduli)
    while len(set(phi.values())) < 2:
        phi[keys[-1]] = g_random(rng, moduli)
    return phi


# ----------------------------------------------------------------------
# Boolean-group decompositions
# ----------------------------------------------------------------------


def first_sum_sizes(n, t):
    return [n - 2 * i for i in range(t + 1, n // 2 + 1) if comb(i - 1, t) & 1]


def second_sum_sizes(n, t):
    return [n - 2 * k + 1 for k in range(t + 1, (n + 1) // 2 + 1) if comb(2 * k - 1, 2 * t) & 1]


def sum_sizes(mode, a, n):
    """Subset sizes of the defining sum of a Boolean-group decomposition."""
    d = n - a
    if mode == "odd":
        return first_sum_sizes(n, (d - 1) // 2)
    if mode == "even":
        return first_sum_sizes(n, d // 2) + second_sum_sizes(n, d // 2)
    return [n - 2 * i for i in range(1, n // 2 + 1)]


def decomposition_value(psi, x, sizes):
    """XOR over subsets I of the listed sizes of psi(odd_support(x restricted to I))."""
    acc = 0
    for s in sizes:
        for I in combinations(range(len(x)), s):
            acc ^= psi[support_mask(x[p] for p in I)]
    return acc


def bool_code(x):
    return sum(r << i for i, r in enumerate(x))


def bool_elem(code, factors):
    return tuple(code >> i & 1 for i in range(factors))


# ----------------------------------------------------------------------
# ternary gap-2 forms and Boolean gap-2 forms
# ----------------------------------------------------------------------


def z3_form(n, a, b, c, d):
    """The parameterized gap-2 operation Z3^n -> Z3 (symmetric-difference fold)."""
    p = [(a * u * u + b * u + c) % 3 for u in range(3)]
    pair = [[((u - v) ** 2 * p[(u + v) % 3] + d) % 3 for v in range(3)] for u in range(3)]
    unary = [(p[u] + d) % 3 for u in range(3)]
    base = 1 << d if n % 4 in (0, 3) else 0
    values = []
    for idx in range(3**n):
        x = digits(3, n, idx)
        mask = base
        for i in range(n):
            if n % 2:
                mask ^= 1 << unary[x[i]]
            for j in range(i + 1, n):
                mask ^= 1 << pair[x[i]][x[j]]
        values.append((mask.bit_length() - 1,))
    return values


BOOLEAN_FORMS = {
    "parity_sum": lambda x: sum(x),
    "product_plus_arg": lambda x: x[0] * x[1] + x[0],
    "majority": lambda x: x[0] * x[1] + x[0] * x[2] + x[1] * x[2],
    "majority_plus_pair": lambda x: x[0] * x[1] + x[0] * x[2] + x[1] * x[2] + x[0] + x[1],
}


def padded_boolean(rng, n, m, g):
    """Table of x -> g(x at m random positions in random order); g on m bits."""
    pos = rng.sample(range(n), m)
    return [(g(tuple(x[p] for p in pos)) & 1,) for x in (digits(2, n, i) for i in range(2**n))]


# ----------------------------------------------------------------------
# case builders, one per command kind
# ----------------------------------------------------------------------


class Builder:
    def __init__(self, rng, work):
        self.rng = rng
        self.work = work
        self.count = 0

    def path(self, stem):
        self.count += 1
        return os.path.join(self.work, f"{self.count:03d}-{stem}")

    def table(self, stem, a, n, moduli, values):
        path = self.path(stem + ".tbl")
        write_table(path, a, n, moduli, values)
        return path

    # analyze ----------------------------------------------------------

    def analyze_random(self, a, n, moduli):
        values = random_values(self.rng, moduli, a, n)
        path = self.table("random", a, n, moduli, values)
        return Case(f"analyze random {a}^{n} {group_text(moduli)}", ["analyze", path, "--json"], {
            "exit": 0,
            "verdicts": {"essential_variables": list(range(n)), "essential_arity": n,
                         "totally_symmetric": False, "oddsupp_determined": False,
                         "min_decomposition_arity": n},
        })

    def analyze_planted(self, a, n, moduli, k):
        path = self.table(f"sum{k}", a, n, moduli, planted_sum(self.rng, moduli, a, n, k))
        return Case(f"analyze planted-{k} {a}^{n} {group_text(moduli)}", ["analyze", path, "--json"], {
            "exit": 0,
            "verdicts": {"essential_variables": list(range(n)), "essential_arity": n,
                         "min_decomposition_arity": k},
        })

    def analyze_determined(self, a, n, moduli):
        phi = random_phi(self.rng, moduli, a, n)
        path = self.table("phi", a, n, moduli, table_from_phi(phi, a, n))
        return Case(f"analyze determined {a}^{n} {group_text(moduli)}", ["analyze", path, "--json"], {
            "exit": 0,
            "verdicts": {"essential_variables": list(range(n)), "essential_arity": n,
                         "totally_symmetric": True, "oddsupp_determined": True,
                         "min_decomposition_arity": determined_min_arity(phi, moduli, a, n)},
            "payload": {"phi": {"domain": f"pnprime:{n}", "a": a, "group": group_text(moduli),
                                "entries": phi_entries(phi, phi_domain(a, n))}},
        })

    # taylor -----------------------------------------------------------

    def taylor_accept(self, a, n, moduli, k):
        path = self.table(f"sum{k}", a, n, moduli, planted_sum(self.rng, moduli, a, n, k))
        masks = sorted((m for m in range(1 << n) if m.bit_count() <= k),
                       key=lambda m: (m.bit_count(), m))
        positions = [[i for i in range(n) if m >> i & 1] for m in masks]
        argv = ["decompose", path, "--mode", "taylor", "--k", str(k), "--json"]
        return Case(f"taylor accept k={k} {a}^{n} {group_text(moduli)}", argv, {
            "exit": 0,
            "verdicts": {"mode": "taylor", "reconstruction": "exact", "k": k},
            "summand_positions": positions,
            "nonzero_summand": list(range(k)),
        })

    def taylor_refuse(self, a, n, moduli, k):
        values = planted_sum(self.rng, moduli, a, n, k)
        J = sorted(self.rng.sample(range(n), k + 1))
        params = [0] * n
        for i in J:
            params[i] = self.rng.randrange(1, a)
        # indicator term c * [x_J = u_J] lands on every x that agrees with u on J
        c = g_random(self.rng, moduli, nonzero=True)
        for idx in range(a**n):
            x = digits(a, n, idx)
            if all(x[i] == params[i] for i in J):
                values[idx] = g_add(moduli, values[idx], c)
        path = self.table(f"refuse{k}", a, n, moduli, values)
        argv = ["decompose", path, "--mode", "taylor", "--k", str(k), "--json"]
        return Case(f"taylor refuse k={k} {a}^{n} {group_text(moduli)}", argv, {
            "exit": 3,
            "witness": {"positions": J, "params": params},
        })

    # phi: Boolean-group decompositions -------------------------------

    def decompose_unique(self, mode, a, n, factors):
        """odd/even: plant the decomposition map psi; it is unique, so the CLI must return it."""
        moduli = (2,) * factors
        keys = phi_domain(a, n)
        if mode == "odd":
            psi = {m: self.rng.randrange(2**factors) for m in keys}
            out_keys, domain = keys, f"pnprime:{n}"
        else:
            # full paired map: psi(S) = psi(S symdiff {0})
            psi = {}
            for m in range(1 << a):
                psi[m] = psi[m ^ 1] if m ^ 1 in psi else self.rng.randrange(2**factors)
            out_keys, domain = sorted(range(1 << a), key=lambda m: (m.bit_count(), m)), "full"
        sizes = sum_sizes(mode, a, n)
        phi = {m: bool_elem(decomposition_value(psi, representative(m, n), sizes), factors)
               for m in keys}
        path = self.table(mode, a, n, moduli, table_from_phi(phi, a, n))
        argv = ["decompose", path, "--mode", mode, "--json"]
        entries = [[subset_text(m), elem_text(bool_elem(psi[m], factors))] for m in out_keys]
        return Case(f"decompose {mode} {a}^{n} {group_text(moduli)}", argv, {
            "exit": 0,
            "verdicts": {"mode": mode, "reconstruction": "exact"},
            "payload": {"phi": {"domain": domain, "a": a, "group": group_text(moduli),
                                "entries": entries}},
        })

    def decompose_fitilde(self, a, n, factors):
        """fitilde: phi is not unique; the returned map is re-summed at every
        representative tuple instead."""
        moduli = (2,) * factors
        phi = random_phi(self.rng, moduli, a, n)
        path = self.table("fitilde", a, n, moduli, table_from_phi(phi, a, n))
        argv = ["decompose", path, "--mode", "fitilde", "--json"]
        targets = {subset_text(m): (representative(m, n), bool_code(phi[m])) for m in phi_domain(a, n)}
        return Case(f"decompose fitilde {a}^{n} {group_text(moduli)}", argv, {
            "exit": 0,
            "verdicts": {"mode": "fitilde", "reconstruction": "exact"},
            "fitilde": {"sizes": sum_sizes("fitilde", a, n), "targets": targets,
                        "unknowns": len(phi_domain(a, n))},
        })

    # phi: classifications ---------------------------------------------

    def classify_z3_form(self, n):
        # p = 0 (a = b = c = 0) gives a constant table, which classifies as degenerate
        params = [0, 0, 0, 0]
        while not any(params[:3]):
            params = [self.rng.randrange(3) for _ in range(4)]
        path = self.table("z3form", 3, n, (3,), z3_form(n, *params))
        return Case(f"classify z3 form 3^{n}", ["classify", path, "--target", "z3", "--json"], {
            "exit": 0,
            "verdicts": {"target": "z3", "verdict": "gap2", "gap": 2},
            "payload": {"params": dict(zip("abcd", params))},
        })

    def classify_z3_gap1(self, n):
        path = self.table("z3gap1", 3, n, (3,), random_values(self.rng, (3,), 3, n))
        return Case(f"classify z3 gap1 3^{n}", ["classify", path, "--target", "z3", "--json"], {
            "exit": 0,
            "verdicts": {"target": "z3", "verdict": "gap1", "gap": 1},
        })

    def classify_boolean_form(self, n, kind, m):
        c = self.rng.randrange(2)
        form = BOOLEAN_FORMS[kind]
        values = padded_boolean(self.rng, n, m, lambda x: form(x) + c)
        path = self.table(kind, 2, n, (2,), values)
        expected = {"kind": kind, "c": c, **({"m": m} if kind == "parity_sum" else {})}
        argv = ["classify", path, "--target", "boolean", "--json"]
        return Case(f"classify boolean {kind} m={m} 2^{n}", argv, {
            "exit": 0,
            "verdicts": {"target": "boolean", "gap": 2},
            "payload": {"form": expected},
        })

    def classify_boolean_gap1(self, n, m):
        """Random m-ary core (m >= 4) with top ANF coefficient 1: every core
        variable is essential and the degree is m, so no gap-2 form matches."""
        core = [self.rng.randrange(2) for _ in range(2**m)]
        core[-1] ^= (sum(core) & 1) ^ 1
        values = padded_boolean(self.rng, n, m, lambda x: core[index_of(2, x)])
        path = self.table("boolgap1", 2, n, (2,), values)
        argv = ["classify", path, "--target", "boolean", "--json"]
        return Case(f"classify boolean gap1 m={m} 2^{n}", argv, {
            "exit": 0,
            "verdicts": {"target": "boolean", "gap": 1},
            "payload": {},
        })

    # phi: identities and witnesses ------------------------------------

    def identities(self, max_m):
        even = sum((m - 2) // 2 + 1 for m in range(2, max_m + 1))
        odd = sum((m - 1) // 2 + 1 for m in range(1, max_m + 1))
        return Case(f"identities max_m={max_m}", ["identities", "--max-m", str(max_m), "--json"], {
            "exit": 0,
            "verdicts": {"max_m": max_m, "all_equal": True},
            "rows": {"even_sum_rows": even, "odd_sum_rows": odd},
        })

    def witness_tightness(self, ell, n):
        moduli, e = self.rng.choice([((4,), 2), ((2, 4), 2), ((8,), 3), ((2,), 1)])
        while True:
            b = g_random(self.rng, moduli)
            if g_order(moduli, b) == 2**e:
                break
        expected = g_scale(moduli, (-1) ** (e - 1) * 2 ** (e - 1), b)
        params = list(range(1, ell)) + [ell] * e + [0] * (n - ell - e + 1)
        return self._witness("tightness", moduli, b, ell + e - 2, expected,
                             list(range(ell + e - 1)), params,
                             ["--ell", str(ell), "--e", str(e), "--n", str(n)])

    def witness_hamming(self, n):
        moduli = self.rng.choice([(3,), (5,), (6,), (2, 3), (9,)])
        while True:
            b = g_random(self.rng, moduli)
            order = g_order(moduli, b)
            if order & (order - 1):
                break
        expected = g_scale(moduli, (-1) ** n * 2 ** (n - 1), b)
        return self._witness("hamming", moduli, b, n - 1, expected, list(range(n)), [1] * n,
                             ["--n", str(n)])

    def witness_large_alphabet(self, n, a):
        moduli = self.rng.choice([(2,), (3,), (4,), (2, 2), (5,)])
        b = g_random(self.rng, moduli, nonzero=True)
        return self._witness("large-alphabet", moduli, b, n - 1, b, list(range(n)),
                             list(range(1, n + 1)), ["--n", str(n), "--a-size", str(a)])

    def _witness(self, kind, moduli, b, claimed_k, expected, positions, params, extra):
        out = self.path(f"witness-{kind}.tbl")
        argv = ["witness", "--kind", kind, "--group", group_text(moduli), "--b", elem_text(b),
                *extra, "--out", out, "--json"]
        return Case(f"witness {kind} {group_text(moduli)}", argv, {
            "exit": 0,
            "verdicts": {"kind": kind, "verified": True, "claimed_k": claimed_k,
                         "expected": elem_text(expected)},
            "payload": {"positions": positions, "params": params},
        })


# ----------------------------------------------------------------------
# workloads: fixed command lists, sized so one pass takes about 7.5 s on a
# 2-vCPU machine. Each list has an odd number of commands, so with four passes
# the median latency falls inside one command's four samples rather than
# between two commands; ``tiny`` shrinks every table for the smoke test
# ----------------------------------------------------------------------

Z2, Z3, Z4, Z5, Z2xZ3 = (2,), (3,), (4,), (5,), (2, 3)


def analyze_cases(b, tiny):
    if tiny:
        return [b.analyze_random(3, 4, Z4), b.analyze_planted(3, 4, Z4, 2), b.analyze_determined(3, 4, Z4),
                b.analyze_determined(2, 5, Z3)]
    return [
        b.analyze_random(3, 8, Z4), b.analyze_planted(3, 8, Z4, 1),
        b.analyze_planted(3, 7, Z4, 2), b.analyze_determined(3, 7, Z4),
        b.analyze_random(2, 9, Z3), b.analyze_planted(2, 9, Z3, 2), b.analyze_determined(2, 9, Z3),
        b.analyze_random(4, 6, Z2xZ3), b.analyze_planted(4, 6, Z2xZ3, 1), b.analyze_determined(4, 6, Z2xZ3),
        b.analyze_random(5, 5, Z5), b.analyze_planted(5, 5, Z5, 2), b.analyze_determined(5, 5, Z5),
    ]


def taylor_cases(b, tiny):
    sizes = [(2, 4, Z3), (3, 3, Z4)] if tiny else [(2, 8, Z3), (3, 6, Z4), (4, 5, Z2xZ3), (5, 5, Z5)]
    cases = []
    for k in (1, 2):
        for a, n, moduli in sizes:
            cases.append(b.taylor_accept(a, n, moduli, k))
            cases.append(b.taylor_refuse(a, n, moduli, k))
    if not tiny:
        cases.append(b.taylor_accept(3, 7, Z4, 1))
    return cases


def phi_cases(b, tiny):
    if tiny:
        return [
            b.decompose_unique("odd", 2, 5, 1), b.decompose_unique("even", 2, 4, 2),
            b.decompose_fitilde(2, 5, 1), b.classify_z3_form(4), b.classify_z3_gap1(4),
            b.classify_boolean_form(5, "parity_sum", 3), b.classify_boolean_gap1(5, 4),
            b.identities(6), b.witness_tightness(2, 4), b.witness_hamming(3),
            b.witness_large_alphabet(2, 3),
        ]
    small_form = b.rng.choice([("product_plus_arg", 2), ("majority", 3), ("majority_plus_pair", 3),
                               ("parity_sum", 5)])
    return [
        b.decompose_unique("odd", 3, 8, 1), b.decompose_unique("even", 4, 6, 2),
        b.decompose_fitilde(2, 9, 1),
        b.classify_z3_form(7), b.classify_z3_gap1(7), b.classify_z3_gap1(8),
        b.classify_boolean_form(8, "parity_sum", 7), b.classify_boolean_form(8, *small_form),
        b.classify_boolean_gap1(8, 6),
        b.identities(20),
        b.witness_tightness(2, 8), b.witness_hamming(10), b.witness_large_alphabet(5, 6),
    ]


WORKLOADS = {"analyze": analyze_cases, "taylor": taylor_cases, "phi": phi_cases}


def build_cases(workload, seed, work, tiny=False):
    """Write the workload's inputs under ``work`` and return its command list."""
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](Builder(rng, work), tiny)
