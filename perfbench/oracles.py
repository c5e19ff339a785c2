"""Output oracles for the benchmark workloads.

Every expected value here is derived from first principles with plain integer
arithmetic; nothing is imported from ``eiszeta``, so an oracle never shares a
code path with the operations it checks.  Each check returns a list of
problem strings; an empty list means the output is correct.

Facts used:

* For an even j with (p-1) not dividing j, the power sum S_j = sum_{a<p} a^j
  satisfies S_j = p*B_j mod p^2, so B_j mod p = (S_j mod p^2)/p.  The branch j
  carries a zero of zeta_p exactly when p divides the numerator of B_j
  (Kummer's criterion; the same idea as the power-sum oracle of the
  acceptance suite, reimplemented here).
* On a nontrivial branch j the L-function is a power series in (1+p)^s - 1
  with p-integral coefficients, so its value at every s is congruent mod p to
  L_p(1-j) = -(1 - p^(j-1)) B_j / j, i.e. to -B_j/j.
* On the trivial branch the value at s carries the pole factor and has
  valuation -1 - v_p(s-1).
"""

from __future__ import annotations

import hashlib

CHECK_NAMES = ("eigensystem_crit", "eigensystem_ord", "theta_twin", "zeta_constant_term")


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi], by trial division."""
    out = []
    for n in range(max(lo, 2), hi + 1):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def bernoulli_mod_p(p: int) -> dict[int, int]:
    """B_j mod p for every even j in [2, p-3], from power sums mod p^2."""
    m = p * p
    sums = dict.fromkeys(range(2, p - 2, 2), 0)
    for a in range(1, p):
        a2 = a * a % m
        pw = 1
        for j in sums:
            pw = pw * a2 % m
            sums[j] += pw
    return {j: (s % m) // p for j, s in sums.items()}


def irregular_branches(p: int) -> list[int]:
    """The even j in [2, p-3] with p | numerator(B_j)."""
    return [j for j, b in bernoulli_mod_p(p).items() if b == 0]


def admissible_points(p: int, k_from: int, k_to: int) -> list[tuple[int, int, int]]:
    """Critical points (p, k, i) of a scan window, in scan order."""
    return [
        (p, k, i)
        for k in range(k_from, k_to + 1)
        for i in range(p - 1)
        if (k - i) % 2 == 0 and not (k == 2 and i == 0)
    ]


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def check_point(rec: dict, p: int, k: int, i: int, precision: int, terms: int,
                bern: dict[int, int]) -> list[str]:
    """Problems with one analysed-point record (the ``report_to_dict`` form)."""
    bad = []
    where = f"(p={p},k={k},i={i})"
    head = (rec.get("p"), rec.get("k"), rec.get("i"), rec.get("precision"), rec.get("terms"))
    if head != (p, k, i, precision, terms):
        return [f"{where}: record header {head}"]
    checks = rec.get("checks", {})
    if sorted(checks) != sorted(CHECK_NAMES):
        bad.append(f"{where}: checks {sorted(checks)}")
    bad += [f"{where}: check {n} failed" for n, c in checks.items() if not c.get("passed")]
    if rec.get("slope") != k - 1:
        bad.append(f"{where}: slope {rec.get('slope')}")
    if rec.get("selmer_dims") != [1, 0]:
        bad.append(f"{where}: selmer dims {rec.get('selmer_dims')}")
    # U_p eigenvalue is exactly p^(k-1)
    up = {"valuation": k - 1, "unit_digits_base_p": [1] + [0] * (precision - 1),
          "precision": k - 1 + precision}
    if rec.get("up_eigenvalue") != up:
        bad.append(f"{where}: U_p eigenvalue {rec.get('up_eigenvalue')}")
    j = (2 - k - i) % (p - 1)
    twin = {"k": 2 - k, "i": (-i) % (p - 1), "branch": j, "s": 2 - k}
    if rec.get("twin") != twin:
        bad.append(f"{where}: twin {rec.get('twin')}")
    value = rec.get("zeta_twin", {}).get("value", {})
    if j == 0:
        want = -1 - _vp(k - 2, p)
        if value.get("valuation") != want:
            bad.append(f"{where}: trivial-branch zeta valuation {value.get('valuation')} != {want}")
    else:
        residue = -bern[j] * pow(j, -1, p) % p
        if residue:
            if value.get("valuation") != 0 or value["unit_digits_base_p"][0] != residue:
                bad.append(f"{where}: zeta_twin mod p is not {residue}")
        elif value.get("valuation", 1) < 1:
            bad.append(f"{where}: zeta_twin is a unit on a zero-carrying branch")
    status = rec.get("verdict_etale", {}).get("status")
    if all(bern.values()):
        allowed = {"etale_provably"}
    elif j == 0 or bern[j]:
        allowed = {"etale_at_precision"}  # zeta_twin is visibly nonzero
    else:
        allowed = {"etale_at_precision", "zero_to_precision"}
    if status not in allowed:
        bad.append(f"{where}: verdict {status}, expected one of {sorted(allowed)}")
    return bad


def check_zero_locus(p: int, precision: int, hits: list[tuple[int, int, int, int, int]]) -> list[str]:
    """Problems with one irregular_scan result, given as (j, branch,
    grid_precision, baseline_valuation, number of elevated points) rows."""
    want = irregular_branches(p)
    got = [h[0] for h in hits]
    if got != want:
        return [f"p={p}: branches {got} != {want}"]
    bad = []
    for j, branch, grid_prec, baseline, n_elevated in hits:
        if branch != j or grid_prec != precision:
            bad.append(f"p={p}, j={j}: witness labelled branch {branch}, precision {grid_prec}")
        if baseline < 1:
            bad.append(f"p={p}, j={j}: baseline valuation {baseline} < 1")
        if n_elevated == 0:
            bad.append(f"p={p}, j={j}: no elevated grid point")
    return bad


def census_records(p: int) -> list[dict]:
    """The records ``scan --irregular-only`` must print for the single prime p."""
    return [{"type": "irregular_branch", "p": p, "branch": j,
             "bernoulli_numerator_divisible": True} for j in irregular_branches(p)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
