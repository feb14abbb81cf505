"""Twisted finite Fock algebra: basis, creation/annihilation, gaussians, monomials.

The model lives on the 4**n dimensional coefficient space spanned by
x_A for subsets A of the signed index set I = {-n,...,-1,1,...,n} in the
total order -n < ... < -1 < 1 < ... < n.  A subset is the bitmask whose
bit for index i sits at position i+n (i<0) or i+n-1 (i>0).  Left
creation b*_i sends x_A to sign(i,A) x_{A+i} when i is free, left
annihilation b_i sends x_A to sign(i,A) x_{A-i} when i is present, with
sign(i,A) the product of eps(i,j) over j in A below i.  The twisted
gaussian of index i is g_i = mu_i^{-1} b*_i + mu_i b_{-i}.

Every element X is a unique combination of the 4**n monomials
w_1 ... w_n with w_i in {1, g_i, g*_i, y_i}, y_i = g*_i g_i - mu_i^{-2},
indexed by their base-4 letter digits.  Applied to the vacuum each monomial
hits a single basis vector, of norm prod_i mu_i**(#g*_i - #g_i): the vacuum
weights (``vacuum_weights``) and the degrees (``monomial_degrees``) of the
words are products and sums over their digits, read off no matrix.

The model keeps the closed-form 2**n irrep, which every command reads; its
build checks the vacuum state and the vacuum weights there.  ``relations``
checks the relations and norms of the generators in the irrep
(``irrep_letter``, ``relation_residuals``): the 4**n model is 2**n copies of
the irrep, so a relation holds in one exactly when it holds in the other.
The 4**n bit layout is reached only through ``state.get_density``: the
sparse letter steps of the monomial table (``_letter_entries``,
``monomial_table``) and the density's factors (``_density_entries``) share
the pair-flip sign of y_i (``_pair_flip``), and ``get_density`` scatters the
one and checks it against the other.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .signs import ModelParams

__all__ = [
    "UNIT", "GEN", "STAR", "Y", "LETTER_DEGREE",
    "BabyFock", "get_model", "relation_residuals",
]

UNIT, GEN, STAR, Y = 0, 1, 2, 3
LETTER_DEGREE = (0, 1, 1, 2)


class BabyFock:
    """Concrete 4**n dimensional realization of one parameter set."""

    def __init__(self, params: ModelParams):
        self.params = params
        self.n = params.n
        self.dim = 4 ** params.n
        self.mu = np.asarray(params.mu)
        eps = params.signs.matrix()
        # signed index i -> bit position, ascending with the index order
        self._pos = {}
        for i in range(-self.n, self.n + 1):
            if i:
                self._pos[i] = i + self.n if i < 0 else i + self.n - 1
        # sign masks: bits of indices j < i with eps(i, j) = -1
        self._sign_mask = {}
        for i in self._pos:
            mask = 0
            for j in self._pos:
                if j >= i:
                    continue
                e = -1 if abs(i) == abs(j) else eps[abs(i) - 1, abs(j) - 1]
                if e == -1:
                    mask |= 1 << self._pos[j]
            self._sign_mask[i] = mask
        self._matrix_cache: dict = {}

    def _check_index(self, i: int):
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range for n={self.n}")

    def _cached(self, key, builder):
        mat = self._matrix_cache.get(key)
        if mat is None:
            mat = builder()
            for a in mat if isinstance(mat, tuple) else (mat,):
                a.setflags(write=False)
            self._matrix_cache[key] = mat
        return mat

    # ------------------------------------------------------------------
    # monomials and the density's factors on the 4**n layout
    # ------------------------------------------------------------------

    def windex_of(self, word) -> int:
        word = tuple(word)
        if len(word) != self.n:
            raise ValueError(f"word must have {self.n} letters, got {len(word)}")
        if any(l not in (UNIT, GEN, STAR, Y) for l in word):
            raise ValueError(f"unknown letter in word {word}")
        return sum(l << (2 * k) for k, l in enumerate(word))

    def _per_word(self, site_values, combine) -> np.ndarray:
        """combine.outer of the per-site arrays over every word, index n first: entry w is
        combine(...combine(f_n[d_n], f_(n-1)[d_(n-1)])..., f_1[d_1]) for the base-4 letter
        digits d_i of w, the most significant one at index n."""
        out = site_values(self.n - 1)
        for k in range(self.n - 2, -1, -1):
            out = combine.outer(out, site_values(k)).reshape(-1)
        return out

    @property
    def vacuum_weights(self) -> np.ndarray:
        """|M_w x_empty|**2 = prod_i mu_i**(2 (#g*_i - #g_i)) per word: g_i x_empty =
        mu_i**-1 x_{i}, g*_i x_empty = mu_i x_{-i} and y_i x_empty = +-x_{-i, i}, so M_w
        sends the vacuum to one basis vector.  Its amplitude is taken index n first, as
        the letters act, and squared last."""
        return self._cached(("weights",), lambda: self._per_word(
            lambda k: np.array([1.0, 1.0 / self.mu[k], self.mu[k], 1.0]), np.multiply) ** 2)

    @property
    def monomial_degrees(self) -> np.ndarray:
        """Per word, the sum of ``LETTER_DEGREE`` over its letters."""
        return self._cached(("degree",), lambda: self._per_word(
            lambda k: np.array(LETTER_DEGREE), np.add))

    def embedding_condition(self) -> float:
        """Condition number of the monomial -> vacuum-vector bijection."""
        w = self.vacuum_weights
        return float(np.sqrt(np.max(w)) / np.sqrt(np.min(w)))

    def _sign(self, i: int, rows):
        """sign(i, A) = (-1)**popcount(A & sign_mask(i)) for each row bitmask A."""
        return 1.0 - 2.0 * (np.bitwise_count(rows & self._sign_mask[i]) & 1)

    def _pair_flip(self, i: int, row):
        """(mask, rows, sign) of the flip x_A -> sign x_{A ^ {-i, i}} that y_i and p_i apply
        to the rows A whose pair of +-i is empty or full (``mask``), with sign =
        sign(i, A - {-i}) sign(-i, A)."""
        bit, neg = 1 << self._pos[i], 1 << self._pos[-i]
        mask = ((row & bit) == 0) == ((row & neg) == 0)
        return mask, row ^ (bit | neg), self._sign(i, row & ~neg) * self._sign(-i, row)

    def _letter_entries(self, letter: int, i: int, word, row, col, val):
        """Entries (word, row, col, val) of L_i M_w from those of M_w: one sparse
        step of letter L_i at index i, b*_i and b_i sending x_A to sign(i, A) x_{A +- i}.

        Every row of M_w e_col has the +-i bits of col when the letters of w lie
        above index i, so a letter sends distinct entries to distinct (row, col)
        and the table needs no combine step.  y_i is in closed form: the diagonal
        mu_i**2 [-i in A] - mu_i**-2 [i in A] (exact zeros dropped) plus the
        ``_pair_flip`` of an empty or full pair.
        """
        mu, bit, neg = self.mu[i - 1], 1 << self._pos[i], 1 << self._pos[-i]
        if letter == Y:
            diag = np.where(row & neg, mu ** 2, 0.0) - np.where(row & bit, mu ** -2, 0.0)
            terms = [(diag != 0.0, row, diag), self._pair_flip(i, row)]
        else:
            # g_i = mu**-1 b*_i + mu b_-i and g*_i = mu**-1 b_i + mu b*_-i
            create = letter == GEN
            terms = [(((row & bit) == 0) == create, row ^ bit, self._sign(i, row) * (1.0 / mu)),
                     (((row & neg) == 0) != create, row ^ neg, self._sign(-i, row) * mu)]
        word = word + (letter << 2 * (i - 1))
        return [(word[m], r[m], col[m], val[m] * f[m]) for m, r, f in terms]

    def monomial_table(self):
        """(word, row, col, val): every non-zero of every monomial matrix M_w, one entry
        per (w, row, col), built once and cached (at most 17**n entries).

        Level by level, index n first: g_i, g*_i and y_i act on the entries of every
        word whose letters lie above index i, 3n sparse steps in all.
        """

        def build():
            col = np.arange(self.dim)
            entries = (np.zeros_like(col), col, col, np.ones(col.size))
            for i in range(self.n, 0, -1):
                parts = [entries]
                for letter in (GEN, STAR, Y):
                    parts += self._letter_entries(letter, i, *entries)
                entries = tuple(np.concatenate(a) for a in zip(*parts))
            return entries

        return self._cached(("table",), build)

    def _density_entries(self, alpha: float):
        """(row, col, val) of prod_i F_i**alpha, F_i = (1 - lambda_i) (1 - p_i) + lambda_i p_i
        with lambda_i = 1/(1 + mu_i**4) and the projection p_i = g*_i g_i / (mu_i**2 + mu_i**-2).

        p_i acts on the bits of +-i alone: lambda_i, 1, 0 and 1 - lambda_i on the diagonal of
        the pair states {}, {-i}, {i} and {-i, i}, plus sqrt(lambda_i (1 - lambda_i)) times
        y_i's ``_pair_flip``.  So F_i**alpha = (1 - lambda_i)**alpha (1 - p_i) + lambda_i**alpha
        p_i is the matching diagonal plus the flip with value (lambda_i**alpha - (1 -
        lambda_i)**alpha) sqrt(lambda_i (1 - lambda_i)).  From the identity's diagonal each
        factor sends an entry to its own row and at most one flipped row, distinct rows for
        distinct entries of a column, so no combine step is needed.
        """
        row = col = np.arange(self.dim)
        val = np.ones(self.dim)
        for i in range(1, self.n + 1):
            lam = 1.0 / (1.0 + self.mu[i - 1] ** 4)
            off, on = (1.0 - lam) ** alpha, lam ** alpha
            diag = np.array([off * (1.0 - lam) + on * lam, on, off, off * lam + on * (1.0 - lam)])
            pair = (row >> self._pos[-i] & 1) | (row >> self._pos[i] & 1) << 1
            mask, flipped, sign = self._pair_flip(i, row)
            flip = (on - off) * np.sqrt(lam * (1.0 - lam)) * sign[mask]
            row, col, val = (np.concatenate([row, flipped[mask]]),
                             np.concatenate([col, col[mask]]),
                             np.concatenate([val * diag[pair], val[mask] * flip]))
        return row, col, val

    def irrep(self):
        """(flip, vals, rho): the 2**n dimensional irreducible representation
        in closed form (twisted Jordan-Wigner), built from ``params`` alone.

        On site i (bit i - 1), pi(g_i) = sqrt(mu_i**2 + mu_i**-2) Z..Z a_i, a = |0><1|,
        with Z on each site j < i where eps(i, j) = -1, and pi(y_i) = (mu_i**2 +
        mu_i**-2) n_i - mu_i**-2.  Row r of pi(M_w) has its one non-zero, ``vals[w, r]``
        (0 on a dead row), at column r ^ ``flip[w]``: g_i and g*_i both flip bit i - 1, so
        2**n groups of 2**n words share one column map.  ``rho`` is the diagonal of the
        density prod_i ((1 - lambda_i) + (2 lambda_i - 1) n_i), a product of two-level
        factors of trace one each, so no computed trace is divided out.  The build checks
        trace(rho pi(M_w)) = tau(M_w) and trace(rho pi(M_w)* pi(M_w)) = ``vacuum_weights``,
        a sum over the irrep's site values with lambda_i against prod_i mu_i**(+-2)."""

        def build():
            n, eps, c = self.n, self.params.signs.matrix(), self.mu ** 2 + self.mu ** -2
            rows = np.arange(1 << n)
            letters = []            # per site: (flipped bit, value) of g, g*, y
            for k in range(n):
                zmask = sum(1 << j for j in range(k) if eps[k, j] == -1)
                gval = np.sqrt(c[k]) * (1.0 - 2.0 * (np.bitwise_count(rows & zmask) & 1))
                full = (rows & (1 << k)) != 0
                letters.append((None, (1 << k, np.where(full, 0.0, gval)),
                                (1 << k, np.where(full, gval, 0.0)),
                                (0, np.where(full, c[k], 0.0) - self.mu[k] ** -2)))
            # site by site from the highest: the words on sites k..n-1 are the four
            # letters of site k (base-4 digit k) times the words on sites k+1..n-1, so
            # each row of vals is v_k * (v_k' * (...)) over its sites k < k' < ...
            flip, vals = np.zeros(1, np.int64), np.ones((1, rows.size))
            for k in range(n - 1, -1, -1):
                new_flip = np.empty((flip.size, 4), np.int64)
                new_vals = np.empty((flip.size, 4, rows.size))
                new_flip[:, 0], new_vals[:, 0] = flip, vals
                for d, (bit, v) in enumerate(letters[k][1:], 1):
                    new_flip[:, d], new_vals[:, d] = flip ^ bit, v * vals[:, rows ^ bit]
                flip, vals = new_flip.reshape(-1), new_vals.reshape(-1, rows.size)
            lam = 1.0 / (1.0 + self.mu ** 4)
            rho = np.prod([np.where(rows & 1 << k, lam[k], 1 - lam[k]) for k in range(n)], axis=0)
            traces = np.sum(np.where(flip[:, None] == 0, vals, 0.0) * rho, axis=1)
            traces[0] -= 1.0
            weights = np.sum(rho[rows ^ flip[:, None]] * vals ** 2, axis=1)
            weights /= self.vacuum_weights
            # np.max propagates a NaN from an overflowed entry, and NaN <= tol is False
            if not np.max(np.abs(np.concatenate([traces, weights - 1.0]))) <= 1e-12:
                raise AssertionError("closed-form irrep does not reproduce the vacuum state")
            return flip, vals, rho

        return self._cached(("irrep",), build)

    def irrep_sum(self, coeffs: np.ndarray, p: float) -> np.ndarray:
        """sum_w c_w pi(M_w) rho**(1/p) per row c, (K, 2**n, 2**n); pi(x) itself at p = inf."""
        flip, vals, rho = self.irrep()
        coeffs = np.atleast_2d(coeffs)
        if coeffs.ndim != 2 or coeffs.shape[1] != flip.size:
            raise ValueError(f"expected rows of {flip.size} coefficients, got {coeffs.shape}")
        rows, rp = np.arange(rho.size), rho ** (1.0 / p)
        out = np.empty((coeffs.shape[0], rho.size, rho.size), dtype=np.complex128)
        for m, words in enumerate(np.argsort(flip, kind="stable").reshape(rho.size, -1)):
            out[:, rows, rows ^ m] = coeffs[:, words] @ (vals[words] * rp[rows ^ m])
        return out

    def irrep_add(self, mats: np.ndarray, words: np.ndarray, coeffs: np.ndarray, p: float):
        """mats[j] += coeffs[j] pi(M_{words[j]}) rho**(1/p) in place: 2**n entries per j."""
        flip, vals, rho = self.irrep()
        j, rows = np.arange(len(words))[:, None], np.arange(rho.size)
        cols = rows ^ flip[words][:, None]
        mats[j, rows, cols] += coeffs[:, None] * (vals[words] * (rho ** (1.0 / p))[cols])

    def irrep_matrix(self, word) -> np.ndarray:
        """Dense 2**n x 2**n pi(M_w) of the monomial with the given letter tuple."""
        out = np.zeros((1, 1 << self.n, 1 << self.n))
        self.irrep_add(out, [self.windex_of(word)], np.ones(1), np.inf)
        return out[0]

    def irrep_letter(self, letter: int, i: int) -> np.ndarray:
        """Dense pi of one letter (GEN, STAR or Y) at index i: pi(g_i) for GEN."""
        self._check_index(i)
        return self.irrep_matrix(tuple(letter if k == i - 1 else UNIT for k in range(self.n)))


def relation_residuals(gens: np.ndarray, eps: np.ndarray, mu) -> dict:
    """Residuals of the four relation families of the generators ``gens[i - 1]`` = g_i,
    by name and in this order: commutation g_i g_j = eps(i, j) g_j g_i (i < j),
    star_commutation g*_i g_j = eps(i, j) g_j g*_i (i != j), square g_i**2 = g*_i**2 = 0
    and anticommutator g*_i g_i + g_i g*_i = c_i, c_i = mu_i**2 + mu_i**-2.

    The first three are max absolute entries.  The anticommutator is relative to c_i: the
    entries of pi(g_i) are +-sqrt(c_i), and sqrt(c_i)**2 rounds away from c_i (by 7.5e-9
    at mu_i = 6618.4).  ``eps`` need not be the table the generators were built with, so
    a wrong table can be checked against them.
    """
    gens, mu = np.asarray(gens), np.asarray(mu, dtype=float)
    stars, c = gens.conj().swapaxes(-1, -2), mu ** 2 + mu ** -2
    gg = gens[:, None] @ gens[None, :]          # [i, j] = g_i g_j
    sg = stars[:, None] @ gens[None, :]         # [i, j] = g*_i g_j
    gs = gens[:, None] @ stars[None, :]         # [i, j] = g_i g*_j
    i, j = np.triu_indices(len(gens), 1)
    a, b = np.nonzero(~np.eye(len(gens), dtype=bool))
    d = np.arange(len(gens))
    anti = sg[d, d] + gs[d, d] - c[:, None, None] * np.eye(gens.shape[-1])

    def maxabs(M):
        return float(np.max(np.abs(M), initial=0.0))

    return {"commutation": maxabs(gg[i, j] - eps[i, j, None, None] * gg[j, i]),
            "star_commutation": maxabs(sg[a, b] - eps[a, b, None, None] * gs[b, a]),
            "square": max(maxabs(gg[d, d]), maxabs(stars @ stars)),
            "anticommutator": maxabs(anti / c[:, None, None])}


@lru_cache(maxsize=64)
def get_model(params: ModelParams) -> BabyFock:
    """Shared, cached model instance for a parameter set."""
    return BabyFock(params)
