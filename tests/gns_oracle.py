"""The 4**n GNS model as the tests' oracle: monomial coefficients <-> dense matrices.

``qhyper`` takes every number a command reports in the closed-form 2**n
dimensional irreducible representation (``BabyFock.irrep``).  This module
reaches the same numbers on the 4**n GNS representation of a ``BabyFock``
model, where an element is a dense 4**n x 4**n matrix on the coefficient
space.  ``reconstruct`` scatters monomial coefficients through the sparse
monomial table (``BabyFock.monomial_table``), ``expand`` reads them back off
the vacuum column, the table's column-0 entries (``vacuum_column``), and the
Haagerup norm is the Schatten norm of the dense product x D**(1/p) with the
4**n density ``qhyper.state.get_density``, read through the module so that a
test can patch it.  Every function is a plain function of a model; no
command and no benchmark workload reaches any of them.  The letters act through the dense kernels (``apply_beta_batch`` and
``apply_gamma``/``apply_gamma_star`` on it), which ``qhyper`` no longer holds:
its density and monomial table are sparse steps on the same bit layout, and
``kernel_density`` is the kernels' own build of D to compare them with.
``verify_relations`` and ``generator_norm`` check the letter kernels
themselves: they apply them to one 0/1 probe column per class of basis
columns, the 4**n counterpart of the ``relations`` command's checks on the
irrep (``qhyper.babyfock.relation_residuals``).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from paper_reference import apply_OU_coeffs
from qhyper import state
from qhyper.babyfock import GEN, LETTER_DEGREE, STAR, UNIT, Y, BabyFock, get_model
from qhyper.linalg import schatten_norm

# ============================================================================
# the letter kernels
# ============================================================================


def apply_beta_batch(vec, bit, sign_mask, create, weight, out=None):
    """Accumulate weight * beta(vec) into out for one signed index.

    ``vec`` has shape (dim, ...) complex128; basis row ``a`` is the
    occupation bitmask.  Creation maps a -> a|bit when the bit is free,
    annihilation maps a -> a&~bit when it is set, both with the sign
    (-1)**popcount(a & sign_mask).  ``out`` may be any (dim, ...) view;
    it is written through.  Splitting the row axis as (high bits, the
    operator's bit, low bits) turns a -> a ^ bit into a strided view of
    input and output, so a letter is one broadcast multiply-add.
    """
    vec = np.asarray(vec, dtype=np.complex128)
    if out is None:
        out = np.zeros(vec.shape, dtype=np.complex128)
    dim = vec.shape[0]
    # row a = (hi, b, lo) with b the bit: splitting axis 0 is a view
    split = (dim // (2 * bit), 2, bit) + vec.shape[1:]
    src, dst = (0, 1) if create else (1, 0)
    rows = np.arange(dim).reshape(split[:3])[:, src]
    sign = 1.0 - 2.0 * (np.bitwise_count(rows & sign_mask) & 1)
    coef = (complex(weight) * sign).reshape(rows.shape + (1,) * (vec.ndim - 1))
    out.reshape(split)[:, dst] += coef * vec.reshape(split)[:, src]
    return out


def _check_signed_index(model: BabyFock, i: int):
    if i == 0 or abs(i) > model.n:
        raise ValueError(f"index {i} out of range for n={model.n}")


def apply_creation(model: BabyFock, i: int, vec, weight=1.0, out=None):
    """weight b*_i vec: x_A -> sign(i, A) x_{A + i} for i not in A."""
    _check_signed_index(model, i)
    return apply_beta_batch(vec, 1 << model._pos[i], model._sign_mask[i], True, weight, out=out)


def apply_annihilation(model: BabyFock, i: int, vec, weight=1.0, out=None):
    """weight b_i vec: x_A -> sign(i, A) x_{A - i} for i in A."""
    _check_signed_index(model, i)
    return apply_beta_batch(vec, 1 << model._pos[i], model._sign_mask[i], False, weight, out=out)


def apply_gamma(model: BabyFock, i: int, vec):
    """g_i = mu_i**-1 b*_i + mu_i b_-i applied to a vector or the columns of a matrix."""
    model._check_index(i)
    mu = model.mu[i - 1]
    out = apply_creation(model, i, vec, 1.0 / mu)
    return apply_annihilation(model, -i, vec, mu, out=out)


def apply_gamma_star(model: BabyFock, i: int, vec):
    """g*_i = mu_i**-1 b_i + mu_i b*_-i applied to a vector or the columns of a matrix."""
    model._check_index(i)
    mu = model.mu[i - 1]
    out = apply_annihilation(model, i, vec, 1.0 / mu)
    return apply_creation(model, -i, vec, mu, out=out)


def identity(model: BabyFock) -> np.ndarray:
    return np.eye(model.dim, dtype=np.complex128)


def vacuum_vector(model: BabyFock) -> np.ndarray:
    v = np.zeros(model.dim, dtype=np.complex128)
    v[0] = 1.0
    return v


def kernel_density(model: BabyFock, alpha: float = 1.0) -> np.ndarray:
    """D**alpha = 2**(-n alpha) prod_i F_i**alpha applied to the identity by the letter
    kernels, F_i**alpha X = (1 - lambda_i)**alpha X + (lambda_i**alpha - (1 - lambda_i)**alpha)
    g*_i g_i X / (mu_i**2 + mu_i**-2): the independent side of ``state.get_density``'s
    closed form, which shares its pair-flip sign with the monomial table."""
    X = identity(model)
    for i, mu in enumerate(model.mu, 1):
        lam = 1.0 / (1.0 + mu ** 4)
        off, on = (1.0 - lam) ** alpha, lam ** alpha
        pX = apply_gamma_star(model, i, apply_gamma(model, i, X))
        pX *= (on - off) / (mu ** 2 + mu ** -2)
        X *= off
        X += pX
    return X * 2.0 ** (-model.n * alpha)


# ============================================================================
# letters, words and the coefficient <-> matrix map
# ============================================================================


def vacuum_state(X: np.ndarray) -> complex:
    """tau(X) = <X x_empty, x_empty>: the first entry of the vacuum column."""
    return complex(X[0, 0])


def word_of(model: BabyFock, windex: int) -> tuple:
    """Letter tuple (index 1 first) of a linear monomial index."""
    return tuple((windex >> (2 * k)) & 3 for k in range(model.n))


def apply_y(model: BabyFock, i: int, vec):
    """y_i = g*_i g_i - mu_i**-2 applied to a vector or the columns of a matrix."""
    out = apply_gamma_star(model, i, apply_gamma(model, i, vec))
    out -= vec / model.mu[i - 1] ** 2
    return out


def apply_letter(model: BabyFock, letter: int, i: int, vec):
    """The letter (UNIT, GEN, STAR or Y) at index i applied to vec; UNIT copies it."""
    if letter == UNIT:
        return np.array(vec, dtype=np.complex128, copy=True)
    if letter == GEN:
        return apply_gamma(model, i, vec)
    if letter == STAR:
        return apply_gamma_star(model, i, vec)
    if letter == Y:
        return apply_y(model, i, vec)
    raise ValueError(f"unknown letter {letter}")


def monomial_matrix(model: BabyFock, word) -> np.ndarray:
    """Dense matrix of the monomial with the given letter tuple, the letters
    applied right to left, index n first: the oracle for the monomial table."""
    X = identity(model)
    for k in range(model.n - 1, -1, -1):
        if word[k] != UNIT:
            X = apply_letter(model, word[k], k + 1, X)
    return X


def vacuum_column(model: BabyFock) -> tuple:
    """(target, amp): M_w x_empty = amp[w] x_target[w], from the column-0 entries of the
    monomial table, cached on the model."""

    def build():
        word, row, col, val = model.monomial_table()
        first = col == 0
        target, amp = np.zeros(model.dim, np.int64), np.zeros(model.dim)
        target[word[first]], amp[word[first]] = row[first], val[first]
        return target, amp

    return model._cached(("vacuum column",), build)


def expand(model: BabyFock, X: np.ndarray) -> np.ndarray:
    """Monomial coefficients of X (exact inverse of the embedding)."""
    target, amp = vacuum_column(model)
    v = X[:, 0] if X.ndim == 2 else X
    return v[target] / amp


def reconstruct(model: BabyFock, coeffs: np.ndarray) -> np.ndarray:
    """Dense matrix of sum_w coeffs[w] M_w, scattered from the monomial table."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (model.dim,):
        raise ValueError(
            f"expected {model.dim} monomial coefficients, got shape {coeffs.shape}")
    word, row, col, val = model.monomial_table()
    flat, terms = row * model.dim + col, coeffs[word] * val
    out = np.empty(model.dim * model.dim, dtype=np.complex128)
    out.real = np.bincount(flat, terms.real, out.size)
    out.imag = np.bincount(flat, terms.imag, out.size)
    return out.reshape(model.dim, model.dim)


def random_element(model: BabyFock, rng, scale: float = 1.0) -> np.ndarray:
    """Random algebra element with i.i.d. complex gaussian coefficients."""
    c = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    return reconstruct(model, scale * c)


def embed_lower(x_small: np.ndarray, small: BabyFock, big: BabyFock) -> np.ndarray:
    """Lift an element of the model on indices 1..k into a larger model.

    Words over the first k indices keep the same linear index in the
    larger model (higher letters are the unit), so this is a coefficient
    zero-pad followed by reconstruction.  The small model must be the big
    one restricted to its indices (``ModelParams.sub``): weights and signs.
    """
    if small.n > big.n or small.params != big.params.sub(small.n):
        raise ValueError("small model is not an initial segment of the big model")
    coeffs = np.zeros(big.dim, dtype=np.complex128)
    coeffs[:small.dim] = expand(small, np.asarray(x_small))
    return reconstruct(big, coeffs)


# ============================================================================
# the generator relations and norms on class probes
# ============================================================================


def _class_probe(model: BabyFock, *indices):
    """(probe, masks) for the bits of +-i, i in ``indices``: ``masks[k]`` sets
    the bits that spell class k, and probe column k is the 0/1 sum of the basis
    columns in class k.

    An operator that flips only these bits sends the columns of one class to
    disjoint rows, so its product with the probe keeps every entry of its
    matrix, each the same floating-point expression, in 4**len(indices) columns.
    """
    bits = [1 << model._pos[s * i] for i in indices for s in (-1, 1)]
    masks = np.array([sum(b for t, b in enumerate(bits) if k >> t & 1)
                      for k in range(1 << len(bits))])
    rows = np.arange(model.dim)
    probe = np.zeros((model.dim, masks.size), dtype=np.complex128)
    probe[rows, sum(((rows & b) != 0) << t for t, b in enumerate(bits))] = 1.0
    return probe, masks


def generator_norm(model: BabyFock, i: int) -> float:
    """Operator norm of g_i: the largest 2-norm of its 4x4 blocks on the bits
    of +-i, one per setting of the other bits (exact, no dense matrix)."""
    model._check_index(i)
    probe, masks = _class_probe(model, i)
    outer = np.flatnonzero(probe[:, 0])
    blocks = apply_gamma(model, i, probe)[outer[:, None] | masks]
    return float(np.max(np.linalg.svd(blocks, compute_uv=False)[:, 0]))


def verify_relations(model: BabyFock, check_signs=None) -> dict:
    """Max absolute residuals of the four generator relation families, by name:
    commutation, star_commutation, square and anticommutator, in that order.

    Each relation operator flips only the bits of +-i and +-j, so it is
    applied, by the letter kernels, to the (4**n, 16) class probe of the
    pair (i, j) or the (4**n, 4) probe of i: the residuals are those of the
    dense matrices, bit for bit.  ``check_signs`` lets the relations be
    tested against a different sign table than the one used to build the
    operators (mutation testing); by default the model's own table is used.
    """
    eps = (check_signs or model.params.signs).matrix()
    g, gs = partial(apply_gamma, model), partial(apply_gamma_star, model)

    def maxabs(M):
        return float(np.max(np.abs(M)))

    comm = 0.0
    star_comm = 0.0
    for i in range(1, model.n + 1):
        for j in range(i + 1, model.n + 1):
            probe, _ = _class_probe(model, i, j)
            gam = {k: g(k, probe) for k in (i, j)}
            gst = {k: gs(k, probe) for k in (i, j)}
            r = g(i, gam[j]) - eps[i - 1, j - 1] * g(j, gam[i])
            comm = max(comm, maxabs(r))
            for a, b in ((i, j), (j, i)):
                r = gs(a, gam[b]) - eps[a - 1, b - 1] * g(b, gst[a])
                star_comm = max(star_comm, maxabs(r))
    square = 0.0
    anti = 0.0
    for i in range(1, model.n + 1):
        probe, _ = _class_probe(model, i)
        gam, gst = g(i, probe), gs(i, probe)
        square = max(square, maxabs(g(i, gam)), maxabs(gs(i, gst)))
        acomm = gs(i, gam) + g(i, gst)
        acomm -= (model.mu[i - 1] ** 2 + model.mu[i - 1] ** -2) * probe
        anti = max(anti, maxabs(acomm))
    return {"commutation": comm, "star_commutation": star_comm,
            "square": square, "anticommutator": anti}


# ============================================================================
# Haagerup norms and the modular relation
# ============================================================================


def eigh_power(D, alpha):
    """D**alpha by eigh, with eigenvalues in [-1e-12, 0) clipped to 0: v w**alpha v*."""
    w, v = np.linalg.eigh(D)
    w = np.where((w < 0) & (w >= -1e-12), 0.0, w)
    return (v * w ** alpha) @ v.conj().T


def haagerup_norm(model: BabyFock, x: np.ndarray, p: float) -> float:
    """||x D**(1/p)||_p, the Schatten p-norm under the plain trace on C**(4**n),
    under which D has trace one."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return schatten_norm(np.asarray(x) @ state.get_density(model, 1.0 / p), p)


def modular_check(model: BabyFock, p: float) -> list:
    """Relative residuals of D**(1/p) g_k = mu_k**(4/p) g_k D**(1/p), per index.

    Each side is one letter application: g_k D**(1/p) applies g_k, and
    D**(1/p) g_k = (g*_k D**(1/p))* because D**(1/p) is Hermitian.
    """
    dp = state.get_density(model, 1.0 / p)
    out = []
    for k in range(1, model.n + 1):
        lhs = apply_gamma_star(model, k, dp).conj().T
        rhs = model.mu[k - 1] ** (4.0 / p) * apply_gamma(model, k, dp)
        scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-300)
        out.append(float(np.linalg.norm(lhs - rhs) / scale))
    return out


# ============================================================================
# the semigroup on dense elements
# ============================================================================


def apply_OU(model: BabyFock, X: np.ndarray, t: float) -> np.ndarray:
    """P_t(X) through the monomial expansion, cross-checked on vacuum vectors."""
    out = reconstruct(model, apply_OU_coeffs(model, expand(model, X), t))
    direct = np.exp(-t * np.bitwise_count(np.arange(model.dim))) * np.asarray(X)[:, 0]
    scale = max(float(np.linalg.norm(direct)), 1e-300)
    if np.linalg.norm(out[:, 0] - direct) > 1e-10 * scale:
        raise AssertionError("monomial and vacuum-vector routes disagree")
    return out


def apply_Ti(model: BabyFock, X: np.ndarray, i: int, t: float) -> np.ndarray:
    """The per-index factor: scales the letter at index i only."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not (1 <= i <= model.n):
        raise ValueError(f"index {i} out of range")
    deg = (np.arange(model.dim) >> (2 * (i - 1))) & 3
    deg = np.asarray(LETTER_DEGREE)[deg]
    return reconstruct(model, expand(model, X) * np.exp(-t * deg))


def cp_randomized_check(model: BabyFock, i: int, t: float, samples: int,
                        seed: int, k: int = 2) -> dict:
    """Randomized witness search for positivity of T_i tensor id on M_k blocks.

    Draws PSD matrices G G* with algebra-valued blocks, pushes them
    through T_i blockwise, and records the most negative eigenvalue seen
    plus the worst state-preservation error tau(T_i X) vs tau(X).
    """
    if not (1 <= k <= 4):
        raise ValueError("block size k must be in 1..4")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    dim = model.dim
    min_eig = np.inf
    state_resid = 0.0
    for _ in range(samples):
        blocks = np.empty((k, k, dim, dim), dtype=np.complex128)
        for a in range(k):
            for b in range(k):
                blocks[a, b] = random_element(model, rng, scale=1.0 / np.sqrt(dim))
        G = blocks.transpose(0, 2, 1, 3).reshape(k * dim, k * dim)
        Z = G @ G.conj().T
        scale = float(np.linalg.norm(Z))
        out = np.empty_like(Z)
        for a in range(k):
            for b in range(k):
                blk = Z[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim]
                out[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim] = \
                    apply_Ti(model, blk, i, t)
                if a == b:
                    sr = abs(out[a * dim, b * dim] - blk[0, 0])
                    state_resid = max(state_resid, float(sr))
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(out)) / max(scale, 1e-300)))
    return {"min_eigenvalue": min_eig, "state_residual": state_resid}


def l2_pythagoras_residual(model: BabyFock, a, b, c, d, t: float) -> float:
    """Residual of the four-term L2 identity for X = a + g_n b + g*_n c + y_n d.

    a, b, c, d are elements of the model on indices 1..n-1; the right
    side combines their P_t images in that smaller model with weights
    1, mu^-2 e^{-2t}, mu^2 e^{-2t}, e^{-4t}.
    """
    small = get_model(model.params.sub(model.n - 1))
    n = model.n
    mu = model.mu[n - 1]
    parts = [embed_lower(x, small, model) for x in (a, b, c, d)]
    X = parts[0] + apply_gamma(model, n, parts[1]) \
        + apply_gamma_star(model, n, parts[2]) + apply_y(model, n, parts[3])
    lhs = np.linalg.norm(apply_OU(model, X, t)[:, 0]) ** 2
    weights = (1.0, mu ** -2 * np.exp(-2 * t), mu ** 2 * np.exp(-2 * t), np.exp(-4 * t))
    rhs = sum(w * np.linalg.norm(apply_OU(small, np.asarray(x), t)[:, 0]) ** 2
              for w, x in zip(weights, (a, b, c, d)))
    return float(abs(lhs - rhs) / max(lhs, 1e-300))


# ============================================================================
# contraction ratios
# ============================================================================


def _l2_weights(model: BabyFock, t: float) -> np.ndarray:
    """Per-monomial weight |M_w x_empty|**2 exp(-2 t deg_w): squared L2 norm terms."""
    return model.vacuum_weights * np.exp(-2.0 * t * model.monomial_degrees)


def contraction_ratio(model: BabyFock, X: np.ndarray, t: float, p: float) -> float:
    """|| P_t(X) D**(1/2) ||_2 / || X D**(1/p) ||_p."""
    coeffs = expand(model, X)
    if not np.any(np.abs(coeffs) > 0):
        raise ValueError("zero element has no contraction ratio")
    num = np.sqrt(float(np.sum(_l2_weights(model, t) * np.abs(coeffs) ** 2)))
    den = haagerup_norm(model, X, p)
    return float(num / den)


def dual_contraction_ratio(model: BabyFock, X: np.ndarray, t: float, pprime: float) -> float:
    """|| P_t(X) D**(1/p') ||_p' / || X D**(1/2) ||_2."""
    coeffs = expand(model, X)
    if not np.any(np.abs(coeffs) > 0):
        raise ValueError("zero element has no contraction ratio")
    num = haagerup_norm(model, reconstruct(model, apply_OU_coeffs(model, coeffs, t)), pprime)
    den = np.sqrt(float(np.sum(_l2_weights(model, 0.0) * np.abs(coeffs) ** 2)))
    return float(num / den)
