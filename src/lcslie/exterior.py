"""Exterior algebra on the dual of a Lie algebra.

K-forms carry exact rational coefficients indexed by strictly increasing
tuples of basis indices.  Values are read off the coefficients: theta(x)
is a dot product, and higher degrees go through the interior product
i_v a = a(v, ...) (interior), so omega(x, y) = (i_x omega)(y).  The
Chevalley-Eilenberg differential follows the convention that
d(alpha)(X, Y) = -alpha([X, Y]) on 1-forms, extended to higher degree as
an antiderivation, so the structure-equation tuples are literally the
expansions of the d(e^k).  The complex itself indexes its basis forms by
bitmasks (bit i-1 for e^i) and carries integer entries: one term
expansion of L d_theta(e^K), L the least common denominator of the
structure constants and theta, serves both ce_differential (which takes
and returns KForms, dividing by L), differential_matrix, which also
assembles a single weight block (weight_block) of the complex, and
check_jacobi, which tests d(d(e^k)) = 0.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import add, sub

from .algebra import MAX_DIM
from .linalg import clear_denominators

_ZERO = Fraction(0)


class KForm:
    """Alternating k-form with exact rational coefficients.

    coeffs maps strictly increasing index tuples (1-based) to nonzero
    Fractions; missing keys are zero.  Degree-0 forms are scalars keyed
    by ().  Degrees above the ambient dimension admit no valid keys, so
    only the zero form exists there.  The constructor checks every key and
    value it is given; the forms that this module builds itself
    (interior, ce_differential, +, -, scalar *) come from well-formed keys
    and nonzero Fractions and skip that check through _form.
    """

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim, degree, coeffs=None):
        if not (1 <= dim <= MAX_DIM):
            raise ValueError(f"ambient dimension must be in 1..{MAX_DIM}")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean = {}
        for key, value in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise ValueError(f"key {key} has length {len(key)}, degree is {degree}")
            if any(not (1 <= i <= dim) for i in key):
                raise ValueError(f"key {key} out of range for dim {dim}")
            if any(key[a] >= key[a + 1] for a in range(len(key) - 1)):
                raise ValueError(f"key {key} is not strictly increasing")
            value = value if type(value) is Fraction else Fraction(value)
            if value:
                clean[key] = value
        if degree > dim and clean:
            raise ValueError(f"nonzero form of degree {degree} impossible in dim {dim}")
        self.dim = dim
        self.degree = degree
        self.coeffs = clean

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, key):
        return self.coeffs.get(tuple(key), _ZERO)

    def _check_compatible(self, other):
        if self.dim != other.dim:
            raise ValueError("ambient dimension mismatch")
        if self.degree != other.degree:
            raise ValueError("degree mismatch")

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return (self.dim, self.degree, self.coeffs) == (other.dim, other.degree, other.coeffs)

    def __hash__(self):
        return hash((self.dim, self.degree, frozenset(self.coeffs.items())))

    def __add__(self, other):
        self._check_compatible(other)
        coeffs = dict(self.coeffs)
        for key, value in other.coeffs.items():
            value += coeffs.get(key, 0)
            if value:
                coeffs[key] = value
            else:
                del coeffs[key]
        return _form(self.dim, self.degree, coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _form(self.dim, self.degree, {k: -v for k, v in self.coeffs.items()})

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        coeffs = {k: scalar * v for k, v in self.coeffs.items()} if scalar else {}
        return _form(self.dim, self.degree, coeffs)

    __mul__ = __rmul__

    def __repr__(self):
        if not self.coeffs:
            return f"KForm({self.dim}, {self.degree}, 0)"
        parts = [f"{v}*e^{''.join(map(str, k))}" for k, v in sorted(self.coeffs.items())]
        return f"KForm({self.dim}, {self.degree}, {' + '.join(parts)})"


def _form(dim, degree, coeffs):
    """The KForm with these coefficients, unchecked: its keys are well formed
    and its values nonzero Fractions by construction."""
    form = object.__new__(KForm)
    form.dim, form.degree, form.coeffs = dim, degree, coeffs
    return form


def basis_form(dim, indices, coeff=1):
    """coeff * e^{i1...ik} for strictly increasing indices."""
    return KForm(dim, len(indices), {tuple(indices): Fraction(coeff)})


def one_form(dim, coefficients):
    """1-form from its n coefficients on e^1..e^n."""
    if len(coefficients) != dim:
        raise ValueError("coefficient count does not match dimension")
    return KForm(dim, 1, {(i,): c for i, c in enumerate(coefficients, 1) if c})


def interior(v, a):
    """The interior product i_v a = a(v, ...), a form of one degree less.

    i_v e^K = sum_a (-1)^a v_{k_a} e^{K minus k_a} for K = (k_0 < ... < k_p),
    summed in integers: v and the coefficients of a each over their least
    common denominator, the product of the two dividing every sum once.
    """
    if not a.degree:
        raise ValueError("degree must be nonnegative")
    den_v, v = clear_denominators(v)
    den_a = lcm(*(c.denominator for c in a.coeffs.values()))
    sums = {}
    for key, c in a.coeffs.items():
        c = c.numerator * (den_a // c.denominator)
        for pos, k in enumerate(key):
            x = v[k - 1]
            if x:
                rest = key[:pos] + key[pos + 1 :]
                sums[rest] = sums.get(rest, 0) + (-x if pos & 1 else x) * c
    den = den_v * den_a
    return _form(a.dim, a.degree - 1, {key: Fraction(x, den) for key, x in sums.items() if x})


def form_masks(dim, degree):
    """Basis forms of a degree as bitmasks (bit i-1 for e^i), increasing.

    Increasing masks are the colexicographic order of the index sets;
    the Chevalley-Eilenberg complex is indexed by these masks.
    """
    return sorted(sum(1 << i for i in c) for c in combinations(range(dim), degree))


def mask_key(mask):
    """The strictly increasing index tuple of a bitmask, lowest set bit first."""
    key = []
    while mask:
        low = mask & -mask
        key.append(low.bit_length())
        mask ^= low
    return tuple(key)


def form_basis(dim, degree):
    """Strictly increasing index tuples in colexicographic order.

    Colex rank of a tuple is independent of the ambient dimension, which
    keeps the degree-wise matrix layouts stable when comparing algebras
    of different sizes.  The order is form_masks's.
    """
    return [mask_key(m) for m in form_masks(dim, degree)]


def form_to_vector(a, basis=None):
    """Coefficient vector of a over form_basis(a.dim, a.degree)."""
    basis = basis if basis is not None else form_basis(a.dim, a.degree)
    return [a.coeffs.get(key, _ZERO) for key in basis]


def vector_to_form(dim, degree, vec, basis=None):
    basis = basis if basis is not None else form_basis(dim, degree)
    return KForm(dim, degree, dict(zip(basis, vec)))


def differential_scale(g, theta=None):
    """L, the least positive integer that clears the denominators of g's
    structure constants and of theta, so that L d_theta is integral."""
    twist = () if theta is None else (t.denominator for t in theta.coeffs.values())
    return lcm(g.d_masks[0], *twist)


def _expansion(g, theta=None):
    """(L, expand): expand(mask) yields the terms (mask', x) of L d_theta(e^mask)
    = sum x e^mask', x an int; masks may repeat.  L is differential_scale's.

    d(e^m) = -sum_{i<j} c^m_ij e^ij comes from the algebra's d_masks.  With
    K = (k_1 < ... < k_p), the antiderivation rule puts
    e^{k_1..k_{a-1}} ^ d(e^{k_a}) ^ e^{k_{a+1}..k_p} in d(e^K); in the term
    for e^ij, with R = K minus k_a, moving e^i and e^j into place from
    position a costs (-1)^(#R<i + #R<j), so with the rule's (-1)^(a-1) the
    sign is (-1)^(a + #R<i + #R<j) for 0-based a.  On bitmasks a = #K<k_a,
    and the parity of #R<i + #R<j is that of the elements of R between i
    and j, so the sign is the parity of one popcount.  theta, when given,
    subtracts theta ^ e^K, which is (-1)^(#K<l) theta_l on K plus l.
    """
    base, table = g.d_masks
    scale = differential_scale(g, theta)
    if scale != base:
        table = [(bit, [(pair, between, x * (scale // base)) for pair, between, x in terms])
                 for bit, terms in table]
    twist = () if theta is None else [
        (1 << l - 1, t.numerator * (scale // t.denominator)) for (l,), t in theta.coeffs.items()
    ]

    def expand(key):
        for bit, terms in table:
            if not key & bit:
                continue
            rest = key ^ bit
            before = key & bit - 1
            for pair, between, x in terms:
                if not rest & pair:
                    odd = (before ^ rest & between).bit_count() & 1
                    yield rest | pair, -x if odd else x
        for bit, t in twist:
            if not key & bit:
                yield key | bit, t if (key & bit - 1).bit_count() & 1 else -t

    return scale, expand


def ce_differential(g, a, theta=None):
    """Chevalley-Eilenberg differential d(a), or d_theta(a) = d(a) - theta ^ a.

    Expands only the keys of a, with the terms differential_matrix puts
    in their columns, sums them in integers, with a's coefficients over
    their least common denominator D, and divides each sum by D L, L the
    scale of the terms.  d_theta squares to zero only for closed theta;
    checking that is the caller's part.
    """
    if a.dim != g.dim:
        raise ValueError("form does not live on this algebra")
    scale, expand = _expansion(g, theta)
    den = lcm(*(c.denominator for c in a.coeffs.values()))
    sums = {}
    for key, c in a.coeffs.items():
        c = c.numerator * (den // c.denominator)
        for target, x in expand(sum(1 << i - 1 for i in key)):
            sums[target] = sums.get(target, 0) + c * x
    den *= scale
    return _form(g.dim, a.degree + 1, {mask_key(t): Fraction(x, den) for t, x in sums.items() if x})


def differential_matrix(g, degree, theta=None, keys=None):
    """Sparse integer matrix of L d (or L d_theta) from degree-forms to
    (degree+1)-forms, with L = differential_scale(g, theta).

    Scaling by L changes neither the rank, nor the kernel, nor the column
    span.  keys = (domain, codomain) lists the bitmasks of the basis forms
    of the columns and of the rows; by default they are form_masks(dim,
    degree) and form_masks(dim, degree + 1) (colexicographic, so there are
    C(dim, degree) columns).  Row r is a dict {column: int}; empty rows are
    kept.  theta, when given, twists the differential to d - theta ^ (.).
    Column c is L ce_differential of the c-th domain form, assembled from
    the same term expansion.  A block such as weight_block's must be
    mapped into itself, so a term outside the codomain raises.
    """
    domain, codomain = keys or (form_masks(g.dim, degree), form_masks(g.dim, degree + 1))
    _, expand = _expansion(g, theta)
    cod_index = {key: r for r, key in enumerate(codomain)}
    rows = [{} for _ in cod_index]
    for col, key in enumerate(domain):
        for target, x in expand(key):
            r = cod_index.get(target)
            if r is None:
                raise RuntimeError(f"d_theta leaves its weight block in degree {degree}")
            rows[r][col] = rows[r].get(col, 0) + x
    return [{c: x for c, x in row.items() if x} for row in rows]


def diagonal_weights(g):
    """{i: (a_1, ..., a_n)} for every e_i whose ad is diagonal in the basis.

    [e_i, e_j] = a_j e_j for every j, read exactly off the bracket table;
    a_i = 0, and a central e_i has all a_j = 0.
    """
    weights = {i: [Fraction(0)] * g.dim for i in range(1, g.dim + 1)}
    for (i, j), terms in g.brackets.items():
        # ad_{e_i} e_j = [e_i, e_j] and ad_{e_j} e_i = -[e_i, e_j]
        for x, y, sign in ((i, j, 1), (j, i, -1)):
            if x not in weights:
                continue
            if terms.keys() == {y}:
                weights[x][y - 1] = sign * terms[y]
            else:
                del weights[x]
    return {i: tuple(a) for i, a in weights.items()}


def weight_block(g, theta=None):
    """Keys of the block of d_theta that carries its cohomology, per degree 0..dim.

    For each e_i of diagonal_weights, ad_{e_i} e_k = a_k e_k, so the Lie
    derivative L_{e_i} multiplies e^K by its weight -sum_{k in K} a_k.  For
    closed theta, Cartan's formula i_X d_theta + d_theta i_X = L_X -
    theta(X) shows that these L_{e_i}, which commute with d_theta and with
    each other, split the complex into joint eigenspaces, and that every
    eigenspace on which some L_{e_i} - theta(e_i) is nonzero is acyclic
    (Hochschild and Serre).  The block kept holds the keys of weight
    theta(e_i) (0 for d) under every diagonal e_i; with none, it is the
    whole complex.

    The keys are bitmasks, as differential_matrix takes them, and those of
    each degree come in increasing (colexicographic) order: one walk
    decides the elements from n down to 1, leaving each out before putting
    it in.  It enters a branch only when the weight still needed, scaled
    to integers, is the sum of a subset of the elements left, so every
    branch ends in a kept key.
    """
    n = g.dim
    scaled, targets = [], []
    for i, a in diagonal_weights(g).items():
        t = theta.coefficient((i,)) if theta is not None else Fraction(0)
        if t or any(a):  # a central e_i with theta(e_i) = 0 keeps every key
            scale = lcm(t.denominator, *(x.denominator for x in a))
            scaled.append([int(-x * scale) for x in a])
            targets.append(int(t * scale))
    weight = [tuple(row[k] for row in scaled) for k in range(n)]  # of e^(k+1)
    reachable = [{(0,) * len(targets)}]  # sums over the subsets of the first m elements
    for w in weight:
        reachable.append(reachable[-1] | {tuple(map(add, s, w)) for s in reachable[-1]})
    keys = [[] for _ in range(n + 1)]

    def walk(m, need, chosen):
        if m == 0:
            keys[chosen.bit_count()].append(chosen)
            return
        below = reachable[m - 1]
        if need in below:
            walk(m - 1, need, chosen)
        rest = tuple(map(sub, need, weight[m - 1]))
        if rest in below:
            walk(m - 1, rest, chosen | 1 << m - 1)

    targets = tuple(targets)
    if targets in reachable[n]:
        walk(n, targets, 0)
    return keys


def check_jacobi(g):
    """(True, None) or (False, (i, j, k)) with a violating basis triple.

    The Jacobi identity is d(d(e^m)) = 0 for every m: on 1-forms
    d(alpha)(X, Y) = -alpha([X, Y]), so d(d(e^m))(e_i, e_j, e_k) is, up to
    sign, e^m of the cyclic sum [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j].
    d(d(e^m)) is summed over the terms of the integer table d_masks, each
    2-form term expanded as the complex expands it; the triples with a
    nonzero coefficient for some m are exactly those where Jacobi fails,
    and the witness is the lexicographically first of them.
    """
    _, expand = _expansion(g)
    failing = set()
    for _, terms in g.d_masks[1]:
        total = {}
        for pair, _, x in terms:
            for key, y in expand(pair):
                total[key] = total.get(key, 0) + x * y
        failing.update(key for key, v in total.items() if v)
    if failing:
        return False, min(map(mask_key, failing))
    return True, None


def is_unimodular(g):
    """True iff trace(ad_{e_i}) = 0 for every basis vector."""
    return not any(g.ad_traces())
