"""Exact arithmetic in a two-step tower of finite fields F_p < F_q < F_{q^r}.

The middle field F_q = F_p[y]/(base_modulus) has q = p^m elements and the
top field L = F_q[u]/(top_modulus) has q^r.  Elements are immutable
coefficient vectors (little-endian in the defining root) and every
operation is exact integer arithmetic mod p, so results are reproducible
bit for bit.

Besides the four field operations the tower knows the structure maps the
code constructions need: the q-power Frobenius generating Gal(L|F_q), the
trace and norm down to F_q, norm preimages, the Euler square test, the
skew unit with alpha^q = -alpha (quadratic towers only), and the cyclic
subgroups of F_q*.
"""

from __future__ import annotations

import itertools

from .errors import (
    BadTowerError,
    LevelMismatchError,
    NotADivisorError,
    ZeroInputError,
)

MID = "mid"
TOP = "top"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# One arithmetic record per field: F_p (ints), F_q (coordinate tuples) and
# L (tuples of F_q coordinates).  Element operators, exponentiation and the
# dense univariate polynomials below (which pick the moduli and their
# reduction tables) all go through it.
# ---------------------------------------------------------------------------


class _CoeffOps:
    """The arithmetic of one field on raw coordinates: its zero and one, the
    ring operations, the inverse of a nonzero element, and the field size."""

    __slots__ = ("zero", "one", "add", "sub", "neg", "mul", "inv", "size")

    def __init__(self, zero, one, add, sub, neg, mul, inv, size):
        self.zero = zero
        self.one = one
        self.add = add
        self.sub = sub
        self.neg = neg
        self.mul = mul
        self.inv = inv
        self.size = size


def _power(ops, a, e):
    """a^e for e >= 0 by square-and-multiply."""
    acc = ops.one
    while e > 0:
        if e & 1:
            acc = ops.mul(acc, a)
        a = ops.mul(a, a)
        e >>= 1
    return acc


def _poly_trim(ops, f):
    d = len(f)
    while d > 0 and f[d - 1] == ops.zero:
        d -= 1
    return f[:d]


def _poly_sub(ops, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else ops.zero
        y = b[i] if i < len(b) else ops.zero
        out.append(ops.sub(x, y))
    return _poly_trim(ops, out)


def _poly_mul(ops, a, b):
    if not a or not b:
        return []
    out = [ops.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == ops.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = ops.add(out[i + j], ops.mul(x, y))
    return _poly_trim(ops, out)


def _poly_mod(ops, a, f):
    """Remainder of a modulo f; f need not be monic."""
    a = list(a)
    df = len(f) - 1
    lead_inv = ops.inv(f[-1])
    while len(a) - 1 >= df and a:
        a = _poly_trim(ops, a)
        if len(a) - 1 < df:
            break
        c = ops.mul(a[-1], lead_inv)
        shift = len(a) - 1 - df
        for j in range(df + 1):
            a[shift + j] = ops.sub(a[shift + j], ops.mul(c, f[j]))
        a = _poly_trim(ops, a)
    return a


def _poly_gcd(ops, a, b):
    a = _poly_trim(ops, list(a))
    b = _poly_trim(ops, list(b))
    while b:
        a, b = b, _poly_mod(ops, a, b)
    return a


def _poly_powmod(ops, base, e, f):
    result = [ops.one]
    acc = _poly_mod(ops, base, f)
    while e > 0:
        if e & 1:
            result = _poly_mod(ops, _poly_mul(ops, result, acc), f)
        acc = _poly_mod(ops, _poly_mul(ops, acc, acc), f)
        e >>= 1
    return result


def _poly_is_irreducible(ops, f) -> bool:
    """Rabin test: f (monic, over a field of ops.size elements) is
    irreducible iff x^(s^n) = x mod f and gcd(x^(s^(n/t)) - x, f) = 1 for
    every prime t dividing n = deg f."""
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    x = [ops.zero, ops.one]
    top = _poly_powmod(ops, x, ops.size**n, f)
    if _poly_trim(ops, top) != x:
        return False
    for t in _prime_factors(n):
        g = _poly_powmod(ops, x, ops.size ** (n // t), f)
        gcd = _poly_gcd(ops, _poly_sub(ops, g, x), f)
        if len(gcd) - 1 > 0:
            return False
    return True


def _reduction_rows(ops, modulus):
    """Rows i = 0..d-2 hold x^(d+i) mod the degree-d modulus, as d
    coefficients; multiplication folds the high product terms through them."""
    d = len(modulus) - 1
    rows = []
    for i in range(d - 1):
        rem = _poly_mod(ops, [ops.zero] * (d + i) + [ops.one], modulus)
        rows.append(tuple(rem) + (ops.zero,) * (d - len(rem)))
    return rows


def _binomial_is_irreducible(ops, a, d) -> bool:
    """Whether x^d - a (a nonzero, over a field of s = ops.size elements) is
    irreducible: iff every prime factor of d divides e = ord(a) but not
    (s - 1)/e, and 4 | s - 1 when 4 | d (Lidl-Niederreiter, Finite Fields,
    Thm 3.75).  Every binomial of degree 1 is."""
    e = ops.size - 1  # stripped below to ord(a)
    for t in _prime_factors(e):
        while e % t == 0 and _power(ops, a, e // t) == ops.one:
            e //= t
    cofactor = (ops.size - 1) // e
    if any(e % t or cofactor % t == 0 for t in _prime_factors(d)):
        return False
    return d % 4 != 0 or (ops.size - 1) % 4 == 0


def _default_modulus(ops, elements, degree):
    """The least irreducible monic polynomial of the given degree over the
    field whose elements are listed in canonical order: binomials x^d - a
    with the smallest a first, decided in closed form, then the
    lexicographically smallest, skipping those x divides (degree 1 never
    gets there: x - 1 is irreducible)."""
    zero, one = ops.zero, ops.one
    for a in elements:
        if a != zero and _binomial_is_irreducible(ops, a, degree):
            return tuple([ops.neg(a)] + [zero] * (degree - 1) + [one])
    for tail in itertools.product(elements, repeat=degree):
        if tail[0] == zero:
            continue
        cand = list(tail) + [one]
        if _poly_is_irreducible(ops, cand):
            return tuple(cand)
    raise BadTowerError(f"no irreducible modulus of degree {degree} found")


def _parse_int(token: str, text: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(
            f"cannot parse field element {text!r}: {token!r} is not an integer"
        ) from None


def split_items(text: str) -> list:
    """Split ``text`` on the commas outside [..] brackets; a token whose
    brackets do not balance raises ValueError naming it."""
    tokens = []
    for part in text.split(","):
        if tokens and tokens[-1].count("[") > tokens[-1].count("]"):
            tokens[-1] += "," + part
        else:
            tokens.append(part)
    for tok in tokens:
        if tok.count("[") != tok.count("]"):
            raise ValueError(f"unbalanced brackets in {tok.strip()!r}")
    return tokens


def _list_items(text: str) -> list:
    """The items of a '[a,b,..]' list."""
    if not text.endswith("]"):
        raise ValueError(f"cannot parse field element {text!r}: a list must end with ']'")
    body = text[1:-1]
    return split_items(body) if body.strip() else []


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


class Elem:
    """An element at one level of a :class:`FieldTower`.

    ``coords`` is the canonical little-endian coefficient tuple over the
    next-lower level: ``m`` residues for F_q and ``r`` residue tuples for
    L.  Two elements are equal iff their levels and coordinate tuples are.
    """

    __slots__ = ("tower", "level", "coords")

    def __init__(self, tower: "FieldTower", level: str, coords: tuple):
        self.tower = tower
        self.level = level
        self.coords = coords

    # -- ring structure ----------------------------------------------------

    def _peer(self, other: "Elem") -> None:
        if not isinstance(other, Elem):
            raise TypeError(f"cannot combine Elem with {type(other).__name__}")
        if other.tower is not self.tower or other.level != self.level:
            raise LevelMismatchError(
                f"operands live at {self.level!r} and {other.level!r}"
            )

    def __add__(self, other):
        self._peer(other)
        ops = self.tower._ops[self.level]
        return Elem(self.tower, self.level, ops.add(self.coords, other.coords))

    def __sub__(self, other):
        self._peer(other)
        ops = self.tower._ops[self.level]
        return Elem(self.tower, self.level, ops.sub(self.coords, other.coords))

    def __neg__(self):
        ops = self.tower._ops[self.level]
        return Elem(self.tower, self.level, ops.neg(self.coords))

    def __mul__(self, other):
        self._peer(other)
        ops = self.tower._ops[self.level]
        return Elem(self.tower, self.level, ops.mul(self.coords, other.coords))

    def __truediv__(self, other):
        self._peer(other)
        if not other:
            raise ZeroDivisionError("division by zero field element")
        ops = self.tower._ops[self.level]
        return Elem(
            self.tower, self.level, ops.mul(self.coords, ops.inv(other.coords))
        )

    def __pow__(self, e: int):
        ops = self.tower._ops[self.level]
        base = self.coords
        if e < 0:
            if not self:
                raise ZeroDivisionError("inverse of zero")
            base, e = ops.inv(base), -e
        return Elem(self.tower, self.level, _power(ops, base, e))

    def __bool__(self):
        return self.coords != self.tower._ops[self.level].zero

    def __eq__(self, other):
        return (
            isinstance(other, Elem)
            and other.tower is self.tower
            and other.level == self.level
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((self.level, self.coords))

    # -- structure maps ------------------------------------------------------

    def frobenius(self, h: int = 1) -> "Elem":
        return self.tower.frobenius(self, h)

    def trace(self) -> "Elem":
        return self.tower.trace(self)

    def norm(self) -> "Elem":
        return self.tower.norm(self)

    # -- text form -----------------------------------------------------------

    def __str__(self):
        return self.tower.format_elem(self)

    def __repr__(self):
        return f"Elem({self.level}, {self.tower.format_elem(self)!r})"


# ---------------------------------------------------------------------------
# The tower
# ---------------------------------------------------------------------------


class FieldTower:
    """F_p < F_q = F_p[y]/(base_modulus) < L = F_q[u]/(top_modulus).

    Moduli are explicit constructor inputs so a particular field model can
    be pinned exactly; when omitted, a deterministic default is chosen
    (binomials x^d - a with the smallest admissible a first, then the
    lexicographically smallest irreducible).  All operations are pure and
    the tower is immutable, so instances can be shared freely.
    """

    def __init__(
        self,
        p: int,
        m: int,
        r: int,
        base_modulus=None,
        top_modulus=None,
        generator_of_units=None,
    ):
        if not _is_prime(p):
            raise BadTowerError(f"p = {p} is not prime")
        if m < 1 or r < 1:
            raise BadTowerError("extension degrees must be >= 1")
        self.p = p
        self.m = m
        self.r = r
        self.q = p**m
        self.top_order = self.q**r

        self._base_ops = _CoeffOps(
            zero=0,
            one=1,
            add=lambda a, b: (a + b) % p,
            sub=lambda a, b: (a - b) % p,
            neg=lambda a: (-a) % p,
            mul=lambda a, b: (a * b) % p,
            inv=lambda a: pow(a, -1, p),
            size=p,
        )

        if base_modulus is None:
            if m == 1:
                base_modulus = (0, 1)  # x itself; F_p[x]/(x) = F_p
            else:
                base_modulus = _default_modulus(self._base_ops, range(p), m)
        base_modulus = tuple(int(c) % p for c in base_modulus)
        if len(base_modulus) != m + 1 or base_modulus[-1] != 1:
            raise BadTowerError("base_modulus must be monic of degree m")
        if not _poly_is_irreducible(self._base_ops, list(base_modulus)):
            raise BadTowerError("base_modulus is reducible over F_p")
        self.base_modulus = base_modulus

        self._mid_red = _reduction_rows(self._base_ops, list(base_modulus))

        mid_zero = (0,) * m
        mid_one = (1,) + (0,) * (m - 1)
        self._mid_ops = _CoeffOps(
            zero=mid_zero,
            one=mid_one,
            add=self._mid_add,
            sub=self._mid_sub,
            neg=self._mid_neg,
            mul=self._mid_mul,
            inv=self._mid_inv,
            size=self.q,
        )

        if top_modulus is None:
            mids = list(itertools.product(range(p), repeat=m))
            top_modulus = _default_modulus(self._mid_ops, mids, r)
        top_modulus = tuple(self._as_mid_coords(c) for c in top_modulus)
        if len(top_modulus) != r + 1 or top_modulus[-1] != mid_one:
            raise BadTowerError("top_modulus must be monic of degree r")
        if not _poly_is_irreducible(self._mid_ops, list(top_modulus)):
            raise BadTowerError("top_modulus is reducible over F_q")
        self.top_modulus = top_modulus

        self._top_red = _reduction_rows(self._mid_ops, list(top_modulus))

        self._top_ops = _CoeffOps(
            zero=(mid_zero,) * r,
            one=(mid_one,) + (mid_zero,) * (r - 1),
            add=self._top_add,
            sub=self._top_sub,
            neg=self._top_neg,
            mul=self._top_mul,
            inv=self._top_inv,
            size=self.top_order,
        )
        self._ops = {MID: self._mid_ops, TOP: self._top_ops}

        if generator_of_units is None:
            generator_of_units = self._find_generator()
        else:
            generator_of_units = self.mid(generator_of_units)
        if self.multiplicative_order(generator_of_units) != self.q - 1:
            raise BadTowerError("generator_of_units does not generate F_q*")
        self.generator_of_units = generator_of_units

        self._skew_unit = None  # lazily located on first request

        # theta^h images of the power basis: _frob[h][t] = (u^t)^(q^h)
        u = self.top([0, 1] + [0] * (r - 2)) if r > 1 else self.top_one()
        self._frob: list[list[tuple]] = []
        for h in range(r):
            w = u ** (self.q**h)
            row, acc = [], self.top_one()
            for _t in range(r):
                row.append(acc.coords)
                acc = acc * w
            self._frob.append(row)

    # -- raw mid-level coordinate arithmetic --------------------------------

    def _mid_add(self, a, b):
        p = self.p
        if self.m == 1:
            return ((a[0] + b[0]) % p,)
        return tuple((x + y) % p for x, y in zip(a, b))

    def _mid_sub(self, a, b):
        p = self.p
        if self.m == 1:
            return ((a[0] - b[0]) % p,)
        return tuple((x - y) % p for x, y in zip(a, b))

    def _mid_neg(self, a):
        p = self.p
        if self.m == 1:
            return ((-a[0]) % p,)
        return tuple((-x) % p for x in a)

    def _mid_mul(self, a, b):
        p, m = self.p, self.m
        if m == 1:
            return ((a[0] * b[0]) % p,)
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        out = [c % p for c in conv[:m]]
        for i in range(m - 1):
            c = conv[m + i] % p
            if c:
                red = self._mid_red[i]
                for j in range(m):
                    out[j] = (out[j] + c * red[j]) % p
        return tuple(out)

    def _mid_inv(self, a):
        if a == self._mid_ops.zero:
            raise ZeroDivisionError("inverse of zero")
        if self.m == 1:
            return (pow(a[0], -1, self.p),)
        return _power(self._mid_ops, a, self.q - 2)

    # -- raw top-level coordinate arithmetic ---------------------------------

    def _top_add(self, a, b):
        return tuple(self._mid_add(x, y) for x, y in zip(a, b))

    def _top_sub(self, a, b):
        return tuple(self._mid_sub(x, y) for x, y in zip(a, b))

    def _top_neg(self, a):
        return tuple(self._mid_neg(x) for x in a)

    def _top_mul(self, a, b):
        r = self.r
        if r == 1:
            return (self._mid_mul(a[0], b[0]),)
        zero = self._mid_ops.zero
        conv = [zero] * (2 * r - 1)
        for i, x in enumerate(a):
            if x != zero:
                for j, y in enumerate(b):
                    if y != zero:
                        conv[i + j] = self._mid_add(conv[i + j], self._mid_mul(x, y))
        out = list(conv[:r])
        for i in range(r - 1):
            c = conv[r + i]
            if c != zero:
                red = self._top_red[i]
                for j in range(r):
                    out[j] = self._mid_add(out[j], self._mid_mul(c, red[j]))
        return tuple(out)

    def _top_inv(self, a):
        if a == self._top_ops.zero:
            raise ZeroDivisionError("inverse of zero")
        return _power(self._top_ops, a, self.top_order - 2)

    def coord_ops(self, level: str) -> _CoeffOps:
        """The coordinate arithmetic of one level: the record the element
        operators call, for loops that compute on raw ``coords``."""
        return self._ops[level]

    # -- constructors ----------------------------------------------------------

    def _as_mid_coords(self, x) -> tuple:
        if isinstance(x, Elem):
            if x.tower is not self:
                raise LevelMismatchError("element belongs to a different tower")
            if x.level != MID:
                raise LevelMismatchError("expected a mid-level element")
            return x.coords
        if isinstance(x, int):
            coords = [0] * self.m
            coords[0] = x % self.p
            return tuple(coords)
        coords = tuple(int(c) % self.p for c in x)
        if len(coords) != self.m:
            raise LevelMismatchError(f"mid coords must have length m = {self.m}")
        return coords

    def mid(self, x) -> Elem:
        """F_q element from an int (image of the integer) or coord sequence."""
        return Elem(self, MID, self._as_mid_coords(x))

    def top(self, x) -> Elem:
        """L element from an int, a lower-level element, or r coefficients."""
        if isinstance(x, Elem):
            if x.tower is not self:
                raise LevelMismatchError("element belongs to a different tower")
            if x.level == TOP:
                return x
            mid_c = self._as_mid_coords(x)
            return Elem(self, TOP, (mid_c,) + (self._mid_ops.zero,) * (self.r - 1))
        if isinstance(x, int):
            return self.top(self.mid(x))
        parts = [self._as_mid_coords(c) for c in x]
        if len(parts) != self.r:
            raise LevelMismatchError(f"top coords must have length r = {self.r}")
        return Elem(self, TOP, tuple(parts))

    def zero(self, level=TOP) -> Elem:
        return Elem(self, level, self._ops[level].zero)

    def one(self, level=TOP) -> Elem:
        return Elem(self, level, self._ops[level].one)

    def mid_zero(self) -> Elem:
        return self.zero(MID)

    def mid_one(self) -> Elem:
        return self.one(MID)

    def top_zero(self) -> Elem:
        return self.zero(TOP)

    def top_one(self) -> Elem:
        return self.one(TOP)

    def mid_basis(self) -> list:
        """The F_p-basis 1, y, .., y^(m-1) of F_q."""
        return [self.mid([int(i == s) for i in range(self.m)]) for s in range(self.m)]

    def as_mid(self, x: Elem) -> Elem:
        """Project a top element known to lie in F_q down to a mid element."""
        if x.level == MID:
            return x
        if x.level != TOP:
            raise LevelMismatchError("expected a top element")
        zero = self._mid_ops.zero
        if any(part != zero for part in x.coords[1:]):
            raise ValueError(f"{self.format_elem(x)} does not lie in F_q")
        return Elem(self, MID, x.coords[0])

    def in_mid_subfield(self, x: Elem) -> bool:
        zero = self._mid_ops.zero
        return x.level == TOP and all(part == zero for part in x.coords[1:])

    # -- enumeration (ascending canonical order) -------------------------------

    def mid_elements(self):
        for digits in itertools.product(range(self.p), repeat=self.m):
            yield Elem(self, MID, digits)

    def mid_units(self):
        for e in self.mid_elements():
            if e:
                yield e

    def top_elements(self):
        m, r = self.m, self.r
        for digits in itertools.product(range(self.p), repeat=m * r):
            coords = tuple(digits[i * m : (i + 1) * m] for i in range(r))
            yield Elem(self, TOP, coords)

    def top_units(self):
        for e in self.top_elements():
            if e:
                yield e

    # -- structure maps --------------------------------------------------------

    def frobenius(self, x: Elem, h: int = 1) -> Elem:
        """theta^h(x) = x^(q^h) for x in L; fixes F_q pointwise."""
        if x.level != TOP:
            raise LevelMismatchError("frobenius acts on top-level elements")
        h %= self.r
        if h == 0:
            return x
        table = self._frob[h]
        zero = self._mid_ops.zero
        acc = self._top_ops.zero
        for t, c in enumerate(x.coords):
            if c != zero:
                img = table[t]
                acc = self._top_add(
                    acc, tuple(self._mid_mul(c, part) for part in img)
                )
        return Elem(self, TOP, acc)

    def trace(self, x: Elem) -> Elem:
        """Tr_{L|F_q}(x) = sum of theta^h(x), returned at mid level."""
        acc = x
        for h in range(1, self.r):
            acc = acc + self.frobenius(x, h)
        return self.as_mid(acc)

    def norm(self, x: Elem) -> Elem:
        """N_{L|F_q}(x) = product of theta^h(x), returned at mid level."""
        acc = x
        for h in range(1, self.r):
            acc = acc * self.frobenius(x, h)
        return self.as_mid(acc)

    def norm_preimage(self, lam: Elem) -> Elem:
        """Any alpha in L with N(alpha) = lam; the norm is onto F_q*, and the
        candidate with the lexicographically least encoding is returned."""
        lam = self.as_mid(lam) if lam.level == TOP else lam
        if lam.level != MID:
            raise LevelMismatchError("norm_preimage expects an F_q element")
        if not lam:
            raise ZeroInputError("norm preimages are defined for nonzero targets")
        for cand in self.top_units():
            if self.norm(cand) == lam:
                return cand
        raise ZeroInputError("unreachable: norm is surjective onto F_q*")

    def is_square(self, x: Elem) -> bool:
        """Euler criterion in F_q: x^((q-1)/2) = 1. Requires odd q, nonzero x."""
        if self.q % 2 == 0:
            raise BadTowerError("square test requires odd q")
        if x.level == TOP:
            x = self.as_mid(x)
        if x.level != MID:
            raise LevelMismatchError("is_square expects an F_q element")
        if not x:
            raise ZeroInputError("is_square is undefined at zero")
        ops = self._mid_ops
        return _power(ops, x.coords, (self.q - 1) // 2) == ops.one

    def skew_unit(self) -> Elem:
        """The least alpha in L with alpha^q = -alpha and alpha not in F_q.

        Only quadratic towers with odd q carry one (the unit group then
        contains an element of order 2(q-1), whose (q-1)-th power is -1);
        its square lands in F_q and is a nonsquare there.
        """
        if self.r != 2:
            raise BadTowerError("skew_unit requires r = 2")
        if self.q % 2 == 0:
            raise BadTowerError("skew_unit requires odd q")
        if self._skew_unit is None:
            for cand in self.top_units():
                if self.in_mid_subfield(cand):
                    continue
                if self.frobenius(cand, 1) == -cand:
                    self._skew_unit = cand
                    break
            else:
                raise BadTowerError("unreachable: no alpha with alpha^q = -alpha")
        return self._skew_unit

    def subgroup_lambda(self, ell: int) -> tuple[Elem, ...]:
        """The unique order-ell subgroup of F_q*, listed as consecutive powers
        1, g0, g0^2, ... of the fixed generator g0 = g^((q-1)/ell)."""
        if ell < 1 or (self.q - 1) % ell != 0:
            raise NotADivisorError(f"ell = {ell} does not divide q-1 = {self.q - 1}")
        g0 = self.generator_of_units ** ((self.q - 1) // ell)
        out = [self.mid_one()]
        for _ in range(ell - 1):
            out.append(out[-1] * g0)
        return tuple(out)

    def multiplicative_order(self, x: Elem) -> int:
        """Order of x in F_q* (0 for the zero element)."""
        if not x:
            return 0
        order = 1
        acc = x
        while acc != self.mid_one():
            acc = acc * x
            order += 1
            if order > self.q:
                raise BadTowerError("order computation ran away")
        return order

    def _find_generator(self) -> Elem:
        for cand in self.mid_units():
            if self.multiplicative_order(cand) == self.q - 1:
                return cand
        raise BadTowerError("no generator found (is the base modulus irreducible?)")

    # -- text and serialisation ----------------------------------------------------

    def _format_mid_coords(self, coords) -> str:
        if self.m == 1:
            return str(coords[0])
        terms = []
        for i, c in enumerate(coords):
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}y")
            else:
                terms.append(f"{c}y^{i}")
        return "+".join(terms)

    def format_elem(self, x: Elem) -> str:
        if x.level == MID:
            return self._format_mid_coords(x.coords)
        parts = []
        for i, c in enumerate(x.coords):
            body = self._format_mid_coords(c)
            if self.m > 1:
                body = f"({body})"
            if i == 0:
                parts.append(body)
            elif i == 1:
                parts.append(f"{body}u")
            else:
                parts.append(f"{body}u^{i}")
        return "+".join(parts)

    def parse_mid(self, text: str) -> Elem:
        text = text.strip()
        if text.startswith("["):
            coords = [_parse_int(t, text) for t in _list_items(text)]
            return self.mid(coords + [0] * (self.m - len(coords)))
        return self.mid(_parse_int(text, text))

    def parse_top(self, text: str) -> Elem:
        """Parse 'c0+c1u' / 'c0+c1u+c2u^2' / '[c0,c1]' / '3u' / 'u' forms.

        Coefficient syntax assumes m = 1 (prime mid field); for m > 1 pass a
        list whose items are F_q elements in :meth:`parse_mid` syntax, as
        in '[[1,2],[2,1]]' (a bare integer item c is the image of c).
        """
        text = text.strip().replace(" ", "")
        if text.startswith("["):
            parts = [self.parse_mid(t) for t in _list_items(text)]
            return self.top(parts + [self.mid_zero()] * (self.r - len(parts)))
        if self.m != 1:
            raise ValueError("textual element syntax requires m = 1; use [..] lists")
        coords = [0] * self.r
        terms = text.replace("-", "+-")
        if terms.startswith("+"):
            terms = terms[1:]
        for term in terms.split("+"):
            if not term:
                continue
            if "u" in term:
                head, _, tail = term.partition("u")
                power = _parse_int(tail[1:], text) if tail.startswith("^") else 1
                if head in ("", "-"):
                    head += "1"
                coeff = _parse_int(head, text)
            else:
                power = 0
                coeff = _parse_int(term, text)
            if power >= self.r:
                raise ValueError(f"u^{power} exceeds extension degree r = {self.r}")
            coords[power] = (coords[power] + coeff) % self.p
        return self.top([[c] + [0] * (self.m - 1) for c in coords])

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "r": self.r,
            "base_modulus": list(self.base_modulus),
            "top_modulus": [list(c) for c in self.top_modulus],
            "generator_of_units": list(self.generator_of_units.coords),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FieldTower":
        return cls(
            d["p"],
            d["m"],
            d["r"],
            base_modulus=d.get("base_modulus"),
            top_modulus=d.get("top_modulus"),
            generator_of_units=d.get("generator_of_units"),
        )

    def __repr__(self):
        return f"FieldTower(p={self.p}, m={self.m}, r={self.r})"
