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
from functools import reduce

from .errors import (
    BadTowerError,
    LevelMismatchError,
    NotADivisorError,
    ZeroInputError,
)

MID = "mid"
TOP = "top"

# A level of at most this many elements multiplies through exp/log tables
# once it has made as many products as the tables have entries.
_TABLE_MAX = 4096


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


def _sqrt(ops, a, q: int, z):
    """A square root of a in F_q, q odd, by Tonelli-Shanks, or None when a
    is not a square; z is any nonsquare."""
    s, t = 0, q - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    root, b, c = _power(ops, a, (t + 1) // 2), _power(ops, a, t), _power(ops, z, t)
    while b != ops.one:  # root^2 = a * b, and b has order 2^i for some i < s
        i, b2 = 0, b
        while b2 != ops.one:
            b2, i = ops.mul(b2, b2), i + 1
            if i == s:
                return None
        for _ in range(s - i - 1):
            c = ops.mul(c, c)
        root, c = ops.mul(root, c), ops.mul(c, c)
        b, s = ops.mul(b, c), i
    return root


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


def _order(ops, a) -> int:
    """ord(a) for a nonzero a in a field of s = ops.size elements: s - 1
    stripped of each prime factor t while a^(e/t) = 1."""
    e = ops.size - 1
    for t in _prime_factors(e):
        while e % t == 0 and _power(ops, a, e // t) == ops.one:
            e //= t
    return e


def _binomial_is_irreducible(ops, a, d) -> bool:
    """Whether x^d - a (a nonzero, over a field of s = ops.size elements) is
    irreducible: iff every prime factor of d divides e = ord(a) but not
    (s - 1)/e, and 4 | s - 1 when 4 | d (Lidl-Niederreiter, Finite Fields,
    Thm 3.75).  Every binomial of degree 1 is."""
    e = _order(ops, a)
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
    if token in ("", "-"):
        raise ValueError(f"cannot parse field element {text!r}: a term is empty")
    try:
        return int(token)
    except ValueError:
        raise ValueError(
            f"cannot parse field element {text!r}: {token!r} is not an integer"
        ) from None


def split_items(text: str, given: str = "") -> list:
    """Split ``text`` on the commas outside [..] brackets; a token whose
    brackets do not balance raises ValueError naming it, and an empty item
    one naming ``given``, the text as the user gave it (default ``text``)."""
    tokens = []
    for part in text.split(","):
        if tokens and tokens[-1].count("[") > tokens[-1].count("]"):
            tokens[-1] += "," + part
        else:
            tokens.append(part)
    for tok in tokens:
        if tok.count("[") != tok.count("]"):
            raise ValueError(f"unbalanced brackets in {tok.strip()!r}")
        if not tok.strip():
            raise ValueError(f"cannot parse field element {given or text!r}: an item is empty")
    return tokens


def _list_items(text: str, most: int, what: str) -> list:
    """The items of a '[a,b,..]' list of at most ``most`` coordinates."""
    if not text.endswith("]"):
        raise ValueError(f"cannot parse field element {text!r}: a list must end with ']'")
    body = text[1:-1]
    items = split_items(body, text) if body.strip() else []
    if len(items) > most:
        raise ValueError(f"cannot parse field element {text!r}: {what} = {most}")
    return items


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
        if other.tower is not self.tower:
            raise LevelMismatchError("operands belong to different towers")
        if other.level != self.level:
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
        return Elem(self.tower, self.level, ops.mul(self.coords, ops.inv(other.coords)))

    def __pow__(self, e: int):
        ops = self.tower._ops[self.level]
        base = self.coords
        if e < 0:  # ops.inv refuses zero
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
    lexicographically smallest irreducible).  Operations are pure and the
    tables a level builds on the way change no result, so towers can be shared.
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
        if _prime_factors(p) != [p]:
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

        # theta^h images of the power basis: _frob[h][t] = (u^t)^(q^h), as
        # coordinates (_frob[0] is the power basis itself); the coordinate
        # kernels of skew and tlrs read it too.  They sum over h to the
        # trace row, _trace_row[t] = Tr(u^t) in F_q.  tlrs reads the trace
        # form, _trace_form[e] = Tr(u^e) for e = 0 .. 3r - 3.
        u = self.top([0, 1] + [0] * (r - 2)) if r > 1 else self.top_one()
        self._frob: list[list[tuple]] = []
        for h in range(r):
            w = u ** (self.q**h)
            row, acc = [], self.top_one()
            for _t in range(r):
                row.append(acc.coords)
                acc = acc * w
            self._frob.append(row)
        self._trace_row = [reduce(self._mid_add, [i[0] for i in col]) for col in zip(*self._frob)]
        powers = itertools.accumulate([u.coords] * (3 * r - 3), self._top_mul,
                                      initial=self._top_ops.one)
        self._trace_form = [self._trace(x) for x in powers]

        # Construction multiplies on the convolution; from here on, a level
        # small enough for tables counts its products (m = 1 keeps F_p's).
        for level, ops in self._ops.items():
            if ops.size <= _TABLE_MAX and (level == TOP or m > 1):
                ops.mul = self._counted(level, ops)

    def _counted(self, level: str, ops: _CoeffOps):
        """The level's product: its convolution up to the n-th call, n = size
        - 1, which builds the tables (for n more convolutions), then theirs."""
        conv, left = ops.mul, ops.size - 1

        def mul(a, b):
            nonlocal left
            left -= 1
            if left > 0:
                return conv(a, b)
            if ops.mul is mul:  # no tables yet; once built, only cached copies get here
                self._tabulate(level, ops, conv)
            return ops.mul(a, b)

        return mul

    def _tabulate(self, level: str, ops: _CoeffOps, conv) -> None:
        """Zech's exp/log tables (K. Huber, IEEE Trans. IT 36, 1990) from the
        least generator g in canonical order: exp[i] = g^i, stored twice so a
        sum of two logs indexes it, and log its inverse.  They replace the
        level's product and inverse and, at the top, theta^h: log times q^h."""
        n, zero = ops.size - 1, ops.zero
        by_conv = _CoeffOps(zero, ops.one, None, None, None, conv, None, ops.size)
        units = self.top_units() if level == TOP else self.mid_units()
        g = next(x.coords for x in units if _order(by_conv, x.coords) == n)
        exp = list(itertools.accumulate(itertools.repeat(g, n - 1), conv, initial=ops.one))
        log = {x: i for i, x in enumerate(exp)}
        exp += exp

        def inv(a):
            if a == zero:
                raise ZeroDivisionError("inverse of zero")
            return exp[n - log[a]]

        ops.mul = lambda a, b: zero if a == zero or b == zero else exp[log[a] + log[b]]
        ops.inv = inv
        if level == TOP:
            self._theta = lambda x, h: x if x == zero else exp[log[x] * self.q ** (h % self.r) % n]

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
        r, mul, zero = self.r, self._mid_ops.mul, self._mid_ops.zero
        if r == 1:
            return (mul(a[0], b[0]),)
        conv = [zero] * (2 * r - 1)
        for i, x in enumerate(a):
            if x != zero:
                for j, y in enumerate(b):
                    if y != zero:
                        conv[i + j] = self._mid_add(conv[i + j], mul(x, y))
        out = list(conv[:r])
        for i in range(r - 1):
            c = conv[r + i]
            if c != zero:
                red = self._top_red[i]
                for j in range(r):
                    out[j] = self._mid_add(out[j], mul(c, red[j]))
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

    def _top_coords(self, x: Elem, name: str) -> tuple:
        if x.level != TOP:
            raise LevelMismatchError(f"{name} acts on top-level elements")
        return x.coords

    def frobenius(self, x: Elem, h: int = 1) -> Elem:
        """theta^h(x) = x^(q^h) for x in L; fixes F_q pointwise."""
        return Elem(self, TOP, self._theta(self._top_coords(x, "frobenius"), h))

    def _theta(self, x: tuple, h: int) -> tuple:
        """theta^h on the coordinates of a top element: sum_t x_t theta^h(u^t)."""
        h %= self.r
        if h == 0:
            return x
        zero, mul = self._mid_ops.zero, self._mid_ops.mul
        acc = self._top_ops.zero
        for t, c in enumerate(x):
            if c != zero:
                acc = self._top_add(acc, tuple(mul(c, part) for part in self._frob[h][t]))
        return acc

    def _trace(self, x: tuple) -> tuple:
        """Tr_{L|F_q} on the coordinates of a top element; the trace is
        F_q-linear, so it is sum_t x_t Tr(u^t)."""
        return reduce(self._mid_add, map(self._mid_ops.mul, x, self._trace_row))

    def trace(self, x: Elem) -> Elem:
        """Tr_{L|F_q}(x) = sum of theta^h(x), returned at mid level."""
        return Elem(self, MID, self._trace(self._top_coords(x, "trace")))

    def norm(self, x: Elem) -> Elem:
        """N_{L|F_q}(x) = product of theta^h(x), returned at mid level."""
        x = self._top_coords(x, "norm")
        images = (self._theta(x, h) for h in range(self.r))
        return self.as_mid(Elem(self, TOP, reduce(self._top_ops.mul, images)))

    def norm_preimage(self, lam: Elem) -> Elem:
        """Any alpha in L with N(alpha) = lam; the norm is onto F_q*, and the
        candidate with the lexicographically least encoding is returned.

        For r = 2 and odd q, N(x0 + x1 u) = x0^2 - b x0 x1 + c x1^2 for the
        top modulus u^2 + b u + c, so for each x0 in canonical order the
        least x1, if any, is the lesser root (b x0 +- s) / 2c with
        s^2 = b^2 x0^2 - 4c (x0^2 - lam).  Other towers scan L."""
        lam = self.as_mid(lam) if lam.level == TOP else lam
        if lam.level != MID:
            raise LevelMismatchError("norm_preimage expects an F_q element")
        if not lam:
            raise ZeroInputError("norm preimages are defined for nonzero targets")
        if self.r == 2 and self.p > 2:
            ops = self._mid_ops
            mul, add, sub, zero = ops.mul, ops.add, ops.sub, ops.zero
            c, b = self.top_modulus[:2]
            two_c = add(c, c)
            half_c, four_c = ops.inv(two_c), add(two_c, two_c)
            z = next(x.coords for x in self.mid_units() if not self.is_square(x))
            for x0 in (x.coords for x in self.mid_elements()):
                bx0 = mul(b, x0)
                disc = sub(mul(bx0, bx0), mul(four_c, sub(mul(x0, x0), lam.coords)))
                s = zero if disc == zero else _sqrt(ops, disc, self.q, z)
                if s is not None:
                    x1 = min(mul(add(bx0, s), half_c), mul(sub(bx0, s), half_c))
                    return Elem(self, TOP, (x0, x1))
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
        if x.level != MID:
            raise LevelMismatchError("multiplicative_order acts on mid-level elements")
        return _order(self._mid_ops, x.coords) if x else 0

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
            items = _list_items(text, self.m, "mid coords must have length m")
            coords = [_parse_int(t, text) for t in items]
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
            items = _list_items(text, self.r, "top coords must have length r")
            parts = [self.parse_mid(t) for t in items]
            return self.top(parts + [self.mid_zero()] * (self.r - len(parts)))
        if self.m != 1:
            raise ValueError("textual element syntax requires m = 1; use [..] lists")
        coords = [0] * self.r
        # a term starts at each sign, except at the sign of an exponent
        cuts = [i for i, ch in enumerate(text) if ch in "+-" and i and text[i - 1] != "^"]
        for start, end in zip([0, *cuts], [*cuts, len(text)]):
            term = text[start:end].removeprefix("+")
            if "u" in term:
                head, _, tail = term.partition("u")
                if tail and not tail.startswith("^"):
                    raise ValueError(f"cannot parse field element {text!r}: {term!r} is not c*u^e")
                power = _parse_int(tail[1:], text) if tail else 1
                if head in ("", "-"):
                    head += "1"
                coeff = _parse_int(head, text)
            else:
                power = 0
                coeff = _parse_int(term, text)
            if not 0 <= power < self.r:
                raise ValueError(
                    f"cannot parse field element {text!r}: u^{power} is outside"
                    f" u^0 .. u^{self.r - 1}"
                )
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

    def __repr__(self):
        return f"FieldTower(p={self.p}, m={self.m}, r={self.r})"
