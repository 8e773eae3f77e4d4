"""Exact scalar arithmetic in the rational-function field Q(x1..xn).

An Expr is a quotient of integer-coefficient multivariate polynomials kept
in a unique canonical form: numerator and denominator coprime (polynomial
GCD 1, integer content included), denominator leading coefficient positive
under graded-lex order.  Two Exprs are equal exactly when their stored
forms are identical, so equality is field equality and zero-testing is
decidable.

Storage: ``num`` and ``den`` are the kernel dicts themselves (exponent tuple
-> nonzero integer coefficient).  The kernels never mutate their inputs, so
Exprs share these dicts freely and never copy them; term order matters only
for printing, where ``__str__`` sorts graded-lex descending.

Fraction arithmetic lives here, each step written once.  ``_over_lcm``
brings fractions over the lcm of their denominators, for ``Expr.sum`` and
for ``Expr.along``, the directional derivative X(f) that
``VectorField.apply`` memoises.  ``_cross_product`` is the cross-cancelled
product of ``*``, and of ``/``, which passes the divisor's numerator and
denominator swapped.  ``_positive_den`` is the sign step of ``__init__``,
of ``/`` and of a power.  Every "is this 1" test is ``polyops.poly_is_one``.
No other module reduces a fraction or calls a polynomial kernel on an
Expr's parts; the other modules read ``num`` only to test for zero.  The
hot paths stay inline: the two-term sum and the memo lookups.
``Expr.diff`` keeps its own quotient rule, because the tests check
``along`` against sums of ``diff``.

Zero: ``Expr.zero(vars)`` is one interned instance per variable tuple, and
``Expr.constant(vars, 0)`` returns it.  Zero absorbs: ``+``/``-`` with a zero
operand return the other operand (or its negation), ``*`` with a zero
operand returns the zero, ``-0`` is itself, and a cancelling sum or a
vanishing derivative is the interned zero, so callers need no zero guards
around arithmetic.  Zero is tested with ``is_zero``, never by identity: a
zero built through ``__init__`` is a different, equal instance.

Variables: ``Var(name)`` returns one interned instance per name, so Vars
(and tuples of them, such as an Expr's ``vars``) compare and hash by object
identity, and have no order.  Nothing iterates a hash-ordered container
of Vars, so output order never depends on those identity hashes.

Numbers: a constant is an int or a Fraction (``Expr.constant``), or two
integers (``Expr.ratio``), and ``value_at`` evaluates at a point of integer
pairs, all in integers.  A number may stand on either side of ``+`` and
``*``, and on the right of ``-`` and ``/``.  Only ``eval`` and the coercion
of an operand that is neither an Expr nor an int import ``fractions``, so a
command that needs no Fraction never loads it (nor ``decimal`` and
``numbers`` with it).

Equality is equality of rational functions, not of pointwise values: the
domain restrictions implied by denominators (z != 0 and so on) are carried
implicitly, never enforced.

Memo: ``*``, ``+`` and ``-`` on two nonzero Exprs are memoised in
``polyops.expr_memo``, keyed by (op, a, b); ``VectorField.apply`` keeps
frame derivatives there too, keyed by (field, f).  The engine repeats the
same operation on the same operands often (nabla_a Gamma_bk is built for
(a,b,k) and again for (b,a,k), and the Gamma.leaf products of nabla R
recur), and a hit skips the GCDs and kernel calls of the operation.  Because
canonical forms are unique, a hit is exact: the key holds the operands
themselves, so a hit requires operands equal to the call's (dict key
equality, ``__eq__`` on the canonical forms) and a hash collision is a miss;
the stored result is what recomputing the operation on those operands gives.
``a + b`` and ``b + a`` (and ``a * b``, ``b * a``) have one canonical result,
so their key puts the operand of smaller hash first; ``-`` keeps its order.
The zero-absorbing and int-coercion paths run before the lookup, and so
does ``*`` by the constant 1, which returns the other operand.  ``/`` is
not memoised; a dividend of 0 or a divisor of 1 returns the dividend, as
``*`` by 1 does, and a divisor of -1 its negation, with no kernel call.
``Expr.sum`` of more than two nonzero terms bypasses the memo: it normalises
the whole sum once, where a fold of ``+`` would look up and store every
partial sum.  The memo keeps references to operands and results, which is
safe because no Expr and no polynomial is written after it is built.  It is
bounded by the terms its entries pin, ``polyops.EXPR_MEMO_TERMS`` (65,536),
and is emptied whole when a store would pass that bound: a hit then costs
one dict lookup, where a least recently used order would cost bookkeeping on
every hit, and only manifolds whose leaves grow to hundreds of terms ever
fill it.
``polyops.reset_memos`` empties it with the GCD memo whenever a manifold is
built.  Equal results may be one shared object; Exprs are immutable, so
nothing can tell.  ``__hash__``, the hash of the canonical form, is computed
once per Expr and cached, and ``__eq__`` answers ``True`` at once for the
same object.
"""

from __future__ import annotations

from functools import reduce
from math import comb, gcd

from . import polyops as P


MAX_QUOTED = 80  # characters of user text quoted in an error message


def quote_text(text: str) -> str:
    """repr of text; past MAX_QUOTED characters, a prefix and the length."""
    if len(text) <= MAX_QUOTED:
        return repr(text)
    return f"{text[:MAX_QUOTED]!r}... ({len(text)} characters)"


class ExprError(Exception):
    """Base class for scalar-arithmetic errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ExprError):
    def __init__(self, name: str, position: int | None = None):
        at = f" (at position {position})" if position is not None else ""
        super().__init__(f"unknown variable {quote_text(name)}{at}")
        self.name = name
        self.position = position


class ExprDivisionError(ExprError):
    """Division by the zero element of the function field."""


class PoleError(ExprError):
    """Evaluation point lies on the zero set of a denominator."""


class Var:
    """A named variable; ``Var(name)`` is one interned instance per name.

    Equality and hashing are object identity (inherited, so they run in C),
    which makes tuples of Vars hash and compare at C speed too.
    """

    __slots__ = ("name",)
    _interned: dict = {}

    def __new__(cls, name: str):
        v = cls._interned.get(name)
        if v is None:
            # an ASCII letter, then ASCII letters, digits and underscores
            if not (name.isascii() and name[:1].isalpha() and name.replace("_", "").isalnum()):
                raise ValueError(f"invalid variable name: {quote_text(name)}")
            v = object.__new__(cls)
            object.__setattr__(v, "name", name)
            cls._interned[name] = v
        return v

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r}")

    def __reduce__(self):  # copies and pickles resolve to the interned instance
        return (Var, (self.name,))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"


class Expr:
    """Canonical rational function over a fixed ordered variable tuple."""

    __slots__ = ("vars", "num", "den", "_hash")
    _zeros: dict = {}  # the interned zero of each variable tuple

    def __init__(self, variables, num, den):
        variables = tuple(variables)
        if not den:
            raise ExprDivisionError("division by zero expression")
        if not num:
            num, den = {}, P.poly_const(len(variables), 1)
        else:
            g = P.poly_gcd(num, den)
            num, den = _positive_den(P.poly_divexact(num, g), P.poly_divexact(den, g))
        self.vars = variables
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def _raw(cls, variables, num, den) -> "Expr":
        """Wrap an already-canonical fraction without re-reducing it.

        Caller must guarantee coprimality and a positive denominator lead;
        used on the arithmetic fast paths where both are provable.
        """
        self = cls.__new__(cls)
        self.vars = variables
        self.num = num
        self.den = den
        self._hash = None
        return self

    @classmethod
    def zero(cls, variables) -> "Expr":
        variables = tuple(variables)
        z = cls._zeros.get(variables)
        if z is None:
            z = cls._zeros[variables] = cls._raw(variables, {}, P.poly_const(len(variables), 1))
        return z

    @classmethod
    def one(cls, variables) -> "Expr":
        return cls.constant(variables, 1)

    @classmethod
    def constant(cls, variables, value) -> "Expr":
        """The constant ``value``, an int or a Fraction."""
        return cls.ratio(variables, value.numerator, value.denominator)

    @classmethod
    def ratio(cls, variables, num: int, den: int) -> "Expr":
        """The constant num/den of two integers, den nonzero."""
        if not num:
            return cls.zero(variables)
        g = gcd(num, den) if den > 0 else -gcd(num, den)  # lowest terms, positive denominator
        variables = tuple(variables)
        n = len(variables)
        return cls._raw(variables, P.poly_const(n, num // g), P.poly_const(n, den // g))

    @classmethod
    def variable(cls, variables, v: Var) -> "Expr":
        variables = tuple(variables)
        try:
            i = variables.index(v)
        except ValueError:
            raise UnknownVariableError(v.name) from None
        return cls(variables, P.poly_var(len(variables), i), P.poly_const(len(variables), 1))

    # -- canonical-form identity ----------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return self.vars == other.vars and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.vars, frozenset(self.num.items()), frozenset(self.den.items())))
        return h

    def __reduce__(self):  # the cached hash rests on this process's Var identities
        return (Expr._raw, (self.vars, self.num, self.den))

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_constant(self) -> bool:
        return not any(map(any, self.num)) and not any(map(any, self.den))

    @property
    def size(self) -> int:
        """Term count of the stored form; used for pivot preferences."""
        return len(self.num) + len(self.den)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Expr":
        """other as an Expr over self's variables, or NotImplemented.  ``+``,
        ``-`` and ``*`` skip the call for an Expr over the identical
        variable tuple, which is nearly every operand."""
        if isinstance(other, Expr):
            if other.vars != self.vars:
                raise ExprError("mixed variable contexts")
            return other
        if isinstance(other, int):
            return Expr.constant(self.vars, other)
        from fractions import Fraction  # only an operand neither an Expr nor an int gets here

        if isinstance(other, Fraction):
            return Expr.constant(self.vars, other)
        return NotImplemented

    def _add_sub(self, o: "Expr", sub: bool) -> "Expr":
        if not o.num:
            return self
        if not self.num:
            return -o if sub else o
        if sub:
            key = (_SUB, self, o)
        else:
            key = (_ADD, self, o) if hash(self) <= hash(o) else (_ADD, o, self)
        out = _memo.entries.get(key)
        if out is None:
            out = self._sum(o, P.poly_sub if sub else P.poly_add)
            _remember(key, self, o, out)
        return out

    def _sum(self, o: "Expr", combine) -> "Expr":
        an, ad, bn, bd = self.num, self.den, o.num, o.den
        if ad == bd:
            # one normalisation of the summed numerators, none over 1
            num = combine(an, bn)
            if not num:
                return Expr.zero(self.vars)
            return (Expr._raw if P.poly_is_one(ad) else Expr)(self.vars, num, ad)
        d = P.poly_gcd(ad, bd)
        coprime = P.poly_is_one(d)  # the cross-sum is then in lowest terms
        ad_red, bd_red = (ad, bd) if coprime else (P.poly_divexact(ad, d), P.poly_divexact(bd, d))
        # canonical denominators are unique, so fractions over different ones
        # are unequal up to sign and never cancel: num is nonzero
        num = combine(P.poly_mul(an, bd_red), P.poly_mul(bn, ad_red))
        return (Expr._raw if coprime else Expr)(self.vars, num, P.poly_mul(ad, bd_red))

    @classmethod
    def sum(cls, variables, terms) -> "Expr":
        """sum_t sign_t e_t over (sign, Expr) terms, normalised once.

        Zero terms are skipped, and a single live term is returned as it is
        (negated for a negative sign).  Two live terms go through the memoised
        ``+`` or ``-``.  From three on, terms that share a denominator add
        their numerators, which needs no GCD; the groups then combine over the
        lcm of their denominators, and the sum is canonicalised once (not at
        all over the denominator 1).  Canonical forms are unique, so the
        result is the Expr that the left fold of ``+``/``-`` gives.
        """
        live = [(s, e) for s, e in terms if e.num]
        if len(live) <= 1:
            if not live:
                return cls.zero(variables)
            s, e = live[0]
            return e if s > 0 else -e
        if len(live) == 2:  # the memoised + and -
            (s, a), (t, b) = live
            if s > 0:
                return a._add_sub(b, sub=t < 0)
            return b._add_sub(a, sub=True) if t > 0 else -(a._add_sub(b, sub=False))
        groups = []  # [summed numerator, denominator], in order of first use
        for s, e in live:
            den = e.den
            for group in groups:
                if group[1] is den or group[1] == den:
                    group[0] = (P.poly_add if s > 0 else P.poly_sub)(group[0], e.num)
                    break
            else:
                groups.append([e.num if s > 0 else P.poly_neg(e.num), den])
        lcm, parts = _over_lcm(groups)
        num = reduce(P.poly_add, parts)
        if not num:
            return cls.zero(variables)
        return (cls._raw if P.poly_is_one(lcm) else cls)(tuple(variables), num, lcm)

    def __add__(self, other):
        o = other if type(other) is Expr and other.vars is self.vars else self._coerce(other)
        if o is NotImplemented:
            return o
        return self._add_sub(o, sub=False)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is Expr and other.vars is self.vars else self._coerce(other)
        if o is NotImplemented:
            return o
        return self._add_sub(o, sub=True)

    def __mul__(self, other):
        o = other if type(other) is Expr and other.vars is self.vars else self._coerce(other)
        if o is NotImplemented:
            return o
        if not self.num:
            return self
        if not o.num:
            return o
        if P.poly_is_one(o.num) and P.poly_is_one(o.den):
            return self
        if P.poly_is_one(self.num) and P.poly_is_one(self.den):
            return o
        key = (_MUL, self, o) if hash(self) <= hash(o) else (_MUL, o, self)
        out = _memo.entries.get(key)
        if out is None:
            out = Expr._raw(self.vars, *_cross_product(self.num, self.den, o.num, o.den))
            _remember(key, self, o, out)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o.num:
            raise ExprDivisionError("division by zero expression")
        if not self.num or P.poly_is_one(o.num) and P.poly_is_one(o.den):
            return self  # 0 / o and x / 1, as x * 1 is x
        if P.poly_is_one(o.den) and P.poly_is_one(P.poly_neg(o.num)):
            return -self  # x / -1 is the negation
        # times the reciprocal, whose denominator may lead negative
        return Expr._raw(self.vars, *_positive_den(*_cross_product(self.num, self.den, o.den, o.num)))

    def __neg__(self):
        if not self.num:
            return self
        return Expr._raw(self.vars, P.poly_neg(self.num), self.den)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise ExprError("exponent must be an integer")
        if k < 0:
            if self.is_zero:
                raise ExprDivisionError("zero expression raised to a negative power")
            base_num, base_den = self.den, self.num
            k = -k
        else:
            base_num, base_den = self.num, self.den
        n = len(self.vars)
        num = P.poly_pow(base_num, k, n)
        den = P.poly_pow(base_den, k, n)
        if not num:
            return Expr.zero(self.vars)
        return Expr._raw(self.vars, *_positive_den(num, den))

    # -- calculus and evaluation ------------------------------------------

    def diff(self, v: Var) -> "Expr":
        try:
            i = self.vars.index(v)
        except ValueError:
            raise UnknownVariableError(v.name) from None
        num, den = self.num, self.den
        dn = P.poly_sub(P.poly_mul(P.poly_diff(num, i), den), P.poly_mul(num, P.poly_diff(den, i)))
        if not dn:
            return Expr.zero(self.vars)
        return Expr(self.vars, dn, P.poly_mul(den, den))

    def along(self, coeffs) -> "Expr":
        """The directional derivative sum_i c_i df/dx_i of f = self = N/D
        along coefficients c_i = p_i/q_i, one per variable, normalised once:
        with L the lcm of the q_i over the variables f depends on,
        w_i = p_i L/q_i is a polynomial and the derivative is
        (X_L(N) D - N X_L(D)) / (L D^2), where X_L is sum_i w_i d/dx_i."""
        num, den = self.num, self.den
        used = []  # (c_i, dN/dx_i, dD/dx_i) where c_i and df/dx_i are nonzero
        for i, c in enumerate(coeffs):
            if c.num:
                dn, dd = P.poly_diff(num, i), P.poly_diff(den, i)
                if dn or dd:
                    used.append((c, dn, dd))
        if not used:
            return Expr.zero(self.vars)
        lcm, weights = _over_lcm([(c.num, c.den) for c, _, _ in used])
        xn = xd = {}
        for w, (_, dn, dd) in zip(weights, used):
            xn = P.poly_add(xn, P.poly_mul(w, dn))
            xd = P.poly_add(xd, P.poly_mul(w, dd))
        top = P.poly_sub(P.poly_mul(xn, den), P.poly_mul(num, xd))
        if not top:
            return Expr.zero(self.vars)
        return Expr(self.vars, top, P.poly_mul(lcm, P.poly_mul(den, den)))

    def eval(self, point) -> "Fraction":
        """The value at ``point``, which maps each variable (or its name) to a
        number ``Fraction`` accepts."""
        from fractions import Fraction

        num, den = self.value_at(_point_values(self.vars, point))
        if not den:
            raise PoleError(f"denominator of {self} vanishes at {point}")
        return Fraction(num, den)

    def value_at(self, values) -> tuple[int, int]:
        """The value at a rational point, one integer pair (p, q), q nonzero,
        per variable in order, as an integer pair (numerator, denominator),
        not reduced; the denominator is 0 at a pole."""
        n, n_den = P.poly_eval(self.num, values)
        d, d_den = P.poly_eval(self.den, values)
        return n * d_den, d * n_den

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.num:
            return "0"
        num = P.poly_sorted_terms(self.num)
        if P.poly_is_one(self.den):
            return _format_poly(num, self.vars)
        ns = _format_poly(num, self.vars)
        if len(num) > 1:
            ns = f"({ns})"
        den = P.poly_sorted_terms(self.den)
        ds = _format_poly(den, self.vars)
        if not _single_factor(den):
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"Expr({str(self)!r})"


# -- the memo of Expr operations -----------------------------------------------

_ADD, _SUB, _MUL = "+", "-", "*"
_memo = P.expr_memo


# -- the fraction steps shared by the operations --------------------------------


def _over_lcm(fractions):
    """(L, [n L/d for each (n, d)]): the lcm L of the denominators of a
    nonempty list of (numerator, denominator) pairs, folded left, and each
    numerator scaled to L.  ``Expr.sum`` and ``Expr.along`` bring their
    terms over one denominator with it."""
    lcm = fractions[0][1]
    for _, den in fractions[1:]:
        if den != lcm:
            lcm = P.poly_mul(lcm, P.poly_divexact(den, P.poly_gcd(lcm, den)))
    return lcm, [num if den == lcm else P.poly_mul(num, P.poly_divexact(lcm, den)) for num, den in fractions]


def _cross_product(an, ad, bn, bd):
    """(numerator, denominator) of (an/ad)(bn/bd) for two coprime pairs,
    cross-cancelled: after dividing out gcd(an, bd) and gcd(bn, ad) the four
    pieces are pairwise coprime, so the product is in lowest terms.  Its
    denominator's lead has the sign of ad's times bd's."""
    g1 = P.poly_gcd(an, bd)
    g2 = P.poly_gcd(bn, ad)
    return (
        P.poly_mul(P.poly_divexact(an, g1), P.poly_divexact(bn, g2)),
        P.poly_mul(P.poly_divexact(ad, g2), P.poly_divexact(bd, g1)),
    )


def _positive_den(num, den):
    """(num, den), both negated when den's lead under graded-lex order is
    negative: the sign step of the canonical form."""
    if P.poly_lead(den)[1] < 0:
        return P.poly_neg(num), P.poly_neg(den)
    return num, den


def _remember(key, a: Expr, b: Expr, out: Expr) -> None:
    """Store a op b = out under key, pinning the terms of all three."""
    _memo.store(key, out, len(a.num) + len(a.den) + len(b.num) + len(b.den) + len(out.num) + len(out.den))


def _point_values(variables, point) -> tuple:
    """The (numerator, denominator) pair of each variable's value in ``point``."""
    from fractions import Fraction

    named = {}
    for key, value in point.items():
        name = key.name if isinstance(key, Var) else str(key)
        q = Fraction(value)
        named[name] = q.numerator, q.denominator
    values = []
    for v in variables:
        if v.name not in named:
            raise ExprError(f"no value given for variable {quote_text(v.name)}")
        values.append(named[v.name])
    extra = set(named) - {v.name for v in variables}
    if extra:
        raise UnknownVariableError(sorted(extra)[0])
    return tuple(values)


def _format_term(c_abs: int, exps, variables) -> str:
    factors = []
    if c_abs != 1 or not any(exps):
        factors.append(str(c_abs))
    for v, k in zip(variables, exps):
        if k == 1:
            factors.append(v.name)
        elif k > 1:
            factors.append(f"{v.name}^{k}")
    return "*".join(factors)


def _format_poly(terms, variables) -> str:
    parts = []
    for i, (exps, c) in enumerate(terms):
        body = _format_term(abs(c), exps, variables)
        if i == 0:
            if c < 0:
                # "-x^2" would parse as (-x)^2 under the grammar; force "-1*x^2"
                first = next((k for k in exps if k), 0)
                if abs(c) == 1 and any(exps) and first >= 2:
                    body = "1*" + body
                parts.append("-" + body)
            else:
                parts.append(body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


def _single_factor(terms) -> bool:
    """True when the one-term polynomial prints as a single grammar factor."""
    if len(terms) != 1:
        return False
    exps, c = terms[0]
    nz = [k for k in exps if k]
    if not nz:
        return True  # positive integer literal
    return c == 1 and len(nz) == 1


# -- parser ---------------------------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := factor (('*'|'/') factor)*
# factor := base ('^' int)?          (the exponent may be negative)
# base   := int | var | '(' expr ')' | '-' base
#
# The parser is recursive descent; each '(' costs four interpreter frames and
# each unary '-' one, so nesting is capped well below the recursion limit.
#
# Size budget: before each +, -, *, / and ^ the parser bounds the terms of the
# result (numerator plus denominator) and refuses a cell past MAX_TERMS, so a
# short text such as (x+y+z+1)^40 (12,341 terms) fails at once instead of
# being expanded.  The check runs at parse time only; Expr arithmetic, the
# engine's hot path, has none.

MAX_NESTING = 100
MAX_TERMS = 1000


def _shape(p) -> tuple[int, int]:
    """(total degree, bit mask of the variables that occur) of a polynomial."""
    degree = mask = 0
    for exps in p:
        degree = max(degree, sum(exps))
        for i, k in enumerate(exps):
            if k:
                mask |= 1 << i
    return degree, mask


def _product_terms(p, q) -> int:
    """Terms of p*q: at most one per pair of terms, and at most one per
    monomial of degree up to deg p + deg q in the variables of p and q.  The
    first bound can miss growth from cancelling a common factor; the second
    cannot, since exact division never raises a degree."""
    (dp, mp), (dq, mq) = _shape(p), _shape(q)
    return min(len(p) * len(q), comb((mp | mq).bit_count() + dp + dq, dp + dq))


def _power_terms(p, k: int) -> int:
    """Terms of p^k, k >= 0: one per multiset of k terms of p, and one per
    monomial of degree up to k deg p in the variables of p."""
    if k == 0 or len(p) <= 1:
        return 1
    d, mask = _shape(p)
    return min(comb(len(p) + k - 1, k), comb(mask.bit_count() + k * d, k * d))


def _result_terms(op: str, a: "Expr", b) -> int:
    """A bound on the stored terms of a op b (b is the integer exponent for ^)."""
    if op == "^":
        return _power_terms(a.num, abs(b)) + _power_terms(a.den, abs(b))
    if op == "*":
        return _product_terms(a.num, b.num) + _product_terms(a.den, b.den)
    if op == "/":
        return _product_terms(a.num, b.den) + _product_terms(a.den, b.num)
    return _product_terms(a.num, b.den) + _product_terms(b.num, a.den) + _product_terms(a.den, b.den)


class _Parser:
    def __init__(self, text: str, variables):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.variables = tuple(variables)
        self.index = {v.name: v for v in self.variables}

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ExprSyntaxError(f"unexpected {self.text[self.pos]!r}", self.pos)
        if e.size > MAX_TERMS:  # growth the bounds let through (see _product_terms)
            raise ExprSyntaxError(f"expression larger than {MAX_TERMS} terms", self.pos)
        return e

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> Expr:
        e = self.term()
        while (op := self.peek()) in "+-" and op:
            self.pos += 1
            at = self.pos
            t = self.term()
            self.budget(op, e, t, at)
            e = e + t if op == "+" else e - t
        return e

    def term(self) -> Expr:
        e = self.factor()
        while (op := self.peek()) in "*/" and op:
            self.pos += 1
            at = self.pos
            f = self.factor()
            self.budget(op, e, f, at)
            if op == "*":
                e = e * f
            else:
                if f.is_zero:
                    raise ExprDivisionError(f"division by zero (at position {at})")
                e = e / f
        return e

    def factor(self) -> Expr:
        e = self.base()
        if self.peek() == "^":
            self.pos += 1
            at = self.pos
            k = self.integer()
            if k < 0 and e.is_zero:
                raise ExprDivisionError(f"zero raised to a negative power (at position {at})")
            self.budget("^", e, k, at)
            e = e**k
        return e

    def budget(self, op: str, a: Expr, b, at: int):
        """Refuse an operation whose result could exceed MAX_TERMS terms."""
        if _result_terms(op, a, b) > MAX_TERMS:
            raise ExprSyntaxError(f"expression larger than {MAX_TERMS} terms", at)

    def base(self) -> Expr:
        ch = self.peek()
        if ch == "-":
            self.descend()
            e = -self.base()
            self.depth -= 1
            return e
        if ch == "(":
            self.descend()
            e = self.expr()
            if self.peek() != ")":
                raise ExprSyntaxError("expected ')'", self.pos)
            self.pos += 1
            self.depth -= 1
            return e
        if ch.isdecimal():
            return Expr.constant(self.variables, self.natural())
        if ch.isalpha():
            at = self.pos
            name = self.name()
            v = self.index.get(name)
            if v is None:
                raise UnknownVariableError(name, at)
            return Expr.variable(self.variables, v)
        raise ExprSyntaxError("expected a number, variable, '(' or '-'", self.pos)

    def descend(self):
        """Step past a '(' or unary '-', refusing nesting beyond MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", self.pos)
        self.depth += 1
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        sign = 1
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            sign = -1
            self.pos += 1
        return sign * self.natural()

    def natural(self) -> int:
        # isdecimal admits exactly the digits int reads; isdigit would also
        # admit superscripts such as '\u00b2', which int refuses
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            raise ExprSyntaxError("expected an integer", self.pos)
        return int(self.text[start : self.pos])

    def name(self) -> str:
        start = self.pos
        self.pos += 1
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start : self.pos]


def parse(text: str, variables) -> Expr:
    """Parse an arithmetic expression over the given variables."""
    return _Parser(text, variables).parse()
