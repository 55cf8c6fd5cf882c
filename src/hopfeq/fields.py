"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain Python values (``fractions.Fraction`` over the rationals,
canonical ints in [0, p) over F_p); a Field object supplies the arithmetic.
Both representations are automatically kept in canonical form: Fraction
normalizes to lowest terms with positive denominator, and every F_p operation
reduces mod p.

In both representations the zero scalar is falsy and every other scalar is
truthy, so hot loops test ``if c:`` in place of ``c != field.zero``: on a
Fraction the comparison goes through an abstract-base-class check and costs
several times more.

Every sparse linear combination in the package is summed by one method,
``Field.combine``: it takes (key, scalar) pairs and returns the dict of the
nonzero sums. The first scalar of a key is kept without an ``add``, and a key
leaves the dict as soon as its sum is zero (it comes back with its next
scalar), so no zero is ever stored.

For integer accumulation a field lifts a matrix to plain ints and lowers
int sums back to scalars: ``lift(rows)`` returns ``(ints, d)`` with ``rows ==
ints / d`` entrywise for one positive int ``d``, and ``lower(ints, d)``
returns the matrix of scalars ``ints / d``, each in canonical form and every
zero the shared ``field.zero``. Over the rationals ``d`` is the lcm of the
entries' denominators; over F_p the entries are already ints and ``d`` is 1.
A matrix chain (``linalg.lifted_mul``/``lifted_sub``: the legs of an
equation, the letters of a word acting on V) is a lifted chain: it stays in
this form between products and is lowered once, where its scalar matrix
leaves the chain. The other lifted users sum ints per key and lower only to
test for zero or to hand out a result: the coideal check and the coproduct
table of a quotient (``rewriting``), the coideal and counit identities of
chi (``frt``), the contractions on the sparse tables of a structure
bialgebra, whose nonzero entries ``StructureBialgebra.sparse`` lifts in
one call (its axioms, Hopf modules over it, the universal property and
the Takesaki and Galois maps), the one
associativity check ``bialgebras._associative`` on such a table, its dual
table, or the table of the direct completion route, and the one
fraction-free elimination behind ``linalg.rank``, ``is_invertible`` and
``inverse``, which tests each pivot through ``from_int``.

Every number read from outside the package is read here, in ASCII digits
only. ``parse_integer`` reads ``[+-]?[0-9]+``: a fixture dimension, a CLI
count. ``Field.parse_scalar`` reads a matrix entry or fixture scalar: a
JSON int, or a string in the field's grammar (``[+-]?[0-9]+(/[0-9]+)?``
over Q, the integer grammar over F_p). ``parse_field`` reads the modulus of
``fp:<p>`` as unsigned digits and refuses more than ten before converting.
Each raises ``ValueError`` (``FieldError`` for the last two) on any other
text, so no text is read by ``int()``'s wider grammar; the error quotes a
long text by its start and its length.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, lcm

# the grammars the README documents, in ASCII digits only
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_INTEGER_TEXT = re.compile(r"[+-]?[0-9]+")
_PRIME_DESCRIPTOR = re.compile(r"fp:0*([0-9]+)")


class FieldError(ValueError):
    """Malformed field descriptor or non-prime modulus."""


def _quote(x):
    """repr(x) for an error message; a text of more than 40 characters as its
    first 20 and its length, so that the message stays one short line."""
    text = x if isinstance(x, str) else repr(x)
    if len(text) <= 40:
        return repr(x)
    start = repr(text[:20]) if isinstance(x, str) else text[:20]
    return f"{start}... ({len(text)} characters)"


def parse_integer(text: str) -> int:
    """Read an integer written ``[+-]?[0-9]+`` in ASCII; ValueError otherwise."""
    if not isinstance(text, str) or not _INTEGER_TEXT.fullmatch(text):
        raise ValueError(f"not an integer: {_quote(text)}")
    return int(text)  # ValueError past int()'s digit limit


def is_prime(p: int) -> bool:
    # trial division up to isqrt(p): at most 46,340 divisions below 2^31,
    # the bound PrimeField checks first
    return p > 1 and all(p % q for q in range(2, isqrt(p) + 1))


class Field:
    """Common interface; use the Rationals/PrimeField subclasses."""

    characteristic: int
    descriptor: str

    def __eq__(self, other):
        return isinstance(other, Field) and self.descriptor == other.descriptor

    def __hash__(self):
        return hash(self.descriptor)

    def __repr__(self):
        return f"Field({self.descriptor!r})"

    def render(self, a) -> str:
        return str(a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def parse_scalar(self, x):
        """A scalar from JSON: an int, or a string in the field's grammar.

        Each field gives its grammar, the noun its errors use, and the
        converter of a string that matches the grammar."""
        if isinstance(x, int) and not isinstance(x, bool):
            return self.from_int(x)
        if not isinstance(x, str) or not self._grammar.fullmatch(x):
            raise FieldError(f"not {self._noun}: {_quote(x)}")
        try:
            return self._from_text(x)
        except (ValueError, ZeroDivisionError) as exc:  # a zero denominator, too many digits
            raise FieldError(f"not {self._noun}: {_quote(x)}") from exc

    def combine(self, pairs):
        """Sum (key, scalar) pairs into {key: sum} over the nonzero sums."""
        add = self.add
        out = {}
        get = out.get
        for key, c in pairs:
            s = get(key)
            if s is None:
                if c:
                    out[key] = c
            elif s := add(s, c):
                out[key] = s
            else:
                del out[key]
        return out


class Rationals(Field):
    characteristic = 0
    descriptor = "q"
    zero = Fraction(0)
    one = Fraction(1)
    # JSON carries rationals as "a/b" strings
    _grammar, _noun, _from_text = _RATIONAL_TEXT, "a rational", Fraction

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def from_int(self, k: int):
        return Fraction(k)

    def lift(self, rows):
        # entries that are the shared zero skip the property lookups
        zero = self.zero
        d = lcm(*{x.denominator for row in rows for x in row if x is not zero})
        return [[0 if x is zero else x.numerator * (d // x.denominator) for x in row]
                for row in rows], d

    def lower(self, rows, d):
        zero = self.zero
        return [[Fraction(v, d) if v else zero for v in row] for row in rows]

    def scalar_to_json(self, a):
        return str(a)

    def random(self, rng):
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


class PrimeField(Field):
    _grammar, _noun = _INTEGER_TEXT, "an integer residue"

    def __init__(self, p: int):
        if isinstance(p, int) and p >= 2**31:
            raise FieldError(f"modulus {p} too large (need p < 2^31)")
        if not isinstance(p, int) or not is_prime(p):
            raise FieldError(f"modulus {p!r} is not prime")
        self.p = p
        self.characteristic = p
        self.descriptor = f"fp:{p}"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_int(self, k: int):
        return k % self.p

    def _from_text(self, text):
        return parse_integer(text) % self.p

    def lift(self, rows):
        return rows, 1

    def lower(self, rows, d):
        p = self.p
        if d != 1:
            scale = pow(d, -1, p)
            return [[v * scale % p for v in row] for row in rows]
        return [[v % p for v in row] for row in rows]

    def scalar_to_json(self, a):
        return a

    def random(self, rng):
        return rng.randrange(self.p)


QQ = Rationals()


def parse_field(spec) -> Field:
    """Parse a field descriptor: ``q`` for the rationals, ``fp:<p>`` for F_p
    with p in ASCII digits."""
    if spec == "q":
        return QQ
    match = isinstance(spec, str) and _PRIME_DESCRIPTOR.fullmatch(spec)
    if not match:
        raise FieldError(f"malformed field descriptor {_quote(spec)}")
    if len(digits := match[1]) > 10:  # p < 2^31 has at most 10 digits
        raise FieldError(f"modulus of {len(digits)} digits too large (need p < 2^31)")
    return PrimeField(int(digits))
