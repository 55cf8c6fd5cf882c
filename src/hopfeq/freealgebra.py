"""The free algebra on the n^2 comatrix generators c_ij (and, internally, on
arbitrary finite alphabets for presentation-equivalence targets).

Words are tuples of letter indices; polynomials are letter-tuple -> scalar
maps with no stored zeros, so equality is structural. The term order used
everywhere is deglex with the generators ordered c[1,1] < c[1,2] < ... < c[n,n]
(row-major letter index).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .fields import Field


@dataclass(frozen=True)
class Alphabet:
    names: tuple
    comatrix_n: int | None = None

    def __len__(self):
        return len(self.names)


def comatrix_alphabet(n: int) -> Alphabet:
    names = tuple(f"c[{i + 1},{j + 1}]" for i in range(n) for j in range(n))
    return Alphabet(names, comatrix_n=n)


def free_alphabet(*names: str) -> Alphabet:
    return Alphabet(tuple(names))


def word_key(w):
    """Deglex sort key: degree first, then left-to-right letter comparison."""
    return (len(w), w)


def render_word(w, names):
    """A word as its letter names joined by "*"; "1" for the empty word."""
    return "*".join(names[k] for k in w) if w else "1"


def word_products(letter, mul, memo):
    """The multiplicative extension of letter k -> letter(k): a function from
    a word to the product of its letter images, associated from the left.

    memo maps words to their images and keeps every prefix and every letter
    met, so a word costs one ``mul`` per prefix not yet in memo; a one-letter
    word is its letter image, with no ``mul``. Seed memo[()] with the image
    of the empty word to allow that word.
    """
    # a loop, not recursion: a closure that calls itself is a reference
    # cycle, and long words would exhaust the stack
    def product(word):
        image = memo.get(word)
        if image is not None:
            return image
        for end in range(1, len(word) + 1):  # image: the product of word[:end - 1]
            prefix = word[:end]
            known = memo.get(prefix)
            if known is None:
                last = word[end - 1:end]
                right = memo.get(last)
                if right is None:
                    right = memo[last] = letter(last[0])
                known = memo[prefix] = mul(image, right) if end > 1 else right
            image = known
        return memo[word]

    return product


class _LinearCombination:
    """A sparse linear combination: a dict from keys to nonzero scalars of
    one field, over one alphabet. The subclass fixes what a key is and how
    two keys multiply; equality holds only between elements of one class."""

    __slots__ = ("alphabet", "field", "terms")

    def __init__(self, alphabet: Alphabet, field: Field, terms=None):
        self.alphabet = alphabet
        self.field = field
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def zero(cls, alphabet, field):
        return cls(alphabet, field)

    @classmethod
    def _from_terms(cls, alphabet, field, terms):
        """An element on terms, taken as is: terms must hold no zeros."""
        out = cls.__new__(cls)
        out.alphabet, out.field, out.terms = alphabet, field, terms
        return out

    def _same_parent(self, other):
        if self.alphabet != other.alphabet or self.field != other.field:
            raise ValueError("mixed alphabets or fields")

    def _with(self, terms):
        """An element of the same class and parent on terms, which hold no zeros."""
        return self._from_terms(self.alphabet, self.field, terms)

    def __add__(self, other):
        self._same_parent(other)
        return self._with(self.field.combine(chain(self.terms.items(), other.terms.items())))

    def __neg__(self):
        neg = self.field.neg
        return self._with({k: neg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.alphabet == other.alphabet
            and self.field == other.field
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms


class NCPoly(_LinearCombination):
    """Element of T(C): words with nonzero scalars."""

    __slots__ = ()

    # -- constructors -------------------------------------------------
    @classmethod
    def one(cls, alphabet, field):
        return cls(alphabet, field, {(): field.one})

    @classmethod
    def scalar(cls, alphabet, field, c):
        return cls(alphabet, field, {(): c})

    @classmethod
    def letter(cls, alphabet, field, k: int):
        if not 0 <= k < len(alphabet):
            raise ValueError(f"letter {k} out of range")
        return cls(alphabet, field, {(k,): field.one})

    @classmethod
    def generator(cls, alphabet, field, i: int, j: int):
        """The comatrix generator c_{i+1,j+1} (0-based indices)."""
        n = alphabet.comatrix_n
        if n is None:
            raise ValueError("not a comatrix alphabet")
        return cls.letter(alphabet, field, i * n + j)

    @classmethod
    def word(cls, alphabet, field, letters):
        return cls(alphabet, field, {tuple(letters): field.one})

    # -- ring structure -----------------------------------------------
    def scale(self, c):
        if not c:
            return NCPoly.zero(self.alphabet, self.field)
        mul = self.field.mul
        return self._with({w: mul(c, x) for w, x in self.terms.items()})

    def __mul__(self, other):
        self._same_parent(other)
        mul = self.field.mul
        return self._with(self.field.combine((w1 + w2, mul(c1, c2))
                                             for w1, c1 in self.terms.items()
                                             for w2, c2 in other.terms.items()))

    # -- inspection ----------------------------------------------------
    def degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=-1)

    def leading_word(self):
        return max(self.terms, key=word_key)

    def leading_coeff(self):
        return self.terms[self.leading_word()]

    def monic(self):
        if not self.terms:
            return self
        return self.scale(self.field.inv(self.leading_coeff()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: word_key(kv[0]), reverse=True)

    def render(self, names=None):
        """Text form, highest term first; names defaults to the alphabet's
        letter names."""
        if not self.terms:
            return "0"
        names = names or self.alphabet.names
        parts = []
        for w, c in self.sorted_terms():
            mono = render_word(w, names)
            cs = self.field.render(c)
            if cs == "1" and w:
                parts.append(mono)
            elif cs == "-1" and w:
                parts.append(f"-{mono}")
            elif w:
                parts.append(f"{cs}*{mono}")
            else:
                parts.append(cs)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"NCPoly({self.render()})"

    # -- substitution ---------------------------------------------------
    def substitute(self, images):
        """Algebra map sending letter k to images[k]; images share one parent."""
        if len(images) != len(self.alphabet):
            raise ValueError("need one image per letter")
        target = images[0]
        field, mul = target.field, target.field.mul
        image = word_products(images.__getitem__, NCPoly.__mul__,
                              {(): NCPoly.one(target.alphabet, field)})
        return target._with(field.combine((u, mul(c, x)) for w, c in self.terms.items()
                                          for u, x in image(w).terms.items()))

    # -- comatrix coalgebra ----------------------------------------------
    def delta(self) -> "TensorPoly":
        """Comultiplication Delta(c_jk) = sum_u c_ju (x) c_uk, multiplicatively.

        A key (w1, w2) determines its word (letter t of w is c_jk where
        letter t of w1 is c_ju and letter t of w2 is c_uk), so no two terms
        of the expansion share a key: each is assigned, never added.
        """
        n = self.alphabet.comatrix_n
        if n is None:
            raise ValueError("delta needs the comatrix alphabet")
        out = {}
        for w, c in self.terms.items():
            keys = [((), ())]
            for k in w:
                j, kk = divmod(k, n)
                keys = [(w1 + (j * n + u,), w2 + (u * n + kk,))
                        for w1, w2 in keys for u in range(n)]
            out.update(dict.fromkeys(keys, c))
        return TensorPoly._from_terms(self.alphabet, self.field, out)

    def eps(self):
        """Counit eps(c_jk) = delta_jk, extended multiplicatively and linearly."""
        n = self.alphabet.comatrix_n
        if n is None:
            raise ValueError("eps needs the comatrix alphabet")
        acc = self.field.zero
        for w, c in self.terms.items():
            if all(k // n == k % n for k in w):
                acc = self.field.add(acc, c)
        return acc


class TensorPoly(_LinearCombination):
    """Element of T(C) (x) T(C): (word, word) pairs with nonzero scalars."""

    __slots__ = ()

    @classmethod
    def of(cls, left: NCPoly, right: NCPoly):
        left._same_parent(right)
        mul = left.field.mul
        # a product of nonzero scalars is nonzero, and the keys are distinct
        return cls._from_terms(left.alphabet, left.field,
                               {(w1, w2): mul(c1, c2) for w1, c1 in left.terms.items()
                                for w2, c2 in right.terms.items()})

    def __mul__(self, other):
        """(a (x) b)(c (x) d) = ac (x) bd, bilinearly."""
        self._same_parent(other)
        mul = self.field.mul
        return self._with(self.field.combine(((a + c, b + d), mul(c1, c2))
                                             for (a, b), c1 in self.terms.items()
                                             for (c, d), c2 in other.terms.items()))

    def map_legs(self, f):
        """Apply an NCPoly -> NCPoly linear map to both tensor legs."""
        alphabet, field = self.alphabet, self.field
        mul = field.mul

        def terms():
            for (w1, w2), c in self.terms.items():
                right = f(NCPoly.word(alphabet, field, w2)).terms.items()
                for u1, c1 in f(NCPoly.word(alphabet, field, w1)).terms.items():
                    c1 = mul(c, c1)
                    for u2, c2 in right:
                        yield (u1, u2), mul(c1, c2)

        return self._with(field.combine(terms()))

    def render(self):
        if not self.terms:
            return "0"
        names = self.alphabet.names
        keys = sorted(self.terms, key=lambda k: (word_key(k[0]), word_key(k[1])), reverse=True)
        parts = [f"{self.field.render(self.terms[k])}*({render_word(k[0], names)} (x) "
                 f"{render_word(k[1], names)})" for k in keys]
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"TensorPoly({self.render()})"
