"""Slow word references the walker tests compare against: every freely
reduced word from ``itertools.product``, and a word's matrix as a product
of ``RingMat2`` letters; and random words of a chosen length bound.  Letter codes are f, f^-1, g, g^-1 = 0, 1, 2, 3,
so letter c has inverse c ^ 1; nothing here reads ``quartic.probe``."""

import itertools

from quartic.linalg import RingMat2

LETTERS = ("f", "f^-1", "g", "g^-1")


def inverse_codes(codes):
    """The codes of the inverse word."""
    return tuple(c ^ 1 for c in reversed(codes))


def parse_word(text):
    """The codes of a word written as space-separated letter names."""
    return tuple(LETTERS.index(tok) for tok in text.split())


def reference_words(depth):
    """Every freely reduced word of length <= depth as a code tuple,
    shortest first, each length in tuple order."""
    return [codes for k in range(depth + 1)
            for codes in itertools.product(range(4), repeat=k)
            if all(a ^ 1 != b for a, b in zip(codes, codes[1:]))]


def reference_word_matrix(codes, n, pair):
    """The exact product along the word with f -> P^n and g -> Q^n."""
    p, q = pair
    letters = [p ** n, p ** -n, q ** n, q ** -n]
    out = RingMat2.identity()
    for c in codes:
        out = out * letters[c]
    return out


def random_word_matrix(rng, p, q, max_len):
    """A product of one to max_len letters drawn from p, p^-1, q and q^-1,
    with the rng calls of ``quartic.verify._random_word_matrix``, which
    draws up to 6 letters."""
    gens = [p, p.inv(), q, q.inv()]
    out = RingMat2.identity()
    for _ in range(rng.randint(1, max_len)):
        out = out * gens[rng.randrange(4)]
    return out
