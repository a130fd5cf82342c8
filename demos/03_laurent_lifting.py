"""The linear-size lifting with negative exponents.

Allowing Laurent monomials (negative powers) changes the game: dividing each
right-hand-side monomial by its own variable gives one new variable per
monomial, and the resulting system is always quadratic.  The construction is
linear in the number of monomials but makes no optimality claim, and the
branch-and-bound search does not explore Laurent candidates.

Run:  python demos/03_laurent_lifting.py
"""

from quadratize import bnb_search, laurent_quadratize, parse_system, render_result

system = parse_system("x1' = x2^4\nx2' = x1^2")

print("=== optimal monomial quadratization (no negative powers) ===")
result, _ = bnb_search(system)
print(render_result(result.document))

print("=== Laurent lifting ===")
lifting = laurent_quadratize(system)
print(render_result(lifting.document))

print(f"monomial optimum: {result.order} variables; "
      f"Laurent lifting: {lifting.order} variables.")
print("Here the non-optimal Laurent construction is smaller than the best")
print("possible ordinary monomial quadratization, which is why searching")
print("over Laurent candidates is an interesting open direction.")
