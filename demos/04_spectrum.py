"""The eigenvalue spectrum of the scaling generator.

The graded pieces of archimedean cyclic homology are indexed by pairs
(n, j) with 0 <= 2j - n <= 2d; rewriting them by (weight, eigenvalue)
turns the dimension counts into the spectral multiset of the scaling
generator.  Each weight w contributes eigenvalues m <= floor(w/2) with
multiplicity equal to the pole order at m, so the spectrum has a finite
head and an eventually periodic tail per parity.
"""

from archfactor import a_to_e, e_to_a, har_dim, preset, theta_spectrum

data = preset("elliptic_R")

print("index bookkeeping (d = 1): (n, j) <-> (weight, eigenvalue)")
for n, j in ((0, 0), (1, 1), (2, 1), (2, 2), (3, 2), (4, 2)):
    q, m = e_to_a(n, j, data.dim)
    assert a_to_e(q, m, data.dim) == (n, j)
    print(f"  (n={n}, j={j}) <-> (w={q}, m={m})   har dim = "
          f"{har_dim(data, n, j)}")

print("\nfull spectrum of elliptic_R:")
measure = theta_spectrum(data)
for parity, label, tails in ((0, "even", measure.even),
                             (1, "odd", measure.odd)):
    head = {m: measure.multiplicity(parity, m) for m in range(1, -5, -1)}
    print(f"  {label}: head {head}")
    for first, step, mult in tails:
        print(f"        tail m = {first}, {first - step}, ... "
              f"multiplicity {mult}")

print("\nweight-by-weight decomposition:")
for w in (0, 1, 2):
    part = theta_spectrum(data, w)
    parity = w % 2
    head = {m: part.multiplicity(parity, m) for m in range(w // 2, -4, -1)}
    print(f"  w={w} ({'even' if parity == 0 else 'odd'} parity): {head} ...")
