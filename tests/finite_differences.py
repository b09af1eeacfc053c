"""Central finite differences, the grader of every analytic Jacobian the
tests check, and the states they check them at."""

#: (i0, s0, beta, gamma) points the Jacobian checks visit
JACOBIAN_POINTS = [
    (0.01, 0.99, 0.3, 0.1),
    (0.2, 0.5, 0.3, 0.1),
    (0.05, 0.3, 0.5, 0.2),
    (0.4, 0.45, 0.25, 0.15),
]


def central_jacobian(f, y, rel=1e-6):
    """Central finite differences of ``f`` at ``y``, as rows."""
    cols = []
    for j in range(len(y)):
        h = rel * max(1.0, abs(y[j]))
        up, down = list(y), list(y)
        up[j] += h
        down[j] -= h
        cols.append([(a - b) / (2.0 * h) for a, b in zip(f(tuple(up)), f(tuple(down)))])
    return [[col[k] for col in cols] for k in range(len(cols[0]))]


def assert_jacobian_matches(analytic, f, y):
    reference = central_jacobian(f, y)
    assert [len(row) for row in analytic] == [len(row) for row in reference]
    scale = max(1.0, max(abs(x) for row in reference for x in row))
    err = max(abs(a - b) for ra, rb in zip(analytic, reference) for a, b in zip(ra, rb))
    assert err <= 1e-9 * scale
