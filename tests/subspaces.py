"""The zero subspace, membership, containment, sums and intersections,
built only from the package's public Subspace and rank_kernel.  The tests use them as an
oracle apart from the echelon compute_split reads its summands off: each
summand U_i against its definition, a dual-eigenspace prefix intersected
with an eigenspace suffix."""
from tdpair import Matrix, Subspace, rank_kernel


def zero(field, ambient: int) -> Subspace:
    return Subspace.from_columns(field, ambient, [])


def contains(space: Subspace, vec) -> bool:
    """Whether vec lies in space: adding it leaves the dimension alone."""
    return Subspace.from_columns(
        space.field, space.ambient,
        space.basis_columns() + [vec]).dim == space.dim


def full(field, ambient: int) -> Subspace:
    return Subspace.from_columns(
        field, ambient, Matrix.identity(field, ambient).columns())


def is_subspace_of(a: Subspace, b: Subspace) -> bool:
    a._check_compatible(b)
    return all(contains(b, col) for col in a.basis_columns())


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    a._check_compatible(b)
    return Subspace.from_columns(a.field, a.ambient,
                                 a.basis_columns() + b.basis_columns())


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked joint-membership system."""
    a._check_compatible(b)
    if a.dim == 0 or b.dim == 0:
        return zero(a.field, a.ambient)
    a_cols = a.basis_columns()
    stacked = Matrix.from_columns(
        a.field, a_cols + [tuple(-x for x in col)
                           for col in b.basis_columns()])
    _, ker = rank_kernel(stacked)
    members = []
    for col in ker.basis_columns():
        vec = [a.field.zero] * a.ambient
        for c, bcol in zip(col[:a.dim], a_cols):
            if c:
                vec = [v + c * x for v, x in zip(vec, bcol)]
        members.append(vec)
    return Subspace.from_columns(a.field, a.ambient, members)
