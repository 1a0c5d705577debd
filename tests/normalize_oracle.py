"""Oracle for the differential test of laurentdecide.resolve._normalize: the
normalization as it stood before the Jacobian criterion let it skip
squarefree parts, copied verbatim.  Every equation of X-degree two or more
takes its squarefree part."""

from __future__ import annotations

from fraction_oracle import principal_generator

from laurentdecide.ideal import squarefree_equation
from laurentdecide.resolve import AffineSystem


def _normalize(system, trace):
    """Drop a nonzero constant inequation and replace each equation of
    X-degree two or more by its squarefree part over F_q[X, t] with the F_q[t]
    content divided out (zero sets over F_q((t)) unchanged), when that lowers
    its total X-degree; when two or more equations have a principal reduced
    basis the system IS a hypersurface in disguise (e.g. {X, X*Y}), and their
    gcd replaces them (principal_generator); no basis is built for fewer.
    Settles in at most two rounds, and returns the input object when nothing
    changes."""
    ring = system.ring
    g = system.inequation
    # a zero inequation stays: the radical test handles it
    if g is not None and g.is_constant() and g:
        trace.append("inequation is a nonzero constant, dropped")
        g = None
        system = AffineSystem(ring, system.equations, g)

    while True:
        replaced = []
        changed = False
        for f in system.equations:
            # X-degree adds up over factors: an X-linear equation keeps its own
            if f.x_degree() > 1:
                sf = squarefree_equation(f)
                if sf.x_degree() < f.x_degree():
                    changed = True
                    f = sf
            replaced.append(f)
        if changed:
            trace.append("replaced equations by their squarefree parts")
            system = AffineSystem(ring, replaced, g)
        if len(system.equations) > 1 and len(system.basis.generators) == 1:
            trace.append("equations collapse to a principal ideal")
            system = AffineSystem(ring, [principal_generator(system.equations)], g)
            continue
        return system
