"""Identities the engine is expected to satisfy, composed from
``moikit.moi_core`` and the integrand classes.  Unlike :mod:`oracles`, these
call the code under test: each compares two of its evaluations, so a test
asserts that they agree."""

import moikit as mk


def linear_combination(phi, psi, alpha, beta):
    """The integrand ``alpha * phi + beta * psi``: separable when both are,
    else evaluated on a grid as ``alpha * grid(phi) + beta * grid(psi)``."""
    if phi.separable is not None and psi.separable is not None:
        return phi.scaled(alpha).plus(psi.scaled(beta))
    return mk.MultivariateFunction(
        phi.arity, lambda pt: alpha * phi.evaluate(pt) + beta * psi.evaluate(pt),
        _grid=lambda axes: alpha * phi.eval_grid(axes) + beta * psi.eval_grid(axes),
    )


def linearity_residual(phi, psi, alpha, beta, operators, arguments):
    """Residual of linearity:  || T_{a*phi + b*psi} - (a T_phi + b T_psi) ||."""
    combined = mk.moi_core(operators, linear_combination(phi, psi, alpha, beta), arguments)
    return mk.operator_norm(combined - (alpha * mk.moi_core(operators, phi, arguments)
                                        + beta * mk.moi_core(operators, psi, arguments)))


def block_product(p, q):
    """The separable integrand ``p(l_1..l_k) * q(l_{k+1}..l_m)``: every
    concatenation of a factor tuple of ``p`` with one of ``q``."""
    return mk.SeparableIntegrand(p.arity + q.arity,
                                 tuple(tp + tq for tp in p.terms for tq in q.terms))


def partition_evaluate(segments, operators, arguments):
    """The evaluations of separable ``segments`` on consecutive runs of the
    operators, each as long as its segment's arity, multiplied left to right
    with the argument at each boundary between them: the evaluation of the
    segments' block product.  A split is the case of two segments."""
    result, offset = None, 0
    for psi in segments:
        end = offset + psi.arity
        block = mk.moi_core(operators[offset:end], psi, arguments[offset:end - 1])
        result = block if result is None else result @ arguments[offset - 1] @ block
        offset = end
    return result


def perturbation_residual(f, operators, insert_index, c_op, d_op, arguments):
    """Residual of the middle-operator replacement identity.

    Swapping an operator C inserted at 1-based position ``insert_index`` of
    an order-m divided-difference evaluation for D equals one order-(m+1)
    evaluation with C and D adjacent and C - D threaded as the extra
    argument.  Returns the spectral norm of (left side - right side).
    """
    m = len(operators)
    before, after = list(operators[:insert_index - 1]), list(operators[insert_index - 1:])
    dd_m = mk.divided_difference_integrand(f, m)
    lhs = (mk.moi_core(before + [c_op] + after, dd_m, arguments)
           - mk.moi_core(before + [d_op] + after, dd_m, arguments))
    gap = c_op.matrix - d_op.matrix
    rhs = mk.moi_core(before + [c_op, d_op] + after, mk.divided_difference_integrand(f, m + 1),
                      [*arguments[:insert_index - 1], gap, *arguments[insert_index - 1:]])
    return mk.operator_norm(lhs - rhs)
