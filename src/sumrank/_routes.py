"""Route tables: which routes certify each property a report states, and
how their answers must relate.

A family's table (``tlrs.ROUTES``, ``acd.ROUTES``) maps each property to
a pair (relation, routes), where ``routes`` maps each route's name to the
report attribute that holds its answer, ``None`` when the route did not
run.  ``routes_agree`` is the one reading of a table.
"""

RELATIONS = {
    # every route that ran gives the same answer
    "equal": lambda report, *answers: len({a for a in answers if a is not None}) <= 1,
    # a sufficient criterion: where it holds, the oracle, if it ran, holds too
    "implies": lambda report, criterion, oracle: not criterion or oracle in (None, True),
    # the route, if it ran, lies within the proved floor and the Singleton bound
    "bounded": lambda report, d: d is None or report.distance_floor <= d <= report.singleton_bound,
}


def routes_agree(report, table: dict) -> bool:
    """Whether the answers on ``report`` satisfy every relation of ``table``."""
    return all(
        RELATIONS[relation](report, *(getattr(report, attr) for attr in routes.values()))
        for relation, routes in table.values()
    )
