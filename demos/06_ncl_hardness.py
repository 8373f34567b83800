"""Hard instances from nondeterministic constraint logic.

AND/OR machines reduce to perfect matching reconfiguration by replacing
every edge and vertex with a small gadget; connector-pair coverage
encodes edge orientations.  The gadget behavior is re-derived here by
enumeration, and machine reachability provably mirrors flip reachability
of the encoded matchings.
"""

from matchflip import (
    SAMPLE_MACHINES,
    enumerate_configurations,
    gadget_selftest,
    k_factor_instance,
    reachable,
    reduce_ncl_to_pmr,
    split_completion,
    subdivide_for_kflip,
)
from matchflip.graph import Graph, edge_set
from matchflip.hardness import configuration_components, is_bipartite

# --- gadget behavior, checked not trusted ---

for kind in ("edge", "and", "or"):
    rep = gadget_selftest(kind)
    # sorted by printed label: frozensets have no hash-independent order
    labels = sorted((k if isinstance(k, str) else "+".join(sorted(k)), v)
                    for k, v in rep.class_counts.items())
    print(f"{kind:5s} gadget ok={rep.ok} classes={{" +
          ", ".join(f"{k}: {v}" for k, v in labels) + "}")

# --- reduce a machine and compare both reachability relations ---

machine = SAMPLE_MACHINES["two_and"]()
configs = enumerate_configurations(machine)
print("two_and machine has", len(configs), "valid configurations")
print("NCL components:", len(set(configuration_components(machine).values())))

inst = reduce_ncl_to_pmr(machine, configs[0], configs[1])
print("reduced graph: n =", inst.graph.n,
      "max degree =", max(inst.graph.degree(v) for v in range(inst.graph.n)),
      "bipartite =", is_bipartite(inst.graph) is not None)
print("frozen machine => encoded matchings unreachable:",
      not reachable(inst.graph, inst.m_ini, inst.m_tar).reachable)

# --- k-flip variant: stretch the marked gadget edges ---

inst6 = subdivide_for_kflip(inst, 6)
print("subdivided for 6-flips: n =", inst6.graph.n)
print("round trip still exact:",
      inst6.decode_matching(inst6.encode_configuration(configs[0])) == configs[0])

# --- split completion and k-factor lifts keep the structure ---

c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
print("split completion of C4 adds:", sorted(split_completion(c4, [0, 2]).edges - c4.edges))

kf = k_factor_instance(c4, edge_set([(0, 1), (2, 3)]), edge_set([(1, 2), (3, 0)]), 3)
print("3-factor lift: n =", kf.graph.n, "new vertices all at degree 3:",
      all(sum(1 for e in kf.h_ini if v in e) == 3 for v in kf.new_vertices))
