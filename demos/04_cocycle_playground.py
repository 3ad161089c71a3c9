"""Central extensions as values of their H^2 class.

Takes the dihedral-type extension, inspects the commutator pairing and
the set Y_E of elements with liftable inertia, enumerates H^2 for a
couple of small pairs (Gab, A), and decides that the split extension's
cocycle table is a coboundary.
"""

from lemfact import (
    AbGroup,
    CentralExtension,
    aut_stabilizer_order,
    class_orbit_size,
    enumerate_central_extensions,
    is_coboundary,
    preset,
    split_extension,
)

ext, h = preset("C4_D4")
gab, a = ext.gab, ext.a
print(f"Gab = {gab.moduli}, A = {a.moduli}, H = {sorted(h)}")
print("pairing table c(x,y) - c(y,x):")
for x in gab.elements():
    print(" ", [ext.pairing(x, y) for y in gab.elements()])
print(f"Y_E = {sorted(ext.y_set())}")
print(f"stabilizer in Aut(A): {aut_stabilizer_order(ext)}, "
      f"orbit size: {class_orbit_size(ext)}")
print()

for moduli_g, moduli_a in (((2, 2), (2,)), ((2, 3), (6,))):
    G, A = AbGroup(moduli_g), AbGroup(moduli_a)
    classes = enumerate_central_extensions(G, A)
    print(f"H^2({moduli_g}, {moduli_a}) has {len(classes)} classes")

split = split_extension(AbGroup((2, 2)), AbGroup((2,)))
ok, phi = is_coboundary(split.gab, split.a, split.table)
print(f"\nsplit extension table is a coboundary: {ok} (witness phi = {phi})")
