# Walls from a lattice basis, wall counting, and stabilization.
#
# The standard wall family of a basis consists of the integer
# translates of the n coordinate hyperplanes of that basis, swept
# around by the point group.  Counting the resulting direction classes
# gives the dimension N of the cube complex the group acts on.

from fractions import Fraction

from cubecrys.crys import catalog_entry, validate
from cubecrys.decide import HyperoctahedralWitness, is_hyperoctahedral
from cubecrys.exactlin import format_rational, identity
from cubecrys.walls import (
    check_linear_separation,
    direction_class_count,
    induced_action_on_RN,
    scaled_pair,
    separation_count,
    stabilize,
)

g = catalog_entry("p6")
fam = direction_class_count(g, zip(*g.lattice_basis))
print("group %s: N = %d wall direction classes" % (g.name, fam.class_count))
for k, rep in enumerate(fam.classes):
    print("  class %d: direction (%s)"
          % (k, ", ".join(format_rational(e) for e in rep)))
print()

# Counting walls between two points.  Only walls strictly between the
# endpoints count, so nearby points are separated by no wall at all.
square = catalog_entry("p1")
square_fam = direction_class_count(square, zip(*square.lattice_basis))
p = (Fraction(1, 4), Fraction(1, 4))
q = (Fraction(11, 4), Fraction(7, 4))
print("separating walls between (1/4, 1/4) and (11/4, 7/4):",
      separation_count(p, q, square_fam))

# The wall count grows linearly with distance, in both directions:
# squared distance is at most max|basis|^2 (count + n)^2, and the count
# is at least the dual-coordinate l1 length minus n.
report = check_linear_separation(square, square_fam, [scaled_pair(p, q)])
print("upper-bound ratio for that pair:",
      format_rational(report.worst_ratio))
print()

# The point group permutes (and flips) the N direction classes, which
# is exactly how it will act on the cube complex.  The action lists one
# signed permutation per point element, in point_elements order, and the
# point table's first row says where each generator sits in that order.
action = induced_action_on_RN(g, fam)
rot = action[g.point_table().next[0][0]]
print("induced action of the sixfold rotation on the %d classes:"
      % fam.class_count)
print("  perm %s signs %s, order %d, det %d"
      % (list(rot.perm), list(rot.signs), rot.order(), rot.determinant()))
print()

# p6 itself is rejected (no order-6 signed permutation in rank 2), but
# regrouping the same data in the N wall directions produces a
# 3-dimensional group the classifier accepts on the spot.
s = stabilize(g)
validate(s)
result = is_hyperoctahedral(s)
print("stabilized group %r in dimension %d: %s"
      % (s.name, s.dimension,
         "accepted" if isinstance(result, HyperoctahedralWitness)
         else "rejected"))
print("  conjugator is the identity:",
      result.conjugator == identity(s.dimension))
