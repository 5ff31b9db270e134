# Which plane crystallographic groups act on cube complexes?
#
# Runs the classifier over the embedded catalog: the 17 wallpaper
# groups plus three hand-picked groups built around a sixfold
# symmetry.  Equivalent to `cubecrys catalog --text`.

from cubecrys.crys import load_catalog
from cubecrys.decide import HyperoctahedralWitness, is_hyperoctahedral
from cubecrys.exactlin import matrix_to_json


def main():
    accepted = []
    rejected = []
    for g in load_catalog():
        result = is_hyperoctahedral(g)
        if isinstance(result, HyperoctahedralWitness):
            accepted.append(g.name)
        else:
            rejected.append((g.name, result.reason))

    print("accepted (%d):" % len(accepted), ", ".join(accepted))
    print("rejected (%d):" % len(rejected))
    for name, reason in rejected:
        print("  %-6s %s" % (name, reason))
    print()

    # A closer look at one acceptance.  The witness is an embedding of
    # the point group into the signed permutations together with a real
    # matrix conjugating it back to the group's own linear action,
    # exact to the last rational digit.
    for g in load_catalog():
        if g.name != "p4":
            continue
        witness = is_hyperoctahedral(g)
        print("p4 witness conjugator:", matrix_to_json(witness.conjugator))
        for p, s in zip(g.point_elements(), witness.iota):
            print("  %s -> perm %s signs %s"
                  % (matrix_to_json(p), list(s.perm), list(s.signs)))
        print("  verified:", witness.verify(g))
        print()

    # And one rejection.  p6 contains a sixfold rotation, but no
    # 2-dimensional signed permutation has order 6, so there is nothing
    # to search: the certificate is a one-line order count.
    for g in load_catalog():
        if g.name != "p6":
            continue
        cert = is_hyperoctahedral(g)
        print("p6 rejection:", cert.reason)
        print("  detail:", cert.detail)


if __name__ == "__main__":
    main()
