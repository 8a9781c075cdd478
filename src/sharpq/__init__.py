"""sharpq: counting answers to existential-positive queries on finite structures.

Modules:
  relstore    - relational structures, .rel format, the backtracking and homomorphism search
  epquery     - ep/pp query ASTs, .epq format, structural views, counting oracle
  sharpcore   - the counting-logic AST, .shq format, table-driven evaluation
  decomp      - exact treewidth, nice decompositions, quantifier-aware width
  equiv       - cores, logical and counting equivalence
  compilepipe - flattening, canonical linear combinations, width-minimal compilation
  cli         - the `sharpq` command line tool
"""

__version__ = "0.1.0"
