"""latgad: vertex-isolating gadget construction and SAT/parity-to-CVP
instance compilation, with brute-force validation oracles."""
