#!/usr/bin/env python3
"""Print the nerve/flag Betti tables along each preset's level chain, and
the ranks each bond of the chain induces on the nerves' homology."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nervelim.complexes import DEFAULT_MAX_DIM, LambdaIndex
from nervelim.homology import betti_stabilization
from nervelim.presets import PRESETS
from nervelim.systems import build_system

for name, preset in PRESETS.items():
    system = build_system(preset.factory(), max_dim=DEFAULT_MAX_DIM)
    chain = [system.position[LambdaIndex.of(ids)] for ids in preset.chain]
    table = betti_stabilization(system, chain)
    print(f"\n{name}  (nerve stabilized: {table.nerve_stabilized})")
    print(table.csv(), end="")
    for bond in table.bonds:
        ranks = ",".join(map(str, bond.ranks))
        print(f"bond {{{bond.source.json_key()}}} -> {{{bond.target.json_key()}}}: ranks {ranks}")
