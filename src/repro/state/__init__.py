"""Element state: tables with snapshot, split, merge and delta logs
(:mod:`.table`), live migration (:mod:`.migration`) and warm-standby
checkpoints (:mod:`.checkpoint`).

Import from the submodule. This package imports none of them, so the
IR interpreter's tables load without the migration and checkpoint
machinery.
"""
