#!/bin/sh
# lint_imports.sh — enforce the engine's import layering (DESIGN.md):
#
#   1. Algorithm packages (flpa, gunrock, gvelpa, louvain, nulpa, plp,
#      variants) must not import each other. They meet only through the
#      engine registry.
#   2. Every other package may import at most nulpa/internal/nulpa among the
#      algorithm packages (bench and cmd/nulpa need its Options type for the
#      paper's parameter sweeps); the rest are reached via the registry.
#   3. nulpa/internal/sched schedules opaque closures; among nulpa packages
#      it may import only metrics and trace, never graphs/engines/HTTP.
#      nulpa/internal/quality evaluates partitions; among nulpa packages it
#      may import only graph, keeping it usable from every layer.
#      nulpa/internal/telemetry is the record type every detector and device
#      reports through; among nulpa packages it may import only trace and
#      quality.
#   4. Exemptions, each for a reason the registry cannot express:
#      nulpa/internal/engine/all exists to blank-import every algorithm so a
#      registry consumer pulls them all in with one import, and
#      nulpa/examples/overlap type-asserts Result.Extra to the native
#      variants.SLPAResult for the overlapping-membership API.
#
# Only production imports are checked (test files may import anything — the
# conformance suite deliberately pulls in engine/all).
set -eu

cd "$(dirname "$0")/.."

go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | awk '
BEGIN {
    n = split("nulpa/internal/flpa nulpa/internal/gunrock nulpa/internal/gvelpa nulpa/internal/louvain nulpa/internal/nulpa nulpa/internal/plp nulpa/internal/variants", a, " ")
    for (i = 1; i <= n; i++) algo[a[i]] = 1
}
{
    pkg = $1
    sub(/:$/, "", pkg)
    if (pkg == "nulpa/internal/engine/all") next
    if (pkg == "nulpa/examples/overlap") next
    for (i = 2; i <= NF; i++) {
        imp = $i
        # quality is a pure evaluation layer: modularity, census, and
        # agreement metrics over a graph and labels. Among nulpa packages it
        # may import only graph — never engine, telemetry, or detectors, so
        # every layer (including telemetry itself) can depend on it without
        # cycles.
        if (pkg == "nulpa/internal/quality" && imp ~ /^nulpa\// && imp != "nulpa/internal/graph") {
            print pkg " imports " imp " (quality may import only graph among nulpa packages)"
            bad = 1
        }
        # telemetry carries the per-iteration record every detector, device
        # and exporter shares. Among nulpa packages it may import only the
        # leaf layers trace and quality (its quality record is
        # quality.LiveStats), never engine, simt, metrics, or a detector.
        if (pkg == "nulpa/internal/telemetry" && imp ~ /^nulpa\// && imp != "nulpa/internal/trace" && imp != "nulpa/internal/quality") {
            print pkg " imports " imp " (telemetry may import only trace and quality among nulpa packages)"
            bad = 1
        }
        # sched is a generic serving primitive: it schedules opaque closures
        # and must stay ignorant of graphs, engines, and HTTP. Among internal
        # packages it may import only metrics and trace (observability).
        if (pkg == "nulpa/internal/sched" && imp ~ /^nulpa\// && imp != "nulpa/internal/metrics" && imp != "nulpa/internal/trace") {
            print pkg " imports " imp " (sched may import only metrics and trace among nulpa packages)"
            bad = 1
        }
        if (!(imp in algo)) continue
        if (pkg in algo) {
            print pkg " imports sibling algorithm package " imp " (use the engine registry)"
            bad = 1
        } else if (imp != "nulpa/internal/nulpa") {
            print pkg " imports algorithm package " imp " directly (use the engine registry; only nulpa/internal/nulpa is allowed, for its Options type)"
            bad = 1
        }
    }
}
END { exit bad }
'
echo "lint_imports: import layering OK"
