#!/usr/bin/env bash
# Verification tiers (see README "Testing"):
#   tier 1 — build + full test suite (the CI gate; ROADMAP "Tier-1 verify");
#            includes the import-layering check of DESIGN.md §6 and the
#            ungated 0 allocs/op pin on Index.Test / Index.NextLast /
#            Cursor.Next for both engine kinds and for a patched and a
#            restored lowdeg index, the byte-for-byte comparison
#            of every /v1/enumerate page with encoding/json, and the pin that
#            a 10000-answer page allocates what a 100-answer page does
#   tier 2 — static analysis + race-detector pass: go vet (plus an
#            explicit -copylocks -loopclosure run), the repo's own fodlint
#            analyzers (see README "Static analysis"), and the
#            concurrency-sensitive suite under -race in -short mode; the
#            serving layer (internal/serve) additionally runs its full
#            suite under -race — it is the concurrency surface of the repo —
#            and its flight-lifetime tests (Deadline|Singleflight|Abandon)
#            twenty times over, and TestConcurrentPages ten times — response
#            buffers are pooled across requests, so 36 clients paging six
#            queries at six limits through one server must each read their
#            own stream, byte for byte; the benchmark module bench/ (not part of
#            ./...) is vetted and tested, so a break of an exported
#            signature it calls is caught here; the snapshot decoder
#            fuzzes for 30s (FuzzSnapshotLoad, seeded with files of both
#            localities): hostile bytes must yield typed errors, never a
#            panic or OOM; the mutation path runs its seed corpus and the
#            readers-on-the-old-version / writer test over both localities
#            five times under -race, then fuzzes for 30s
#            (FuzzMutateVsRebuild: patched vs rebuilt vs naive, cover and
#            balls, and the ball parts word for word);
#            the cross-engine fuzzer (FuzzEngineEquivalence, kept with
#            the lowdeg constructor in internal/lowdeg) drives the one
#            engine over both localities and the naive oracle through the
#            shared conformance checks on random bounded-degree graphs
#            for another 30s
#   tier 3 — performance guards:
#            (a) metrics-overhead guard: NextGeq with metrics disabled must
#                not be slower than with metrics enabled (the nil-sink fast
#                path of internal/obs; see README "Observability")
#            (b) cold-resume guard: a cold /v1/enumerate page after cache
#                eviction stays within a constant factor of a warm page —
#                cursor resume really is O(1) (see README "Serving")
#            (c) allocation guards (LINT_GUARD=1): Iterator.Next and
#                Engine.Test must report 0 allocs/op in steady state on
#                the E15 benchmark graph — the dynamic twin of the
#                fodlint hotpath analyzer
#            (d) snapshot guards (SNAP_GUARD=1): loading the E15 index
#                from a snapshot must be ≥10× faster than rebuilding it,
#                and the restored index must keep the zero-alloc
#                enumeration hot path (see README "Snapshots")
#            (e) trace guards (TRACE_GUARD=1): a server with tracing
#                disabled serves pages no slower than a traced one (the
#                one-branch disabled path), and Iterator.Next/Index.Test
#                stay at 0 allocs/op with a live request trace — spans
#                wrap pages and phases, never answers (README "Tracing")
#            (f) mutation guards (MUT_GUARD=1): a single-edge ApplyEdits
#                on the E16 grid must beat rebuilding the index by ≥10×
#                (the §3 n^ε update regime), and the mutated index must
#                keep the zero-alloc Iterator.Next/Index.Test hot paths
#                (see README "Mutations")
#            (g) lowdeg guards (LOWDEG_GUARD=1, tests in internal/lowdeg):
#                on the degree-bounded E17 graph the ball-locality build
#                must be ≥5× cheaper than the cover-locality build, a
#                single-edge ApplyEdits at n = 32k ≥10× cheaper than that
#                build with no rebuild fallback, and Iterator.Next / Test /
#                NextLast over the ball locality must report 0 allocs/op
#                (see README "Engine modes")
#            (h) self-lint guards (LINT2_GUARD=1): all seven fodlint
#                analyzers must come back clean over the whole module
#                (internal/lint included) modulo the reviewed baseline,
#                and the static //fod:hotpath closure must contain every
#                function the AllocsPerRun guards pin at 0 allocs/op —
#                the static and dynamic delay-bound checks must agree
#
#   scripts/verify.sh          # all tiers
#   scripts/verify.sh 1        # tier 1 only
#   scripts/verify.sh 2        # tier 2 only
#   scripts/verify.sh 3        # tier 3 only
set -euo pipefail
cd "$(dirname "$0")/.."

tier="${1:-all}"

if [[ "$tier" == "1" || "$tier" == "all" ]]; then
    echo "== tier 1: go build ./... && go test ./... =="
    go build ./...
    go test ./...
fi

if [[ "$tier" == "2" || "$tier" == "all" ]]; then
    echo "== tier 2: go vet ./... (+ explicit -copylocks -loopclosure) =="
    go vet ./...
    go vet -copylocks -loopclosure ./...
    echo "== tier 2: fodlint (7 whole-program analyzers, all packages, -json) =="
    go run ./cmd/fodlint -json ./... > /dev/null
    go run ./cmd/fodlint ./...
    echo "== tier 2: go test -race -short ./... =="
    go test -race -short ./...
    echo "== tier 2: serving layer full suite under -race =="
    go test -race -count=1 ./internal/serve/
    echo "== tier 2: flight lifetime tests (deadline, singleflight, abandoned builds) x20 under -race =="
    go test -race -count=20 -run 'Deadline|Singleflight|Abandon' ./internal/serve/
    echo "== tier 2: concurrent pages over pooled response buffers x10 under -race =="
    go test -race -count=10 -run 'TestConcurrentPages' ./internal/serve/
    echo "== tier 2: bench/ compiles against the exported signatures and passes its own tests =="
    go vet -C bench ./...
    go test -C bench -count=1 ./...
    echo "== tier 2: trace ring + tail sampling under -race =="
    go test -race -count=1 -run 'TestRing|TestTailSampling|TestTraceSpanTree' ./internal/obs/
    echo "== tier 2: snapshot decoder fuzz (30s) =="
    go test -run FuzzSnapshotLoad -fuzz FuzzSnapshotLoad -fuzztime 30s ./internal/snap/
    echo "== tier 2: MVCC under -race, both localities: readers on the old version, one writer; mutate fuzz seeds x5 =="
    go test -race -count=5 -run 'TestMutateSnapshotIsolation|FuzzMutateVsRebuild' ./internal/core/
    echo "== tier 2: mutation-vs-rebuild fuzz, both localities (30s) =="
    go test -run FuzzMutateVsRebuild -fuzz FuzzMutateVsRebuild -fuzztime 30s ./internal/core/
    echo "== tier 2: cross-engine equivalence fuzz (30s) =="
    go test -run FuzzEngineEquivalence -fuzz FuzzEngineEquivalence -fuzztime 30s ./internal/lowdeg/
fi

if [[ "$tier" == "3" || "$tier" == "all" ]]; then
    echo "== tier 3: metrics-overhead guard (OBS_GUARD=1) =="
    OBS_GUARD=1 go test -run TestMetricsOverheadGuard -count=1 -v ./internal/core/
    echo "== tier 3: cold-resume guard (SERVE_GUARD=1) =="
    SERVE_GUARD=1 go test -run TestColdResumeGuard -count=1 -v ./internal/serve/
    echo "== tier 3: allocation guards (LINT_GUARD=1) =="
    LINT_GUARD=1 go test -run ZeroAllocs -count=1 -v ./internal/core/
    echo "== tier 3: snapshot guards (SNAP_GUARD=1) =="
    SNAP_GUARD=1 go test -run 'TestSnapshotLoad' -count=1 -v ./internal/snap/
    echo "== tier 3: trace guards (TRACE_GUARD=1) =="
    TRACE_GUARD=1 go test -run 'TestTraced|TestTraceDisabledOverheadGuard' -count=1 -v ./internal/serve/
    echo "== tier 3: mutation guards (MUT_GUARD=1) =="
    MUT_GUARD=1 go test -run 'TestMutateSpeedGuard|TestMutateZeroAllocsGuard' -count=1 -v .
    echo "== tier 3: lowdeg guards (LOWDEG_GUARD=1) =="
    LOWDEG_GUARD=1 go test -run 'TestLowdeg' -count=1 -v ./internal/lowdeg/
    echo "== tier 3: self-lint + hot-closure guards (LINT2_GUARD=1) =="
    LINT2_GUARD=1 go test -run 'TestSelfLintClean|TestHotClosureMatchesAllocGuards' -count=1 -v ./internal/lint/
fi

echo "verify: OK (tier $tier)"
