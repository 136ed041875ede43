#!/usr/bin/env bash
# Verification tiers (see README "Testing"):
#   tier 1 — build + full test suite (the CI gate; ROADMAP "Tier-1 verify");
#            includes the import-layering check of DESIGN.md §6 and the
#            0 allocs/op pins — Index.Test / Index.NextLast / Cursor.Next
#            for both engine kinds, built, patched and restored
#            (TestFacadeHotPathsZeroAllocs), the engine on grid-2000 and
#            bdeg-4000 and under a live request trace (the ZeroAllocs tests
#            of internal/core, internal/lowdeg, internal/serve) — and
#            TestHotClosureMatchesAllocGuards, which holds the static
#            //fod:hotpath closure to the functions those tests pin; the
#            byte-for-byte comparison of every /v1/enumerate page with
#            encoding/json, and the pins that a 10000-answer page allocates
#            what a 100-answer page does and is compact JSON
#            (TestPageBytesPerAnswer)
#   tier 2 — static analysis + race-detector pass: gofmt -l . must list
#            nothing; go vet (plus an
#            explicit -copylocks -loopclosure run), the repo's own fodlint
#            hot-path check over the whole module, internal/lint included
#            (see README "Static analysis"; a finding fails it), and the
#            concurrency-sensitive suite under -race in -short mode; the
#            serving layer (internal/serve) additionally runs its full
#            suite under -race — it is the concurrency surface of the repo —
#            and its flight-lifetime tests (Deadline|Singleflight|Abandon)
#            twenty times over, and TestConcurrentPages ten times — 36
#            clients paging six queries at six limits through one server
#            must each read their own stream, byte for byte; the benchmark
#            module bench/ (not part of
#            ./...) is vetted and tested, so a break of an exported
#            signature it calls is caught here; the root benchmarks
#            EnumerationDelay, NextSolution and ApplyEdits run 100 iterations a row,
#            and every root benchmark — the rows EXPERIMENTS.md cites for
#            F1–E13 — one iteration, so a row that panics or stops compiling
#            fails here; the snapshot decoder
#            fuzzes for 30s (FuzzSnapshotLoad, seeded with files of both
#            localities and the four format versions): hostile bytes must yield typed errors, never a
#            panic or OOM; the mutation path runs its seed corpus and the
#            readers-on-the-old-version / writer test over both localities
#            five times under -race, then fuzzes for 30s
#            (FuzzMutateVsRebuild: patched vs rebuilt vs naive, cover and
#            balls, the partner rows and the ball parts word for word);
#            the cross-engine fuzzer (FuzzEngineEquivalence, kept with
#            the lowdeg constructor in internal/lowdeg) drives the one
#            engine over both localities and the naive oracle through the
#            shared conformance checks on random bounded-degree graphs
#            for another 30s; and the row store (FuzzRowsPatch: chains of
#            patches with replaced and appended rows against a flat
#            rebuild) — adjacency, balls, bags, kernels and inverted lists
#            all live in one — for 30s more
#   tier 3 — the seven timing-ratio guards, every one a test named Test…Guard
#            behind the one GUARD=1 gate, run with -count=1 so a regression
#            cannot hide behind the test cache and one package at a time so
#            they do not time each other: a page from a server without a
#            tracer is not slower than from one with
#            (TestTraceDisabledOverheadGuard); a
#            cold /v1/enumerate page deep in the stream stays within a
#            constant factor of a first page (TestColdResumeGuard); loading
#            the grid-2000 index from a snapshot is ≥1.75× faster than
#            building it, best of three on both sides — the gate was 10×,
#            then 3×, then 1.25× as the build got cheaper (PRs 12–15, 23, 24)
#            and is two thirds of the smallest of 2.6–4.5× measured since
#            the checksum became CRC-32C (PR 25; 3.0× at 32k)
#            (TestSnapshotLoadSpeedGuard); a single-edge
#            ApplyEdits is ≥10× faster than the rebuild on grid-4000 over
#            the cover locality and on bdeg-32k over the ball locality,
#            never through the rebuild fallback (TestMutateSpeedGuard,
#            TestLowdegMutateSpeedGuard); the ball-locality build on
#            bdeg-16000 costs at most 6× the one on bdeg-4000
#            (TestLowdegBuildSpeedGuard); and over a full scan of near2 on
#            grid-2k and grid-8k the slowest single Next stays within 50× the
#            median (TestCloseDelayGuard)
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
    echo "== tier 2: gofmt -l . lists nothing =="
    test -z "$(gofmt -l .)"
    echo "== tier 2: go vet ./... (+ explicit -copylocks -loopclosure) =="
    go vet ./...
    go vet -copylocks -loopclosure ./...
    echo "== tier 2: fodlint (hot-path closure check, all packages) =="
    go run ./cmd/fodlint ./...
    echo "== tier 2: go test -race -short ./... =="
    go test -race -short ./...
    echo "== tier 2: serving layer full suite under -race =="
    go test -race -count=1 ./internal/serve/
    echo "== tier 2: flight lifetime tests (deadline, singleflight, abandoned builds) x20 under -race =="
    go test -race -count=20 -run 'Deadline|Singleflight|Abandon' ./internal/serve/
    echo "== tier 2: concurrent pages x10 under -race =="
    go test -race -count=10 -run 'TestConcurrentPages' ./internal/serve/
    echo "== tier 2: bench/ compiles against the exported signatures and passes its own tests =="
    go vet -C bench ./...
    go test -C bench -count=1 ./...
    echo "== tier 2: the EnumerationDelay, NextSolution and ApplyEdits benchmark rows run (100 iterations each) =="
    go test -run XXX -bench 'EnumerationDelay|NextSolution|ApplyEdits' -benchtime 100x .
    echo "== tier 2: every root benchmark row runs (one iteration each) =="
    go test -run XXX -bench . -benchtime 1x .
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
    echo "== tier 2: row-store patch fuzz (30s) =="
    go test -run FuzzRowsPatch -fuzz FuzzRowsPatch -fuzztime 30s ./internal/graph/
fi

if [[ "$tier" == "3" || "$tier" == "all" ]]; then
    echo "== tier 3: seven timing-ratio guards (GUARD=1) =="
    GUARD=1 go test -count=1 -p 1 -run 'Guard$' ./...
fi

echo "verify: OK (tier $tier)"
