package snap_test

import (
	"bytes"
	"context"
	"os"
	"testing"

	"repro"
	"repro/internal/snap"
)

// FuzzSnapshotLoad throws arbitrary bytes at the full load path. The
// contract under test is the package's central safety promise: hostile
// input yields a typed error — never a panic, never an allocation sized
// from unverified lengths. When a mutated input still parses, the restored
// index is exercised briefly so decode-survivable mutations cannot smuggle
// in structures the answering hot path would trip over.
func FuzzSnapshotLoad(f *testing.F) {
	// Seed with real snapshots and near-valid mutants so the fuzzer starts
	// deep inside the decoder rather than bouncing off the magic check. What
	// is built here is a version-4 file; the fixtures of the older versions,
	// of both localities, follow at the end, whole and damaged the same ways,
	// and testdata/fuzz holds bare headers of versions 1 and 2.
	g := repro.Generate("grid", 36, repro.GenOptions{Seed: 5, Colors: 2})
	ix, err := repro.Build(context.Background(), g, repro.MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y"))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	valid := append([]byte(nil), buf.Bytes()...)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:40])
	for _, off := range []int{9, 13, 17, 25, 40, len(valid) / 2, len(valid) - 2} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x55
		f.Add(mut)
	}
	// Checksums intact, one reserved cover flag set: refused in decodeCover.
	f.Add(setCoverFlag(f, valid, "cover", 0, 0))

	ux, err := repro.Build(context.Background(),
		repro.Generate("path", 20, repro.GenOptions{Seed: 2, Colors: 1}),
		repro.MustParseQuery("~(exists z (dist(x,z) <= 1 & C0(z)))", "x"))
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := ux.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...))

	// The ball form: a lowdeg snapshot whole, cut inside its rows, and with
	// bytes flipped in the section table and in the rows.
	lx, err := repro.Build(context.Background(),
		repro.Generate("bdeg", 40, repro.GenOptions{Seed: 4, Colors: 2}),
		repro.MustParseQuery("dist(x,y) <= 1 & dist(y,z) > 1 & dist(x,z) > 1 & C0(x)", "x", "y", "z"),
		repro.WithEngine(repro.EngineLowDeg))
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := lx.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	balls := append([]byte(nil), buf.Bytes()...)
	f.Add(balls)
	f.Add(balls[:len(balls)*3/4])
	for _, off := range []int{40, len(balls) / 2, len(balls) * 3 / 4} {
		mut := append([]byte(nil), balls...)
		mut[off] ^= 0x55
		f.Add(mut)
	}

	// A close pair: the partners section whole, cut inside it (it is the
	// last), and with a byte flipped in its rows and in the flag word region
	// of "clauses" before it.
	nx, err := repro.Build(context.Background(), g, repro.MustParseQuery("dist(x,y) <= 2 & C0(x) & C1(y)", "x", "y"))
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := nx.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	near := append([]byte(nil), buf.Bytes()...)
	f.Add(near)
	f.Add(near[:len(near)-40])
	for _, off := range []int{len(near) - 40, len(near) * 3 / 4} {
		mut := append([]byte(nil), near...)
		mut[off] ^= 0x55
		f.Add(mut)
	}

	f.Add([]byte{})
	f.Add([]byte("FODSNAP1"))
	f.Add([]byte("FODSNAP2 not really a snapshot"))

	// far3: five components over two lists, tables of set size 1 and 2 — whole,
	// cut inside "clauses" (the last section), and with a byte flipped in a
	// table's rows and where the K words and flag words lie.
	fx, err := repro.Build(context.Background(), g, repro.MustParseQuery("dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", "x", "y", "z"))
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := fx.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	far3 := append([]byte(nil), buf.Bytes()...)
	if got := fx.Stats().SkipTables; got != 2 {
		f.Fatalf("far3 has %d skip tables, want 2", got)
	}
	f.Add(far3)
	f.Add(far3[:len(far3)-60])
	for _, off := range []int{len(far3) - 60, len(far3) - 400, len(far3) * 7 / 8} {
		mut := append([]byte(nil), far3...)
		mut[off] ^= 0x55
		f.Add(mut)
	}

	for _, path := range []string{goldenPath, goldenBallsPath, versionPath(goldenPath, 2), versionPath(goldenBallsPath, 2),
		versionPath(goldenPath, 3), versionPath(goldenBallsPath, 3), goldenNearPath(3)} {
		old, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old)
		f.Add(old[:len(old)*3/4])
		for _, off := range []int{8, 25, 40, len(old) / 2} {
			mut := append([]byte(nil), old...)
			mut[off] ^= 0x03 // at 8: the version word, 1 becomes 2 and 2 becomes 1
			f.Add(mut)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := snap.Read(data)
		if err != nil {
			return // rejected cleanly — the desired outcome for garbage
		}
		if s.Graph == nil {
			t.Fatal("Read returned nil graph without error")
		}
		ix, err := repro.ReadIndexSnapshot(data)
		if err != nil {
			return // container fine, semantic restore refused — also fine
		}
		// A restored index must answer without panicking. Keep the probes
		// bounded: the fuzzer's job is crash-freedom, not correctness
		// (the differential round-trip test owns that).
		k := ix.Arity()
		n := s.Graph.N()
		if n == 0 {
			return
		}
		tup := make([]int, k)
		ix.Test(tup)
		ix.Next(tup)
		count := 0
		ix.Enumerate(func([]int) bool {
			count++
			return count < 16
		})
	})
}
