package fo

import "testing"

// fuzzCorpus seeds FuzzParseQuery with every query that appears in
// EXPERIMENTS.md and the rest of the repository's query corpus (examples,
// benchmarks, tests), so `go test` alone already exercises the round-trip
// property on the full corpus.
var fuzzCorpus = []string{
	// EXPERIMENTS.md (E6 Example-2 query, E10 relational corpus).
	"dist(x,y) > 2 & C0(y)",
	"Cites(x,y) & Old(y)",
	// Examples and tests.
	"C0(x)",
	"C0(x) & C0(y) & dist(x,y) > 2",
	"C0(x) & exists z (E(x,z) & C1(z))",
	"C0(x) & exists z C1(z)",
	"C0(x) & ~(exists z (dist(x,z) <= 2 & C1(z)))",
	"C1(x) & C1(y) & dist(x,y) > 4",
	"Cites(x,y) & Seminal(y)",
	"E(x,y)",
	"E(x,y) & C0(x)",
	"E(x,y) & exists x C0(x)",
	"R(x,y)",
	"dist(x,y) <= 1 & C1(x) | dist(x,y) > 2 & C0(x) | dist(x,y) > 2 & C1(y)",
	"dist(x,y) <= 2",
	"dist(x,y) <= 3 & C0(x)",
	"dist(x,y) <= 5 | exists z (dist(z,y) <= 7)",
	"dist(x,y) > 2 & C0(x)",
	"dist(x,z) > 2 & dist(y,z) > 2 & C0(z)",
	"exists z (C0(z) | E(x,z))",
	"exists z (Cites(x,z) & Cites(z,y)) & Seminal(y)",
	"exists z (E(x,z) & E(z,y)) & C0(x)",
	"exists z (E(x,z) & E(z,y)) | E(x,y) | x = y",
	"exists z (E(x,z) & exists w E(z,w)) | C0(x)",
	"exists z (E(x,z) | E(y,z))",
	"exists z (dist(x,z) <= 2 & C0(z)) & dist(x,y) > 3",
	"exists z C0(z)",
	"exists z exists w E(z,w)",
	"forall z (E(x,z) | x = z)",
	"~(exists z (dist(x,z) <= 2 & C0(z)))",
	"true", "false", "x = y", "x != y",
	// Adversarial shapes: atom-named / uppercase quantified variables.
	"exists X (C0(X))",
	"exists dist (E(dist,y))",
	"exists E (E(E,E))",
	"~~x = y",
	"((x = y))",
}

// FuzzParseQuery asserts two properties of the query-language parser:
//
//  1. Parse never panics, whatever bytes it is fed.
//  2. For every formula the parser accepts, parse → String() → reparse is
//     a fixed point: the printed form parses back to a formula that prints
//     identically. (String() is the canonical form the serving layer keys
//     its index cache on, so this is a correctness property of the cache,
//     not just cosmetics.)
func FuzzParseQuery(f *testing.F) {
	for _, q := range fuzzCorpus {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		phi, err := Parse(src)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		s := phi.String()
		phi2, err := Parse(s)
		if err != nil {
			t.Fatalf("String() output does not reparse:\n  src  = %q\n  str  = %q\n  err  = %v", src, s, err)
		}
		if s2 := phi2.String(); s2 != s {
			t.Fatalf("parse→String→reparse not a fixed point:\n  src  = %q\n  str1 = %q\n  str2 = %q", src, s, s2)
		}
	})
}
