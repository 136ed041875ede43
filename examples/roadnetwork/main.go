// Road-network coverage analysis: a king-grid road network (planar-ish,
// bounded degree — nowhere dense) with charging stations (color 0) and
// depots (color 1).
//
// The example exercises two of the paper's structures:
//
//   - the DistanceIndex of Proposition 4.2: constant-time reachability
//     checks "is b within r hops of a" after pseudo-linear preprocessing,
//   - the full query Index for "coverage gaps": intersections with no
//     charging station within 2 hops, enumerated with constant delay.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro"
)

func main() {
	const n = 40_000 // 200×200 king grid
	g := repro.Generate("kinggrid", n, repro.GenOptions{
		Colors: 2, ColorProb: 0.02, Seed: 7,
	})
	fmt.Printf("road network: %d intersections, %d road segments\n", g.N(), g.M())

	// Distance oracle: preprocess once, answer hop-distance checks in O(1).
	start := time.Now()
	dix := repro.BuildDistanceIndex(g, 4)
	fmt.Printf("distance index (r=4) built in %v\n", time.Since(start).Round(time.Millisecond))

	rng := rand.New(rand.NewSource(1))
	start = time.Now()
	const checks = 100_000
	close := 0
	for i := 0; i < checks; i++ {
		if dix.Within(rng.Intn(g.N()), rng.Intn(g.N()), 4) {
			close++
		}
	}
	per := time.Since(start) / checks
	fmt.Printf("%d reachability checks, %v each, %d pairs within 4 hops\n", checks, per, close)

	// Coverage gaps: intersections with no charging station (C0) within 2
	// hops — the unary local query ¬∃z (dist(x,z) ≤ 2 ∧ C0(z)).
	q, err := repro.ParseQuery("~(exists z (dist(x,z) <= 2 & C0(z)))", "x")
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	ix, err := repro.Build(context.Background(), g, q)
	if err != nil {
		log.Fatal(err)
	}
	gaps := ix.Count()
	fmt.Printf("\ncoverage gaps: %d of %d intersections lack a charger within 2 hops (%v)\n",
		gaps, g.N(), time.Since(start).Round(time.Millisecond))

	// Pairs of depots that are far apart (distance > 4): candidate pairs
	// for a new connecting corridor, streamed in constant delay.
	q2, err := repro.ParseQuery("C1(x) & C1(y) & dist(x,y) > 4", "x", "y")
	if err != nil {
		log.Fatal(err)
	}
	ix2, err := repro.Build(context.Background(), g, q2)
	if err != nil {
		log.Fatal(err)
	}
	shown := 0
	ix2.Enumerate(func(sol []int) bool {
		if shown < 3 {
			fmt.Printf("  corridor candidate: depot %d ↔ depot %d\n", sol[0], sol[1])
		}
		shown++
		return shown < 10
	})
}
