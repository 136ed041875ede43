// Quickstart: build a sparse colored graph, compile an FO⁺ query, build
// the Theorem 2.3 index, and use all three access modes — enumeration
// (constant delay), testing (constant time), and next-solution jumps.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	// A 100×100 planar grid with one color class ("blue") on ~30% of the
	// vertices. Grids are nowhere dense, so the paper's guarantees apply.
	g := repro.Generate("grid", 10_000, repro.GenOptions{Colors: 1, Seed: 42})
	fmt.Printf("graph: %d vertices, %d edges\n", g.N(), g.M())

	// The running example of the paper (Example 2, Section 5.1.5):
	// all pairs (x, y) with y blue and at distance greater than 2 from x.
	q, err := repro.ParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	ix, err := repro.Build(context.Background(), g, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("preprocessing: %v\n", time.Since(start).Round(time.Millisecond))

	// Constant-delay enumeration in lexicographic order (Corollary 2.5).
	fmt.Println("first five solutions:")
	count := 0
	ix.Enumerate(func(sol []int) bool {
		fmt.Printf("  (%d, %d)\n", sol[0], sol[1])
		count++
		return count < 5
	})

	// Constant-time testing (Corollary 2.4).
	fmt.Printf("is (0, 9999) a solution? %v\n", ix.Test([]int{0, 9999}))

	// The Theorem 2.3 primitive: jump to the smallest solution ≥ a tuple.
	if sol, ok := ix.Next([]int{5000, 0}); ok {
		fmt.Printf("smallest solution ≥ (5000, 0): (%d, %d)\n", sol[0], sol[1])
	}
}
