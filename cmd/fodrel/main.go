// Command fodrel answers relational FO⁺ queries over a database in the
// text format (see internal/rel), using the Lemma 2.2 pipeline: encode the
// database as the colored adjacency graph A′(D), translate the query, and
// build the Theorem 2.3 index there.
//
//	fodrel -db citations.db -query "Cites(x,y) & Seminal(y)" -vars x,y -limit 10
//	fodrel -db citations.db -query "Cites(x,y)" -vars x,y -count
//
// Run with -sample to print an example database file.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/rel"
)

const sample = `# A minimal citation database.
db 6
rel Cites 2
rel Seminal 1
t Cites 1 0
t Cites 2 0
t Cites 3 1
t Cites 4 2
t Cites 5 4
t Seminal 0
t Seminal 2
`

func main() {
	dbPath := flag.String("db", "-", "database file in the text format ('-' = stdin)")
	query := flag.String("query", "", "relational FO⁺ query, e.g. 'Cites(x,y) & Seminal(y)'")
	vars := flag.String("vars", "", "comma-separated output variables")
	limit := flag.Int("limit", 0, "stop after this many solutions (0 = all)")
	count := flag.Bool("count", false, "print only the number of solutions")
	printSample := flag.Bool("sample", false, "print a sample database file and exit")
	flag.Parse()

	if *printSample {
		fmt.Print(sample)
		return
	}
	if *query == "" || *vars == "" {
		fmt.Fprintln(os.Stderr, "fodrel: -query and -vars are required")
		os.Exit(2)
	}
	in := os.Stdin
	if *dbPath != "-" {
		f, err := os.Open(*dbPath)
		if err != nil {
			fail(err)
		}
		defer f.Close() // input opened read-only; close errors carry no data loss
		in = f
	}
	db, err := rel.Read(in)
	if err != nil {
		fail(err)
	}
	q, err := repro.ParseQuery(*query, strings.Split(*vars, ",")...)
	if err != nil {
		fail(err)
	}
	start := time.Now()
	ix, err := repro.BuildDatabaseIndex(db, q)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "fodrel: encode+index %v (domain %d)\n",
		time.Since(start).Round(time.Microsecond), db.N())

	if *count {
		fmt.Println(ix.Count())
		return
	}
	printed := 0
	ix.Enumerate(func(sol []int) bool {
		fmt.Println(strings.Trim(fmt.Sprint(sol), "[]"))
		printed++
		return *limit == 0 || printed < *limit
	})
	fmt.Fprintf(os.Stderr, "fodrel: %d solutions\n", printed)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fodrel:", err)
	os.Exit(1)
}
