package skip

import (
	"fmt"

	"repro/internal/cover"
)

// Parts is the flat serialized form of the skip pointers: the Lemma 5.8
// SC-table in CSR layout over vertices, which is also its layout in
// memory (see table). The restriction list L is NOT included — it is
// always the owning component's starter list, which the engine snapshot
// already carries; FromParts takes it as input and rebuilds the derived
// nextGeqL array from it.
type Parts struct {
	K        int
	TableOff []int32 // len n+1, prefix sums of per-vertex entry counts
	TableRow []int32 // K+1 words per entry: bags[K], val
}

// Parts returns the serialized form of the pointers: the table itself,
// not a copy of it.
func (p *Pointers) Parts() Parts {
	return Parts{K: p.k, TableOff: p.off, TableRow: p.rows}
}

// FromParts reconstructs the pointers over cov for the restriction list L
// (the component's starter list, sorted ascending). The table is adopted,
// not copied: parts must not be modified afterwards. Before that it
// validates every index the constant-time resolve path chases — bag ids
// against the cover, values against the vertex universe, set shape and
// per-vertex sort order for the binary search of lookup — so corrupted
// snapshots error instead of panicking mid-query. Rows of vertices outside
// L (files written before the build stopped making them) are checked like
// the others and never read.
func FromParts(cov *cover.Cover, L []int, parts Parts) (*Pointers, error) {
	k := parts.K
	if k < 1 || k > MaxSetSize {
		return nil, fmt.Errorf("skip: snapshot set size %d outside [1, %d]", k, MaxSetSize)
	}
	if cov.KernelP() < 0 {
		return nil, fmt.Errorf("skip: restored cover has no kernels")
	}
	off, rows := parts.TableOff, parts.TableRow
	n := len(off) - 1
	if n < 0 || off[0] != 0 {
		return nil, fmt.Errorf("skip: snapshot table offsets malformed")
	}
	for _, v := range L {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("skip: restriction-list vertex %d outside [0,%d)", v, n)
		}
	}
	w := k + 1
	if int(off[n])*w != len(rows) {
		return nil, fmt.Errorf("skip: table holds %d words, offsets claim %d entries", len(rows), off[n])
	}
	nbags := cov.NumBags()
	for b := 0; b < n; b++ {
		if off[b] > off[b+1] {
			return nil, fmt.Errorf("skip: table offsets of vertex %d out of order", b)
		}
		for i := int(off[b]) * w; i < int(off[b+1])*w; i += w {
			row := rows[i : i+w]
			used := 0
			for j, x := range row[:k] {
				switch {
				case x < -1:
					return nil, fmt.Errorf("skip: entry of vertex %d has padding word %d (want -1)", b, x)
				case x < 0:
				case int(x) >= nbags:
					return nil, fmt.Errorf("skip: entry of vertex %d names bag %d of %d", b, x, nbags)
				case j > used:
					return nil, fmt.Errorf("skip: entry of vertex %d has a gap in its bag set", b)
				case j > 0 && row[j-1] >= x:
					return nil, fmt.Errorf("skip: entry of vertex %d has an unsorted bag set", b)
				default:
					used = j + 1
				}
			}
			if used == 0 {
				return nil, fmt.Errorf("skip: entry of vertex %d has set size %d outside [1,%d]", b, used, k)
			}
			if val := row[k]; val < -1 || int(val) >= n {
				return nil, fmt.Errorf("skip: entry of vertex %d points at %d outside [-1,%d)", b, val, n)
			}
			if i > int(off[b])*w && cmpSets(rows[i-w:i-w+k], row[:k]) >= 0 {
				return nil, fmt.Errorf("skip: entries of vertex %d not sorted", b)
			}
		}
	}
	return &Pointers{table: &table{cov: cov, k: k, nextGeqL: nextGeq(n, L), off: off, rows: rows}}, nil
}
