package cover

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
)

// Parts is the flat serialized form of a Cover: the bag lists and kernels
// in CSR layout plus the canonical assignment, i.e. exactly the arrays
// the answering phase indexes into. The derived inverted lists (memberOf,
// kernelOf) are rebuilt on restore — they are pure functions of the bags
// and kernels.
type Parts struct {
	R       int
	KernelP int // -1 when ComputeKernels was never called

	BagOff  []int32 // len NumBags+1, prefix sums
	BagData []int32 // concatenated sorted bag lists
	Centers []int32 // len NumBags
	Assign  []int32 // len g.N()

	KernOff  []int32 // len NumBags+1 when KernelP >= 0, else nil
	KernData []int32
}

// Parts returns the serialized form of the cover.
func (c *Cover) Parts() Parts {
	p := Parts{R: c.R, KernelP: c.kernelP, Centers: make([]int32, len(c.centers)), Assign: c.assign}
	for i, ctr := range c.centers {
		p.Centers[i] = int32(ctr)
	}
	p.BagOff, p.BagData = csrOf(c.bags)
	if c.kernelP >= 0 {
		p.KernOff, p.KernData = csrOf(c.kernels)
	}
	return p
}

func csrOf(lists [][]graph.V) (off, data []int32) {
	off = make([]int32, len(lists)+1)
	total := 0
	for i, l := range lists {
		total += len(l)
		off[i+1] = int32(total)
	}
	data = make([]int32, 0, total)
	for _, l := range lists {
		for _, v := range l {
			data = append(data, int32(v))
		}
	}
	return off, data
}

// csrSlice validates one CSR pair against the vertex universe n and
// returns the per-row slices. Rows must be strictly increasing vertex
// lists (the binary searches of Sub.Local and InKernel depend on it).
func csrSlice(off, data []int32, n int, what string) ([][]graph.V, error) {
	if len(off) == 0 || off[0] != 0 || int(off[len(off)-1]) != len(data) {
		return nil, fmt.Errorf("cover: %s offsets malformed", what)
	}
	// One backing array for all rows: the restore path runs this over
	// every bag and kernel list, and per-row allocations dominate it.
	flat := make([]graph.V, len(data))
	rows := make([][]graph.V, len(off)-1)
	for i := range rows {
		lo, hi := off[i], off[i+1]
		if lo > hi || int(hi) > len(data) {
			return nil, fmt.Errorf("cover: %s row %d offsets out of order", what, i)
		}
		row := flat[lo:hi:hi]
		prev := int32(-1)
		for j, v := range data[lo:hi] {
			if v <= prev || int(v) >= n {
				return nil, fmt.Errorf("cover: %s row %d not a sorted vertex list over [0,%d)", what, i, n)
			}
			prev = v
			row[j] = int(v)
		}
		rows[i] = row
	}
	return rows, nil
}

// invertLists returns the inverted lists of rows over [0,n): row v of the
// result lists, in increasing order, the indices of the rows containing v.
// Two counting passes into one flat CSR pair, which the store views.
func invertLists(rows [][]graph.V, n int) graph.Rows[int32] {
	off := make([]int32, n+1)
	total := 0
	for _, row := range rows {
		total += len(row)
		for _, v := range row {
			off[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	flat := make([]int32, total)
	pos := append([]int32(nil), off[:n]...)
	for i, row := range rows {
		for _, v := range row {
			flat[pos[v]] = int32(i)
			pos[v]++
		}
	}
	return graph.FromFlat(off, flat)
}

// FromParts reconstructs a Cover over g from its serialized form,
// rebuilding the derived inverted lists and validating every array the
// answering phase indexes with (bag ids, vertex ranges, sortedness) so a
// corrupted snapshot errors instead of panicking at query time.
func FromParts(g *graph.Graph, p Parts) (*Cover, error) {
	if p.R < 1 {
		return nil, fmt.Errorf("cover: snapshot radius %d < 1", p.R)
	}
	n := g.N()
	bags, err := csrSlice(p.BagOff, p.BagData, n, "bag")
	if err != nil {
		return nil, err
	}
	if len(p.Centers) != len(bags) {
		return nil, fmt.Errorf("cover: %d centers for %d bags", len(p.Centers), len(bags))
	}
	if len(p.Assign) != n {
		return nil, fmt.Errorf("cover: assignment covers %d vertices, graph has %d", len(p.Assign), n)
	}
	c := &Cover{g: g, R: p.R, S: 2 * p.R, kernelP: -1, pool: par.Sequential()}
	c.bags = bags
	c.centers = make([]graph.V, len(p.Centers))
	for i, ctr := range p.Centers {
		if int(ctr) < 0 || int(ctr) >= n {
			return nil, fmt.Errorf("cover: center %d of bag %d out of range", ctr, i)
		}
		c.centers[i] = int(ctr)
	}
	for v, b := range p.Assign {
		if int(b) < 0 || int(b) >= len(bags) {
			return nil, fmt.Errorf("cover: vertex %d assigned to bag %d of %d", v, b, len(bags))
		}
	}
	c.assign = p.Assign
	c.buildMembership()

	if p.KernelP >= 0 {
		if p.KernelP > p.R {
			return nil, fmt.Errorf("cover: kernel radius %d exceeds cover radius %d", p.KernelP, p.R)
		}
		kerns, err := csrSlice(p.KernOff, p.KernData, n, "kernel")
		if err != nil {
			return nil, err
		}
		if len(kerns) != len(bags) {
			return nil, fmt.Errorf("cover: %d kernels for %d bags", len(kerns), len(bags))
		}
		c.kernelP = p.KernelP
		c.kernels = kerns
		c.kernelOf = invertLists(kerns, n)
	}
	return c, nil
}
