package cover

import (
	"fmt"

	"repro/internal/graph"
)

// Parts is the flat serialized form of a Cover: the bag lists and kernels
// in CSR layout plus the canonical assignment, i.e. exactly the arrays
// the answering phase indexes into. The inverted list kernelOf is rebuilt
// on restore, a pure function of the kernels; memberOf, which only Patch
// reads, is left to the first edge patch.
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

// Parts returns the serialized form of the cover: the arrays it holds, or
// for a patched cover their assembly. Read-only.
func (c *Cover) Parts() Parts {
	p := Parts{R: c.R, KernelP: c.kernelP, Centers: c.centers.Flat(), Assign: c.assign.Flat()}
	p.BagOff, p.BagData = c.bags.Flat()
	if c.kernelP >= 0 {
		p.KernOff, p.KernData = c.kernels.Flat()
	}
	return p
}

// invertLists returns the inverted lists of rows over [0,n): row v of the
// result lists, in increasing order, the indices of the rows containing v.
// Two counting passes into one flat CSR pair, which the store views.
func invertLists(rows *graph.Rows[int32], n int) graph.Rows[int32] {
	off := make([]int32, n+1)
	for i := range rows.N() {
		for _, v := range rows.Row(i) {
			off[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	flat := make([]int32, rows.Cells())
	pos := append([]int32(nil), off[:n]...)
	for i := range rows.N() {
		for _, v := range rows.Row(i) {
			flat[pos[v]] = int32(i)
			pos[v]++
		}
	}
	return graph.FromFlat(off, flat)
}

// FromParts reconstructs a Cover over g from its serialized form, which it
// adopts without copying (p's arrays must not be written afterwards). It
// measures the degree, rebuilds kernelOf and validates every array the
// answering phase indexes with (bag ids, vertex ranges, sortedness) so a
// corrupted snapshot errors instead of panicking at query time.
func FromParts(g *graph.Graph, p Parts) (*Cover, error) {
	if p.R < 1 {
		return nil, fmt.Errorf("cover: snapshot radius %d < 1", p.R)
	}
	n, nb := g.N(), len(p.BagOff)-1
	if err := graph.CheckRows(p.BagOff, p.BagData, nb, n); err != nil {
		return nil, fmt.Errorf("cover: bags: %w", err)
	}
	if len(p.Centers) != nb {
		return nil, fmt.Errorf("cover: %d centers for %d bags", len(p.Centers), nb)
	}
	if len(p.Assign) != n {
		return nil, fmt.Errorf("cover: assignment covers %d vertices, graph has %d", len(p.Assign), n)
	}
	for i, ctr := range p.Centers {
		if int(ctr) < 0 || int(ctr) >= n {
			return nil, fmt.Errorf("cover: center %d of bag %d out of range", ctr, i)
		}
	}
	for v, b := range p.Assign {
		if int(b) < 0 || int(b) >= nb {
			return nil, fmt.Errorf("cover: vertex %d assigned to bag %d of %d", v, b, nb)
		}
	}
	c := &Cover{g: g, R: p.R, S: 2 * p.R, kernelP: -1, bags: graph.FromFlat(p.BagOff, p.BagData), centers: graph.PagedOf(p.Centers), assign: graph.PagedOf(p.Assign)}
	in := make([]int32, n) // how many bags hold each vertex
	for _, v := range p.BagData {
		in[v]++
		c.degree = max(c.degree, int(in[v]))
	}

	if p.KernelP >= 0 {
		if p.KernelP > p.R {
			return nil, fmt.Errorf("cover: kernel radius %d exceeds cover radius %d", p.KernelP, p.R)
		}
		if err := graph.CheckRows(p.KernOff, p.KernData, nb, n); err != nil {
			return nil, fmt.Errorf("cover: kernels: %w", err)
		}
		c.kernelP = p.KernelP
		c.kernels = graph.FromFlat(p.KernOff, p.KernData)
		c.kernelOf = invertLists(&c.kernels, n)
	}
	return c, nil
}
