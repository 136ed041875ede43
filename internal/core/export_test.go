package core

import (
	"slices"

	"repro/internal/cover"
	"repro/internal/fo"
	"repro/internal/graph"
)

// MaxSkipDelta is the largest correction set among the skip overlays of e's
// components: above 0, Case I of some component answers through the overlay
// an ApplyEdits left (skip.WithDelta) instead of a table of its own.
func (e *Engine) MaxSkipDelta() int {
	d := 0
	for _, rt := range e.clauses {
		for _, c := range rt.comps {
			if c.skip != nil {
				d = max(d, c.skip.DeltaLen())
			}
		}
	}
	return d
}

// StarterList is the starter list of one live component and the
// membership its starter set reads.
type StarterList struct {
	Starter []graph.V
	InStart []bool
}

// Starters returns what the build left for every live component, in clause
// order.
func (e *Engine) Starters() []StarterList {
	var out []StarterList
	for _, rt := range e.clauses {
		for _, c := range rt.comps {
			in := make([]bool, c.inStart.Len())
			for v := range in {
				in[v] = c.inStart.Has(v)
			}
			out = append(out, StarterList{c.starter, in})
		}
	}
	return out
}

// SharesStarterBitmap reports whether live component i, in clause order, of
// e holds d's starter bitmap: every page of it the same storage.
func (e *Engine) SharesStarterBitmap(d *Engine, i int) bool {
	var mine, theirs []*compRT
	for _, rt := range e.clauses {
		mine = append(mine, rt.comps...)
	}
	for _, rt := range d.clauses {
		theirs = append(theirs, rt.comps...)
	}
	return sharesAll(&mine[i].inStart, &theirs[i].inStart)
}

// sharesAll reports whether a and b, two versions of a paged array or of a
// starter set, hold the same pages, all of them.
func sharesAll[P interface {
	Pages() int
	SharesPage(P, int) bool
}](a, b P) bool {
	for pi := range a.Pages() {
		if !a.SharesPage(b, pi) {
			return false
		}
	}
	return a.Pages() == b.Pages()
}

// sharesAllBlocks reports whether a and b, two versions of a row store,
// hold the same blocks, all of them.
func sharesAllBlocks(a, b *graph.Rows[int32]) bool {
	for bi := range a.Blocks() {
		if !a.SharesBlock(b, bi) {
			return false
		}
	}
	return a.Blocks() == b.Blocks()
}

// StartersByBall computes the same lists the way that looks at no formula's
// shape: every component formula, quantifier-free or not, singleton or not,
// is evaluated by EvalOver with its quantifiers ranging over N_ρ of its
// values, unmemoized, over e's locality. It is the reference the
// formula-directed paths of opens and evalLocal are held to.
func (e *Engine) StartersByBall() []StarterList {
	ev := fo.NewEvaluator(e.g)
	ev.UseDistTester(e.loc.distTester())
	bfs := graph.NewBFS(e.g)
	var out []StarterList
	for _, rt := range e.clauses {
		for _, c := range rt.comps {
			var completes func(vals []graph.V) bool
			completes = func(vals []graph.V) bool {
				if len(vals) == len(c.positions) {
					if !e.checkComponentType(c, vals) {
						return false
					}
					env := fo.Env{}
					for i, v := range vals {
						env[c.vars[i]] = v
					}
					return ev.EvalOver(c.psi, env, bfs.BallMulti(vals, e.rho))
				}
				for _, w := range e.loc.compBall(vals[0]) {
					if e.partialTypeOK(c, vals, graph.V(w)) && completes(append(vals, graph.V(w))) {
						return true
					}
				}
				return false
			}
			sl := StarterList{InStart: make([]bool, e.g.N())}
			for v := range sl.InStart {
				if sl.InStart[v] = completes([]graph.V{v}); sl.InStart[v] {
					sl.Starter = append(sl.Starter, v)
				}
			}
			out = append(out, sl)
		}
	}
	return out
}

// rowAt is where a row lives: its first cell, nil for an empty one.
func rowAt(row []int32) *int32 {
	if len(row) == 0 {
		return nil
	}
	return &row[0]
}

// KernelRow is one row as a version holds it: what it reads and where it is.
type KernelRow struct {
	Data []int32 // a copy
	At   *int32  // the row's first cell, nil for an empty row
}

// KernelRows lists every kernel row of e's cover and then, component by
// component, every per-kernel starter list; nil under the ball locality. A
// version whose KernelRows come out the same later (SameKernelRows) has had
// none of them written or moved by the writes that derived its successors.
func (e *Engine) KernelRows() []KernelRow {
	l, ok := e.loc.(*coverLoc)
	if !ok {
		return nil
	}
	lists := []graph.Rows[int32]{l.cov.Kernels()}
	for _, rt := range e.clauses {
		for _, c := range rt.comps {
			lists = append(lists, c.byKernel)
		}
	}
	var out []KernelRow
	for _, rows := range lists {
		for i := range rows.N() {
			row := rows.Row(i)
			out = append(out, KernelRow{Data: slices.Clone(row), At: rowAt(row)})
		}
	}
	return out
}

// SameKernelRows reports whether a and b hold the same cells at the same
// addresses.
func SameKernelRows(a, b []KernelRow) bool {
	return slices.EqualFunc(a, b, func(x, y KernelRow) bool {
		return x.At == y.At && slices.Equal(x.Data, y.Data)
	})
}

// PartnerRows returns the partner rows of every live component of two
// positions, in clause order, as the CSR pair a snapshot stores.
func (e *Engine) PartnerRows() []RowParts {
	var out []RowParts
	for _, rt := range e.clauses {
		for _, c := range rt.comps {
			if c.paired() {
				off, adj := c.partners.Flat()
				out = append(out, RowParts{Off: off, Adj: adj})
			}
		}
	}
	return out
}

// PartnerRowAt returns where the partner row of v lives in each such
// component (nil for an empty row): equal addresses across two versions mean
// the write that separates them shared the row's block.
func (e *Engine) PartnerRowAt(v graph.V) []*int32 {
	var out []*int32
	for _, rt := range e.clauses {
		for _, c := range rt.comps {
			if c.paired() {
				out = append(out, rowAt(c.partners.Row(v)))
			}
		}
	}
	return out
}

// Covers returns every cover e holds: the cover locality's, then those of the
// distance index's recursion, outermost first; none under the ball locality.
func (e *Engine) Covers() []*cover.Cover {
	l, ok := e.loc.(*coverLoc)
	if !ok {
		return nil
	}
	return append([]*cover.Cover{l.cov}, l.dix.Covers()...)
}
