package store

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// refModel is a trivially correct implementation of the same interface,
// used as the oracle for property tests.
type refModel struct {
	n, k int
	m    map[int64]int64
}

func newRef(n, k int) *refModel { return &refModel{n: n, k: k, m: map[int64]int64{}} }

func (r *refModel) set(key, v int64) { r.m[key] = v }
func (r *refModel) del(key int64)    { delete(r.m, key) }
func (r *refModel) get(key int64) (int64, bool) {
	v, ok := r.m[key]
	return v, ok
}

func (r *refModel) succ(key int64) (int64, bool) { // min{x ∈ Dom : x > key}
	best := int64(-1)
	for k := range r.m {
		if k > key && (best == -1 || k < best) {
			best = k
		}
	}
	return best, best != -1
}

func TestStoreBasic(t *testing.T) {
	s := New(100, 1, 0.5)
	if s.Len() != 0 {
		t.Fatalf("empty store Len = %d", s.Len())
	}
	if _, _, ok := s.Min(); ok {
		t.Fatal("empty store has a Min")
	}
	s.Set([]int{42}, 7)
	if v, ok := s.Get([]int{42}); !ok || v != 7 {
		t.Fatalf("Get(42) = %d,%v want 7,true", v, ok)
	}
	if _, ok := s.Get([]int{41}); ok {
		t.Fatal("Get(41) should miss")
	}
	key, v, ok := s.Min()
	if !ok || key[0] != 42 || v != 7 {
		t.Fatalf("Min = %v,%d,%v", key, v, ok)
	}
	s.Set([]int{42}, 9)
	if v, _ := s.Get([]int{42}); v != 9 {
		t.Fatalf("update failed: got %d", v)
	}
	if s.Len() != 1 {
		t.Fatalf("Len after update = %d", s.Len())
	}
	s.Delete([]int{42})
	if s.Len() != 0 {
		t.Fatalf("Len after delete = %d", s.Len())
	}
	if _, ok := s.Get([]int{42}); ok {
		t.Fatal("Get after delete should miss")
	}
}

func TestStoreDeleteMissingIsNoop(t *testing.T) {
	s := New(50, 2, 0.4)
	s.Set([]int{3, 4}, 1)
	before := s.Registers()
	s.Delete([]int{3, 5})
	if s.Len() != 1 || s.Registers() != before {
		t.Fatal("deleting a missing key changed the store")
	}
}

func TestStoreLookupSuccessor(t *testing.T) {
	s := New(1000, 1, 0.34)
	for _, x := range []int{10, 20, 30, 500, 999} {
		s.Set([]int{x}, int64(x))
	}
	cases := []struct {
		q    int
		succ int
		has  bool
	}{
		{0, 10, true}, {9, 10, true}, {11, 20, true}, {25, 30, true},
		{31, 500, true}, {500, 0, false} /* in dom */, {501, 999, true},
		{999, 0, false}, /* in dom */
	}
	for _, c := range cases {
		v, found, succ, ok := s.Lookup([]int{c.q})
		if found {
			if v != int64(c.q) {
				t.Errorf("Lookup(%d) value = %d", c.q, v)
			}
			continue
		}
		if !c.has {
			t.Errorf("Lookup(%d): unexpected dom-membership state", c.q)
		}
		if !ok || succ[0] != c.succ {
			t.Errorf("Lookup(%d) succ = %v,%v want %d", c.q, succ, ok, c.succ)
		}
	}
	if _, found, _, ok := s.Lookup([]int{999}); !found && ok {
		t.Error("999 should be in the domain")
	}
	s.Delete([]int{999})
	if _, found, _, ok := s.Lookup([]int{999}); found || ok {
		t.Error("Lookup past the maximum should report no successor")
	}
}

func TestStoreNextGeqGt(t *testing.T) {
	s := New(64, 2, 0.34)
	s.Set([]int{1, 5}, 15)
	s.Set([]int{2, 0}, 20)
	s.Set([]int{2, 63}, 263)
	if k, v, ok := s.NextGeq([]int{1, 5}); !ok || k[0] != 1 || k[1] != 5 || v != 15 {
		t.Fatalf("NextGeq in-domain = %v,%d,%v", k, v, ok)
	}
	if k, _, ok := s.NextGt([]int{1, 5}); !ok || k[0] != 2 || k[1] != 0 {
		t.Fatalf("NextGt = %v,%v", k, ok)
	}
	if k, _, ok := s.NextGeq([]int{2, 1}); !ok || k[0] != 2 || k[1] != 63 {
		t.Fatalf("NextGeq(2,1) = %v,%v", k, ok)
	}
	if _, _, ok := s.NextGt([]int{2, 63}); ok {
		t.Fatal("NextGt past maximum should fail")
	}
	if _, _, ok := s.NextGt([]int{63, 63}); ok {
		t.Fatal("NextGt at key-space maximum should fail")
	}
}

// TestStoreAgainstModel drives random Set/Delete/Lookup traffic and checks
// every observable against the reference model.
func TestStoreAgainstModel(t *testing.T) {
	for _, cfg := range []struct {
		n, k  int
		eps   float64
		steps int
	}{
		{27, 1, 1.0 / 3.0, 2000},
		{100, 1, 0.5, 2000},
		{30, 2, 0.25, 3000},
		{12, 3, 0.4, 3000},
		{1000, 2, 0.2, 1500},
		{7, 4, 0.5, 2000},
	} {
		s := New(cfg.n, cfg.k, cfg.eps)
		ref := newRef(cfg.n, cfg.k)
		rng := rand.New(rand.NewSource(int64(cfg.n*31 + cfg.k)))
		tuple := func() []int {
			a := make([]int, cfg.k)
			for i := range a {
				a[i] = rng.Intn(cfg.n)
			}
			return a
		}
		for step := 0; step < cfg.steps; step++ {
			a := tuple()
			key := s.EncodeKey(a)
			switch rng.Intn(4) {
			case 0, 1: // set
				v := int64(rng.Intn(1 << 20))
				s.Set(a, v)
				ref.set(key, v)
			case 2: // delete
				s.Delete(a)
				ref.del(key)
			case 3: // nothing; just probe below
			}
			// Probe a random tuple.
			q := tuple()
			qk := s.EncodeKey(q)
			wantV, wantIn := ref.get(qk)
			v, found, succ, ok := s.Lookup(q)
			if found != wantIn {
				t.Fatalf("n=%d k=%d step %d: Lookup(%v) found=%v want %v",
					cfg.n, cfg.k, step, q, found, wantIn)
			}
			if found && v != wantV {
				t.Fatalf("n=%d k=%d step %d: Lookup(%v) = %d want %d",
					cfg.n, cfg.k, step, q, v, wantV)
			}
			if !found {
				wantSucc, wantHas := ref.succ(qk)
				if ok != wantHas {
					t.Fatalf("n=%d k=%d step %d: Lookup(%v) succ ok=%v want %v (dom size %d)",
						cfg.n, cfg.k, step, q, ok, wantHas, len(ref.m))
				}
				if ok && s.EncodeKey(succ) != wantSucc {
					t.Fatalf("n=%d k=%d step %d: Lookup(%v) succ=%v (key %d) want key %d",
						cfg.n, cfg.k, step, q, succ, s.EncodeKey(succ), wantSucc)
				}
			}
			if s.Len() != len(ref.m) {
				t.Fatalf("n=%d k=%d step %d: Len=%d want %d", cfg.n, cfg.k, step, s.Len(), len(ref.m))
			}
		}
	}
}

// TestStoreEnumerationOrder checks that iterating with NextGt visits the
// domain in exactly increasing key order.
func TestStoreEnumerationOrder(t *testing.T) {
	s := New(500, 2, 0.3)
	ref := newRef(500, 2)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 800; i++ {
		a := []int{rng.Intn(500), rng.Intn(500)}
		s.Set(a, 1)
		ref.set(s.EncodeKey(a), 1)
	}
	var want []int64
	for k := range ref.m {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	var got []int64
	cur, _, ok := s.Min()
	for ok {
		got = append(got, s.EncodeKey(cur))
		cur, _, ok = s.NextGt(cur)
	}
	if len(got) != len(want) {
		t.Fatalf("enumerated %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestStoreSpaceBound checks the Theorem 3.1 space invariant
// registers ≤ c·|Dom|·n^ε at every step of a grow-then-shrink workload,
// and that space returns to the empty footprint after removing everything.
func TestStoreSpaceBound(t *testing.T) {
	n, k, eps := 4096, 2, 0.25
	s := New(n, k, eps)
	base := s.Registers()
	rng := rand.New(rand.NewSource(5))
	var keys [][]int
	for i := 0; i < 3000; i++ {
		a := []int{rng.Intn(n), rng.Intn(n)}
		s.Set(a, 1)
		keys = append(keys, a)
		// Per-element footprint: at most kh blocks of d+1 registers each.
		bound := base + s.Len()*s.Depth()*(s.Degree()+1)
		if s.Registers() > bound {
			t.Fatalf("space %d exceeds bound %d at size %d", s.Registers(), bound, s.Len())
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, a := range keys {
		s.Delete(a)
		bound := base + (s.Len()+1)*s.Depth()*(s.Degree()+1)
		if s.Registers() > bound {
			t.Fatalf("space %d exceeds bound %d at size %d after deletes", s.Registers(), bound, s.Len())
		}
	}
	if s.Len() != 0 {
		t.Fatalf("store not empty after deleting all keys: %d", s.Len())
	}
	if s.Registers() != base {
		t.Fatalf("space after emptying = %d, want %d", s.Registers(), base)
	}
}

// TestFigure1Layout reproduces Figure 1 of the paper: n=27, ε=1/3 (d=3,
// h=3), f = identity on {2, 4, 5, 19, 24, 25}. It checks every register
// property the figure's caption states in an allocation-independent way.
func TestFigure1Layout(t *testing.T) {
	s := New(27, 1, 1.0/3.0)
	if s.Degree() != 3 || s.Depth() != 3 {
		t.Fatalf("d=%d h·k=%d, want 3 and 3", s.Degree(), s.Depth())
	}
	dom := []int{2, 4, 5, 19, 24, 25}
	for _, x := range dom {
		s.Set([]int{x}, int64(x))
	}
	cells := s.Cells()

	// "R_1 is the first register representing the root ... its content is
	// (1, R') where R' is the first register of the root's first child."
	if cells[1].Delta != 1 {
		t.Fatalf("R_1 = %+v, want a child pointer", cells[1])
	}
	child0 := cells[1].R
	// "...the last register representing that child contains (-1, 1)."
	last := cells[child0+int64(s.Degree())]
	if last.Delta != -1 || last.R != 1 {
		t.Fatalf("backpointer of first child = %+v, want (-1, 1)", last)
	}
	// "The second register representing the root is R_2 whose content is
	// (0, 19) because the second child of the root is a leaf and 19 is the
	// smallest element of the domain whose decomposition starts with 2."
	if cells[2].Delta != 0 || cells[2].R != 19 {
		t.Fatalf("R_2 = %+v, want (0, 19)", cells[2])
	}
	// "R_19-like register: the third register encoding the second child of
	// the first child of the root represents 012 = 5 and contains (1, f(5))."
	child01 := cells[child0+1].R // node "01"
	if cells[child0+1].Delta != 1 {
		t.Fatalf("node 01 pointer = %+v", cells[child0+1])
	}
	leaf5 := cells[child01+2] // digit 2 → string 012 → 5
	if leaf5.Delta != 1 || leaf5.R != 5 {
		t.Fatalf("leaf 012 = %+v, want (1, 5)", leaf5)
	}

	// Semantics over the whole universe.
	for q := 0; q < 27; q++ {
		v, found, succ, ok := s.Lookup([]int{q})
		inDom := false
		for _, x := range dom {
			if x == q {
				inDom = true
			}
		}
		if found != inDom {
			t.Fatalf("Lookup(%d) found=%v", q, found)
		}
		if found && v != int64(q) {
			t.Fatalf("Lookup(%d) = %d", q, v)
		}
		if !found {
			wantSucc, has := -1, false
			for _, x := range dom {
				if x > q && (!has || x < wantSucc) {
					wantSucc, has = x, true
				}
			}
			if ok != has || (ok && succ[0] != wantSucc) {
				t.Fatalf("Lookup(%d) succ=%v,%v want %d,%v", q, succ, ok, wantSucc, has)
			}
		}
	}

	// The removal example of Section 7.3: removing 19 relocates the freed
	// block and rewrites the stale (0, 19) pointers to (0, 24).
	regsBefore := s.Registers()
	s.Delete([]int{19})
	if s.Registers() >= regsBefore {
		t.Fatalf("removal of 19 did not shrink the register file: %d -> %d",
			regsBefore, s.Registers())
	}
	if cells := s.Cells(); cells[2].Delta != 0 || cells[2].R != 24 {
		t.Fatalf("after removing 19, R_2 = %+v, want (0, 24)", cells[2])
	}
	if _, found, succ, ok := s.Lookup([]int{6}); found || !ok || succ[0] != 24 {
		t.Fatalf("Lookup(6) after removal = %v,%v", succ, ok)
	}
	t.Logf("R_1 = (1, %d), R_%d = (-1, 1), R_2 = (0, 19); %d registers, %d after Remove(19)",
		child0, child0+int64(s.Degree()), regsBefore, s.Registers())
}

// TestStoreQuickEncodeDecode is a testing/quick property: DecodeKey is the
// inverse of EncodeKey and both preserve order.
func TestStoreQuickEncodeDecode(t *testing.T) {
	s := New(97, 3, 0.3)
	f := func(a0, a1, a2, b0, b1, b2 uint8) bool {
		a := []int{int(a0) % 97, int(a1) % 97, int(a2) % 97}
		b := []int{int(b0) % 97, int(b1) % 97, int(b2) % 97}
		ka, kb := s.EncodeKey(a), s.EncodeKey(b)
		da := s.DecodeKey(ka)
		for i := range a {
			if da[i] != a[i] {
				return false
			}
		}
		return lexLess(a, b) == (ka < kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// TestStoreQuickSuccessor is a testing/quick property: for a random small
// domain the lookup successor always matches the sorted-slice oracle.
func TestStoreQuickSuccessor(t *testing.T) {
	f := func(raw []uint16, probe uint16) bool {
		const n = 512
		s := New(n, 1, 0.34)
		ref := map[int]bool{}
		for _, r := range raw {
			x := int(r) % n
			s.Set([]int{x}, int64(x))
			ref[x] = true
		}
		q := int(probe) % n
		_, found, succ, ok := s.Lookup([]int{q})
		if found != ref[q] {
			return false
		}
		if found {
			return true
		}
		want, has := -1, false
		for x := range ref {
			if x > q && (!has || x < want) {
				want, has = x, true
			}
		}
		return ok == has && (!ok || succ[0] == want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreParameterValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { New(0, 1, 0.5) },
		func() { New(10, 0, 0.5) },
		func() { New(10, 1, 0) },
		func() { New(1<<40, 2, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid parameters")
				}
			}()
			bad()
		}()
	}
}

func TestStoreTinyUniverse(t *testing.T) {
	s := New(2, 1, 0.9)
	s.Set([]int{0}, 10)
	s.Set([]int{1}, 11)
	if v, ok := s.Get([]int{1}); !ok || v != 11 {
		t.Fatalf("Get(1) = %d,%v", v, ok)
	}
	s.Delete([]int{0})
	if k, v, ok := s.Min(); !ok || k[0] != 1 || v != 11 {
		t.Fatalf("Min = %v,%d,%v", k, v, ok)
	}
	s.Delete([]int{1})
	if _, _, ok := s.Min(); ok {
		t.Fatal("store should be empty")
	}
}
