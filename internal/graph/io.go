package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text format for colored graphs is line oriented:
//
//	graph <n> <ncolors>
//	e <u> <v>
//	c <v> <color>
//
// Blank lines and lines starting with '#' are ignored. Vertices are
// 0-based. This is the interchange format of the cmd/ tools.

// Write serializes g in the text format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "graph %d %d\n", g.N(), g.NumColors())
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if v < int(u) {
				fmt.Fprintf(bw, "e %d %d\n", v, u)
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		if cs := g.Colors(v); cs != nil {
			for c := 0; c < g.NumColors(); c++ {
				if cs.Has(c) {
					fmt.Fprintf(bw, "c %d %d\n", v, c)
				}
			}
		}
	}
	return bw.Flush()
}

// Read parses a graph in the text format.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var b *Builder
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		f := strings.Fields(txt)
		switch f[0] {
		case "graph":
			if b != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate header", line)
			}
			if len(f) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'graph <n> <ncolors>'", line)
			}
			n, err1 := strconv.Atoi(f[1])
			nc, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil || n < 0 || nc < 0 || nc > maxColors {
				return nil, fmt.Errorf("graph: line %d: bad header %q", line, txt)
			}
			b = NewBuilder(n, nc)
		case "e":
			if b == nil {
				return nil, fmt.Errorf("graph: line %d: edge before header", line)
			}
			u, v, err := twoInts(f)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			if u < 0 || u >= b.n || v < 0 || v >= b.n {
				return nil, fmt.Errorf("graph: line %d: edge (%d,%d) out of range", line, u, v)
			}
			b.AddEdge(u, v)
		case "c":
			if b == nil {
				return nil, fmt.Errorf("graph: line %d: color before header", line)
			}
			v, c, err := twoInts(f)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			if v < 0 || v >= b.n || c < 0 || c >= b.ncol {
				return nil, fmt.Errorf("graph: line %d: color (%d,%d) out of range", line, v, c)
			}
			b.SetColor(v, c)
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", line, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: missing 'graph <n> <ncolors>' header")
	}
	return b.Build(), nil
}

func twoInts(f []string) (int, int, error) {
	if len(f) != 3 {
		return 0, 0, fmt.Errorf("want two integers, got %d fields", len(f)-1)
	}
	a, err := strconv.Atoi(f[1])
	if err != nil {
		return 0, 0, err
	}
	b, err := strconv.Atoi(f[2])
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}
