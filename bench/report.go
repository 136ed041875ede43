package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// measurement is one metric of one run. Quartiles is the spread inside the
// run — over slices, requests or builds — where the metric has one.
type measurement struct {
	Value     float64     `json:"value"`
	Unit      string      `json:"unit"`
	Samples   int         `json:"samples,omitempty"`
	Quartiles *[3]float64 `json:"quartiles,omitempty"`
}

// report is the envelope every output file carries: what ran, where, on
// which inputs, how long the windows were, how many samples each estimate
// rests on.
type report struct {
	Workload   string  `json:"workload"`
	Traced     bool    `json:"traced"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`

	Windows map[string]float64     `json:"windows_s,omitempty"`
	Counts  map[string]int         `json:"sample_counts,omitempty"`
	Series  map[string][]float64   `json:"series,omitempty"` // the samples behind the metrics that have few, in the order taken
	Metrics map[string]measurement `json:"metrics"`

	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Correct   bool `json:"correct"`

	specs []metricSpec
}

func newReport(cfg runConfig, traced bool) *report {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	return &report{
		Workload: cfg.w.Name, Traced: traced, Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke,
		Commit: commitID(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Metrics: make(map[string]measurement), specs: specs,
	}
}

// commitID names the checked-out commit when the benchmark runs inside a
// git work tree, by reading .git directly; the driver's checkouts are not
// repositories and read "unknown".
func commitID() string {
	for _, root := range []string{".", ".."} {
		head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			b, err := os.ReadFile(filepath.Join(root, ".git", name))
			if err != nil {
				return "unknown"
			}
			ref = strings.TrimSpace(string(b))
		}
		return ref
	}
	return "unknown"
}

// set records a metric; the unit comes from the spec, so a name that is
// not in the spec is a bug in the benchmark.
func (r *report) set(name string, value float64, samples []float64) {
	for _, s := range r.specs {
		if s.Name != name {
			continue
		}
		m := measurement{Value: value, Unit: s.Unit, Samples: len(samples)}
		if len(samples) > 1 {
			q := quartiles(samples)
			m.Quartiles = &q
		}
		r.Metrics[name] = m
		return
	}
	panic("bench: metric " + name + " is not in the spec")
}

// finish fills the verdict and checks that the run produced every metric
// of its spec.
func (r *report) finish() error {
	r.Correct = r.Failed == 0
	for _, s := range r.specs {
		if _, ok := r.Metrics[s.Name]; !ok {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
	}
	return nil
}

// print writes one line per metric, in spec order: workload metric value unit.
func (r *report) print(w io.Writer) {
	for _, s := range r.specs {
		m := r.Metrics[s.Name]
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, s.Name, formatValue(m.Value), m.Unit)
	}
}

func formatValue(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// resultLine is the driver's contract: the last line of standard output.
func (r *report) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value)}
	for name, m := range r.Metrics {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

func (r *report) write(dir string) error {
	name := r.Workload + ".json"
	if r.Traced {
		name = r.Workload + ".layers.json"
	}
	return writeJSON(filepath.Join(dir, name), r)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// summary is the outcome of --repeat: per metric, the values of the runs
// and their quartiles.
type summary struct {
	Workload string                `json:"workload"`
	Commit   string                `json:"commit"`
	Seeds    []int64               `json:"seeds"`
	Metrics  map[string]summarized `json:"metrics"`
}

type summarized struct {
	Unit      string     `json:"unit"`
	Values    []float64  `json:"values"`
	Quartiles [3]float64 `json:"quartiles"`
	Spread    float64    `json:"spread"` // interquartile distance over the median
}

func summarize(reps []*report) *summary {
	s := &summary{Workload: reps[0].Workload, Commit: reps[0].Commit, Metrics: make(map[string]summarized)}
	for _, r := range reps {
		s.Seeds = append(s.Seeds, r.Seed)
	}
	for name, m := range reps[0].Metrics {
		sm := summarized{Unit: m.Unit}
		for _, r := range reps {
			sm.Values = append(sm.Values, r.Metrics[name].Value)
		}
		sm.Quartiles, sm.Spread = quartiles(sm.Values), spread(sm.Values)
		s.Metrics[name] = sm
	}
	return s
}

func (s *summary) print(w io.Writer, specs []metricSpec) {
	for _, sp := range specs {
		m, ok := s.Metrics[sp.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s %s median %s q1 %s q3 %s %s spread %.1f%%",
			s.Workload, sp.Name, formatValue(m.Quartiles[1]), formatValue(m.Quartiles[0]), formatValue(m.Quartiles[2]), m.Unit, 100*m.Spread)
		if sp.Bound > 0 {
			fmt.Fprintf(w, " bound %.0f%%", 100*sp.Bound)
		}
		fmt.Fprintln(w)
	}
}

// compare applies each end-to-end metric's bound to two summaries (or two
// single runs) of the same workload and prints one verdict per metric:
//
//	improved    the median moved the good way by more than the bound
//	regressed   it moved the bad way by more than the bound
//	unchanged   it moved by less than the bound
//	unresolved  either side's run-to-run spread is wider than the bound, so
//	            the data cannot tell, unless every run of one side beats
//	            every run of the other
//
// It returns the number of regressed metrics.
func compare(w io.Writer, a, b *summary) int {
	regressed := 0
	for _, sp := range endToEnd {
		ma, okA := a.Metrics[sp.Name]
		mb, okB := b.Metrics[sp.Name]
		if !okA || !okB {
			continue
		}
		base, now := ma.Quartiles[1], mb.Quartiles[1]
		worse := (now - base) / base // share by which b is worse than a
		if sp.Better == "higher" {
			worse = (base - now) / base
		}
		verdict := "unchanged"
		switch {
		case (ma.Spread > sp.Bound || mb.Spread > sp.Bound) && !separated(ma.Values, mb.Values):
			verdict = "unresolved"
		case worse > sp.Bound:
			verdict = "regressed"
			regressed++
		case worse < -sp.Bound:
			verdict = "improved"
		}
		fmt.Fprintf(w, "%s %s %s: %s -> %s %s (%+.1f%% worse, bound %.0f%%, spreads %.1f%% / %.1f%%)\n",
			a.Workload, sp.Name, verdict, formatValue(base), formatValue(now), ma.Unit, 100*worse, 100*sp.Bound, 100*ma.Spread, 100*mb.Spread)
	}
	return regressed
}

// separated reports whether every value of one side lies beyond every
// value of the other.
func separated(a, b []float64) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	return sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0]
}

// readSummary loads either a --repeat summary or a single run's report,
// which it treats as a summary of one.
func readSummary(path string) (*summary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe struct {
		Seeds []int64 `json:"seeds"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if probe.Seeds != nil {
		var s summary
		return &s, json.Unmarshal(b, &s)
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return summarize([]*report{&r}), nil
}
