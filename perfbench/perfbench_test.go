package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.1, 1}, {0.01, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2, math.Inf(1)}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("a failed request must count as missing the limit, p99 = %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample must be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile must not reorder its input")
	}
}

func TestLadderSearch(t *testing.T) {
	for n := 1; n <= 12; n++ {
		for top := -1; top < n; top++ {
			probes := 0
			l := newLadder(n)
			for !l.done() {
				rung := l.next()
				probes++
				l.record(rung, rung <= top)
			}
			if got := l.top(); got != top {
				t.Errorf("n=%d top=%d: got %d", n, top, got)
			}
			// Each failing rung is probed twice.
			if max := 2 * (int(math.Ceil(math.Log2(float64(n+1)))) + 1); probes > max {
				t.Errorf("n=%d: %d probes, want at most %d", n, probes, max)
			}
		}
	}
	// One failed probe of a rung that passes when probed again does not
	// end the search below it.
	l := newLadder(7)
	l.record(l.next(), false)
	l.record(l.next(), true)
	for !l.done() {
		rung := l.next()
		l.record(rung, rung <= 5)
	}
	if l.top() != 5 || l.overturned != 1 {
		t.Errorf("after an overturned failure: top %d, overturned %d; want 5, 1", l.top(), l.overturned)
	}
}

func TestArrivalsAndLateness(t *testing.T) {
	a := arrivals(20000, 1000, rand.New(rand.NewSource(1)).Float64)
	b := arrivals(20000, 1000, rand.New(rand.NewSource(1)).Float64)
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatal("arrival offsets must be ascending")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("the same seed must give the same schedule")
		}
	}
	// 20000 arrivals at 1000/s span about 20 s.
	if span := a[len(a)-1].Seconds(); span < 19 || span > 21 {
		t.Errorf("20000 arrivals at 1000/s span %.2fs", span)
	}
	due := time.Unix(100, 0)
	if got := lateness(due, due.Add(3*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("lateness = %v", got)
	}
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("an early send is not late, got %v", got)
	}
}

func TestCalmest(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0, 0, 0, 0}, []int{0, 1, 2, 3}},
		{[]float64{0.3, 0, 0.1, 0.2}, []int{1, 2}},
		{[]float64{0.3, 0, 0.1, 0.2, 0.05}, []int{1, 2, 4}},
		{[]float64{0.2, 0, 0, 0}, []int{1, 2, 3}},
	} {
		got := calmest(c.steal)
		if len(got) != len(c.want) {
			t.Errorf("calmest(%v) = %v, want %v", c.steal, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("calmest(%v) = %v, want %v", c.steal, got, c.want)
				break
			}
		}
	}
}

func TestLowestP50(t *testing.T) {
	blocks := []*phaseStats{{p50: 4.1}, {p50: 2.9}, {p50: 31}}
	if got := lowestP50(blocks); got != 2.9 {
		t.Errorf("lowestP50 = %v, want 2.9", got)
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (workloads, endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return workloads, endToEnd, perLayer
}

func sameSet(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for _, n := range want {
		m, ok := got[n]
		if !ok {
			t.Errorf("%s: missing metric %s", what, n)
			continue
		}
		if m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %+v", what, n, m)
		}
	}
}

// TestSmokeWorkloads runs one tiny round of every workload, untraced
// and traced, and checks that each prints exactly the metrics
// BENCHMARK.json declares and passes its correctness checks.
func TestSmokeWorkloads(t *testing.T) {
	cfg, err := loadConfig(workloadsJSON)
	if err != nil {
		t.Fatal(err)
	}
	names, e2e, layers := benchmarkNames(t)
	if got := cfg.names(); len(got) != len(names) {
		t.Fatalf("workloads.json has %v, BENCHMARK.json %v", got, names)
	}
	for _, name := range names {
		w, ok := cfg.Workloads[name]
		if !ok {
			t.Fatalf("workload %s missing from workloads.json", name)
		}
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 3, seconds: 1, trace: trace, smoke: true, out: t.TempDir()}
			res, tr, err := run(cfg, w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if trace {
				sameSet(t, name+" traced", res.Metrics, layers)
				if tr == nil || tr.Len() == 0 {
					t.Errorf("%s: traced run recorded no spans", name)
				} else if err := writeTrace(tr, o); err != nil {
					t.Error(err)
				}
			} else {
				sameSet(t, name, res.Metrics, e2e)
			}
		}
	}
}

// TestCorruptionFails proves each correctness check fails the run when
// one output is deliberately corrupted.
func TestCorruptionFails(t *testing.T) {
	cfg, err := loadConfig(workloadsJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workload, corrupt string
		trace             bool
	}{
		{"serve_swap", "response", false},
		{"train_local", "loss", true},
		{"train_tcp_topk", "reference", false},
	} {
		o := options{workload: c.workload, seed: 5, seconds: 1, trace: c.trace, smoke: true, corrupt: c.corrupt}
		res, _, err := run(cfg, cfg.Workloads[c.workload], o)
		if err != nil {
			t.Fatalf("%s: %v", c.corrupt, err)
		}
		if res.Correct {
			t.Errorf("a corrupted %s on %s passed the correctness checks", c.corrupt, c.workload)
		}
	}
}
