package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    uint64
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}, {1 << 30, 99.99},
	}
	for _, c := range cases {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report 0")
	}
	for v := 1; v <= 1000; v++ {
		h.Record(time.Duration(v) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500e3}, {0.9, 900e3}, {0.99, 990e3}} {
		if got := h.Quantile(c.q); math.Abs(got-c.want)/c.want > 0.01 {
			t.Errorf("q%g = %g ns, want %g ± 1%%", c.q, got, c.want)
		}
	}
	if got := h.Quantile(1); got != 1000e3 {
		t.Errorf("q1 = %g, want the exact maximum", got)
	}
	var small Histogram
	for v := int64(0); v < histSub; v++ {
		small.RecordNanos(v)
	}
	if got := small.Quantile(0.5); got != 63.5 {
		t.Errorf("unit-width buckets: median = %g, want 63.5", got)
	}
	var merged Histogram
	merged.Merge(&h)
	merged.Merge(&small)
	if merged.Count() != h.Count()+small.Count() || merged.Quantile(1) != 1000e3 {
		t.Errorf("merge lost samples: %d", merged.Count())
	}
}

func TestBucketsRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 123456789, math.MaxInt64 / 3} {
		lower, width := bucketBounds(bucketOf(v))
		if float64(v) < lower || float64(v) >= lower+width {
			t.Errorf("value %d outside its bucket [%g, %g)", v, lower, lower+width)
		}
		if v >= histSub && width/lower > 1.0/histSub+1e-12 {
			t.Errorf("bucket of %d is %g wide at %g: coarser than 1/%d", v, width, lower, histSub)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 80},
		{"overlapping", []interval{{10, 30}, {20, 50}, {60, 70}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"clipped", []interval{{-10, 10}, {90, 120}, {200, 300}}, 80},
		{"unsorted duplicates", []interval{{60, 70}, {10, 30}, {10, 30}, {25, 40}}, 60},
		{"covering", []interval{{0, 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestNestByIDAndLinkTLS(t *testing.T) {
	spans := []Span{
		{Name: "ra.sync", Start: 0, End: 100, ID: 1, Parent: -1},
		{Name: "cdn.pop.pull", Start: 10, End: 50, ID: 1, Parent: -1},
		{Name: "cdn.pop.pull", Start: 110, End: 150, ID: 2, Parent: -1}, // other batch
		{Name: "handshake.tls", Start: 0, End: 1000, ID: 7, Parent: -1, Aux: 5<<3 | 1},
		{Name: "handshake.tls", Start: 0, End: 1000, ID: 8, Parent: -1, Aux: 6<<3 | 1},
		{Name: "interception.status", Start: 300, End: 320, ID: -1, Parent: -1, Key: 42, Aux: 6<<3 | 1},
		{Name: "interception.upstream_dial", Start: 100, End: 150, ID: -1, Parent: -1, Key: 42, Aux: 5555},
		{Name: "upstream.tls_accept", Start: 160, End: 290, ID: -1, Parent: -1, Key: 5555},
	}
	ix := indexSpans(spans)
	nestByID(spans, ix, "cdn.pop.pull", "ra.sync")
	linkTLS(spans, ix)
	if spans[1].Parent != 0 || spans[2].Parent != -1 {
		t.Errorf("pull parents = %d, %d; want 0, -1", spans[1].Parent, spans[2].Parent)
	}
	for _, c := range []int{5, 6, 7} {
		if spans[c].Parent != 4 || spans[c].ID != 8 {
			t.Errorf("%s linked to span %d (id %d), want span 4 (id 8)", spans[c].Name, spans[c].Parent, spans[c].ID)
		}
	}
	kids := childIntervals(spans)
	if got := selfTime(interval{spans[4].Start, spans[4].End}, kids[4]); got != 1000-50-130-20 {
		t.Errorf("arrival self = %d", got)
	}
}

// smokeParams shrinks every workload so the self-tests run in seconds.
func smokeParams() params {
	return params{
		setups:      1,
		sites:       256,
		siteCorpus:  1000,
		rate:        100,
		satShare:    0.25,
		hsBatch:     10,
		universe:    50_000, // 2^4·5^5, as probeMul requires
		statusBatch: 100,
		churnCorpus: 5000,
		churnBatch:  200,
		allocRuns:   50,
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares unknown workload %q", w.Name)
		}
	}
	return e2e, layers
}

func smoke(t *testing.T, name string, p params, traced bool) *result {
	t.Helper()
	res, err := execute(workloads[name], p, 7, 1.5, traced, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Attempted < 1 {
		t.Fatalf("%s: nothing attempted", name)
	}
	return res
}

func checkEmitted(t *testing.T, name string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d declared", name, len(got), len(want))
	}
	for m, unit := range want {
		v, ok := got[m]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", name, m)
		case v.Unit != unit:
			t.Errorf("%s: metric %s unit %q, declared %q", name, m, v.Unit, unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0:
			t.Errorf("%s: metric %s = %g", name, m, v.Value)
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full stack")
	}
	e2e, layers := declared(t)
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res := smoke(t, name, smokeParams(), false)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("untraced run: %d of %d operations failed", res.Failed, res.Attempted)
			}
			checkEmitted(t, name, res.Metrics, e2e)
			for m, v := range res.Metrics {
				if v.Value == 0 {
					t.Errorf("end-to-end metric %s reads 0", m)
				}
			}

			res = smoke(t, name, smokeParams(), true)
			if !res.Correct {
				t.Fatalf("traced run: %d of %d operations failed", res.Failed, res.Attempted)
			}
			checkEmitted(t, name, res.Metrics, layers)

			p := smokeParams()
			p.plantMismatch = true
			res = smoke(t, name, p, false)
			if res.Correct || res.Failed < 1 {
				t.Errorf("planted wrong expectation not caught: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}
