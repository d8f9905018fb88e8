package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "cluster", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "serve", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "serve", Start: 30, End: 60}, // overlaps its sibling
		{ID: 3, Parent: 0, Name: "serve", Start: 80, End: 90},
		{ID: 4, Parent: 1, Name: "engine", Start: 20, End: 45}, // runs past its parent
	}
	// The parent's children cover [10,60] and [80,90]: 60 of its 100.
	// The engine child only counts inside its parent, [20,40].
	want := []int64{40, 10, 30, 10, 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestLedgerSumsToRoot(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "phase", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 70},
		{ID: 3, Parent: 1, Name: "c", Start: 35, End: 45},
	}
	// [0,10) root; [10,30) a; [30,35) a,b; [35,45) c,b; [45,50) a,b;
	// [50,70) b; [70,100) root.
	want := map[string]float64{"unattributed": 40, "a": 25, "b": 30, "c": 5}
	got := ledger(spans, 0)
	var sum float64
	for name, v := range got {
		sum += v
		if math.Abs(v-want[name]) > 1e-9 {
			t.Errorf("ledger[%s] = %g, want %g", name, v, want[name])
		}
	}
	if sum != 100 {
		t.Errorf("ledger sums to %g, want the root's 100", sum)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{10, 100}, {99, 100}, {100, 90}, {150, 100 * (1 - 10.0/150)}, {200, 95}, {8000, 95}} {
		if got := tailPercentile(tc.n); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	// Below the cap the chosen percentile leaves exactly ten samples beyond.
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, v := tail(xs); v != 140 {
		t.Errorf("tail of 1..150 = %g, want 140", v)
	}
	if _, v := tail(xs[:10]); v != 10 {
		t.Errorf("tail of 10 samples = %g, want the maximum 10", v)
	}
}

func TestSeedDeterminism(t *testing.T) {
	sweeps := func(seed int64) [][]byte {
		b := newFig9(seed, nil)
		var out [][]byte
		for i := 0; i < 4; i++ {
			out = append(out, b.body())
		}
		return out
	}
	if !reflect.DeepEqual(sweeps(7), sweeps(7)) {
		t.Error("fig9-sweep: the same seed gave different request sequences")
	}
	if reflect.DeepEqual(sweeps(7), sweeps(8)) {
		t.Error("fig9-sweep: different seeds gave the same request sequence")
	}

	arrivals := func(seed int64) []arrival {
		b := &runOpen{seed: seed, cells: runOpenCells()}
		return b.schedule(2 * time.Second)
	}
	if !reflect.DeepEqual(arrivals(7), arrivals(7)) {
		t.Error("run-open: the same seed gave different arrivals")
	}
	if reflect.DeepEqual(arrivals(7), arrivals(8)) {
		t.Error("run-open: different seeds gave the same arrivals")
	}
}

func TestDigestsCoverEveryRequestedCell(t *testing.T) {
	var digests map[string]string
	if err := json.Unmarshal(digestsJSON, &digests); err != nil {
		t.Fatal(err)
	}
	for _, c := range append(fig9Cells(), runOpenCells()...) {
		cfg, err := c.config()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := digests[cellKey(c.App, cfg.Name, c.MaxEvents)]; !ok {
			t.Errorf("no digest for %s/%s at max_events %d", c.App, cfg.Name, c.MaxEvents)
		}
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json and
// the metrics this program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json names workload %s, which the program does not run", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
