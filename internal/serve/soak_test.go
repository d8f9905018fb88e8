package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"

	esp "espsim"
	"espsim/internal/workload"
)

// TestSoakMixedConfigs hammers one Server with interleaved requests for
// a mixed (app, config) population and asserts the defining property of
// a correct cache: every response is bit-identical to the sequential
// reference, independent of interleaving. Cross-request state leakage —
// one request's machine or workload bleeding into another's result —
// would show up as a deviation (and under -race, as a report).
// The engine-level half (cache-hit workload arenas are never mutated)
// is TestWorkloadImmutableUnderConcurrentReplay in internal/sim.
func TestSoakMixedConfigs(t *testing.T) {
	const maxEvents = 32
	apps := []string{"amazon", "bing", "pixlr"}
	configs := []string{"base", "NL+S", "Runahead+NL", "ESP+NL", "NaiveESP+NL"}

	// Sequential reference, through the plain single-cell path.
	type cellKey struct{ app, config string }
	want := make(map[cellKey]esp.Result)
	for _, app := range apps {
		prof, err := workload.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range configs {
			cfg, err := esp.ConfigByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg.MaxEvents = maxEvents
			res, err := esp.Run(prof, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want[cellKey{app, name}] = jsonRoundTrip(t, res)
		}
	}

	s := testServer(t, Options{Workers: 4})
	const (
		goroutines   = 12
		perGoroutine = 10
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the grid in its own shuffled order, so
			// the server sees a different interleaving every run.
			rng := rand.New(rand.NewSource(int64(g) * 7919))
			for i := 0; i < perGoroutine; i++ {
				key := cellKey{
					app:    apps[rng.Intn(len(apps))],
					config: configs[rng.Intn(len(configs))],
				}
				rec := post(t, s, "/run", RunRequest{App: key.app, Config: key.config, MaxEvents: maxEvents})
				if rec.Code != http.StatusOK {
					t.Errorf("goroutine %d: %s/%s: status %d, body %s", g, key.app, key.config, rec.Code, rec.Body.String())
					return
				}
				var resp RunResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Errorf("goroutine %d: %s/%s: decoding: %v", g, key.app, key.config, err)
					return
				}
				if !reflect.DeepEqual(resp.Result, want[key]) {
					t.Errorf("goroutine %d: %s/%s: result depends on interleaving", g, key.app, key.config)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The cache served hot workloads throughout; one more sequential lap
	// confirms the soak left no residue behind.
	for key, w := range want {
		rec := post(t, s, "/run", RunRequest{App: key.app, Config: key.config, MaxEvents: maxEvents})
		var resp RunResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("post-soak %s/%s: %v", key.app, key.config, err)
		}
		if !reflect.DeepEqual(resp.Result, w) {
			t.Fatalf("post-soak %s/%s: cached workload or pooled machine was mutated by the soak", key.app, key.config)
		}
	}
	if got := s.met.CellErrors.Load(); got != 0 {
		t.Fatalf("%d cell errors during soak", got)
	}
}
