package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	esp "espsim"
	"espsim/internal/serve/metrics"
)

// goldenMaxEvents mirrors the corpus truncation in golden_test.go.
const goldenMaxEvents = 48

// readGoldenCorpus loads the repository's golden determinism corpus:
// every (app, config) cell the engine must reproduce bit-for-bit.
func readGoldenCorpus(t *testing.T) map[string]esp.Result {
	t.Helper()
	data, err := os.ReadFile("../../testdata/golden.json")
	if err != nil {
		t.Fatalf("reading golden corpus: %v", err)
	}
	var golden map[string]esp.Result
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("decoding golden corpus: %v", err)
	}
	if len(golden) == 0 {
		t.Fatal("golden corpus is empty")
	}
	return golden
}

type goldenCell struct {
	app, config string
	want        esp.Result
}

func goldenCells(t *testing.T) []goldenCell {
	t.Helper()
	golden := readGoldenCorpus(t)
	cells := make([]goldenCell, 0, len(golden))
	for key, want := range golden {
		app, config, ok := strings.Cut(key, "/")
		if !ok {
			t.Fatalf("malformed golden key %q", key)
		}
		cells = append(cells, goldenCell{app: app, config: config, want: want})
	}
	return cells
}

// TestServiceGoldenParity is the acceptance gate for espd: 64
// concurrent POST /run requests covering every golden cell must return
// results bit-identical to the corpus (i.e. to direct esp.Run), while
// /metrics shows the load actually shared cached workloads and pooled
// machines. Under -race (tier 1) this doubles as the service-path
// data-race check.
func TestServiceGoldenParity(t *testing.T) {
	cells := goldenCells(t)
	s := testServer(t, Options{Workers: 4})

	const requests = 64
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		cell := cells[i%len(cells)]
		wg.Add(1)
		go func(i int, cell goldenCell) {
			defer wg.Done()
			rec := post(t, s, "/run", RunRequest{App: cell.app, Config: cell.config, MaxEvents: goldenMaxEvents})
			if rec.Code != http.StatusOK {
				t.Errorf("request %d (%s/%s): status %d, body %s", i, cell.app, cell.config, rec.Code, rec.Body.String())
				return
			}
			var resp RunResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Errorf("request %d (%s/%s): decoding: %v", i, cell.app, cell.config, err)
				return
			}
			if !reflect.DeepEqual(resp.Result, cell.want) {
				t.Errorf("request %d (%s/%s): service result deviates from golden corpus", i, cell.app, cell.config)
			}
		}(i, cell)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	if snap.Engine.Cells != requests {
		t.Errorf("engine ran %d cells, want %d", snap.Engine.Cells, requests)
	}
	if snap.Engine.WorkloadReuses == 0 {
		t.Errorf("64 requests over %d workloads produced zero workload-cache hits: %+v", 7, snap.Engine)
	}
	if snap.Engine.MachineReuses == 0 {
		t.Errorf("64 requests over the machine pool produced zero machine reuses: %+v", snap.Engine)
	}
	if snap.Cells.Errors != 0 {
		t.Errorf("%d cell errors under golden load", snap.Cells.Errors)
	}
	if snap.CellLatency.Count != requests {
		t.Errorf("latency histogram observed %d cells, want %d", snap.CellLatency.Count, requests)
	}
}
