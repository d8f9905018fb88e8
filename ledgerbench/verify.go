package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	esp "espsim"
	"espsim/internal/sim"
	"espsim/internal/workload"
)

// digestsJSON holds the simulated-statistics digest of every cell the
// fig9-sweep and run-open workloads request, keyed by cellKey. It is
// regenerated from fresh machines with -write-digests, which refuses
// to write unless the same path reproduces the golden corpus. None of
// the workloads requests a golden cell: the corpus pins max_events 48.
//
//go:embed digests.json
var digestsJSON []byte

// goldenMaxEvents is the truncation the golden corpus pins its cells at.
const goldenMaxEvents = 48

// cell is one (application, configuration) point a workload requests.
type cell struct {
	App       string
	Config    string
	Sched     string
	MaxEvents int
}

// config is the machine configuration the server builds for c.
func (c cell) config() (esp.Config, error) {
	cfg, err := esp.ConfigByName(c.Config)
	if err != nil {
		return esp.Config{}, err
	}
	if c.Sched != "" {
		p, err := esp.SchedByName(c.Sched)
		if err != nil {
			return esp.Config{}, err
		}
		cfg = esp.SchedConfig(cfg, p)
	}
	cfg.MaxEvents = c.MaxEvents
	return cfg, nil
}

func cellKey(app, config string, maxEvents int) string {
	return fmt.Sprintf("%s/%s/%d", app, config, maxEvents)
}

// digest fingerprints every simulated statistic of a result through its
// wire encoding, which round-trips float64 exactly.
func digest(res *esp.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// verifier checks served results against the committed digests.
type verifier struct {
	digests map[string]string
}

func loadVerifier() (*verifier, error) {
	v := &verifier{}
	if err := json.Unmarshal(digestsJSON, &v.digests); err != nil {
		return nil, fmt.Errorf("decoding embedded digests: %w", err)
	}
	return v, nil
}

// check verifies one served cell simulated at maxEvents.
func (v *verifier) check(res *esp.Result, maxEvents int) error {
	key := cellKey(res.App, res.Config, maxEvents)
	want, ok := v.digests[key]
	if !ok {
		return fmt.Errorf("%s: no committed digest", key)
	}
	if got := digest(res); got != want {
		return fmt.Errorf("%s: digest %s, want %s", key, got, want)
	}
	return nil
}

// freshResult replays one cell on a freshly built workload and machine:
// the reference the served path must reproduce bit for bit.
func freshResult(c cell) (esp.Result, error) {
	cfg, err := c.config()
	if err != nil {
		return esp.Result{}, err
	}
	prof, err := workload.ByName(c.App)
	if err != nil {
		return esp.Result{}, err
	}
	w, err := sim.NewWorkloadSched(prof, cfg.MaxEvents, cfg.Sched)
	if err != nil {
		return esp.Result{}, err
	}
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return esp.Result{}, err
	}
	return m.Run(w), nil
}

// writeDigests recomputes every requested cell on fresh machines and
// writes the digest table to path. It first replays the golden corpus's
// suite cells on the same path and refuses to write if any deviates, so
// the digests inherit the corpus's authority.
func writeDigests(path, goldenPath string) error {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("reading golden corpus: %w", err)
	}
	var golden map[string]esp.Result
	if err := json.Unmarshal(raw, &golden); err != nil {
		return fmt.Errorf("decoding golden corpus %s: %w", goldenPath, err)
	}
	anchored := 0
	for _, prof := range workload.Suite() {
		for _, name := range []string{"base", "ESP+NL", "Runahead+NL"} {
			res, err := freshResult(cell{App: prof.Name, Config: name, MaxEvents: goldenMaxEvents})
			if err != nil {
				return err
			}
			want, ok := golden[res.App+"/"+res.Config]
			if !ok {
				return fmt.Errorf("golden corpus has no %s/%s", res.App, res.Config)
			}
			if !reflect.DeepEqual(res, want) {
				return fmt.Errorf("fresh-machine path disagrees with the golden corpus on %s/%s", res.App, res.Config)
			}
			anchored++
		}
	}
	cells := append(fig9Cells(), runOpenCells()...)
	out := make(map[string]string, len(cells))
	for _, c := range cells {
		res, err := freshResult(c)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", c.App, c.Config, err)
		}
		out[cellKey(res.App, res.Config, c.MaxEvents)] = digest(&res)
	}
	b, err := json.MarshalIndent(out, "", "  ") // encoding/json sorts map keys
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ledgerbench: %d golden cells reproduced; wrote %d digests to %s\n", anchored, len(out), path)
	return nil
}
