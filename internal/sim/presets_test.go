package sim_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	esp "espsim"
	"espsim/internal/sim"
	"espsim/internal/workload"
)

// TestRunnerFitsEveryPreset: one Runner replays every preset the espd
// service resolves, plus a non-FIFO variant, in shuffled order on one
// machine fit to each cell in turn, and every result equals a freshly
// built machine's. A component that fit left attached, or a switch it
// left set, shows up as a difference in the cell after it.
func TestRunnerFitsEveryPreset(t *testing.T) {
	prof := workload.MobileWeb() // timed, so the EDF variant differs
	prof.Events = 24
	cfgs := append(esp.NamedConfigs(), esp.SchedConfig(esp.ESPNLConfig(), esp.SchedEDF))
	rand.New(rand.NewSource(7)).Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })

	r := sim.NewRunner()
	for _, cfg := range cfgs {
		got, err := r.RunCell(context.Background(), cfg.Name, prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sim.NewWorkloadSched(prof, cfg.MaxEvents, cfg.Sched)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.Run(w); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: pooled result differs from a fresh machine's\ngot  %+v\nwant %+v", cfg.Name, got, want)
		}
	}
	if p := r.Perf(); p.MachineBuilds != 1 || p.MachineReuses != int64(len(cfgs)-1) {
		t.Fatalf("%d cells: machines %d built/%d reused, want 1/%d", len(cfgs), p.MachineBuilds, p.MachineReuses, len(cfgs)-1)
	}
}
