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

// TestRunnerDepthCutMatchesFullDepth: a Runner builds a bounded cell's
// workload only as deep as the cell's MaxPending reads, and every
// preset, plus an EDF variant, replays it to the Result a fresh machine
// gets from the public full-depth workload. It runs on a session
// profile (bing) and a timed one (mobileweb, under FIFO and EDF) at
// MaxPending 0, 1, 2, 5 and 8. A horizon cut too short panics when ESP
// reads a stream it left out; a view cut too shallow changes a Result.
func TestRunnerDepthCutMatchesFullDepth(t *testing.T) {
	const maxEvents = 5
	bing, err := workload.ByName("bing")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := append(esp.NamedConfigs(), esp.SchedConfig(esp.ESPNLConfig(), esp.SchedEDF))
	r := sim.NewRunner()
	for _, prof := range []workload.Profile{bing, workload.MobileWeb()} {
		full := map[esp.SchedPolicy]*sim.Workload{}
		for _, cfg := range cfgs {
			ref := full[cfg.Sched]
			if ref == nil {
				if ref, err = sim.NewWorkloadSched(prof, maxEvents, cfg.Sched); err != nil {
					t.Fatal(err)
				}
				full[cfg.Sched] = ref
			}
			for _, maxPending := range []int{0, 1, 2, 5, 8} {
				cfg.MaxEvents, cfg.MaxPending = maxEvents, maxPending
				got, err := r.RunCell(context.Background(), cfg.Name, prof, cfg)
				if err != nil {
					t.Fatalf("%s/%s MaxPending %d: %v", prof.Name, cfg.Name, maxPending, err)
				}
				m, err := sim.NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want := m.Run(ref); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s MaxPending %d: depth-cut result differs from the full-depth one\ngot  %+v\nwant %+v",
						prof.Name, cfg.Name, maxPending, got, want)
				}
			}
		}
	}
}
