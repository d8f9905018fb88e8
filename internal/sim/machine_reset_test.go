package sim

import (
	"reflect"
	"testing"

	"espsim/internal/workload"
)

// TestDirtyComponentsReplayBitIdentical is the golden-replay backstop
// behind the resetcomplete analyzer: the analyzer proves every field of
// every pooled component is accounted for by its Reset, and this test
// proves the accounting is not vacuous. Each machine component is
// deliberately dirtied through its public mutators — predictor PIR and
// RAS, cache contents, dirty lines and demand stats, prefetcher streak
// state — on top of a full replay of a different workload, and the next
// Run must still be bit-identical to a never-used machine's.
func TestDirtyComponentsReplayBitIdentical(t *testing.T) {
	profA := testProfile(t)
	profB := workload.Bing()
	profB.Events = 40

	wA, err := NewWorkload(profA, 0)
	if err != nil {
		t.Fatal(err)
	}
	wB, err := NewWorkload(profB, 0)
	if err != nil {
		t.Fatal(err)
	}

	for _, cfg := range append([]Config{
		{Name: "base"},
		{Name: "nls", NLI: true, NLD: true, StridePF: true},
		{Name: "efetch", EFetch: true},
		{Name: "pif", PIF: true},
		{Name: "ra", NLI: true, NLD: true, Assist: AssistRunahead},
		espConfig(),
	}, espDesigns()...) {
		// Golden results come from two never-used machines, so the
		// baseline does not itself depend on Reset being correct.
		freshA, err := NewMachine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		wantA := freshA.Run(wA)
		freshB, err := NewMachine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		wantB := freshB.Run(wB)

		dirty, err := NewMachine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		// Realistic contamination: a full replay of the other workload.
		dirty.Run(wB)
		// Hostile contamination: poke every component's visible state.
		dirty.bp.SetPIR(0xDEADBEEF)
		dirty.bp.ClearRAS()
		for _, addr := range []uint64{0x1000, 0x2040, 0x3080, 0x40C0} {
			dirty.hier.FetchI(addr)
			dirty.hier.AccessD(addr^0xF000, true)
			dirty.hier.PrefetchD(addr + 0x40)
		}
		dirty.hier.L1D.MarkDirty(0x2040 ^ 0xF000)
		if dirty.nli != nil {
			dirty.nli.OnFetch(0x7777)
		}
		if dirty.dcu != nil {
			dirty.dcu.OnAccess(0x8888)
			dirty.dcu.OnAccess(0x8890)
		}
		if dirty.stride != nil {
			dirty.stride.OnAccess(0x100, 0x9000)
			dirty.stride.OnAccess(0x100, 0x9040)
		}
		// Make the machine look like a replay that died mid-run — for
		// ESP, the engine still bound to workload B and abandoned inside
		// an event whose EventEnd never came, its slots holding B's
		// occupants, cachelets and replicas. Reset alone must reclaim
		// all of it.
		if dirty.esp != nil {
			dirty.esp.Src = wB
			dirty.esp.EventStart(wB.events[0], wB.pending(0, cfg.MaxPending))
		}

		if got := dirty.Run(wA); !reflect.DeepEqual(got, wantA) {
			t.Errorf("%s: dirtied machine diverged on workload A\ngot  %+v\nwant %+v", cfg.Name, got, wantA)
		}
		// Order independence: B after A on the same machine still matches
		// the fresh-machine golden result.
		if got := dirty.Run(wB); !reflect.DeepEqual(got, wantB) {
			t.Errorf("%s: dirtied machine diverged on workload B after A\ngot  %+v\nwant %+v", cfg.Name, got, wantB)
		}
	}
}
