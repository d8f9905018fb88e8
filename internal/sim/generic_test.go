package sim

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"espsim/internal/core"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

var updateGeneric = flag.Bool("update", false, "rewrite testdata/generic.json from the current engine")

const genericPath = "testdata/generic.json"

// genericSource is a hand-built eventq.Source that takes the paths the
// synthetic suite never does: PC discontinuities inside an event, ALU
// instructions that carry an Addr, flags on non-branch instructions, a
// kind outside the four defined ones, an event with a nil stream and
// one with an empty stream, and nil, empty and out-of-order queue
// views. Its streams start from a real session's, so every assist finds
// misses and mispredictions to work on, and the suite's untaken
// conditional branches keep their targets.
type genericSource struct {
	evs        []trace.Event
	norm, spec [][]trace.Inst
	pend       [][]trace.Event
}

func newGenericSource(t *testing.T) *genericSource {
	t.Helper()
	prof := workload.Amazon()
	prof.Events = 24
	sess, err := workload.NewSession(prof)
	if err != nil {
		t.Fatal(err)
	}
	g := &genericSource{evs: sess.Events}
	n := len(sess.Events)
	for i, ev := range sess.Events {
		norm := oddify(trace.Record(sess.Gen.Stream(ev, false), ev.Len), uint64(i))
		spec := norm // shares the backing array, as recorded traces do
		if ev.Diverge >= 0 {
			spec = oddify(trace.Record(sess.Gen.Stream(ev, true), ev.Len), uint64(i)+1000)
		}
		g.norm = append(g.norm, norm)
		g.spec = append(g.spec, spec)

		var p []trace.Event
		switch {
		case i%5 == 1:
			p = []trace.Event{}
		case i%5 == 2:
			// nil view
		case i%5 == 3 && i+2 < n:
			p = []trace.Event{sess.Events[i+2], sess.Events[i+1]}
		default:
			for j := i + 1; j < n && j <= i+2; j++ {
				p = append(p, sess.Events[j])
			}
		}
		g.pend = append(g.pend, p)
	}
	g.norm[3], g.spec[3] = nil, nil
	g.norm[5], g.spec[5] = []trace.Inst{}, []trace.Inst{}
	return g
}

// oddify seeds a stream with the instruction shapes the suite never
// emits, at positions drawn from a hash of (salt, index).
func oddify(insts []trace.Inst, salt uint64) []trace.Inst {
	for j := range insts {
		in := &insts[j]
		h := workload.Hash2(salt, uint64(j))
		switch {
		case h%97 == 0 && in.Kind == trace.ALU:
			in.Addr = h | 1
		case h%89 == 0 && in.Kind != trace.Branch:
			in.Taken, in.Call = true, true
		case h%83 == 0 && in.Kind != trace.Branch:
			in.Indirect, in.Ret = true, true
		case h%211 == 0:
			in.PC += 0x10_0000
		case h%401 == 0 && in.Kind == trace.ALU:
			in.Kind = 7
		}
	}
	return insts
}

func (g *genericSource) Len() int                { return len(g.evs) }
func (g *genericSource) Event(i int) trace.Event { return g.evs[i] }
func (g *genericSource) Pending(i int) []trace.Event {
	return g.pend[i]
}
func (g *genericSource) Insts(i int, speculative bool) []trace.Inst {
	if speculative {
		return g.spec[i]
	}
	return g.norm[i]
}

func genericConfigs() []Config {
	return []Config{
		{Name: "base"},
		{Name: "NL+S", NLI: true, NLD: true, StridePF: true},
		{Name: "Runahead+NL", NLI: true, NLD: true, Assist: AssistRunahead},
		{Name: "ESP+NL", NLI: true, NLD: true, Assist: AssistESP, ESP: core.DefaultOptions()},
	}
}

// TestGenericSourceFixture replays the hand-built source under base,
// NL+S, Runahead+NL and ESP+NL and requires the Results recorded in
// testdata/generic.json, bit for bit.
func TestGenericSourceFixture(t *testing.T) {
	w := MaterializeSource("generic", newGenericSource(t), 0)
	got := map[string]Result{}
	for _, cfg := range genericConfigs() {
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got[cfg.Name] = m.Run(w)
	}
	if *updateGeneric {
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(genericPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(genericPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]Result
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d results, computed %d", len(want), len(got))
	}
	for name, res := range got {
		if !reflect.DeepEqual(res, want[name]) {
			g, _ := json.Marshal(res)
			f, _ := json.Marshal(want[name])
			t.Errorf("%s deviates from the fixture\n got: %s\nwant: %s", name, g, f)
		}
	}
}

// TestGenericSourceInstsExact: a materialized workload hands back every
// stream of a generic source exactly, nil and empty slices included.
func TestGenericSourceInstsExact(t *testing.T) {
	src := newGenericSource(t)
	view := MaterializeSource("generic", src, 0).Source(0)
	for i := 0; i < src.Len(); i++ {
		for _, spec := range []bool{false, true} {
			if got, want := view.Insts(i, spec), src.Insts(i, spec); !reflect.DeepEqual(got, want) {
				t.Fatalf("event %d (speculative %v): got %d insts (nil %v), want %d (nil %v)",
					i, spec, len(got), got == nil, len(want), want == nil)
			}
		}
	}
}
