// Package workload synthesizes asynchronous-program instruction traces
// that are statistically calibrated to the seven Web 2.0 applications the
// paper evaluates (Figure 6): amazon, bing, cnn, facebook, gmaps, gdocs
// and pixlr.
//
// The paper recorded Chromium renderer-process traces of live browsing
// sessions; those traces are not available, so this package substitutes a
// deterministic generator that reproduces the execution properties ESP
// exploits (DESIGN.md §2): many short events of varied handler types,
// large instruction footprints, cold data misses, mostly-independent
// events that occasionally depend on a predecessor, and events resident in
// the queue before they run.
package workload

import (
	"fmt"
	"math"

	"espsim/internal/trace"
)

// ClassSpec describes one event class of a timed (mobile-web) profile:
// its share of the event mix, scheduling priority, arrival cadence,
// deadline window, and how its events' lengths relate to the profile
// mean. All fields are scalars so Profile stays comparable (profiles
// key workload caches).
type ClassSpec struct {
	// Class labels events drawn from this spec.
	Class trace.EventClass
	// Weight is the spec's relative share of the event mix; zero
	// disables the entry.
	Weight float64
	// Prio is the scheduling priority (lower = more urgent).
	Prio uint8
	// MeanGap is the mean inter-arrival gap contributed to the global
	// arrival clock when an event of this class is posted, in
	// instruction units (gaps are uniform in [MeanGap/2, 3*MeanGap/2]).
	MeanGap int
	// DeadlineLo/DeadlineHi bound the uniform deadline offset after
	// arrival, in instruction units. DeadlineHi == 0 means events of
	// this class carry no deadline.
	DeadlineLo int
	DeadlineHi int
	// LenScale multiplies the sampled event length (0 or 1 = profile
	// default): input handlers are short, network completions long.
	LenScale float64
}

// Profile describes one application workload. The seven presets are
// scaled-down versions of the paper's sessions (Figure 6): event lengths
// and counts are divided by ScaleDivisor while the ratios between
// applications — and the footprint-to-cache-size ratios that produce the
// paper's miss rates — are preserved.
type Profile struct {
	// Name is the application name as it appears in the paper's figures;
	// Actions describes the browsing session (Figure 6's "Actions
	// performed" column).
	Name    string
	Actions string

	// PaperEvents and PaperInsts are the session sizes reported in
	// Figure 6 (instructions in millions are stored as absolute counts).
	PaperEvents int
	PaperInsts  int64

	// Events is the number of events simulated; MeanEventLen the mean
	// instructions per event (lognormal-ish spread of EventLenSpread).
	Events         int
	MeanEventLen   int
	EventLenSpread float64

	// Handlers is the number of distinct handler types; consecutive
	// events come from different handlers (fine-grained interleaving).
	Handlers int

	// HandlerFootprint is the code bytes reachable per handler type;
	// RuntimeFootprint the shared JS-engine/runtime code all handlers
	// call into.
	HandlerFootprint int
	RuntimeFootprint int

	// LoadFrac/StoreFrac are per-instruction memory mix (of non-branch
	// slots); BranchFrac emerges from the mean basic-block length.
	LoadFrac  float64
	StoreFrac float64

	// SharedData is the application-state data region (bytes);
	// EventHeap the per-event private allocation (cold on first touch);
	// SharedFrac the fraction of new data references into shared state;
	// StrideFrac the probability a load starts a sequential array walk
	// (what a stride/DCU prefetcher can catch);
	// HotFrac is the fraction of shared refs that hit a hot 1/16 subset;
	// ReuseFrac is the probability a data reference re-touches a recent
	// address (temporal locality — it sets the L1-D hit rate).
	SharedData int
	EventHeap  int
	SharedFrac float64
	StrideFrac float64
	HotFrac    float64
	ReuseFrac  float64

	// HotCallFrac is the fraction of call sites that target a small hot
	// subset of functions (code temporal locality — it sets the I-cache
	// behaviour together with the footprints).
	HotCallFrac float64

	// CodeIntensity scales how much code an event of a given length
	// touches (1.0 = suite default; 0 means 1). Code-diverse
	// applications (spreadsheet formulas, map rendering paths) sit
	// above 1.
	CodeIntensity float64

	// DataDepBranch is the fraction of conditional branches whose
	// outcome is data dependent (unpredictable across event instances).
	DataDepBranch float64

	// DepProb is the probability that an event depends on an earlier
	// pending event, making its pre-execution diverge (paper §5: >99%
	// of pre-executions match normal execution).
	DepProb float64

	// QueueNext and QueueSecond are the probabilities that, when an
	// event begins executing, the next (resp. second-next) event is
	// already resident in the event queue (paper §2.2: events wait tens
	// of microseconds; §6.6: a third pending event is rarely visible).
	QueueNext   float64
	QueueSecond float64

	// Timed enables the mobile-web scheduling dimension: events carry
	// class, priority, arrival time and deadline sampled from Mix.
	// Untimed profiles (the paper suite) are byte-identical to builds
	// that predate this field.
	Timed bool

	// Mix is the event-class mix of a timed profile; entries with zero
	// Weight are inactive. Fixed-size so Profile stays comparable.
	Mix [4]ClassSpec

	// DeadlineSlack is added to every sampled deadline, in instruction
	// units. The metamorphic suite uses it to prove slack monotonicity
	// (more slack never increases the miss rate).
	DeadlineSlack int

	// Seed decorrelates applications from one another.
	Seed uint64
}

// ScaleDivisor is the default factor by which paper session sizes are
// divided for the simulated profiles, chosen so the full experiment suite
// runs in minutes. cmd/espsim and cmd/espbench accept -scale to trade
// run time for longer sessions.
const ScaleDivisor = 10

// Validate reports whether the profile's parameters are usable. Every
// float field must be finite and in range, and each check is written so
// that NaN fails it: a NaN field would also make the profile unequal to
// itself, so no workload cache keyed by it could ever hit.
func (p *Profile) Validate() error {
	switch {
	case p.Events <= 0:
		return fmt.Errorf("workload %q: Events must be positive", p.Name)
	case p.MeanEventLen < 64:
		return fmt.Errorf("workload %q: MeanEventLen %d too small", p.Name, p.MeanEventLen)
	case !(p.EventLenSpread >= 0 && p.EventLenSpread <= 4):
		return fmt.Errorf("workload %q: EventLenSpread must be in [0,4], got %g", p.Name, p.EventLenSpread)
	case p.Handlers <= 0:
		return fmt.Errorf("workload %q: Handlers must be positive", p.Name)
	case p.HandlerFootprint < 4096 || p.RuntimeFootprint < 4096:
		return fmt.Errorf("workload %q: code footprints must be >= 4KiB", p.Name)
	case !(p.LoadFrac >= 0 && p.StoreFrac >= 0 && p.LoadFrac+p.StoreFrac <= 0.9):
		return fmt.Errorf("workload %q: bad memory mix", p.Name)
	case p.SharedData < 4096 || p.EventHeap < 256:
		return fmt.Errorf("workload %q: data regions too small", p.Name)
	case !(p.ReuseFrac >= 0 && p.ReuseFrac <= 0.999):
		return fmt.Errorf("workload %q: ReuseFrac out of range", p.Name)
	case !(p.CodeIntensity >= 0 && p.CodeIntensity <= 8):
		return fmt.Errorf("workload %q: CodeIntensity out of range", p.Name)
	case p.DeadlineSlack < 0:
		return fmt.Errorf("workload %q: DeadlineSlack must be non-negative", p.Name)
	}
	for _, f := range [...]struct {
		name string
		x    float64
	}{
		{"SharedFrac", p.SharedFrac}, {"StrideFrac", p.StrideFrac},
		{"HotFrac", p.HotFrac}, {"HotCallFrac", p.HotCallFrac}, {"DataDepBranch", p.DataDepBranch},
		{"DepProb", p.DepProb}, {"QueueNext", p.QueueNext}, {"QueueSecond", p.QueueSecond},
	} {
		if !(f.x >= 0 && f.x <= 1) {
			return fmt.Errorf("workload %q: %s must be in [0,1], got %g", p.Name, f.name, f.x)
		}
	}
	active := 0
	for i, cs := range p.Mix {
		switch {
		case !(cs.Weight >= 0) || math.IsInf(cs.Weight, 1):
			return fmt.Errorf("workload %q: Mix[%d] Weight must be non-negative and finite, got %g", p.Name, i, cs.Weight)
		case !(cs.LenScale >= 0 && cs.LenScale <= 8):
			return fmt.Errorf("workload %q: Mix[%d] LenScale must be in [0,8], got %g", p.Name, i, cs.LenScale)
		case !p.Timed || cs.Weight == 0:
			continue
		case cs.Class == trace.ClassNone || cs.Class >= trace.NumEventClasses:
			return fmt.Errorf("workload %q: Mix[%d] invalid event class", p.Name, i)
		case cs.MeanGap <= 0:
			return fmt.Errorf("workload %q: Mix[%d] MeanGap must be positive", p.Name, i)
		case cs.DeadlineLo < 0 || cs.DeadlineHi < cs.DeadlineLo:
			return fmt.Errorf("workload %q: Mix[%d] bad deadline window", p.Name, i)
		}
		active++
	}
	if p.Timed && active == 0 {
		return fmt.Errorf("workload %q: Timed profile needs at least one active Mix entry", p.Name)
	}
	return nil
}

// Scale returns a copy of the profile with event count multiplied by f
// (event lengths are left unchanged so per-event microarchitectural
// behaviour is preserved). f must be positive.
func (p Profile) Scale(f float64) Profile {
	if f <= 0 {
		f = 1
	}
	p.Events = int(float64(p.Events) * f)
	if p.Events < 4 {
		p.Events = 4
	}
	return p
}

func base(name string, seed uint64) Profile {
	return Profile{
		Name:             name,
		EventLenSpread:   0.8,
		Handlers:         24,
		HandlerFootprint: 96 << 10,
		RuntimeFootprint: 384 << 10,
		LoadFrac:         0.26,
		StoreFrac:        0.10,
		SharedData:       3 << 20,
		EventHeap:        12 << 10,
		SharedFrac:       0.45,
		StrideFrac:       0.004,
		HotFrac:          0.80,
		ReuseFrac:        0.965,
		HotCallFrac:      0.66,
		CodeIntensity:    1.0,
		DataDepBranch:    0.06,
		DepProb:          0.02,
		QueueNext:        0.96,
		QueueSecond:      0.85,
		Seed:             seed,
	}
}

// Amazon models the e-commerce session (search, click result, related
// item): many short events over a large retail-page handler set.
func Amazon() Profile {
	p := base("amazon", 0xA3A201)
	p.PaperEvents, p.PaperInsts = 7787, 434e6
	p.Actions = "Search for a pair of headphones, click on one result, go to a related item"
	p.Events, p.MeanEventLen = 380, 5600
	p.Handlers = 30
	return p
}

// Bing models the search session: short events, moderate footprint.
func Bing() Profile {
	p := base("bing", 0xB1B902)
	p.PaperEvents, p.PaperInsts = 4858, 259e6
	p.Actions = `Search for the term "Roger Federer", go to new results`
	p.Events, p.MeanEventLen = 250, 5300
	p.Handlers = 22
	p.HandlerFootprint = 72 << 10
	return p
}

// CNN models the news session: very many events, large article DOM state.
func CNN() Profile {
	p := base("cnn", 0xC2C903)
	p.PaperEvents, p.PaperInsts = 13409, 1230e6
	p.Actions = "Click on the headline, go to world news"
	p.Events, p.MeanEventLen = 300, 9200
	p.Handlers = 34
	p.SharedData = 4 << 20
	return p
}

// Facebook models the social-networking session: longer events, heavy
// shared state, more inter-event dependence.
func Facebook() Profile {
	p := base("facebook", 0xF4F904)
	p.PaperEvents, p.PaperInsts = 9305, 2165e6
	p.Actions = "Visit own homepage, go to communities, go to pictures"
	p.Events, p.MeanEventLen = 110, 23300
	p.Handlers = 36
	p.HandlerFootprint = 112 << 10
	p.DepProb = 0.03
	return p
}

// GMaps models the interactive-maps session: long compute-heavy events
// (tile math), data-intensive with some strided access.
func GMaps() Profile {
	p := base("gmaps", 0x69A905)
	p.PaperEvents, p.PaperInsts = 7298, 2722e6
	p.Actions = "Search for two addresses, get driving, public transit and biking directions"
	p.Events, p.MeanEventLen = 64, 37300
	p.Handlers = 28
	p.StrideFrac = 0.02
	p.SharedData = 5 << 20
	p.CodeIntensity = 1.7
	p.ReuseFrac = 0.977
	return p
}

// GDocs models the spreadsheet session: the longest events in the suite.
func GDocs() Profile {
	p := base("gdocs", 0x6D0906)
	p.PaperEvents, p.PaperInsts = 1714, 809e6
	p.Actions = "Open a spreadsheet, insert data, add 5 values"
	p.Events, p.MeanEventLen = 44, 47200
	p.Handlers = 26
	p.HandlerFootprint = 128 << 10
	p.CodeIntensity = 1.7
	p.ReuseFrac = 0.977
	return p
}

// Pixlr models the image-editing session: a small number of filter
// events, the smallest session in the suite, heavily strided pixel data.
func Pixlr() Profile {
	p := base("pixlr", 0x919707)
	p.PaperEvents, p.PaperInsts = 465, 26e6
	p.Actions = "Add various filters to an image uploaded from the computer"
	p.Events, p.MeanEventLen = 96, 5600
	p.Handlers = 14
	p.StrideFrac = 0.035
	p.HandlerFootprint = 64 << 10
	p.SharedData = 2 << 20
	return p
}

// MobileWeb models an interactive mobile browsing session at moderate
// load (~0.6 looper utilization): taps and scrolls (input), frame
// callbacks (render), timers, and network completions, each with the
// deadline windows PES reports for its class — input wants ~100 ms
// budgets, frames ~2 vsyncs, timers and network are elastic. Deadlines
// and gaps are in instruction units on the same virtual clock the
// scheduler simulates.
func MobileWeb() Profile {
	p := base("mobileweb", 0x30B11E08)
	p.Actions = "Scroll a news feed, tap two stories, pull to refresh"
	p.Events, p.MeanEventLen = 320, 5200
	p.Handlers = 28
	p.Timed = true
	p.Mix = [4]ClassSpec{
		{Class: trace.ClassInput, Weight: 0.25, Prio: 0, MeanGap: 9000, DeadlineLo: 8000, DeadlineHi: 16000, LenScale: 0.6},
		{Class: trace.ClassRender, Weight: 0.30, Prio: 1, MeanGap: 7000, DeadlineLo: 16000, DeadlineHi: 32000, LenScale: 1.0},
		{Class: trace.ClassTimer, Weight: 0.25, Prio: 2, MeanGap: 9000, DeadlineLo: 40000, DeadlineHi: 80000, LenScale: 1.1},
		{Class: trace.ClassNetwork, Weight: 0.20, Prio: 3, MeanGap: 12000, DeadlineLo: 80000, DeadlineHi: 160000, LenScale: 1.4},
	}
	return p
}

// MobileHeavy is the overload variant (~0.9 looper utilization): the
// same class structure under a burstier cadence, where scheduling
// policy — not raw speed — decides which deadlines are sacrificed.
func MobileHeavy() Profile {
	p := base("mobileheavy", 0x30B11E09)
	p.Actions = "Open a media-heavy page mid-load, scroll while ads and trackers fire"
	p.Events, p.MeanEventLen = 280, 6400
	p.Handlers = 32
	p.Timed = true
	p.Mix = [4]ClassSpec{
		{Class: trace.ClassInput, Weight: 0.25, Prio: 0, MeanGap: 7000, DeadlineLo: 10000, DeadlineHi: 20000, LenScale: 0.6},
		{Class: trace.ClassRender, Weight: 0.30, Prio: 1, MeanGap: 6000, DeadlineLo: 16000, DeadlineHi: 33000, LenScale: 1.0},
		{Class: trace.ClassTimer, Weight: 0.25, Prio: 2, MeanGap: 7000, DeadlineLo: 50000, DeadlineHi: 100000, LenScale: 1.1},
		{Class: trace.ClassNetwork, Weight: 0.20, Prio: 3, MeanGap: 9000, DeadlineLo: 90000, DeadlineHi: 180000, LenScale: 1.5},
	}
	return p
}

// Suite returns the seven paper benchmarks in figure order.
func Suite() []Profile {
	return []Profile{Amazon(), Bing(), CNN(), Facebook(), GMaps(), GDocs(), Pixlr()}
}

// MobileSuite returns the timed mobile-web profiles. They are kept out
// of Suite so the paper's figures and the default sweep grid are
// unchanged; espd and espsim accept them by name.
func MobileSuite() []Profile {
	return []Profile{MobileWeb(), MobileHeavy()}
}

// ByName returns the named profile, or an error listing valid names.
func ByName(name string) (Profile, error) {
	all := append(Suite(), MobileSuite()...)
	for _, p := range all {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, 0, len(all))
	for _, p := range all {
		names = append(names, p.Name)
	}
	return Profile{}, fmt.Errorf("workload: unknown application %q (valid: %v)", name, names)
}
