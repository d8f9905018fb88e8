// Package core implements Event Sneak Peek (ESP), the paper's
// contribution: a hardware event queue exposed to the core, speculative
// pre-execution of queued future events during LLC-miss stall windows,
// isolated L0 cachelets for the pre-executions, compressed hardware lists
// recording what the pre-executions fetched and mispredicted, and the
// normal-mode machinery that replays those lists as timely prefetches and
// just-in-time branch-predictor training (§3, §4).
package core

import (
	"fmt"
	"math"

	"espsim/internal/mem"
)

// BPMode selects how pre-execution interacts with the branch predictor —
// the design points of Figure 12.
type BPMode uint8

const (
	// BPShared: pre-execution predicts and trains through the normal
	// context's PIR and tables ("no extra H/W" in Figure 12).
	BPShared BPMode = iota
	// BPSeparatePIR: each ESP mode has its own Path Information
	// Register; tables are shared ("separate context"). This is the ESP
	// design (§4.3).
	BPSeparatePIR
	// BPReplicate: each ESP mode has a full private copy of the
	// predictor, warmed during pre-execution and installed when the
	// event executes normally ("separate context and tables").
	BPReplicate
)

// String names the mode.
func (m BPMode) String() string {
	switch m {
	case BPShared:
		return "shared"
	case BPSeparatePIR:
		return "separate-pir"
	case BPReplicate:
		return "replicated-tables"
	default:
		return "unknown"
	}
}

// Sizes are the capacities of ESP's hardware structures per mode
// (Figure 8). Index 0 is ESP-1, index 1 is ESP-2; jump-ahead depths
// beyond 2 (used only by the Figure 13 design-space study) reuse the
// ESP-2 sizes.
type Sizes struct {
	ICacheletBytes [2]int
	ICacheletWays  [2]int
	DCacheletBytes [2]int
	DCacheletWays  [2]int
	IListBytes     [2]int
	DListBytes     [2]int
	BListDirBytes  [2]int
	BListTgtBytes  [2]int
}

// DefaultSizes mirrors Figure 8: 5.5 KB / 0.5 KB cachelets (11 of 12 ways
// to ESP-1, the rotating reserved way to ESP-2), 499 B / 68 B I-lists,
// 510 B / 57 B D-lists, 566 B / 80 B B-List-Direction and 41 B / 6 B
// B-List-Target circular queues.
func DefaultSizes() Sizes {
	return Sizes{
		ICacheletBytes: [2]int{5632, 512},
		ICacheletWays:  [2]int{11, 1},
		DCacheletBytes: [2]int{5632, 512},
		DCacheletWays:  [2]int{11, 1},
		IListBytes:     [2]int{499, 68},
		DListBytes:     [2]int{510, 57},
		BListDirBytes:  [2]int{566, 80},
		BListTgtBytes:  [2]int{41, 6},
	}
}

func (s Sizes) mode(i int) int {
	if i <= 0 {
		return 0
	}
	return 1
}

// Validate checks every per-mode capacity: the cachelets must form legal
// cache geometries (each slot builds a pair per mode it occupies) and
// the list budgets must hold at least one record each.
func (s Sizes) Validate() error {
	modeName := [2]string{"ESP-1", "ESP-2"}
	// Spelled out, not concatenated, so a valid config validates without
	// allocating: the sim Runner validates every cell's config.
	cachelet := [2][2]string{{"ESP-1 I-cachelet", "ESP-1 D-cachelet"}, {"ESP-2 I-cachelet", "ESP-2 D-cachelet"}}
	for m := 0; m < 2; m++ {
		if err := mem.CheckGeometry(cachelet[m][0], s.ICacheletBytes[m], s.ICacheletWays[m]); err != nil {
			return fmt.Errorf("core: bad cachelet geometry: %w", err)
		}
		if err := mem.CheckGeometry(cachelet[m][1], s.DCacheletBytes[m], s.DCacheletWays[m]); err != nil {
			return fmt.Errorf("core: bad cachelet geometry: %w", err)
		}
		for _, b := range []struct {
			name  string
			bytes int
		}{
			{"IListBytes", s.IListBytes[m]},
			{"DListBytes", s.DListBytes[m]},
			{"BListDirBytes", s.BListDirBytes[m]},
			{"BListTgtBytes", s.BListTgtBytes[m]},
		} {
			if b.bytes < 1 {
				return fmt.Errorf("core: %s %s is %d bytes; every list needs capacity for at least one record", modeName[m], b.name, b.bytes)
			}
		}
	}
	return nil
}

// Options configures an ESP engine.
type Options struct {
	// UseI, UseD and UseB enable consumption of the I-list (instruction
	// prefetch), D-list (data prefetch) and B-lists (just-in-time branch
	// training). Recording always happens; these gate the benefit, which
	// is how Figure 10 isolates the sources of performance.
	UseI bool
	UseD bool
	UseB bool

	// Naive selects the hypothetical design of Figure 10 that has no
	// cachelets or lists: pre-execution fetches straight into L1/L2 and
	// trains the live predictor, like runahead would.
	Naive bool

	// BPMode selects the Figure 12 branch-predictor design point.
	BPMode BPMode

	// JumpDepth is the number of events ESP may jump ahead (the paper
	// settles on 2; the Figure 13 study sweeps up to 8).
	JumpDepth int

	// Ideal removes capacity limits: unbounded cachelets and lists with
	// perfectly timely prefetches ("ideal ESP" in Figure 11).
	Ideal bool

	// MeasureWorkingSets attaches the Figure 13 reuse profiler to every
	// pre-execution (slow; for the design-space study only).
	MeasureWorkingSets bool

	// Sizes are the structure capacities (Figure 8).
	Sizes Sizes

	// BaseCPI is the pre-execution pseudo-retirement rate;
	// SwitchPenalty the pipeline-drain cost of entering an ESP mode;
	// MispredictPenalty the pre-execution's own flush cost;
	// PrefetchLead the list-prefetch lookahead in instructions (§3.6);
	// PreEventWindow the looper-overhead head start (§3.6);
	// MinLead is the smallest useful prefetch lead in instructions.
	BaseCPI           float64
	SwitchPenalty     int
	MispredictPenalty int
	PrefetchLead      int
	PreEventWindow    int
	MinLead           int

	// DirtyHazardPeriod: every n-th dirty eviction from a D-cachelet
	// poisons the remainder of that pre-execution (§4.4: lost store
	// values can send pre-execution down a wrong path). 0 disables.
	DirtyHazardPeriod int

	// MinWindow is the smallest stall window worth jumping into: the
	// MSHR knows when the blocking fill returns, and entering an ESP
	// mode for less than the drain + flush costs only loses cycles
	// (overlapped misses expose very short windows).
	MinWindow int

	// IdleCore selects the §7 alternative the paper argues against:
	// pre-execution runs continuously on a second, otherwise-idle core
	// instead of inside the main core's stall windows. The helper has
	// its own L1-sized private caches (no cachelets needed), never
	// disturbs the main pipeline (no drain/flush costs), but pays
	// IdleTransfer cycles per event to ship live-ins over and the
	// gathered lists back — and it costs a whole core.
	IdleCore     bool
	IdleTransfer int
}

// IdleCoreOptions returns the §7 idle-core design point: ESP's recording
// and replay machinery driven by a dedicated helper core.
func IdleCoreOptions() Options {
	o := DefaultOptions()
	o.IdleCore = true
	o.IdleTransfer = 400
	// The helper core uses its own 32 KB L1-sized caches.
	o.Sizes.ICacheletBytes = [2]int{32 << 10, 32 << 10}
	o.Sizes.ICacheletWays = [2]int{8, 8}
	o.Sizes.DCacheletBytes = [2]int{32 << 10, 32 << 10}
	o.Sizes.DCacheletWays = [2]int{8, 8}
	return o
}

// DefaultOptions returns the full ESP design of the paper.
func DefaultOptions() Options {
	return Options{
		UseI:              true,
		UseD:              true,
		UseB:              true,
		BPMode:            BPSeparatePIR,
		JumpDepth:         2,
		Sizes:             DefaultSizes(),
		BaseCPI:           0.95,
		SwitchPenalty:     8,
		MispredictPenalty: 15,
		PrefetchLead:      190,
		PreEventWindow:    70,
		MinLead:           30,
		DirtyHazardPeriod: 4,
		MinWindow:         28,
	}
}

// Validate reports whether the options are coherent, including the
// cachelet geometry and list capacities of Sizes. New is the only
// constructor and calls it, so an ESP engine never exists with options
// that could later panic mid-simulation.
func (o *Options) Validate() error {
	switch {
	case o.JumpDepth < 1 || o.JumpDepth > 8:
		return fmt.Errorf("core: JumpDepth %d out of range [1,8]", o.JumpDepth)
	case !(o.BaseCPI > 0) || math.IsInf(o.BaseCPI, 1):
		return fmt.Errorf("core: BaseCPI must be positive and finite, got %g (start from DefaultOptions)", o.BaseCPI)
	case o.PrefetchLead < 0 || o.PreEventWindow < 0:
		return fmt.Errorf("core: prefetch windows must be non-negative, got lead=%d window=%d", o.PrefetchLead, o.PreEventWindow)
	case o.MinLead < 0:
		return fmt.Errorf("core: MinLead must be non-negative, got %d", o.MinLead)
	case o.SwitchPenalty < 0 || o.MispredictPenalty < 0:
		return fmt.Errorf("core: penalties must be non-negative, got switch=%d mispredict=%d", o.SwitchPenalty, o.MispredictPenalty)
	case o.MinWindow < 0:
		return fmt.Errorf("core: MinWindow must be non-negative, got %d", o.MinWindow)
	case o.DirtyHazardPeriod < 0:
		return fmt.Errorf("core: DirtyHazardPeriod must be non-negative, got %d", o.DirtyHazardPeriod)
	case o.BPMode > BPReplicate:
		return fmt.Errorf("core: unknown BPMode %d", o.BPMode)
	case o.IdleTransfer < 0:
		return fmt.Errorf("core: IdleTransfer must be non-negative, got %d", o.IdleTransfer)
	}
	if err := o.Sizes.Validate(); err != nil {
		return err
	}
	return nil
}

// BudgetRow is one line of the Figure 8 hardware-budget table.
type BudgetRow struct {
	Structure   string
	Description string
	ESP1Bytes   int
	ESP2Bytes   int
}

// HardwareBudget reproduces Figure 8: the storage ESP adds per mode.
func HardwareBudget(s Sizes) []BudgetRow {
	return []BudgetRow{
		{"L1-I Cachelet", "12-way total, 64B lines, 2-cycle hit", s.ICacheletBytes[0], s.ICacheletBytes[1]},
		{"L1-D Cachelet", "12-way total, 64B lines, 2-cycle hit", s.DCacheletBytes[0], s.DCacheletBytes[1]},
		{"I-List", "circular queue", s.IListBytes[0], s.IListBytes[1]},
		{"D-List", "circular queue", s.DListBytes[0], s.DListBytes[1]},
		{"B-List-Direction", "circular queue", s.BListDirBytes[0], s.BListDirBytes[1]},
		{"B-List-Target", "circular queue", s.BListTgtBytes[0], s.BListTgtBytes[1]},
		{"RRAT", "32-entry retirement RAT", 28, 28},
		{"HW Event Queue", "2-entry queue", 8, 8},
		{"Special Registers", "PC, SP, Flags, ESP-mode", 12, 12},
	}
}

// BudgetTotal sums a budget column: mode 0 for ESP-1, 1 for ESP-2.
func BudgetTotal(rows []BudgetRow, mode int) int {
	t := 0
	for _, r := range rows {
		if mode == 0 {
			t += r.ESP1Bytes
		} else {
			t += r.ESP2Bytes
		}
	}
	return t
}
