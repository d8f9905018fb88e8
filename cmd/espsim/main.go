// Command espsim simulates one application workload under one machine
// configuration and prints detailed statistics.
//
// Usage:
//
//	espsim -app amazon -config ESP+NL [-sched edf] [-scale 1] [-events 0] [-v]
//
// -config takes any preset espd serves (esp.ConfigNames: base, NL+S,
// ESP+NL, Runahead+NL, IdleCore, ...), optionally with an "@policy"
// scheduling suffix ("ESP+NL@edf"); -sched is the same suffix as a flag.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"espsim"
	"espsim/internal/eventq"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

// replayTrace runs a recorded ESPT trace through the simulator. The
// decode limits bound what an untrusted or corrupted trace file can
// make the decoder allocate.
func replayTrace(path string, cfg esp.Config, lim trace.Limits) (esp.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return esp.Result{}, err
	}
	defer f.Close()
	events, err := trace.ReadFileLimits(f, lim)
	if err != nil {
		return esp.Result{}, fmt.Errorf("reading trace %s: %w", path, err)
	}
	return esp.RunSource(path, &eventq.TraceSource{Events: events}, cfg)
}

func main() {
	var (
		app       = flag.String("app", "amazon", "application workload (amazon, bing, cnn, facebook, gmaps, gdocs, pixlr, mobileweb, mobileheavy)")
		cfgName   = flag.String("config", "ESP+NL", "machine configuration name")
		sched     = flag.String("sched", "", "event scheduling policy: fifo, prio, edf, slack (default fifo)")
		scale     = flag.Float64("scale", 1, "event-count scale factor")
		events    = flag.Int("events", 0, "max events to simulate (0 = all)")
		tracePath = flag.String("trace", "", "replay an ESPT trace file (from cmd/tracegen) instead of a synthetic session")
		traceMB   = flag.Int64("trace-max-mb", 0, "cap on trace file size in MiB (0 = default 1 GiB)")
		verbose   = flag.Bool("v", false, "print component-level statistics")
	)
	flag.Parse()

	name := *cfgName
	if *sched != "" {
		if strings.Contains(name, "@") {
			fmt.Fprintf(os.Stderr, "espsim: -config %q already names a scheduler; drop -sched\n", name)
			os.Exit(2)
		}
		name += "@" + *sched
	}
	cfg, err := esp.ConfigByName(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "espsim: %v\n", err)
		os.Exit(2)
	}
	cfg.MaxEvents = *events

	var r esp.Result
	if *tracePath != "" {
		lim := trace.DefaultLimits()
		if *traceMB > 0 {
			lim.MaxTraceBytes = *traceMB << 20
		}
		r, err = replayTrace(*tracePath, cfg, lim)
	} else {
		var prof workload.Profile
		prof, err = workload.ByName(*app)
		if err == nil {
			prof = prof.Scale(*scale)
			r, err = esp.Run(prof, cfg)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("app=%s config=%s\n", r.App, r.Config)
	fmt.Printf("  insts            %12d\n", r.Insts)
	fmt.Printf("  cycles           %12d\n", r.Cycles)
	fmt.Printf("  IPC              %12.3f\n", r.IPC)
	fmt.Printf("  L1-I MPKI        %12.2f\n", r.IMPKI)
	fmt.Printf("  L1-D miss rate   %11.2f%%\n", r.DMissRate*100)
	fmt.Printf("  mispredict rate  %11.2f%%\n", r.MispredictRate*100)
	fmt.Printf("  extra insts      %11.2f%%\n", r.ExtraInstPct)
	if s := r.Sched; s != nil {
		fmt.Printf("\nscheduling (%s): %d events, %d deadlined, %d missed (%.1f%%), %d priority inversions\n",
			s.Policy, s.Events, s.Deadlined, s.DeadlineMisses, s.MissRate*100, s.PriorityInversions)
		for _, cl := range s.Classes {
			if cl.Class == "none" {
				continue
			}
			fmt.Printf("  %-8s %5d ev  p50 %9.0f  p95 %9.0f  p99 %9.0f  miss %d/%d\n",
				cl.Class, cl.Events, cl.P50, cl.P95, cl.P99, cl.Misses, cl.Deadlined)
		}
	}
	if *verbose {
		fmt.Printf("\ncycle breakdown:\n")
		fmt.Printf("  base     %12d\n", r.CPU.BaseCycles)
		fmt.Printf("  I-miss   %12d\n", r.CPU.IMissCycles)
		fmt.Printf("  D-miss   %12d\n", r.CPU.DMissCycles)
		fmt.Printf("  branch   %12d\n", r.CPU.BranchCycles)
		fmt.Printf("  assist   %12d\n", r.CPU.AssistPenalty)
		fmt.Printf("stalls: offered=%d used=%d cycles=%d  LLC I=%d D=%d\n",
			r.CPU.StallsOffered, r.CPU.StallsUsed, r.CPU.StallCycles,
			r.CPU.LLCMissI, r.CPU.LLCMissD)
		fmt.Printf("caches: L1I %d/%d  L1D %d/%d  L2 %d/%d (miss/acc)\n",
			r.L1I.Misses, r.L1I.Accesses, r.L1D.Misses, r.L1D.Accesses,
			r.L2.Misses, r.L2.Accesses)
		fmt.Printf("prefetch usefulness: L1I %d/%d  L1D %d/%d  L2 %d/%d (useful/installed)\n",
			r.L1I.PrefetchUseful, r.L1I.PrefetchInstalls,
			r.L1D.PrefetchUseful, r.L1D.PrefetchInstalls,
			r.L2.PrefetchUseful, r.L2.PrefetchInstalls)
		if r.ESPStats != nil {
			s := r.ESPStats
			fmt.Printf("esp: preexec=%d fills=%d llcFills=%d modes=%v\n",
				s.PreExecInsts, s.CacheletFills, s.LLCFills, s.ModeEntries)
			fmt.Printf("     prefI=%d prefD=%d corrections=%d listFull=%d late=%d\n",
				s.PrefetchI, s.PrefetchD, s.Corrections, s.ListFull, s.SkippedLate)
			fmt.Printf("     events pre-executed=%d consumed=%d mismatches=%d hazards=%d poisonings=%d\n",
				s.EventsPreExecuted, s.EventsConsumed, s.SlotMismatches, s.DirtyHazards, s.Poisonings)
		}
		if r.RAStats != nil {
			s := r.RAStats
			fmt.Printf("runahead: episodes=%d preexec=%d stoppedOnIMiss=%d\n",
				s.Episodes, s.PreExecInsts, s.StoppedOnIMiss)
		}
		fmt.Printf("energy: mispredict=%.3g static=%.3g dynamic=%.3g total=%.3g\n",
			r.Energy.Mispredict, r.Energy.Static, r.Energy.Dynamic, r.Energy.Total())
	}
}
