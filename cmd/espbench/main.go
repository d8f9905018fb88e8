// Command espbench regenerates the paper's evaluation: every figure's
// table plus the headline (abstract) metrics. Its output is the payload
// recorded in EXPERIMENTS.md.
//
// Usage:
//
//	espbench [-fig all|headline|ablations|seeds|related|3|6|8|9|10|11a|11b|12|13|14] [-scale 1] [-par 4]
//
// With -fig all the figures run concurrently through the fault-tolerant
// sweep runner: a figure that fails is reported and skipped, the rest
// are still emitted, and espbench exits non-zero if anything degraded.
package main

import (
	"flag"
	"fmt"
	"os"

	"espsim"
	"espsim/internal/workload"
)

func main() {
	var (
		fig   = flag.String("fig", "all", "which figure to regenerate (all, headline, ablations, seeds, related, 3, 6, 8, 9, 10, 11a, 11b, 12, 13, 14)")
		scale = flag.Float64("scale", 1, "event-count scale factor")
		app   = flag.String("app", "amazon", "application for -fig ablations")
		csv   = flag.Bool("csv", false, "emit tables as CSV (for plotting)")
		par   = flag.Int("par", 4, "figure-level parallelism for -fig all")
	)
	flag.Parse()

	csvOut = *csv
	h := esp.NewHarness()
	h.Scale = *scale

	switch *fig {
	case "all":
		sweep := h.RunAll(*par)
		for _, f := range sweep.Figures {
			printFigure(f)
		}
		head, err := h.Headline()
		if err != nil {
			fail(err)
		}
		fmt.Println(head)
		fmt.Println("engine:", sweep.Perf)
		if !sweep.OK() {
			fmt.Fprintln(os.Stderr, "espbench: sweep degraded:")
			fmt.Fprintln(os.Stderr, sweep.Summary())
			os.Exit(1)
		}
	case "headline":
		head, err := h.Headline()
		if err != nil {
			fail(err)
		}
		fmt.Println(head)
	case "seeds":
		prof, err := workload.ByName(*app)
		if err != nil {
			fail(err)
		}
		t, err := h.SeedStudy(prof, 5)
		if err != nil {
			fail(err)
		}
		fmt.Println(t)
	case "ablations":
		prof, err := workload.ByName(*app)
		if err != nil {
			fail(err)
		}
		abls, err := h.AllAblations(prof)
		if err != nil {
			fail(err)
		}
		for _, a := range abls {
			fmt.Println(a.Table)
			fmt.Println()
		}
	default:
		nf, ok := standardFigure(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "espbench: unknown figure %q\n", *fig)
			os.Exit(2)
		}
		f, err := nf.Gen(h)
		if err != nil {
			fail(err)
		}
		printFigure(f)
	}
}

// standardFigure finds the figure -fig names: "9" or "fig9" is the
// paper's Figure 9, "related" the related-work comparison.
func standardFigure(name string) (esp.NamedFigure, bool) {
	for _, nf := range esp.StandardFigures() {
		if nf.ID == name || nf.ID == "fig"+name {
			return nf, true
		}
	}
	return esp.NamedFigure{}, false
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "espbench:", err)
	os.Exit(1)
}

func printFigure(f esp.Figure) {
	if csvOut {
		fmt.Print(f.Table.CSV())
		fmt.Println()
	} else {
		fmt.Println(f.Table)
		if f.PaperNote != "" {
			fmt.Printf("  %s\n", f.PaperNote)
		}
		fmt.Println()
	}
	for _, key := range f.CellErrorKeys() {
		fmt.Fprintf(os.Stderr, "espbench: %s: cell %s failed: %v\n", f.ID, key, f.CellErrors[key])
	}
}

// csvOut switches printFigure to CSV rendering.
var csvOut bool
