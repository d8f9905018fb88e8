// Command espbench regenerates the paper's evaluation: every figure's
// table plus the headline (abstract) metrics. Its output is the payload
// recorded in EXPERIMENTS.md.
//
// Usage:
//
//	espbench [-fig all|headline|ablations|seeds|related|eventlen|3|6|8|9|10|11a|11b|12|13|14] [-scale 1] [-par 4]
//
// With -fig all the figures run concurrently through the fault-tolerant
// sweep runner: a figure that fails is reported and skipped, the rest
// are still emitted, and espbench exits non-zero if anything degraded.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"espsim"
	"espsim/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is espbench with its arguments and output streams passed in, so
// a test can check its output; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("espbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig   = fs.String("fig", "all", "which figure to regenerate (all, headline, ablations, seeds, related, eventlen, 3, 6, 8, 9, 10, 11a, 11b, 12, 13, 14)")
		scale = fs.Float64("scale", 1, "event-count scale factor")
		app   = fs.String("app", "amazon", "application for -fig ablations")
		csv   = fs.Bool("csv", false, "emit tables as CSV (for plotting)")
		par   = fs.Int("par", 4, "figure-level parallelism for -fig all")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "espbench:", err)
		return 1
	}
	printFigure := func(f esp.Figure) {
		if *csv {
			fmt.Fprint(stdout, f.Table.CSV())
			fmt.Fprintln(stdout)
		} else {
			fmt.Fprintln(stdout, f.Table)
			if f.PaperNote != "" {
				fmt.Fprintf(stdout, "  %s\n", f.PaperNote)
			}
			fmt.Fprintln(stdout)
		}
		for _, key := range f.CellErrorKeys() {
			fmt.Fprintf(stderr, "espbench: %s: cell %s failed: %v\n", f.ID, key, f.CellErrors[key])
		}
	}

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
			return fail(err)
		}
		fmt.Fprintln(stdout, head)
		fmt.Fprintln(stdout, "engine:", sweep.Perf)
		if !sweep.OK() {
			fmt.Fprintln(stderr, "espbench: sweep degraded:")
			fmt.Fprintln(stderr, sweep.Summary())
			return 1
		}
	case "headline":
		head, err := h.Headline()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, head)
	case "seeds":
		prof, err := workload.ByName(*app)
		if err != nil {
			return fail(err)
		}
		t, err := h.SeedStudy(prof, 5)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, t)
	case "ablations":
		prof, err := workload.ByName(*app)
		if err != nil {
			return fail(err)
		}
		abls, err := h.AllAblations(prof)
		if err != nil {
			return fail(err)
		}
		for _, a := range abls {
			fmt.Fprintln(stdout, a.Table)
			fmt.Fprintln(stdout)
		}
	default:
		nf, ok := standardFigure(*fig)
		if !ok {
			fmt.Fprintf(stderr, "espbench: unknown figure %q\n", *fig)
			return 2
		}
		f, err := nf.Gen(h)
		if err != nil {
			return fail(err)
		}
		printFigure(f)
	}
	return 0
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
