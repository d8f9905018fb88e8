package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPaperRecord is the executable paper record: it runs espbench as
// `go run ./cmd/espbench` does and requires its output, less the
// trailing engine: line, to equal EXPERIMENTS.md's "Figures (measured
// output)" block byte for byte. Every simulation is deterministic, so
// the record is exact, not banded. The engine: line reports reuse
// counters and wall times, which are not results.
//
// It takes about 12 s on a 2-vCPU host. `make race` skips it: under the
// race detector it took 138 s (11x), and the concurrency it drives
// (RunAll's figure workers sharing one Runner) is what the root
// package's golden parallel-sweep test already runs under -race. `go
// test ./...` and `make paper-check` (tier1 and CI) run it.
func TestPaperRecord(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	want, ok := figureBlock(string(doc))
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no fenced block under "## Figures (measured output)"`)
	}
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 0 || errOut.Len() > 0 {
		t.Fatalf("espbench exited %d; stderr:\n%s", code, errOut.String())
	}
	got := out.String()
	i := strings.LastIndex(strings.TrimSuffix(got, "\n"), "\n")
	if !strings.HasPrefix(got[i+1:], "engine: ") {
		t.Fatalf("espbench's last line %q is not its engine: summary", got[i+1:])
	}
	got = got[:i+1]
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for n := 0; n < max(len(gl), len(wl)); n++ {
		var g, w string
		if n < len(gl) {
			g = gl[n]
		}
		if n < len(wl) {
			w = wl[n]
		}
		if g != w {
			t.Fatalf("figure line %d differs from EXPERIMENTS.md (update the block only for an intentional model change):\ngot  %q\nwant %q", n+1, g, w)
		}
	}
}

// figureBlock returns the body of the first fenced code block after the
// "## Figures (measured output)" heading.
func figureBlock(doc string) (string, bool) {
	_, rest, ok := strings.Cut(doc, "\n## Figures (measured output)\n")
	if !ok {
		return "", false
	}
	_, rest, ok = strings.Cut(rest, "```\n")
	if !ok {
		return "", false
	}
	body, _, ok := strings.Cut(rest, "```")
	return body, ok
}
