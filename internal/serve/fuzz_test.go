package serve

import (
	"encoding/json"
	"testing"
	"time"

	esp "espsim"
	"espsim/internal/trace"
)

// fuzzTraceLimits keeps inline-trace decoding cheap enough for the fuzz
// engine while still exercising the full decode path.
func fuzzTraceLimits() trace.Limits {
	return trace.Limits{MaxTraceBytes: 1 << 16, MaxEvents: 1 << 8, MaxInsts: 1 << 12}
}

// FuzzRunRequest feeds arbitrary bytes to the POST /run decoder. The
// properties: it never panics; everything it accepts re-validates,
// re-marshals, and re-parses to the same request (so a request that
// survives the decoder is canonical); its timeout resolves to a
// duration in (0, 24h]; and an accepted inline trace can be handed to
// the trace decoder without panicking, whatever it holds.
func FuzzRunRequest(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"app":"amazon","config":"base"}`))
	f.Add([]byte(`{"app":"gmaps","config":"ESP+NL","scale":0.5,"max_events":32,"max_pending":4,"timeout_ms":1000}`))
	f.Add([]byte(`{"trace_b64":"RVNQVAEA","config":"NL+S"}`)) // "ESPT\x01\x00": empty trace
	f.Add([]byte(`{"trace_b64":"!!!","config":"base"}`))
	f.Add([]byte(`{"app":"amazon","config":"base","warp":9}`))
	f.Add([]byte(`{"app":"amazon","config":"base"} trailing`))
	f.Add([]byte(`{"app":"amazon","trace_b64":"aGk=","config":"base"}`))
	f.Add([]byte(`{"app":"amazon","config":"base","scale":-1}`))
	f.Add([]byte(`{"configs":["base"],"apps":["amazon"]}`))
	f.Add([]byte(`{"app":"mobileweb","config":"base","sched":"edf"}`))
	f.Add([]byte(`{"app":"mobileweb","config":"base@edf","sched":"prio"}`))
	f.Add([]byte(`{"app":"amazon","config":"base","sched":"bogus"}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`"just a string"`))
	f.Add([]byte(`{"app":"amazon","config":"base","tenant":"team-a","deadline_ms":500}`))
	f.Add([]byte(`{"app":"amazon","config":"base","tenant":"no/slashes"}`))
	f.Add([]byte(`{"app":"amazon","config":"base","deadline_ms":-1}`))
	f.Add([]byte(`{"configs":["base"],"tenant":"t.1","deadline_ms":9223372036854775807}`))
	f.Add([]byte(`{"app":"amazon","config":"base","timeout_ms":10000000000000}`)) // wraps negative as a Duration

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRunRequest(data)
		// The sweep decoder shares the strict-decode machinery; it gets
		// the same never-panic shake for free.
		_, _ = ParseSweepRequest(data)
		if err != nil {
			return
		}
		if err := req.validate(); err != nil {
			t.Fatalf("accepted request fails re-validation: %v", err)
		}
		encoded, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-marshal: %v", err)
		}
		again, err := ParseRunRequest(encoded)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, encoded)
		}
		if again != req {
			t.Fatalf("request not canonical: %+v -> %+v", req, again)
		}
		if d := timeoutOf(req.TimeoutMs); d <= 0 || d > 24*time.Hour {
			t.Fatalf("accepted timeout_ms %d resolves to %v, want (0, 24h]", req.TimeoutMs, d)
		}
		if req.TraceB64 != "" {
			// Inline traces are only syntax-checked at materialization time
			// (under the server's limits): bad base64 or a malformed trace
			// must come back as an error, never a panic. The trace fuzzers
			// own the deeper decode properties.
			policy, _ := esp.SchedByName(req.Sched)
			w, err := traceWorkload(req.TraceB64, req.MaxEvents, policy, fuzzTraceLimits())
			if (w == nil) == (err == nil) {
				t.Fatalf("traceWorkload returned workload=%v err=%v", w != nil, err)
			}
		}
	})
}
