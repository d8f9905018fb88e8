package tenantq

import "testing"

func TestParseTenants(t *testing.T) {
	got, err := ParseTenants([]string{"team-a=2", "team-b=0.5:10000"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d tenants, want 2", len(got))
	}
	if cfg := got["team-a"]; cfg.Weight != 2 || cfg.CellBudget != 0 {
		t.Errorf("team-a parsed as %+v, want weight 2 and no budget", cfg)
	}
	if cfg := got["team-b"]; cfg.Weight != 0.5 || cfg.CellBudget != 10000 {
		t.Errorf("team-b parsed as %+v, want weight 0.5 budget 10000", cfg)
	}

	if got, err := ParseTenants(nil); got != nil || err != nil {
		t.Errorf("empty specs: got %v, %v; want nil, nil", got, err)
	}

	for _, bad := range []string{
		"noequals", "=2", "a=", "a=zero", "a=-1", "a=0",
		"a=NaN", "a=Inf", "a=+Inf", "a=infinity",
		"a=1:", "a=1:x", "a=1:-5", "a=1:0",
	} {
		if _, err := ParseTenants([]string{bad}); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
	if _, err := ParseTenants([]string{"a=1", "a=2"}); err == nil {
		t.Error("duplicate tenant name parsed without error")
	}
}
