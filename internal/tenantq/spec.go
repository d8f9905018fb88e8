package tenantq

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseTenants turns repeated CLI tenant specs into a configuration
// map. Each spec is
//
//	name=weight[:cell_budget]
//
// where weight is the tenant's DRR share (finite, > 0) and the optional
// cell_budget caps its cumulative admitted cells over the process
// lifetime (> 0). espd and espcoord both speak this grammar, so a
// fleet and its workers can be configured from the same flags.
func ParseTenants(specs []string) (map[string]TenantConfig, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	out := make(map[string]TenantConfig, len(specs))
	for _, spec := range specs {
		name, rest, ok := strings.Cut(spec, "=")
		if !ok || name == "" || rest == "" {
			return nil, fmt.Errorf("tenant spec %q is not name=weight[:cell_budget]", spec)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("tenant %q configured twice", name)
		}
		weightStr, budgetStr, hasBudget := strings.Cut(rest, ":")
		weight, err := strconv.ParseFloat(weightStr, 64)
		if err != nil || math.IsNaN(weight) || math.IsInf(weight, 0) || weight <= 0 {
			return nil, fmt.Errorf("tenant %q: weight %q must be a finite number > 0", name, weightStr)
		}
		cfg := TenantConfig{Weight: weight}
		if hasBudget {
			budget, err := strconv.ParseInt(budgetStr, 10, 64)
			if err != nil || budget <= 0 {
				return nil, fmt.Errorf("tenant %q: cell budget %q must be an integer > 0", name, budgetStr)
			}
			cfg.CellBudget = budget
		}
		out[name] = cfg
	}
	return out, nil
}
