package sim_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"espsim/internal/core"
	"espsim/internal/cpu"
	"espsim/internal/runahead"
	"espsim/internal/workload"
)

// TestValidateRejectsNonFinite: every float field of the model configs
// and of every preset profile, nested ones included, is checked as
// finite. Set to NaN, +Inf or -Inf, it fails Validate. A NaN field that
// passed would make its value unequal to itself: a machine would build
// a new assist engine for every cell, and no workload cache could hit
// the profile.
func TestValidateRejectsNonFinite(t *testing.T) {
	type target struct {
		name     string
		value    any // a pointer to a valid value
		validate func() error
	}
	cpuCfg, raCfg, opt := cpu.DefaultConfig(), runahead.DefaultConfig(), core.DefaultOptions()
	targets := []target{
		{"cpu.Config", &cpuCfg, func() error { return cpuCfg.Validate() }},
		{"runahead.Config", &raCfg, func() error { return raCfg.Validate() }},
		{"core.Options", &opt, func() error { return opt.Validate() }},
	}
	for _, p := range append(workload.Suite(), workload.MobileSuite()...) {
		targets = append(targets, target{"workload.Profile " + p.Name, &p, func() error { return p.Validate() }})
	}
	for _, tg := range targets {
		if err := tg.validate(); err != nil {
			t.Fatalf("%s: the valid value fails Validate: %v", tg.name, err)
		}
		n := 0
		floatFields(t, reflect.ValueOf(tg.value).Elem(), tg.name, func(path string, f reflect.Value) {
			n++
			old := f.Float()
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				f.SetFloat(bad)
				if tg.validate() == nil {
					t.Errorf("%s = %g passes Validate", path, bad)
				}
			}
			f.SetFloat(old)
		})
		if n == 0 {
			t.Errorf("%s: no float fields found", tg.name)
		}
	}
}

// floatFields calls visit for every float field reachable from v
// through struct fields and array elements.
func floatFields(t *testing.T, v reflect.Value, path string, visit func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if !v.CanSet() {
			t.Fatalf("%s is not settable", path)
		}
		visit(path, v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			floatFields(t, v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			floatFields(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	}
}
