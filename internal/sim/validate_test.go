package sim_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"espsim/internal/workload"
)

// TestValidateRejectsNonFinite: every float field of every preset
// profile, nested ones included, is checked as finite. (The model's
// other floats are package constants.) Set to NaN, +Inf or -Inf, it
// fails Validate. A NaN field that passed would make its value unequal
// to itself: no workload cache could hit the profile.
func TestValidateRejectsNonFinite(t *testing.T) {
	type target struct {
		name     string
		value    any // a pointer to a valid value
		validate func() error
	}
	var targets []target
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
