package workloads

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"
)

// TestPlanSpecCarriesConfig: a multiproc plan ships Config whole. With
// every field set to a non-zero value, the plan's JSON round trip returns
// exactly the input minus the driver-only fields tagged `json:"-"`, which
// arrive zero. Fields are enumerated by reflection, so a new knob is
// covered (and reaches the executors) without editing this test.
func TestPlanSpecCarriesConfig(t *testing.T) {
	driverOnly := []string{"TransportKind", "Chaos", "Deploy", "ExecutorCmd", "Follower", "OpsAddr", "TraceOut"}

	var in, want Config
	v, w := reflect.ValueOf(&in).Elem(), reflect.ValueOf(&want).Elem()
	var tagged []string
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		setNonZero(t, f.Name, v.Field(i))
		if f.Tag.Get("json") == "-" {
			tagged = append(tagged, f.Name)
			continue
		}
		w.Field(i).Set(v.Field(i))
	}
	if !slices.Equal(tagged, driverOnly) {
		t.Errorf("driver-only (json:\"-\") fields = %v, want %v", tagged, driverOnly)
	}

	raw, err := json.Marshal(PlanSpec{Workload: "wc", Config: in})
	if err != nil {
		t.Fatal(err)
	}
	var out PlanSpec
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Config, want) {
		t.Errorf("plan round trip:\n got %+v\nwant %+v", out.Config, want)
	}
}

// setNonZero gives f a non-zero value of its kind.
func setNonZero(t *testing.T, name string, f reflect.Value) {
	t.Helper()
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(7)
	case reflect.Float32, reflect.Float64:
		f.SetFloat(0.25)
	case reflect.String:
		f.SetString(name)
	case reflect.Slice:
		f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		setNonZero(t, name, f.Index(0))
	case reflect.Pointer:
		f.Set(reflect.New(f.Type().Elem()))
	default:
		t.Fatalf("Config.%s: no non-zero value for kind %v; extend setNonZero", name, f.Kind())
	}
}
