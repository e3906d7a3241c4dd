package promtext

import (
	"slices"
	"strings"
	"testing"
)

// TestParseRejectsMalformed: the checks the exposition goldens rely on
// do fire — an interleaved family, an untyped sample, a repeated family
// and an unparsable value are all errors, and a well-formed exposition
// parses to its shape.
func TestParseRejectsMalformed(t *testing.T) {
	good := "# TYPE a_total counter\na_total{exec=\"0\"} 1\na_total{exec=\"1\"} 2\n# TYPE b gauge\nb 3\n"
	fams, err := Parse(good)
	if err != nil {
		t.Fatalf("well-formed exposition: %v", err)
	}
	if got, want := Shape(fams), []string{"a_total counter exec", "b gauge -"}; !slices.Equal(got, want) {
		t.Errorf("Shape = %q, want %q", got, want)
	}
	if err := CheckSums(fams, "a_", "b_"); err != nil {
		t.Errorf("CheckSums with no paired families: %v", err)
	}
	for name, text := range map[string]string{
		"interleaved": "# TYPE a gauge\n# TYPE b gauge\na 1\nb 2\n",
		"untyped":     "a 1\n",
		"repeated":    "# TYPE a gauge\na 1\n# TYPE a gauge\na 2\n",
		"value":       "# TYPE a gauge\na one\n",
		"label":       "# TYPE a gauge\na{exec=0} 1\n",
	} {
		if _, err := Parse(text); err == nil {
			t.Errorf("%s: Parse accepted %q", name, strings.TrimSpace(text))
		}
	}
}

// TestCheckSums: per-series rows must add up to the matching total.
func TestCheckSums(t *testing.T) {
	fams, err := Parse("# TYPE x_n counter\nx_n{exec=\"0\"} 1\nx_n{exec=\"1\"} 2\n# TYPE n counter\nn 4\n")
	if err != nil {
		t.Fatal(err)
	}
	if CheckSums(fams, "x_", "") == nil {
		t.Error("CheckSums accepted rows summing to 3 against a total of 4")
	}
}
