// Package promtext parses the Prometheus text exposition format (version
// 0.0.4) strictly enough to pin what the ops plane serves: each family's
// samples form one contiguous group opened by its "# TYPE" line, no
// family appears twice, and every sample parses.
package promtext

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Sample is one exposed value with its labels.
type Sample struct {
	Labels map[string]string
	Value  float64
}

// Family is one metric family: its name, its declared type and its
// samples in exposition order.
type Family struct {
	Name    string
	Type    string
	Samples []Sample
}

// Parse reads an exposition and returns its families in order. It
// rejects a sample outside its family's group (an interleaved or
// untyped family), a repeated family and any line it cannot parse.
func Parse(text string) ([]Family, error) {
	var fams []Family
	done := map[string]bool{}
	for n, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			f := strings.Fields(rest)
			if len(f) == 0 || f[0] != "TYPE" {
				continue // HELP and free comments
			}
			if len(f) != 3 {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", n+1, line)
			}
			if done[f[1]] {
				return nil, fmt.Errorf("line %d: family %s declared twice", n+1, f[1])
			}
			done[f[1]] = true
			fams = append(fams, Family{Name: f[1], Type: f[2]})
			continue
		}
		name, s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", n+1, err)
		}
		if len(fams) == 0 || fams[len(fams)-1].Name != name {
			return nil, fmt.Errorf("line %d: sample of %s outside its TYPE group", n+1, name)
		}
		fams[len(fams)-1].Samples = append(fams[len(fams)-1].Samples, s)
	}
	return fams, nil
}

func parseSample(line string) (string, Sample, error) {
	s := Sample{Labels: map[string]string{}}
	head, val, ok := strings.Cut(line, " ")
	if !ok {
		return "", s, fmt.Errorf("sample %q has no value", line)
	}
	if head == "" {
		return "", s, fmt.Errorf("sample %q has no name", line)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return "", s, fmt.Errorf("sample %q: %w", line, err)
	}
	s.Value = v
	name, labels, hasLabels := strings.Cut(head, "{")
	if !hasLabels {
		return name, s, nil
	}
	labels, ok = strings.CutSuffix(labels, "}")
	if !ok {
		return "", s, fmt.Errorf("sample %q: unterminated labels", line)
	}
	for _, kv := range strings.Split(labels, ",") {
		k, q, ok := strings.Cut(kv, "=")
		uq, err := strconv.Unquote(q)
		if !ok || k == "" || err != nil {
			return "", s, fmt.Errorf("sample %q: malformed label %q", line, kv)
		}
		s.Labels[k] = uq
	}
	return name, s, nil
}

// Shape lists each family as "name type key1,key2", with the sorted
// union of its samples' label names ("-" for none), sorted: the
// structure an exposition golden pins.
func Shape(fams []Family) []string {
	out := make([]string, 0, len(fams))
	for _, f := range fams {
		seen := map[string]bool{}
		var keys []string
		for _, s := range f.Samples {
			for k := range s.Labels {
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
		sort.Strings(keys)
		if len(keys) == 0 {
			keys = []string{"-"}
		}
		out = append(out, f.Name+" "+f.Type+" "+strings.Join(keys, ","))
	}
	sort.Strings(out)
	return out
}

// CheckSums verifies that wherever a family perPrefix+X and a family
// totalPrefix+X both exist, the samples of the first add up to the
// single sample of the second.
func CheckSums(fams []Family, perPrefix, totalPrefix string) error {
	byName := make(map[string]Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, f := range fams {
		suffix, ok := strings.CutPrefix(f.Name, perPrefix)
		if !ok {
			continue
		}
		total, ok := byName[totalPrefix+suffix]
		if !ok {
			continue
		}
		if len(total.Samples) != 1 {
			return fmt.Errorf("%s has %d samples, want 1", total.Name, len(total.Samples))
		}
		var sum float64
		for _, s := range f.Samples {
			sum += s.Value
		}
		if sum != total.Samples[0].Value {
			return fmt.Errorf("%s sums to %v, but %s is %v", f.Name, sum, total.Name, total.Samples[0].Value)
		}
	}
	return nil
}
