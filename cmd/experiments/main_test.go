package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseRuns(t *testing.T) {
	for _, bad := range []string{"partquality", "fig99", "table1,fig99", ""} {
		if _, err := parseRuns(bad); err == nil || !strings.Contains(err.Error(), "unknown -run") {
			t.Errorf("parseRuns(%q): err = %v, want an unknown -run error", bad, err)
		}
	}
	for in, want := range map[string]map[string]bool{
		"all":          {"all": true},
		"table1, fig8": {"table1": true, "fig8": true},
	} {
		got, err := parseRuns(in)
		if err != nil {
			t.Fatalf("parseRuns(%q): %v", in, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parseRuns(%q) = %v, want %v", in, got, want)
		}
	}
}
