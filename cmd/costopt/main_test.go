package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestPlansPrinted pins the plan lines README, EXPERIMENTS.md and the
// verify skill quote, as the CLI prints them.
func TestPlansPrinted(t *testing.T) {
	for _, c := range []struct {
		args string
		want []string
	}{
		{"", []string{"best plan: 9xspot ($0.900/h, S&L 99.97%)"}},
		{"-mixed", []string{"best plan: 9xspot ($0.900/h, S&L 99.97%)"}},
		{"-carbon -mixed -target 3", []string{"best plan: 5xrefurb ($1.250/h, S&L 99.94%)"}},
		{"-target 3.5 -budget 1.0", []string{
			"best plan: 9xspot ($0.900/h, S&L 99.97%)",
			"  base      3.504 nines",
			"  uniform   4.311 nines (even split)",
			"  optimized 4.311 nines (+0.000 over uniform;",
		}},
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(c.args), &out); err != nil {
			t.Fatalf("costopt %s: %v", c.args, err)
		}
		for _, line := range c.want {
			if !strings.Contains(out.String(), line) {
				t.Errorf("costopt %s: no line %q in:\n%s", c.args, line, out.String())
			}
		}
	}
}

// TestRefusedCommandLines: bad input comes back as an error, with no
// report written, instead of exiting mid-function.
func TestRefusedCommandLines(t *testing.T) {
	for args, want := range map[string]string{
		"-fw":         "flag provided but not defined: -fw", // removed in PR 20
		"-max 0":      "cluster size",
		"-target 12":  "no single-tier fleet",
		"-tiers /nil": "/nil",
	} {
		var out bytes.Buffer
		err := run(strings.Fields(args), &out)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("costopt %s: error %v, want one naming %q", args, err, want)
		}
		if strings.Contains(out.String(), "best plan") {
			t.Errorf("costopt %s: printed a plan:\n%s", args, out.String())
		}
	}
}
