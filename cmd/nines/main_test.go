package main

import (
	"bytes"
	"strings"
	"testing"
)

// runLines runs the command in-process and returns its output as
// whitespace-split lines.
func runLines(t *testing.T, args ...string) [][]string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("nines %v: %v", args, err)
	}
	var lines [][]string
	for _, l := range strings.Split(out.String(), "\n") {
		lines = append(lines, strings.Fields(l))
	}
	return lines
}

// row returns the cells after the given leading cells of the first line
// that starts with them.
func row(t *testing.T, lines [][]string, lead ...string) []string {
	t.Helper()
next:
	for _, l := range lines {
		if len(l) < len(lead) {
			continue
		}
		for i, c := range lead {
			if l[i] != c {
				continue next
			}
		}
		return l[len(lead):]
	}
	t.Fatalf("no output line starts with %v", lead)
	return nil
}

// TestTablesPrintPaperCells pins the paper cells EXPERIMENTS.md and the
// verify skill quote, as the CLI prints them.
func TestTablesPrintPaperCells(t *testing.T) {
	lines := runLines(t, "-tables")
	// Table 1 rows lead with N and the four quorum sizes; the last cell is
	// Safe&Live.
	for lead, want := range map[string]string{
		"4 3 3 3 2": "99.94%",
		"5 4 4 4 2": "99.90%",
		"7 5 5 5 3": "99.997%",
		"8 6 6 6 3": "99.995%",
	} {
		cells := row(t, lines, strings.Fields(lead)...)
		if got := cells[len(cells)-1]; got != want {
			t.Errorf("Table 1 row %s: safe&live %s, want %s", lead, got, want)
		}
	}
	// Table 2 row N=3 (|Qper| = |Qvc| = 2) at p = 1, 2, 4, 8 %.
	got := strings.Join(row(t, lines, "3", "2", "2"), " ")
	if want := "99.97% 99.88% 99.53% 98.18%"; got != want {
		t.Errorf("Table 2 row N=3: %s, want %s", got, want)
	}
}

// TestDomainsQuery runs a correlated-zones query: the independent line is
// Table 2's N=9 cell, a zero shock reproduces it, and a real shock costs
// nines.
func TestDomainsQuery(t *testing.T) {
	nines := func(lines [][]string, which int) string {
		t.Helper()
		seen := 0
		for _, l := range lines {
			if len(l) == 3 && l[1] == "nines" {
				if seen == which {
					return l[0]
				}
				seen++
			}
		}
		t.Fatalf("output has no nines line %d", which)
		return ""
	}
	base := []string{"-protocol", "raft", "-n", "9", "-p", "0.01", "-zones", "3", "-shock-crash-mult", "100"}
	calm := runLines(t, append(base, "-shock", "0")...)
	if cell := row(t, calm, "independent:"); cell[len(cell)-1] != "99.999999%" {
		t.Errorf("independent safe&live %s, want Table 2's 99.999999%%", cell[len(cell)-1])
	}
	if ind, dom := nines(calm, 0), nines(calm, 1); ind != "7.91" || dom != ind {
		t.Errorf("zero shock: %s nines independent, %s with zones; want 7.91 twice", ind, dom)
	}
	shocked := runLines(t, append(base, "-shock", "1e-4")...)
	if got := nines(shocked, 1); got != "6.32" {
		t.Errorf("shock 1e-4 ×100: %s nines, want 6.32", got)
	}
}
