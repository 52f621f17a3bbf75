package core

import (
	"repro/internal/dist"
)

// This file regenerates the paper's evaluation tables from the analysis
// engine. The benches in bench_test.go print these rows; the tests pin them
// to the exact digits the paper reports.

// Table1Row is one row of Table 1: PBFT reliability at uniform p_u = 1%.
type Table1Row struct {
	Model       PBFT
	PU          float64
	Safe        float64
	Live        float64
	SafeAndLive float64
}

// Table1Configs lists the PBFT deployments of Table 1 in paper order.
func Table1Configs() []PBFT {
	return []PBFT{
		{NNodes: 4, QEq: 3, QPer: 3, QVC: 3, QVCT: 2},
		{NNodes: 5, QEq: 4, QPer: 4, QVC: 4, QVCT: 2},
		{NNodes: 7, QEq: 5, QPer: 5, QVC: 5, QVCT: 3},
		{NNodes: 8, QEq: 6, QPer: 6, QVC: 6, QVCT: 3},
	}
}

// Table1 computes every Table 1 row at the paper's uniform p_u = 1%.
func Table1() []Table1Row {
	return Table1At(0.01)
}

// Table1At computes the Table 1 deployments at an arbitrary uniform
// Byzantine probability.
func Table1At(pu float64) []Table1Row {
	configs := Table1Configs()
	rows := make([]Table1Row, 0, len(configs))
	for _, m := range configs {
		res := MustAnalyze(UniformByzFleet(m.NNodes, pu), m)
		rows = append(rows, Table1Row{
			Model: m, PU: pu,
			Safe: res.Safe, Live: res.Live, SafeAndLive: res.SafeAndLive,
		})
	}
	return rows
}

// Table2Row is one row of Table 2: Raft reliability for uniform crash
// probability p_u, with the safe-and-live probability at each of the
// paper's four p_u columns.
type Table2Row struct {
	Model       Raft
	PU          []float64
	SafeAndLive []float64
}

// Table2PUs is the paper's set of uniform failure probabilities.
func Table2PUs() []float64 { return []float64{0.01, 0.02, 0.04, 0.08} }

// Table2Sizes is the paper's set of cluster sizes.
func Table2Sizes() []int { return []int{3, 5, 7, 9} }

// Table2 computes every Table 2 cell, one Analyze (one region pass) per
// cell.
func Table2() []Table2Row {
	pus := Table2PUs()
	ns := Table2Sizes()
	rows := make([]Table2Row, len(ns))
	for i, n := range ns {
		rows[i] = Table2Row{Model: NewRaft(n), PU: pus, SafeAndLive: make([]float64, len(pus))}
		for pi, p := range pus {
			rows[i].SafeAndLive[pi] = MustAnalyze(UniformCrashFleet(n, p), NewRaft(n)).SafeAndLive
		}
	}
	return rows
}

// FormatRow renders probabilities in the paper's percent style.
func FormatRow(ps []float64) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = dist.FormatPercent(p, 2)
	}
	return out
}
