package core

import (
	"fmt"

	"repro/internal/faultcurve"
)

// Node is one server of a deployment: a fault profile plus deployment
// metadata used by the cost analyses.
type Node struct {
	// Name identifies the node in reports.
	Name string
	// Profile is the node's static fault probability over the mission
	// window (collapse a faultcurve.Curve with faultcurve.WindowProfile).
	Profile faultcurve.Profile
	// Domain optionally names the failure domain (rack, zone, rollout
	// cohort) the node belongs to. Empty means the node fails
	// independently. Non-empty values must resolve in the DomainSet passed
	// to AnalyzeDomains; the domain-free engines ignore the field.
	Domain string
	// CostPerHour is the node's price, used by internal/cost.
	CostPerHour float64
}

// Fleet is an ordered collection of nodes; node index is identity.
type Fleet []Node

// UniformCrashFleet builds the homogeneous crash-fault fleets of Table 2:
// n nodes that each fail (crash) with probability p.
func UniformCrashFleet(n int, p float64) Fleet {
	f := make(Fleet, n)
	for i := range f {
		f[i] = Node{Name: fmt.Sprintf("node-%d", i), Profile: faultcurve.Crash(p)}
	}
	return f
}

// UniformByzFleet builds the homogeneous Byzantine-fault fleets of Table 1:
// n nodes that each turn Byzantine with probability p.
func UniformByzFleet(n int, p float64) Fleet {
	f := make(Fleet, n)
	for i := range f {
		f[i] = Node{Name: fmt.Sprintf("node-%d", i), Profile: faultcurve.Byzantine(p)}
	}
	return f
}

// Profiles extracts the fault profiles in node order.
func (f Fleet) Profiles() []faultcurve.Profile {
	out := make([]faultcurve.Profile, len(f))
	for i, n := range f {
		out[i] = n.Profile
	}
	return out
}

// FailProbs extracts total per-node failure probabilities in node order.
func (f Fleet) FailProbs() []float64 {
	return faultcurve.FailProbs(f.Profiles())
}

// Validate checks every node profile.
func (f Fleet) Validate() error {
	for i, n := range f {
		if err := n.Profile.Validate(); err != nil {
			return fmt.Errorf("core: node %d (%s): %w", i, n.Name, err)
		}
	}
	return nil
}
