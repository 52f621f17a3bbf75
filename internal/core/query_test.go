package core

import (
	"testing"
)

// TestQueryReuse: a reused Query resolves, prices, fingerprints and is
// analyzed with no allocation once its buffers have grown, and what it
// reads off its one resolution is what the one-shot entry points compute
// — the fingerprint, the work estimate and the engine's answer — whether
// the engine runs after Fingerprint (the daemon's order, with the
// fingerprint read again after the engine) or before it: the key pieces
// the two share are encoded by whichever comes first.
func TestQueryReuse(t *testing.T) {
	fleet := fpGoldenFleet(48, false)
	domains := fpGoldenZones(fleet, 4)
	var m CountModel = NewRaft(48)
	var q Query
	// e answers the reused Query, ref the same stream through the one-shot
	// entry point: the same history, so the same rest tables and ==.
	e, ref := NewEvaluator(), NewEvaluator()
	run := func(shock float64, engineFirst bool) (Fingerprint, float64, Result) {
		domains[1].ShockProb = shock
		if err := q.Resolve(fleet, m, domains); err != nil {
			t.Fatal(err)
		}
		if engineFirst {
			res := e.AnalyzeQuery(&q)
			return q.Fingerprint(), q.Work(), res
		}
		fp := q.Fingerprint()
		res := e.AnalyzeQuery(&q)
		if again := q.Fingerprint(); again != fp {
			t.Errorf("shock %g: the fingerprint read %x before the engine ran and %x after", shock, fp, again)
		}
		return fp, q.Work(), res
	}
	for i, shock := range []float64{0.001, 0.02, 0.005, 0.02, 0.001} {
		for _, engineFirst := range []bool{false, true} {
			fp, work, res := run(shock, engineFirst)
			wantFP, err := FleetModelDomainsFingerprint(fleet, m, domains)
			if err != nil {
				t.Fatal(err)
			}
			wantRes, err := ref.AnalyzeDomains(fleet, m, domains)
			if err != nil {
				t.Fatal(err)
			}
			if fp != wantFP || work != DomainsWorkEstimate(fleet, m, domains) || res != wantRes {
				t.Errorf("query %d (engine first: %v): the reused Query reads %x, %g, %+v; the one-shot entry points %x, %g, %+v",
					i, engineFirst, fp, work, res, wantFP, DomainsWorkEstimate(fleet, m, domains), wantRes)
			}
		}
	}
	shock := 0.0
	for _, engineFirst := range []bool{false, true} {
		if allocs := testing.AllocsPerRun(50, func() {
			shock += 1e-4
			run(shock, engineFirst)
		}); allocs != 0 {
			t.Errorf("a reused Query (engine first: %v) allocates %v per query, want 0", engineFirst, allocs)
		}
	}
}

// TestQueryResolveSkipsProfiles: Resolve checks the layout, not the
// profiles — its callers validated them — while the one-shot entry points
// still refuse an invalid profile.
func TestQueryResolveSkipsProfiles(t *testing.T) {
	fleet := UniformCrashFleet(3, 0.01)
	fleet[1].Profile.PCrash = 2
	var q Query
	if err := q.Resolve(fleet, NewRaft(3), nil); err != nil {
		t.Fatalf("Resolve checked a profile: %v", err)
	}
	if err := q.Resolve(fleet, NewRaft(4), nil); err == nil {
		t.Fatal("Resolve accepted a model that does not fit the fleet")
	}
	if _, err := FleetModelDomainsFingerprint(fleet, NewRaft(3), nil); err == nil {
		t.Fatal("FleetModelDomainsFingerprint accepted an invalid profile")
	}
	if _, err := NewEvaluator().AnalyzeDomains(fleet, NewRaft(3), nil); err == nil {
		t.Fatal("AnalyzeDomains accepted an invalid profile")
	}
}
